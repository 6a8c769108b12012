//! Host descriptor and provenance carried by every result.

use crate::json;
use repro_bench::meta;
use std::fs;

/// What the numbers were measured on, and with what.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the OS offers this process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// L2 cache size of cpu0, as `/sys` spells it.
    pub l2: String,
    /// L3 cache size of cpu0, as `/sys` spells it.
    pub l3: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit of the checkout, if it is a git checkout.
    pub commit: String,
    /// Date the result was recorded (UTC).
    pub recorded: String,
}

impl Host {
    /// Describes this host.
    pub fn describe() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Host {
            nproc: meta::host_parallelism(),
            cpu,
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: rustc_version(),
            commit: git_commit(),
            recorded: meta::today_utc(),
        }
    }

    /// The descriptor as JSON object members (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\": {}, \"cpu\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}, \"recorded\": {}",
            self.nproc,
            json::string(&self.cpu),
            json::string(&self.l2),
            json::string(&self.l3),
            json::string(&self.rustc),
            json::string(&self.commit),
            json::string(&self.recorded)
        )
    }
}

fn unknown() -> String {
    "unknown".into()
}

/// Size of cpu0's unified or data cache at `level`.
fn cache_size(level: u32) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
            read("level").trim() == level.to_string() && read("type").trim() != "Instruction"
        })
        .and_then(|dir| fs::read_to_string(format!("{dir}/size")).ok())
        .map_or_else(unknown, |s| s.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(unknown, |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The commit `.git/HEAD` names in the working directory, read directly
/// (no `git` process, which could find an enclosing repository).
fn git_commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    fs::read_to_string(format!(".git/{name}"))
        .ok()
        .or_else(|| {
            fs::read_to_string(".git/packed-refs").ok().and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .map_or_else(unknown, |c| c.trim().to_string())
}
