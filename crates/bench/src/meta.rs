//! Shared provenance plumbing for the machine-written result files
//! (`runq` JSONL footers, perfbench's host descriptor).
//!
//! Every result file in this repository records the same three
//! provenance facts — when it was generated, the exact command that
//! generated it, and the host's parallelism (so single-core numbers are
//! recognizable as overhead measurements rather than scaling claims).
//! This module is the single implementation of those facts.

use std::time::{SystemTime, UNIX_EPOCH};

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (no chrono:
/// Howard Hinnant's civil-from-days algorithm over the Unix epoch).
#[must_use]
pub fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The host's available parallelism (1 if unknowable).
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `cargo run` invocation that reproduces the current process,
/// reconstructed from the *actual* argv (a fixed string silently drifts
/// from the flags that produced the data). `bin` names the binary;
/// arguments are appended verbatim.
#[must_use]
pub fn generator_line(bin: &str) -> String {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut line = format!("cargo run --release -p bench --bin {bin}");
    if !argv.is_empty() {
        line.push_str(" -- ");
        line.push_str(&argv.join(" "));
    }
    line
}

/// The shared provenance fields as a JSON-object body (no braces):
/// `"recorded": ..., "generator": ..., "host_parallelism": ...`, with
/// the generator line (verbatim argv) escaped as a JSON string.
#[must_use]
pub fn provenance_fields(bin: &str) -> String {
    format!(
        "\"recorded\": \"{}\", \"generator\": \"{}\", \"host_parallelism\": {}",
        today_utc(),
        runqueue::json_escape(&generator_line(bin)),
        host_parallelism()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_is_plausible_iso() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        let year: i32 = d[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "{d}");
    }

    #[test]
    fn generator_line_names_the_binary() {
        let line = generator_line("runq");
        assert!(line.starts_with("cargo run --release -p bench --bin runq"));
    }

    #[test]
    fn provenance_fields_carry_all_three_facts() {
        let f = provenance_fields("runq");
        assert!(f.contains("\"recorded\":"));
        assert!(f.contains("--bin runq"));
        assert!(f.contains("\"host_parallelism\":"));
        assert!(host_parallelism() >= 1);
    }
}
