//! Incremental result sinks: each completed point is emitted as it
//! finishes, so an interrupted batch loses nothing but the points still
//! in flight.

use crate::job::{NodeDrops, PointKey, PointRecord};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Consumes completed points one at a time.
///
/// `record` is called exactly once per completed point, serialized by
/// the queue (no internal locking needed), in completion order — which
/// is *not* deterministic across runs; sinks that need a canonical
/// order sort by [`PointKey`] afterwards.
pub trait ResultSink {
    /// Records one completed point.
    fn record(&mut self, rec: &PointRecord);
}

/// Collects records in memory, in completion order.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Everything recorded so far.
    pub records: Vec<PointRecord>,
}

impl ResultSink for MemorySink {
    fn record(&mut self, rec: &PointRecord) {
        self.records.push(rec.clone());
    }
}

/// Streams one JSON object per line to a file, flushing after every
/// record so a killed batch leaves a prefix-consistent file: every line
/// already written is a complete, parseable record (a torn final line
/// from a hard kill is simply ignored on reopen).
///
/// Reopening with [`JsonlSink::open_append`] scans the existing file and
/// exposes the set of already-completed [`PointKey`]s, which callers
/// pass to [`crate::job::run_batch`] as its skip set — that is the whole
/// resume protocol.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    out: BufWriter<File>,
    done: HashSet<PointKey>,
    written: u64,
}

impl JsonlSink {
    /// Opens `path` for appending, scanning any existing content for
    /// completed point keys.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or reading the file.
    pub fn open_append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut done = HashSet::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some(rec) = PointRecord::from_jsonl(line) {
                        done.insert(rec.key);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let out = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        Ok(JsonlSink {
            path,
            out,
            done,
            written: 0,
        })
    }

    /// Keys of every record already in the file (from previous runs) or
    /// written through this sink.
    #[must_use]
    pub fn completed(&self) -> &HashSet<PointKey> {
        &self.done
    }

    /// Records appended by *this* sink (excludes pre-existing lines).
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The file being appended to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a `{"meta": {...}}` footer line carrying batch-level
    /// metadata (`fields` is the inner object's body, e.g.
    /// `"completed": 3, "host_parallelism": 8`). Footer lines are not
    /// records: the resume scan skips them.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn footer(&mut self, fields: &str) -> std::io::Result<()> {
        writeln!(self.out, "{{\"meta\": {{{fields}}}}}")?;
        self.out.flush()
    }
}

impl ResultSink for JsonlSink {
    fn record(&mut self, rec: &PointRecord) {
        // A duplicate key (e.g. caller forgot the skip set) is dropped
        // rather than written twice: the file's invariant is one line
        // per key.
        if !self.done.insert(rec.key) {
            return;
        }
        writeln!(self.out, "{}", rec.to_jsonl()).expect("jsonl write");
        self.out.flush().expect("jsonl flush");
        self.written += 1;
    }
}

impl PointRecord {
    /// This record as one JSONL line. `load_bits` carries the exact load
    /// (`f64::to_bits`) so dedup-resume never depends on decimal
    /// round-trips; `load` is the human-readable rendering of the same
    /// value.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(192);
        s.push_str(&format!(
            "{{\"config\": {}, \"seed\": {}, \"load_bits\": {}, \"load\": {:?}, \"job\": \"{}\"",
            self.key.config,
            self.seed,
            self.key.load_bits,
            self.load,
            json_escape(&self.job),
        ));
        match self.latency {
            Some(l) => s.push_str(&format!(", \"latency\": {l:?}")),
            None => s.push_str(", \"latency\": null"),
        }
        s.push_str(&format!(
            ", \"accepted\": {:?}, \"saturated\": {}, \"cycles\": {}",
            self.accepted, self.saturated, self.cycles
        ));
        for (name, v) in [
            ("p50", self.p50),
            ("p95", self.p95),
            ("p99", self.p99),
            ("flow_p50", self.flow_p50),
            ("flow_p95", self.flow_p95),
            ("flow_p99", self.flow_p99),
        ] {
            match v {
                Some(v) => s.push_str(&format!(", \"{name}\": {v}")),
                None => s.push_str(&format!(", \"{name}\": null")),
            }
        }
        s.push_str(&format!(
            ", \"unreachable_pairs\": {}, \"flows\": {}, \"node_drops\": [",
            self.unreachable_pairs, self.flows
        ));
        for (i, d) in self.node_drops.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"node\": {}, \"flits\": {:?}, \"packets\": {:?}}}",
                d.node, d.flits, d.packets
            ));
        }
        s.push_str("]}");
        s
    }

    /// Parses a line written by [`PointRecord::to_jsonl`]. Returns
    /// `None` for anything else — meta footers, torn lines, blank lines
    /// — which is what makes the resume scan robust to interrupted
    /// writes.
    #[must_use]
    pub fn from_jsonl(line: &str) -> Option<PointRecord> {
        let line = line.trim();
        // Footer lines start with the meta object; record lines always
        // start with the config field (a *prefix* test, so a job merely
        // named "meta" still parses as a record).
        if !line.starts_with('{') || !line.ends_with('}') || line.starts_with("{\"meta\"") {
            return None;
        }
        let config = field_u64(line, "\"config\":")?;
        let seed = field_u64(line, "\"seed\":")?;
        let load_bits = field_u64(line, "\"load_bits\":")?;
        let job = field_str(line, "\"job\":")?;
        Some(PointRecord {
            key: PointKey {
                config,
                seed,
                load_bits,
            },
            job,
            seed,
            load: f64::from_bits(load_bits),
            latency: field_f64(line, "\"latency\":"),
            accepted: field_f64(line, "\"accepted\":")?,
            saturated: field_bool(line, "\"saturated\":")?,
            cycles: field_u64(line, "\"cycles\":")?,
            p50: field_u64(line, "\"p50\":"),
            p95: field_u64(line, "\"p95\":"),
            p99: field_u64(line, "\"p99\":"),
            // Absent in records written before these fields existed;
            // defaults keep every old sink file resumable.
            unreachable_pairs: field_u64(line, "\"unreachable_pairs\":").unwrap_or(0),
            node_drops: parse_node_drops(line),
            flows: field_u64(line, "\"flows\":").unwrap_or(0),
            flow_p50: field_u64(line, "\"flow_p50\":"),
            flow_p95: field_u64(line, "\"flow_p95\":"),
            flow_p99: field_u64(line, "\"flow_p99\":"),
        })
    }
}

/// `s` as the body of a JSON string: `"` and `\` get a backslash and
/// every control character (U+0000–U+001F) becomes a `\u00XX` escape,
/// so the text can sit between quotes on one JSONL line. Record job
/// names and `runq`'s provenance footer are both escaped here.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
}

fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field_raw(line, key)?.parse().ok()
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    field_raw(line, key)?.parse().ok()
}

fn field_bool(line: &str, key: &str) -> Option<bool> {
    match field_raw(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// The payload of an array-valued field, with bracket nesting honored —
/// the flat [`field_raw`] scanner stops at the first comma, which an
/// array's own elements would trip over.
fn field_array<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start().strip_prefix('[')?;
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' if depth == 0 => return Some(&rest[..i]),
            ']' | '}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    None
}

fn parse_node_drops(line: &str) -> Vec<NodeDrops> {
    let Some(body) = field_array(line, "\"node_drops\":") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut rest = body;
    // Entries hold nested arrays but never nested objects, so the next
    // '}' always closes the entry opened by the next '{'.
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        if let Some(d) = parse_drop_entry(&rest[open..=open + close]) {
            out.push(d);
        }
        rest = &rest[open + close + 1..];
    }
    out
}

fn parse_drop_entry(entry: &str) -> Option<NodeDrops> {
    Some(NodeDrops {
        node: u32::try_from(field_u64(entry, "\"node\":")?).ok()?,
        flits: parse_u64_array(field_array(entry, "\"flits\":")?)?,
        packets: parse_u64_array(field_array(entry, "\"packets\":")?)?,
    })
}

fn parse_u64_array(body: &str) -> Option<Vec<u64>> {
    let body = body.trim();
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|t| t.trim().parse().ok()).collect()
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let raw = {
        let start = line.find(key)? + key.len();
        line[start..].trim_start()
    };
    let inner = raw.strip_prefix('"')?;
    let end = inner.find('"')?;
    Some(inner[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64, load: f64) -> PointRecord {
        PointRecord {
            key: PointKey::new(0xABCD, seed, load),
            job: "smoke".into(),
            seed,
            load,
            latency: Some(42.03125),
            accepted: load * 0.99,
            saturated: false,
            cycles: 12_345,
            p50: Some(40),
            p95: Some(90),
            p99: None,
            unreachable_pairs: 0,
            node_drops: Vec::new(),
            flows: 3,
            flow_p50: Some(48),
            flow_p95: Some(96),
            flow_p99: None,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("runqueue-sink-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let rec = sample(7, 0.3);
        let line = rec.to_jsonl();
        let back = PointRecord::from_jsonl(&line).expect("parses");
        assert_eq!(back, rec);
        // And a saturated record with a null latency.
        let sat = PointRecord {
            latency: None,
            saturated: true,
            ..sample(8, 0.9)
        };
        assert_eq!(PointRecord::from_jsonl(&sat.to_jsonl()), Some(sat));
    }

    #[test]
    fn node_drops_and_flow_fields_round_trip() {
        let mut rec = sample(5, 0.55);
        rec.unreachable_pairs = 30;
        rec.flow_p99 = Some(200);
        rec.node_drops = vec![
            NodeDrops {
                node: 4,
                flits: vec![0, 7, 0, 2, 0],
                packets: vec![0, 3, 0, 1, 0],
            },
            NodeDrops {
                node: 11,
                flits: vec![5, 0, 0, 0, 0],
                packets: vec![2, 0, 0, 0, 0],
            },
        ];
        let line = rec.to_jsonl();
        assert_eq!(line.lines().count(), 1, "nested arrays stay one line");
        assert_eq!(PointRecord::from_jsonl(&line), Some(rec));
    }

    #[test]
    fn records_without_the_telemetry_fields_still_parse() {
        // A line written before unreachable_pairs/node_drops/flow_*
        // existed must parse with defaults, or old sink files would stop
        // resuming.
        let old = "{\"config\": 43981, \"seed\": 7, \"load_bits\": 4599075939470750515, \
                   \"load\": 0.3, \"job\": \"smoke\", \"latency\": 42.03125, \
                   \"accepted\": 0.297, \"saturated\": false, \"cycles\": 12345, \
                   \"p50\": 40, \"p95\": 90, \"p99\": null}";
        let rec = PointRecord::from_jsonl(old).expect("parses");
        assert_eq!(rec.key, PointKey::new(0xABCD, 7, 0.3));
        assert_eq!(rec.unreachable_pairs, 0);
        assert!(rec.node_drops.is_empty());
        assert_eq!(rec.flows, 0);
        assert_eq!(rec.flow_p99, None);
    }

    #[test]
    fn garbage_and_footers_do_not_parse() {
        assert_eq!(PointRecord::from_jsonl(""), None);
        assert_eq!(PointRecord::from_jsonl("{\"config\": 3, \"seed\":"), None);
        assert_eq!(
            PointRecord::from_jsonl("{\"meta\": {\"completed\": 3}}"),
            None
        );
        // A torn (truncated) record line must be rejected, not misread.
        let torn = &sample(1, 0.1).to_jsonl()[..40];
        assert_eq!(PointRecord::from_jsonl(torn), None);
    }

    #[test]
    fn append_resume_sees_previous_keys_and_skips_footers() {
        let path = temp_path("resume");
        {
            let mut sink = JsonlSink::open_append(&path).unwrap();
            sink.record(&sample(1, 0.1));
            sink.record(&sample(1, 0.2));
            sink.footer("\"completed\": 2").unwrap();
        }
        let sink = JsonlSink::open_append(&path).unwrap();
        assert_eq!(sink.completed().len(), 2);
        assert!(sink.completed().contains(&PointKey::new(0xABCD, 1, 0.2)));
        assert_eq!(sink.written(), 0, "pre-existing lines are not ours");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_keys_are_written_once() {
        let path = temp_path("dedup");
        {
            let mut sink = JsonlSink::open_append(&path).unwrap();
            sink.record(&sample(3, 0.5));
            sink.record(&sample(3, 0.5));
            assert_eq!(sink.written(), 1);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::default();
        sink.record(&sample(1, 0.1));
        sink.record(&sample(2, 0.2));
        assert_eq!(sink.records.len(), 2);
        assert_eq!(sink.records[1].seed, 2);
    }

    #[test]
    fn a_job_literally_named_meta_still_resumes() {
        // Footer detection is by line *prefix*, not substring: a record
        // whose job name is "meta" must round-trip and be seen by the
        // resume scan, or reruns would duplicate its line forever.
        let mut rec = sample(11, 0.6);
        rec.job = "meta".into();
        assert_eq!(PointRecord::from_jsonl(&rec.to_jsonl()), Some(rec.clone()));
        let path = temp_path("meta-name");
        {
            let mut sink = JsonlSink::open_append(&path).unwrap();
            sink.record(&rec);
            sink.footer("\"completed\": 1").unwrap();
        }
        let sink = JsonlSink::open_append(&path).unwrap();
        assert!(sink.completed().contains(&rec.key));
        assert_eq!(sink.completed().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        assert_eq!(json_escape("plain text é"), "plain text é");
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("t\tn\nr\r"), r"t\u0009n\u000ar\u000d");
        assert_eq!(json_escape("\u{0}\u{1f} \u{7f}"), "\\u0000\\u001f \u{7f}");
    }

    #[test]
    fn job_names_with_control_characters_stay_one_json_line() {
        let mut rec = sample(10, 0.45);
        rec.job = "a\tb\nc".into();
        let line = rec.to_jsonl();
        assert_eq!(line.lines().count(), 1);
        assert!(
            !line.chars().any(|c| c < ' '),
            "raw control character in {line:?}"
        );
        assert!(line.contains(r#""job": "a\u0009b\u000ac""#), "{line}");
        let back = PointRecord::from_jsonl(&line).expect("parses");
        assert_eq!(back.key, rec.key, "the resume key survives");
    }

    #[test]
    fn job_names_with_quotes_stay_one_line() {
        let mut rec = sample(9, 0.4);
        rec.job = "we\"ird".into();
        let line = rec.to_jsonl();
        assert_eq!(line.lines().count(), 1);
        // The parse recovers *a* name (escaping is one-way by design);
        // the key — what resume relies on — survives exactly.
        let back = PointRecord::from_jsonl(&line).expect("parses");
        assert_eq!(back.key, rec.key);
    }
}
