//! Sample statistics, the server's `STATS` reply, and the run's
//! reproducibility metadata.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Length of the blocks a tail figure is taken over.
pub const BLOCK_NS: u64 = 1_000_000_000;

/// The median over whole one-second blocks of each block's `q`-quantile.
/// `samples` are `(time_ns, value)`; a block runs `BLOCK_NS` from
/// `start_ns`, and the last, partial block is left out when there are
/// whole ones. A stall that fills fewer than half of the blocks does
/// not move the figure; the whole-phase quantile sits beside it in `meta`.
pub fn block_quantile(samples: &[(u64, f64)], start_ns: u64, end_ns: u64, q: f64) -> f64 {
    let whole = (end_ns.saturating_sub(start_ns) / BLOCK_NS).max(1);
    let mut blocks = vec![Vec::new(); whole as usize];
    for &(t, v) in samples {
        let b = t.saturating_sub(start_ns) / BLOCK_NS;
        if let Some(block) = blocks.get_mut(b as usize) {
            block.push(v);
        }
    }
    let figures: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(b, q))
        .collect();
    median(&figures)
}

pub fn micros(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reads numbers out of the `STATS` JSON reply. The server writes the
/// document by hand with unique key names per section, so a key's
/// first occurrence is the value.
pub struct Stats(pub String);

impl Stats {
    pub fn num(&self, key: &str) -> f64 {
        let doc = &self.0;
        let needle = format!("\"{key}\":");
        doc.find(&needle)
            .and_then(|at| doc.get(at + needle.len()..))
            .map(|rest| {
                rest.trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect::<String>()
            })
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0)
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a-64 over every file under `crates/` plus the lock file, in
/// path order: identifies the measured code when the checkout is not
/// a git repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The filesystem type and mount point holding `dir`.
fn filesystem_of(dir: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(dir) else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mnt)
                .then(|| (mnt.len(), format!("{fstype} on {mnt}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, s)| s)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reproducibility metadata as a JSON object.
pub fn metadata(fields: &[(&str, String)], data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let mut all: Vec<(&str, String)> = vec![
        (
            "commit",
            json_str(
                &command_line("git", &["rev-parse", "HEAD"])
                    .unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
            ),
        ),
        ("source_fnv64", json_str(&source_fingerprint())),
        ("nproc", nproc.to_string()),
        ("kernel", json_str(&kernel)),
        (
            "rustc",
            json_str(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())),
        ),
        ("data_dir_filesystem", json_str(&filesystem_of(data_dir))),
    ];
    all.extend(fields.iter().cloned());
    let body: Vec<String> = all
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
