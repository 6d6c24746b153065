//! What a run prints: a human-readable report (environment, every metric
//! with its unit, sample count and quartiles, every check verdict) and,
//! as the last line, the one JSON object the benchmark contract asks for.

use crate::stats;
use std::fmt::Write as _;
use std::path::Path;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The repeats `value` summarizes (empty for counts and ratios).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`.
    pub fn median(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric::percentile(name, unit, samples, 0.5)
    }

    /// The interquartile mean of `samples` (see `stats::midmean`).
    pub fn midmean(name: &str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: stats::midmean(&samples),
            samples,
        }
    }

    /// The `q` percentile of `samples`.
    pub fn percentile(name: &str, unit: &'static str, samples: Vec<f64>, q: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: stats::percentile(&samples, q),
            samples,
        }
    }

    fn describe(&self) -> String {
        let mut s = format!("{:<34} {:>14} {}", self.name, fmt(self.value), self.unit);
        if !self.samples.is_empty() {
            let (q1, q3) = stats::quartiles(&self.samples);
            let _ = write!(
                s,
                "  (n={}, q1={}, median={}, q3={})",
                self.samples.len(),
                fmt(q1),
                fmt(stats::median(&self.samples)),
                fmt(q3)
            );
        }
        s
    }
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The contract metrics, exactly the names `BENCHMARK.json` lists for
    /// this mode.
    pub metrics: Vec<Metric>,
    /// Extra numbers under the names the workload's definition uses
    /// (printed, not part of the JSON line).
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Free-form report lines (tables, inputs, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one operation: its exit status and output checks.
    pub fn op(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("check {name}: FAILED: {e}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for m in self.detail.iter().chain(&self.metrics) {
            println!("metric {}", m.describe());
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "metric {:<34} {:>14} ratio  ({} failed of {} attempted)",
            "failed_frac",
            fmt(frac),
            self.failed,
            self.attempted
        );
        for line in self.failures.iter().take(20) {
            println!("{line}");
        }
        println!(
            "verdict: {} ({} operations checked, {} failed)",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The environment the numbers were taken in.
pub fn environment(root: &Path) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        format!("env nproc: {nproc}"),
        format!("env cpu: {cpu}"),
        format!("env rustc: {rustc}"),
        format!("env commit: {}", commit(root)),
        format!("env source digest: {:016x}", source_digest(root)),
        "env build profile: release (omc and this harness)".to_string(),
    ]
}

/// The checked-out commit, when the checkout is a git work tree.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout; see source digest)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// FNV-1a over the Rust sources and manifests `omc` is built from, so two
/// reports name the same code even without git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, out);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.strip_prefix(root).unwrap_or(f).to_string_lossy().bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    om_codegen::fnv1a64(&bytes)
}
