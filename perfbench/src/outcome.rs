//! What one run found: operations attempted and failed, named output
//! checks, and metrics with their sample counts and spreads.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: u64,
    /// Within-run spread of those samples: interquartile range over
    /// median (0 when there is one sample).
    pub spread: f64,
    /// What exactly was measured (percentile used, source).
    pub note: String,
}

impl Metric {
    /// A metric from one observation.
    pub fn one(value: f64, unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            value,
            unit,
            n: 1,
            spread: 0.0,
            note: note.into(),
        }
    }

    /// The mean of a sample.
    pub fn mean_of(samples: &[f64], unit: &'static str, note: impl Into<String>) -> Self {
        Self {
            value: stats::mean(samples),
            unit,
            n: samples.len() as u64,
            spread: stats::rel_iqr(samples),
            note: note.into(),
        }
    }

    /// A count (exact; no spread).
    pub fn count(value: u64, note: impl Into<String>) -> Self {
        Self::one(value as f64, "count", note)
    }
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed, were shed, or failed an output check.
    pub failed: u64,
    /// Named checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics, by name.
    pub e2e: BTreeMap<String, Metric>,
    /// The workload's end-to-end figures under their own names
    /// (printed, not gated).
    pub named: Vec<(String, Metric)>,
    /// Per-layer metrics, by name.
    pub layers: BTreeMap<String, Metric>,
    /// Free-form report lines (attribution tables, drift).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a whole-run output check as one attempted operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records a per-operation check; only failures are listed by name.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.checks.iter().filter(|c| !c.1).count() < 20 {
                self.checks.push((what(), false, String::new()));
            }
        }
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, m: Metric) {
        self.e2e.insert(name.to_string(), m);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, m: Metric) {
        self.layers.insert(name.to_string(), m);
    }

    /// Whether a per-layer metric is already measured.
    pub fn has_layer(&self, name: &str) -> bool {
        self.layers.contains_key(name)
    }

    /// Adds a printed, per-workload named figure.
    pub fn named(&mut self, name: &str, m: Metric) {
        self.named.push((name.to_string(), m));
    }

    /// Sets `op_ms_p50` and `op_ms_tail` from per-operation times.
    pub fn op_latency(&mut self, s: &Summary, what: &str) {
        self.e2e(
            "op_ms_p50",
            Metric {
                value: s.p50,
                unit: "ms",
                n: s.n as u64,
                spread: s.spread,
                note: format!("p50 of {what}"),
            },
        );
        self.e2e(
            "op_ms_tail",
            Metric {
                value: s.tail,
                unit: "ms",
                n: s.n as u64,
                spread: s.spread,
                note: format!("p{:.2} of {what}", s.tail_pct),
            },
        );
    }
}

/// A summary's p50 and tail as two printed metrics named `<base>_p50`
/// and `<base>_p<want>`.
pub fn named_pair(out: &mut Outcome, base: &str, want: f64, s: &Summary) {
    out.named(
        &format!("{base}_p50"),
        Metric {
            value: s.p50,
            unit: "ms",
            n: s.n as u64,
            spread: s.spread,
            note: "p50".into(),
        },
    );
    out.named(
        &format!("{base}_p{want:.0}"),
        Metric {
            value: s.tail,
            unit: "ms",
            n: s.n as u64,
            spread: s.spread,
            note: format!(
                "p{:.2} (highest with >=10 beyond, up to p{want:.0})",
                s.tail_pct
            ),
        },
    );
}
