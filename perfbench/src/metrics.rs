//! The metric catalogue and the result printer.
//!
//! Every name here appears in `BENCHMARK.json` with the same unit; the smoke
//! test holds the two in step. A run prints one human-readable line per
//! metric and ends with one JSON object on the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Measured with tracing off; every workload reports every one of them.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("peak_rss_mb", "MiB"),
    def("eval_ms_mean", "ms"),
    def("eval_ms_tail", "ms"),
    def("query_ms_mean", "ms"),
    def("query_ms_tail", "ms"),
    def("update_ms_mean", "ms"),
    def("update_ms_tail", "ms"),
    def("retract_ms_mean", "ms"),
    def("retract_ms_tail", "ms"),
    def("ops_per_s", "1/s"),
    def("recovery_s", "s"),
];

/// Measured by the traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("parser.parse_ms", "ms"),
    def("session.open_ms", "ms"),
    def("analysis.fused_chains", "count"),
    def("sequence.load_ms", "ms"),
    def("sequence.domain_members", "count"),
    def("sequence.members_per_base_symbol", "ratio"),
    def("eval.run_ms", "ms"),
    def("eval.resume_ms", "ms"),
    def("eval.rounds", "count"),
    def("eval.derivations", "count"),
    def("eval.admit_ratio", "ratio"),
    def("eval.derivations_per_s", "1/s"),
    def("eval.parallel_gain", "ratio"),
    def("transducer.calls", "count"),
    def("transducer.steps", "count"),
    def("transducer.steps_per_call", "ratio"),
    def("transducer.exec_ms", "ms"),
    def("magic.transform_ms", "ms"),
    def("session.snapshot_ms", "ms"),
    def("dred.derivations_per_retract", "count"),
    def("dred.facts_removed_per_retract", "count"),
    def("wal.records", "count"),
    def("wal.bytes_per_user_byte", "ratio"),
    def("wal.read_ms", "ms"),
    def("snapshot.checkpoints", "count"),
    def("snapshot.checkpoint_ms", "ms"),
    def("snapshot.read_ms", "ms"),
    def("snapshot.bytes_per_fact", "B"),
    def("trace.overhead_pct", "%"),
    def("bench.self_ms", "ms"),
    def("parser.self_ms", "ms"),
    def("session.self_ms", "ms"),
    def("analysis.self_ms", "ms"),
    def("sequence.self_ms", "ms"),
    def("eval.self_ms", "ms"),
    def("transducer.self_ms", "ms"),
    def("magic.self_ms", "ms"),
    def("dred.self_ms", "ms"),
    def("wal.self_ms", "ms"),
    def("snapshot.self_ms", "ms"),
];

/// One run's outcome: the operations checked against the oracle and the
/// metric values, each with an optional note (sample count, percentile).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, String::new()));
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.values.insert(name, (value, note));
    }

    /// Count one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// The human-readable lines and the final JSON line for the chosen
    /// catalogue. Fails when a metric of the catalogue was not measured.
    pub fn render(&self, catalogue: &[Def]) -> Result<String, String> {
        let mut out = String::new();
        let mut json = String::new();
        for (i, d) in catalogue.iter().enumerate() {
            let (value, note) = self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not a number: {value}", d.name));
            }
            let _ = writeln!(out, "{} = {value} {}{note}", d.name, d.unit);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "error_rate = {error_rate} ratio ({} failed of {} checked operations)",
            self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "failure: {f}");
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        Ok(out)
    }
}
