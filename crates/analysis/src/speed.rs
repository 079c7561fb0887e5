//! Simulation-speed comparison (§4 of the paper).
//!
//! The paper reports simulation throughput in kilo-cycles per wall-clock
//! second: 0.47 Kcycles/s for the pin-accurate RTL model, 166 Kcycles/s for
//! the transaction-level model (353× faster), and 456 Kcycles/s for the TLM
//! driven by a single master. [`SpeedBenchRecord`] holds one measurement
//! per model configuration and derives the same three numbers, the
//! speed-up and the printed §4 table from them.

use std::fmt;
use std::fmt::Write as _;

use crate::jsonfmt::{escape_json, json_f64};
use crate::model::SyncStats;

/// The paper's Table 2 reference numbers (Kcycles/s on the authors' 2005
/// setup), kept with the report so every emitted benchmark artifact can
/// carry the comparison target.
pub mod paper_reference {
    /// Pin-accurate RTL model throughput.
    pub const RTL_KCYCLES_PER_SEC: f64 = 0.47;
    /// Transaction-level model throughput (full master set).
    pub const TLM_KCYCLES_PER_SEC: f64 = 166.0;
    /// Transaction-level model with a single master.
    pub const TLM_SINGLE_MASTER_KCYCLES_PER_SEC: f64 = 456.0;
    /// Headline TL/RTL speed-up factor.
    pub const SPEEDUP: f64 = 353.0;
}

/// Canonical model names used by the speed harness. The base names come
/// from [`crate::report::ModelKind::id`] (what `BusModel::model_name`
/// reports); configuration variants append a suffix.
pub mod model_names {
    /// The pin-accurate RTL reference.
    pub const RTL: &str = "rtl";
    /// The transaction-level model, full master set.
    pub const TLM: &str = "tlm";
    /// The transaction-level model restricted to a single master.
    pub const TLM_SINGLE_MASTER: &str = "tlm-single-master";
    /// The transaction-level model with §3.6 profiling detached.
    pub const TLM_DETACHED: &str = "tlm-detached";
    /// The loosely-timed model.
    pub const LT: &str = "lt";
    /// The transaction-level model scaled to 32 masters.
    pub const TLM_32_MASTER: &str = "tlm-32-master";
    /// The transaction-level model scaled to 64 masters.
    pub const TLM_64_MASTER: &str = "tlm-64-master";
    /// The multi-bus platform with transaction-level shards (default
    /// 2-shard partition of the speed workload).
    pub const SHARDED_TLM: &str = "sharded-tlm";
    /// The multi-bus platform with loosely-timed shards.
    pub const SHARDED_LT: &str = "sharded-lt";
    /// Four transaction-level shards of four masters each, bridge-light.
    pub const SHARDED_TLM_4X4: &str = "sharded-tlm-4x4";
    /// Four transaction-level shards of four masters each, bridge-heavy.
    pub const SHARDED_TLM_4X4_BRIDGE: &str = "sharded-tlm-4x4-bridge";
    /// Four loosely-timed shards of sixteen masters each, bridge-light.
    pub const SHARDED_LT_4X16: &str = "sharded-lt-4x16";
    /// The 4×4 bridge-light transaction-level platform under the
    /// adaptive-lookahead scheduler (same workload as
    /// [`SHARDED_TLM_4X4`], so the pair isolates the synchronization
    /// cost).
    pub const SHARDED_TLM_LA_4X4: &str = "sharded-tlm-la-4x4";
    /// The 4×16 bridge-light loosely-timed platform under the
    /// adaptive-lookahead scheduler.
    pub const SHARDED_LT_4X16_LA: &str = "sharded-lt-4x16-la";
    /// The heterogeneous multi-bus platform (2 `tlm` + 2 `lt` shards).
    pub const SHARDED_HET: &str = "sharded-het";
    /// Two transaction-level shards with non-posted read crossings.
    pub const SHARDED_TLM_READS: &str = "sharded-tlm-reads";
    /// Two transaction-level shards with a skewed (non-uniform) window
    /// map: shard 0 owns three windows out of four.
    pub const SHARDED_SKEW: &str = "sharded-skew";
    /// Four non-posted-read transaction-level shards of four masters
    /// each over the read-heavy cross-shard mix.
    pub const SHARDED_TLM_READS_4X4: &str = "sharded-tlm-reads-4x4";
}

/// One measured model configuration inside a [`SpeedBenchRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeasurement {
    /// Model name as reported by `BusModel::model_name` (plus a variant
    /// suffix for derived configurations, e.g. `"tlm-single-master"`).
    pub name: String,
    /// Simulated bus cycles of the measured run.
    pub cycles: u64,
    /// Measured throughput in kilo-cycles per second (best of N runs).
    pub kcycles_per_sec: f64,
    /// Synchronization-scheduler statistics of the kept (fastest) run,
    /// for models with quantum barriers. `None` on single-bus models.
    pub sync: Option<SyncStats>,
    /// Throughput cost of running with tracing enabled, in percent of
    /// the plain throughput. Estimated from paired repetitions (a traced
    /// twin runs next to every plain run and the best traced/plain ratio
    /// wins, clamped at zero), so environmental drift cancels instead of
    /// accumulating across independently-taken bests. An upper bound on
    /// the disabled-path cost — the disabled path is a strict subset of
    /// the enabled one. `None` when the harness did not take traced
    /// measurements.
    pub trace_overhead_pct: Option<f64>,
}

/// A machine-readable record of one speed measurement, emitted by the
/// benchmark harness as `BENCH_speed.json` so every PR leaves a comparable
/// perf data point.
///
/// The record is a list of named [`ModelMeasurement`]s, so a new backend
/// measured by the harness appears in the artifact without schema edits.
/// The flat `rtl_*` / `tlm_*` keys of schema v1 are still emitted (derived
/// from the list) so cross-PR comparisons keep working.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedBenchRecord {
    /// Free-form workload label, e.g. `"pattern_a"`.
    pub workload: String,
    /// Transactions generated per master.
    pub transactions_per_master: usize,
    /// Workload seed.
    pub seed: u64,
    /// Logical cores of the measuring host (`available_parallelism`).
    pub host_cores: usize,
    /// One entry per measured model configuration.
    pub models: Vec<ModelMeasurement>,
}

impl SpeedBenchRecord {
    /// The measurement with the given model name, if it was run.
    #[must_use]
    pub fn model(&self, name: &str) -> Option<&ModelMeasurement> {
        self.models.iter().find(|m| m.name == name)
    }

    /// Throughput of the named model, or NaN when it was not measured
    /// (rendered as `null` in JSON and omitted from tables).
    fn kcycles_per_sec(&self, name: &str) -> f64 {
        self.model(name).map_or(f64::NAN, |m| m.kcycles_per_sec)
    }

    /// Speed-up of the transaction-level model over the RTL reference —
    /// the paper's headline 353× figure. NaN when either was not measured.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let rtl = self.kcycles_per_sec(model_names::RTL);
        if rtl <= 0.0 {
            return f64::INFINITY;
        }
        self.kcycles_per_sec(model_names::TLM) / rtl
    }

    /// Renders the §4 speed table. Models that were filtered out of the
    /// measurement (non-finite throughput) are omitted from the table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let rtl = self.kcycles_per_sec(model_names::RTL);
        let tlm = self.kcycles_per_sec(model_names::TLM);
        let mut out = String::new();
        let _ = writeln!(out, "{:<28} {:>16}", "model", "Kcycles/s");
        if rtl.is_finite() {
            let _ = writeln!(out, "{:<28} {:>16.2}", "pin-accurate RTL", rtl);
        }
        if tlm.is_finite() {
            let _ = writeln!(out, "{:<28} {:>16.2}", "transaction-level", tlm);
        }
        if let Some(single) = self.model(model_names::TLM_SINGLE_MASTER) {
            let _ = writeln!(
                out,
                "{:<28} {:>16.2}",
                "transaction-level (1 master)", single.kcycles_per_sec
            );
        }
        if rtl.is_finite() && tlm.is_finite() {
            let _ = writeln!(out, "{:<28} {:>15.1}x", "TL / RTL speed-up", self.speedup());
        }
        out
    }

    /// Serializes the record as a self-contained JSON object (no external
    /// serializer available in this build environment; the format is flat
    /// and stable on purpose). Every v1 key is preserved; v2 adds the
    /// per-model `models` array; v3 drops the sharded rows'
    /// `threaded`/`spin_sync` keys (there is one schedule).
    #[must_use]
    pub fn to_json(&self) -> String {
        let cycles_of = |name: &str| self.model(name).map(|m| m.cycles);
        let json_u64 =
            |value: Option<u64>| value.map_or_else(|| "null".to_owned(), |v| v.to_string());
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ahbplus-bench-speed/v3\",");
        let _ = writeln!(out, "  \"workload\": \"{}\",", escape_json(&self.workload));
        let _ = writeln!(
            out,
            "  \"transactions_per_master\": {},",
            self.transactions_per_master
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"host_cores\": {},", self.host_cores);
        let _ = writeln!(
            out,
            "  \"rtl_cycles\": {},",
            json_u64(cycles_of(model_names::RTL))
        );
        let _ = writeln!(
            out,
            "  \"tlm_cycles\": {},",
            json_u64(cycles_of(model_names::TLM))
        );
        for (key, name) in [
            ("rtl", model_names::RTL),
            ("tlm", model_names::TLM),
            ("tlm_single_master", model_names::TLM_SINGLE_MASTER),
            ("tlm_detached", model_names::TLM_DETACHED),
            ("lt", model_names::LT),
        ] {
            let _ = writeln!(
                out,
                "  \"{key}_kcycles_per_sec\": {},",
                json_f64(self.kcycles_per_sec(name))
            );
        }
        let _ = writeln!(out, "  \"speedup\": {},", json_f64(self.speedup()));
        let _ = writeln!(out, "  \"models\": [");
        for (index, model) in self.models.iter().enumerate() {
            let comma = if index + 1 < self.models.len() {
                ","
            } else {
                ""
            };
            let sync = model.sync.map_or_else(String::new, |s| {
                format!(
                    ", \"sync_barriers\": {}, \"sync_stretched\": {}, \"sync_cycles_gained\": {}, \"mean_quantum\": {}",
                    s.barriers,
                    s.stretched,
                    s.cycles_gained,
                    json_f64(s.mean_quantum)
                )
            });
            let trace = model.trace_overhead_pct.map_or_else(String::new, |pct| {
                format!(", \"trace_overhead_pct\": {}", json_f64(pct))
            });
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"cycles\": {}, \"kcycles_per_sec\": {}{sync}{trace}}}{comma}",
                escape_json(&model.name),
                model.cycles,
                json_f64(model.kcycles_per_sec)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"paper_reference\": {{");
        let _ = writeln!(
            out,
            "    \"rtl_kcycles_per_sec\": {},",
            json_f64(paper_reference::RTL_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"tlm_kcycles_per_sec\": {},",
            json_f64(paper_reference::TLM_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"tlm_single_master_kcycles_per_sec\": {},",
            json_f64(paper_reference::TLM_SINGLE_MASTER_KCYCLES_PER_SEC)
        );
        let _ = writeln!(
            out,
            "    \"speedup\": {}",
            json_f64(paper_reference::SPEEDUP)
        );
        let _ = writeln!(out, "  }}");
        out.push('}');
        out.push('\n');
        out
    }
}

impl fmt::Display for SpeedBenchRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RTL {:.2} Kc/s, TL {:.2} Kc/s ({:.0}x)",
            self.kcycles_per_sec(model_names::RTL),
            self.kcycles_per_sec(model_names::TLM),
            self.speedup()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(name: &str, cycles: u64, kcycles_per_sec: f64) -> ModelMeasurement {
        ModelMeasurement {
            name: name.to_owned(),
            cycles,
            kcycles_per_sec,
            sync: None,
            trace_overhead_pct: None,
        }
    }

    fn record(models: Vec<ModelMeasurement>) -> SpeedBenchRecord {
        SpeedBenchRecord {
            workload: "pattern_a".to_owned(),
            transactions_per_master: 100,
            seed: 1,
            host_cores: 2,
            models,
        }
    }

    #[test]
    fn speedup_matches_throughput_ratio() {
        let record = record(vec![
            measurement(model_names::RTL, 100_000, 10.0),
            measurement(model_names::TLM, 100_000, 2_000.0),
        ]);
        assert!((record.speedup() - 200.0).abs() < 1e-9);
        assert!(record.model(model_names::TLM_SINGLE_MASTER).is_none());
        assert!(!record.format_table().contains("1 master"));
    }

    #[test]
    fn single_master_run_is_included_when_given() {
        let record = record(vec![
            measurement(model_names::RTL, 10_000, 10.0),
            measurement(model_names::TLM, 10_000, 1_000.0),
            measurement(model_names::TLM_SINGLE_MASTER, 10_000, 2_000.0),
        ]);
        let table = record.format_table();
        assert!(table.contains("1 master"));
        assert!(table.contains("speed-up"));
        assert_eq!(
            table,
            "model                               Kcycles/s\n\
             pin-accurate RTL                        10.00\n\
             transaction-level                     1000.00\n\
             transaction-level (1 master)          2000.00\n\
             TL / RTL speed-up                      100.0x\n"
        );
    }

    #[test]
    fn degenerate_rtl_speed_yields_infinite_speedup() {
        let record = record(vec![
            measurement(model_names::RTL, 0, 0.0),
            measurement(model_names::TLM, 10_000, 100.0),
        ]);
        assert!(record.speedup().is_infinite());
        assert!(record.to_json().contains("\"speedup\": null,"));
    }

    #[test]
    fn trace_overhead_extends_the_per_model_json_line() {
        let mut traced = measurement(model_names::TLM, 50_000, 1_000.0);
        traced.trace_overhead_pct = Some(1.25);
        let record = record(vec![traced, measurement(model_names::LT, 50_000, 2_000.0)]);
        let json = record.to_json();
        assert!(json.contains("\"kcycles_per_sec\": 1000, \"trace_overhead_pct\": 1.25}"));
        // Models without a traced measurement keep the bare line.
        assert!(json.contains("{\"name\": \"lt\", \"cycles\": 50000, \"kcycles_per_sec\": 2000}"));
    }

    #[test]
    fn sync_stats_extend_the_per_model_json_line() {
        let mut sharded = measurement(model_names::SHARDED_TLM_LA_4X4, 40_000, 5_000.0);
        sharded.sync = Some(SyncStats {
            barriers: 100,
            stretched: 25,
            cycles_gained: 12_000,
            mean_quantum: 400.0,
        });
        let record = record(vec![
            measurement(model_names::TLM, 50_000, 1_000.0),
            sharded,
        ]);
        let json = record.to_json();
        // Single-bus lines are unchanged; sharded lines append the
        // scheduler counters after the throughput, and nothing else.
        assert!(json.contains("{\"name\": \"tlm\", \"cycles\": 50000, \"kcycles_per_sec\": 1000}"));
        assert!(json.contains(
            "\"kcycles_per_sec\": 5000, \"sync_barriers\": 100, \"sync_stretched\": 25, \
             \"sync_cycles_gained\": 12000, \"mean_quantum\": 400}"
        ));
        assert!(!json.contains("threaded") && !json.contains("spin_sync"));
    }

    #[test]
    fn bench_record_serializes_to_stable_json() {
        let record = SpeedBenchRecord {
            workload: "pattern_a".to_owned(),
            transactions_per_master: 1_000,
            seed: 2005,
            host_cores: 4,
            models: vec![
                measurement(model_names::RTL, 123_456, 250.5),
                measurement(model_names::TLM, 123_400, 60_000.0),
                measurement(model_names::TLM_SINGLE_MASTER, 60_000, 90_000.0),
                measurement(model_names::TLM_DETACHED, 123_400, 70_000.0),
                measurement(model_names::LT, 123_400, 150_000.0),
            ],
        };
        let json = record.to_json();
        assert!(json.contains("\"schema\": \"ahbplus-bench-speed/v3\""));
        assert!(json.contains("\"workload\": \"pattern_a\""));
        assert!(json.contains("\"host_cores\": 4,"));
        // Every v1 flat key is still emitted, derived from the model list.
        for line in [
            "\"transactions_per_master\": 1000,",
            "\"seed\": 2005,",
            "\"rtl_cycles\": 123456,",
            "\"tlm_cycles\": 123400,",
            "\"rtl_kcycles_per_sec\": 250.5,",
            "\"tlm_kcycles_per_sec\": 60000,",
            "\"tlm_single_master_kcycles_per_sec\": 90000,",
            "\"tlm_detached_kcycles_per_sec\": 70000,",
            "\"lt_kcycles_per_sec\": 150000,",
            "\"speedup\": 239.52095808383234,",
        ] {
            assert!(json.contains(&format!("  {line}\n")), "missing {line}");
        }
        assert!(json.contains("\"paper_reference\""));
        // v2 per-model array carries every measured configuration by name.
        assert!(json.contains("{\"name\": \"tlm-single-master\", \"cycles\": 60000"));
    }

    #[test]
    fn filtered_record_degrades_missing_models_to_null() {
        // A harness run filtered to the TLM only must still emit valid
        // JSON: every key about unmeasured models becomes null.
        let record = record(vec![measurement(model_names::TLM, 50_000, 1_000.0)]);
        let json = record.to_json();
        assert!(json.contains("\"rtl_cycles\": null"));
        assert!(json.contains("\"rtl_kcycles_per_sec\": null"));
        assert!(json.contains("\"tlm_kcycles_per_sec\": 1000"));
        assert!(json.contains("\"tlm_single_master_kcycles_per_sec\": null"));
        assert!(json.contains("\"speedup\": null"));
        assert!(record.speedup().is_nan());
        // The table omits unmeasured models instead of printing NaN.
        let table = record.format_table();
        assert!(!table.contains("NaN"));
        assert!(table.contains("transaction-level"));
        assert!(!table.contains("pin-accurate"));
        assert!(!table.contains("speed-up"));
    }

    #[test]
    fn display_is_compact() {
        let record = record(vec![
            measurement(model_names::RTL, 1_000, 0.5),
            measurement(model_names::TLM, 1_000, 170.0),
        ]);
        let text = record.to_string();
        assert!(text.contains("RTL 0.50"));
        assert!(text.contains("340x"));
    }
}
