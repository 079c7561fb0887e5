//! The unified bus-model API.
//!
//! Both abstraction levels of the platform — the pin-accurate reference
//! (`ahb-rtl`) and the transaction-level model (`ahb-tlm`) — implement
//! [`BusModel`]: bounded time advancement ([`BusModel::run_until`] /
//! [`BusModel::step`]), a completion predicate, and a uniform observability
//! surface ([`BusModel::probe`] for mid-run snapshots, [`BusModel::report`]
//! for the final metric report). Everything that drives a simulation —
//! the `ahbplus` run-control facade, lockstep co-simulation, design-space
//! sweeps, the speed harness — is written against this trait, so a new
//! backend (a cycle-approximate model, a sharded model) only has to
//! implement it to appear everywhere.
//!
//! The trait is object-safe on purpose: sweep and registry code may hold
//! models as `Box<dyn BusModel>`. The per-cycle / per-transaction hot loops
//! live *inside* each implementation's `run_until`, so dynamic dispatch
//! only ever happens at the run-control boundary, never per simulated
//! cycle.

use simkern::time::{Cycle, CycleDelta};

use crate::report::{ModelKind, SimReport};
use crate::trace::TraceLog;

/// A point-in-time snapshot of a model's observable state.
///
/// The probe replaces the ad-hoc `ddr()` / `write_buffer()` /
/// `assertions()` accessors of the concrete systems: every counter a
/// harness, example or divergence check needs is collected into one plain
/// struct that both abstraction levels fill identically.
///
/// All fields are exact integer counters, so two probes can be compared
/// for bit-identity ([`Probe::divergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Probe {
    /// Simulated cycle the snapshot was taken at (the model's notion of
    /// elapsed time; transaction-level models may overshoot a requested
    /// horizon by part of one transaction).
    pub cycle: u64,
    /// Transactions completed so far.
    pub transactions: u64,
    /// Bytes transferred so far.
    pub bytes: u64,
    /// Data beats transferred so far.
    pub data_beats: u64,
    /// Cycles the bus spent transferring data so far.
    pub busy_cycles: u64,
    /// Current write-buffer occupancy.
    pub write_buffer_fill: u64,
    /// Posted writes absorbed by the write buffer so far.
    pub write_buffer_absorbed: u64,
    /// Posted writes drained onto the bus so far.
    pub write_buffer_drained: u64,
    /// Peak write-buffer occupancy observed so far.
    pub write_buffer_peak: u64,
    /// DRAM row hits so far.
    pub dram_row_hits: u64,
    /// DRAM prepared hits (Bus-Interface hints) so far.
    pub dram_prepared_hits: u64,
    /// Total DRAM accesses so far.
    pub dram_accesses: u64,
    /// Assertion errors recorded so far.
    pub assertion_errors: u64,
    /// Assertion warnings recorded so far.
    pub assertion_warnings: u64,
    /// Transactions forwarded across an AHB-to-AHB bridge so far (zero on
    /// single-bus models; on a multi-bus platform this is the aggregate
    /// over every bridge link).
    pub bridge_crossings: u64,
    /// Peak occupancy observed in any bridge request FIFO (zero on
    /// single-bus models).
    pub bridge_fifo_peak: u64,
}

/// Reads one counter out of a probe (field-comparison table entry).
pub type FieldAccessor = fn(&Probe) -> u64;

/// Every probe field paired with a named accessor, `cycle` first. This is
/// the schema of the uniform observability surface: the accuracy harness
/// iterates it to compute per-counter errors, and the snapshot sinks use
/// it as the CSV/JSON column set, so a field added to [`Probe`] shows up
/// in every artifact by adding one row here.
pub const PROBE_FIELDS: [(&str, FieldAccessor); 16] = [
    ("cycle", |p| p.cycle),
    ("transactions", |p| p.transactions),
    ("bytes", |p| p.bytes),
    ("data_beats", |p| p.data_beats),
    ("busy_cycles", |p| p.busy_cycles),
    ("write_buffer_fill", |p| p.write_buffer_fill),
    ("write_buffer_absorbed", |p| p.write_buffer_absorbed),
    ("write_buffer_drained", |p| p.write_buffer_drained),
    ("write_buffer_peak", |p| p.write_buffer_peak),
    ("dram_row_hits", |p| p.dram_row_hits),
    ("dram_prepared_hits", |p| p.dram_prepared_hits),
    ("dram_accesses", |p| p.dram_accesses),
    ("assertion_errors", |p| p.assertion_errors),
    ("assertion_warnings", |p| p.assertion_warnings),
    ("bridge_crossings", |p| p.bridge_crossings),
    ("bridge_fifo_peak", |p| p.bridge_fifo_peak),
];

/// The probe fields compared by [`Probe::divergence`], paired with
/// accessors. `cycle` is deliberately excluded: models at different
/// abstraction levels advance time with different granularity, so elapsed
/// time is reported alongside a divergence, not treated as one.
const COMPARED_FIELDS: [(&str, FieldAccessor); 15] = [
    ("transactions", |p| p.transactions),
    ("bytes", |p| p.bytes),
    ("data_beats", |p| p.data_beats),
    ("busy_cycles", |p| p.busy_cycles),
    ("write_buffer_fill", |p| p.write_buffer_fill),
    ("write_buffer_absorbed", |p| p.write_buffer_absorbed),
    ("write_buffer_drained", |p| p.write_buffer_drained),
    ("write_buffer_peak", |p| p.write_buffer_peak),
    ("dram_row_hits", |p| p.dram_row_hits),
    ("dram_prepared_hits", |p| p.dram_prepared_hits),
    ("dram_accesses", |p| p.dram_accesses),
    ("assertion_errors", |p| p.assertion_errors),
    ("assertion_warnings", |p| p.assertion_warnings),
    ("bridge_crossings", |p| p.bridge_crossings),
    ("bridge_fifo_peak", |p| p.bridge_fifo_peak),
];

impl Probe {
    /// Names of the observable fields in which `self` and `other` differ
    /// (empty when the two snapshots agree). Elapsed time (`cycle`) is not
    /// compared: models at different abstraction levels advance time with
    /// different granularity, so it is reported alongside a divergence,
    /// not treated as one.
    #[must_use]
    pub fn divergence(&self, other: &Probe) -> Vec<&'static str> {
        COMPARED_FIELDS
            .iter()
            .filter(|(_, get)| get(self) != get(other))
            .map(|(name, _)| *name)
            .collect()
    }

    /// DRAM hit rate in `[0, 1]` (row hits + prepared hits over all
    /// accesses), `0.0` before the first access.
    #[must_use]
    pub fn dram_hit_rate(&self) -> f64 {
        if self.dram_accesses == 0 {
            return 0.0;
        }
        (self.dram_row_hits + self.dram_prepared_hits) as f64 / self.dram_accesses as f64
    }

    /// Whether the end-of-run *results* agree: same completed work (
    /// transactions, bytes, beats) and a clean assertion record on both
    /// sides. This is the paper's "simulation results were identical"
    /// claim reduced to its operational core; cycle counts are compared
    /// separately because the transaction-level model is only
    /// approximately cycle-accurate.
    #[must_use]
    pub fn results_match(&self, other: &Probe) -> bool {
        self.transactions == other.transactions
            && self.bytes == other.bytes
            && self.data_beats == other.data_beats
            && self.assertion_errors == other.assertion_errors
    }
}

/// Synchronization-scheduler statistics of a multi-shard model.
///
/// Deliberately *not* part of [`Probe`]: the probe is the
/// results-identity surface (two models are compared field for field),
/// while these counters describe how a particular scheduler earned those
/// results — a fixed-quantum and a lookahead run of the same platform are
/// probe-identical but take different barrier counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SyncStats {
    /// Quantum barriers taken over the run.
    pub barriers: u64,
    /// Barriers whose quantum the adaptive lookahead stretched past the
    /// fixed value. Zero on a fixed-quantum run.
    pub stretched: u64,
    /// Simulated cycles covered by stretches: the sum over all stretched
    /// barriers of how far the barrier moved past its fixed position.
    pub cycles_gained: u64,
    /// Mean simulated cycles advanced per barrier (final barrier clock
    /// over `barriers`); the fixed quantum when no stretch ever fired.
    pub mean_quantum: f64,
}

/// A bus-architecture model that can be driven by the run-control facade.
///
/// # Time-advancement contract
///
/// * [`BusModel::run_until`] advances the model until its clock reaches at
///   least `target`, the workload drains, or the configured cycle limit is
///   hit — whichever comes first. A cycle-level model lands exactly on
///   `target`; a transaction-level model may overshoot by part of one
///   transaction (it only stops on transaction boundaries).
/// * Progress is guaranteed: while [`BusModel::finished`] is `false`, a
///   call with `target > now()` advances the model. Driving a model with
///   repeated [`BusModel::step`]`(1)` calls therefore terminates, and —
///   because implementations route their one-shot `run` through the same
///   code path — produces a [`SimReport`] identical (up to wall-clock
///   time) to a single [`BusModel::run`].
/// * [`BusModel::report`] may be called at any point (including mid-run)
///   and is idempotent; it does not advance time.
pub trait BusModel {
    /// Which abstraction level this model implements.
    fn kind(&self) -> ModelKind;

    /// Short machine-readable model name (`"rtl"`, `"tlm"`, ...), used by
    /// benchmark artifacts and CLI filters. Defaults to the
    /// [`ModelKind::id`] of [`BusModel::kind`].
    fn model_name(&self) -> &'static str {
        self.kind().id()
    }

    /// Current simulated time.
    fn now(&self) -> Cycle;

    /// `true` once the model cannot make further progress: the workload
    /// has drained (and all buffered work retired) or the configured cycle
    /// limit has been reached.
    fn finished(&self) -> bool;

    /// Advances simulation until `now() >= target`, the workload drains,
    /// or the cycle limit is hit. Returns the new [`BusModel::now`].
    fn run_until(&mut self, target: Cycle) -> Cycle;

    /// Advances simulation by at most `cycles` (same overshoot rules as
    /// [`BusModel::run_until`]). Returns the new [`BusModel::now`].
    fn step(&mut self, cycles: CycleDelta) -> Cycle {
        let target = self.now() + cycles;
        self.run_until(target)
    }

    /// Snapshot of the observable state at the current time.
    fn probe(&self) -> Probe;

    /// The metric report as of the current time. Idempotent; callable
    /// mid-run and after completion.
    fn report(&mut self) -> SimReport;

    /// Runs the model to completion (or the cycle limit) and reports.
    fn run(&mut self) -> SimReport {
        self.run_until(Cycle::MAX);
        self.report()
    }

    /// Synchronization-scheduler statistics, for models with a notion of
    /// quantum barriers (the sharded platforms). `None` on single-bus
    /// models.
    fn sync_stats(&self) -> Option<SyncStats> {
        None
    }

    /// Enables or disables structured event tracing
    /// ([`crate::trace::Tracer`]). Backends that support tracing buffer
    /// transaction-lifecycle / bridge / scheduler events while enabled;
    /// the default is a no-op for backends without instrumentation.
    /// Disabled tracing must cost no more than a predictable branch per
    /// instrumentation seam.
    fn set_tracing(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Takes the trace buffered since tracing was enabled (or since the
    /// last take) as a deterministic, cycle-ordered [`TraceLog`].
    /// `None` when the backend is uninstrumented or tracing was never
    /// enabled. Multi-shard platforms return their merged stream.
    fn take_trace(&mut self) -> Option<TraceLog> {
        None
    }
}

/// Boxed models are models: run-control drivers that hold backends as
/// `Box<dyn BusModel>` (sweeps, registries) plug into the same generic
/// drivers as concrete systems.
impl<M: BusModel + ?Sized> BusModel for Box<M> {
    fn kind(&self) -> ModelKind {
        (**self).kind()
    }

    fn model_name(&self) -> &'static str {
        (**self).model_name()
    }

    fn now(&self) -> Cycle {
        (**self).now()
    }

    fn finished(&self) -> bool {
        (**self).finished()
    }

    fn run_until(&mut self, target: Cycle) -> Cycle {
        (**self).run_until(target)
    }

    fn probe(&self) -> Probe {
        (**self).probe()
    }

    fn report(&mut self) -> SimReport {
        (**self).report()
    }

    fn sync_stats(&self) -> Option<SyncStats> {
        (**self).sync_stats()
    }

    fn set_tracing(&mut self, enabled: bool) {
        (**self).set_tracing(enabled);
    }

    fn take_trace(&mut self) -> Option<TraceLog> {
        (**self).take_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_lists_exactly_the_fields_that_differ() {
        let a = Probe {
            cycle: 100,
            transactions: 5,
            bytes: 320,
            ..Probe::default()
        };
        let mut b = a;
        assert!(a.divergence(&b).is_empty());
        b.bytes = 321;
        b.dram_accesses = 1;
        assert_eq!(a.divergence(&b), vec!["bytes", "dram_accesses"]);
    }

    #[test]
    fn elapsed_time_is_not_a_divergence() {
        let a = Probe {
            cycle: 100,
            ..Probe::default()
        };
        let b = Probe {
            cycle: 107,
            ..Probe::default()
        };
        assert!(
            a.divergence(&b).is_empty(),
            "cycle alignment differs across levels"
        );
        assert!(a.results_match(&b));
    }

    #[test]
    fn results_match_ignores_timing_but_not_work() {
        let a = Probe {
            transactions: 10,
            bytes: 640,
            data_beats: 80,
            busy_cycles: 400,
            ..Probe::default()
        };
        let mut b = a;
        b.busy_cycles = 500; // timing detail: still the same results
        assert!(a.results_match(&b));
        b.transactions = 9; // lost work: not the same results
        assert!(!a.results_match(&b));
    }

    #[test]
    fn dram_hit_rate_guards_the_empty_case() {
        let empty = Probe::default();
        assert_eq!(empty.dram_hit_rate(), 0.0);
        let probe = Probe {
            dram_row_hits: 6,
            dram_prepared_hits: 3,
            dram_accesses: 10,
            ..Probe::default()
        };
        assert!((probe.dram_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn compared_fields_cover_every_counter_except_cycle() {
        // 16 fields in the struct, one (cycle) excluded by design.
        assert_eq!(COMPARED_FIELDS.len(), 15);
        assert_eq!(PROBE_FIELDS.len(), 16);
        assert_eq!(PROBE_FIELDS[0].0, "cycle");
        for (name, get) in COMPARED_FIELDS {
            let (probe_name, probe_get) = PROBE_FIELDS
                .iter()
                .find(|(n, _)| *n == name)
                .expect("compared field present in the full schema");
            let sample = Probe {
                cycle: 1,
                transactions: 2,
                bytes: 3,
                data_beats: 4,
                busy_cycles: 5,
                write_buffer_fill: 6,
                write_buffer_absorbed: 7,
                write_buffer_drained: 8,
                write_buffer_peak: 9,
                dram_row_hits: 10,
                dram_prepared_hits: 11,
                dram_accesses: 12,
                assertion_errors: 13,
                assertion_warnings: 14,
                bridge_crossings: 15,
                bridge_fifo_peak: 16,
            };
            assert_eq!(get(&sample), probe_get(&sample), "{probe_name}");
        }
    }
}
