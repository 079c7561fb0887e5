//! The metric recorder both bus models fill while running.
//!
//! The paper builds "bus and master port profiling features in
//! transaction-level ports and some internal functions such as arbiter,
//! write buffer and so on" (§3.6). [`Recorder`] is that profiling layer:
//! every backend calls it on every completion and every busy span, and
//! it condenses everything, together with the bus-level counters of the
//! backend's own [`Probe`], into a [`crate::report::SimReport`].

use amba::ids::MasterId;
use amba::qos::QosConfig;
use amba::txn::Completion;

use crate::model::Probe;
use crate::report::{BusMetrics, MasterMetrics, ModelKind, SimReport};

#[derive(Debug, Clone, Default)]
struct MasterAccumulator {
    label: String,
    completed: u64,
    bytes: u64,
    last_completion_cycle: u64,
    latency_sum: u64,
    latency_max: u64,
    grant_latency_sum: u64,
    qos_violations: u64,
}

impl MasterAccumulator {
    /// `sum / completed`, 0 before the first completion.
    fn mean(&self, sum: u64) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            sum as f64 / self.completed as f64
        }
    }
}

/// Collects raw profiling events during a run and produces a [`SimReport`].
#[derive(Debug, Clone)]
pub struct Recorder {
    model: ModelKind,
    /// Per-master accumulators plus a direct-indexed slot map
    /// (`master.index()` → accumulator position): completion recording is
    /// once per transaction and must not pay a tree lookup.
    accumulators: Vec<(MasterId, MasterAccumulator)>,
    slots: [u8; 256],
    /// Direct-indexed QoS objectives (`master.index()` → objective cycles,
    /// `u64::MAX` = not real-time): completion recording is once per
    /// transaction, so it must not pay a tree lookup.
    qos_objective: [u64; 256],
    busy_cycles: u64,
    contention_cycles: u64,
    transactions: u64,
    data_beats: u64,
    write_buffer_hits: u64,
}

impl Recorder {
    /// Creates an empty recorder for the given model.
    #[must_use]
    pub fn new(model: ModelKind) -> Self {
        Recorder {
            model,
            accumulators: Vec::new(),
            slots: [u8::MAX; 256],
            qos_objective: [u64::MAX; 256],
            busy_cycles: 0,
            contention_cycles: 0,
            transactions: 0,
            data_beats: 0,
            write_buffer_hits: 0,
        }
    }

    /// Declares a master so it appears in the report even if it never
    /// completes a transaction.
    pub fn register_master(&mut self, master: MasterId, label: &str) {
        let slot = self.slot_of(master);
        self.accumulators[slot].1.label = label.to_owned();
    }

    /// Accumulator position for `master`, creating one on first sight.
    #[inline]
    fn slot_of(&mut self, master: MasterId) -> usize {
        let slot = self.slots[master.index()];
        if slot != u8::MAX {
            return usize::from(slot);
        }
        self.add_slot(master)
    }

    /// First-sight path of [`Recorder::slot_of`], kept out of line so the
    /// per-completion lookup stays small enough to inline.
    #[cold]
    fn add_slot(&mut self, master: MasterId) -> usize {
        let position = self.accumulators.len();
        assert!(position < usize::from(u8::MAX), "too many masters");
        self.accumulators
            .push((master, MasterAccumulator::default()));
        self.slots[master.index()] = position as u8;
        position
    }

    /// Declares the QoS programming of a master, used to count violations.
    pub fn register_qos(&mut self, master: MasterId, qos: QosConfig) {
        self.qos_objective[master.index()] = if qos.class.is_real_time() {
            u64::from(qos.objective_cycles)
        } else {
            u64::MAX
        };
    }

    /// Records one completed transaction.
    #[inline]
    pub fn record_completion(&mut self, completion: &Completion, beats: u32) {
        let objective = self.qos_objective[completion.master.index()];
        let slot = self.slot_of(completion.master);
        let acc = &mut self.accumulators[slot].1;
        acc.completed += 1;
        acc.bytes += u64::from(completion.bytes);
        acc.last_completion_cycle = acc
            .last_completion_cycle
            .max(completion.completed_at.value());
        let latency = completion.total_latency();
        let grant_latency = completion.grant_latency();
        acc.latency_sum += latency;
        acc.latency_max = acc.latency_max.max(latency);
        acc.grant_latency_sum += grant_latency;
        if grant_latency > objective {
            acc.qos_violations += 1;
        }
        self.transactions += 1;
        self.data_beats += u64::from(beats);
        if completion.via_write_buffer {
            self.write_buffer_hits += 1;
        }
    }

    /// Adds `cycles` of bus data-transfer activity.
    pub fn add_busy_cycles(&mut self, cycles: u64) {
        self.busy_cycles += cycles;
    }

    /// Adds `cycles` during which at least one request waited while the bus
    /// served somebody else.
    pub fn add_contention_cycles(&mut self, cycles: u64) {
        self.contention_cycles += cycles;
    }

    /// Number of completions recorded so far (cheap progress probe).
    #[must_use]
    pub fn completions(&self) -> u64 {
        self.transactions
    }

    /// Total bytes recorded across all masters so far.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.accumulators.iter().map(|(_, acc)| acc.bytes).sum()
    }

    /// Data beats recorded so far.
    #[must_use]
    pub fn data_beats(&self) -> u64 {
        self.data_beats
    }

    /// Bus busy cycles recorded so far.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Transactions served out of the write buffer so far.
    #[must_use]
    pub fn write_buffer_hits(&self) -> u64 {
        self.write_buffer_hits
    }

    /// Condenses everything into a [`SimReport`]. The elapsed cycles and
    /// the counters the recorder does not see — DRAM hits (row plus
    /// prepared) and accesses, the write-buffer peak and assertion
    /// errors — come from `probe`, the backend's snapshot of the same
    /// instant, so repeated reports never double-count them.
    #[must_use]
    pub fn finish(&self, probe: &Probe, wall_seconds: f64) -> SimReport {
        let masters = self
            .accumulators
            .iter()
            .map(|(id, acc)| {
                let label = if acc.label.is_empty() {
                    format!("m{}", id.index())
                } else {
                    acc.label.clone()
                };
                (
                    *id,
                    MasterMetrics {
                        label,
                        completed: acc.completed,
                        bytes: acc.bytes,
                        last_completion_cycle: acc.last_completion_cycle,
                        avg_latency: acc.mean(acc.latency_sum),
                        max_latency: acc.latency_max as f64,
                        avg_grant_latency: acc.mean(acc.grant_latency_sum),
                        qos_violations: acc.qos_violations,
                    },
                )
            })
            .collect();
        SimReport {
            model: self.model,
            total_cycles: probe.cycle,
            wall_seconds,
            masters,
            bus: BusMetrics {
                busy_cycles: self.busy_cycles,
                contention_cycles: self.contention_cycles,
                transactions: self.transactions,
                data_beats: self.data_beats,
                write_buffer_hits: self.write_buffer_hits,
                write_buffer_peak: probe.write_buffer_peak,
                dram_row_hits: probe.dram_row_hits + probe.dram_prepared_hits,
                dram_accesses: probe.dram_accesses,
                assertion_errors: probe.assertion_errors,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amba::signal::HResp;
    use amba::txn::TransactionId;
    use simkern::time::Cycle;

    fn at(cycle: u64) -> Probe {
        Probe {
            cycle,
            ..Probe::default()
        }
    }

    fn completion(master: u8, issued: u64, granted: u64, done: u64, bytes: u32) -> Completion {
        Completion {
            id: TransactionId::new(1),
            master: MasterId::new(master),
            response: HResp::Okay,
            granted_at: Cycle::new(granted),
            completed_at: Cycle::new(done),
            issued_at: Cycle::new(issued),
            bytes,
            via_write_buffer: false,
        }
    }

    #[test]
    fn completions_accumulate_per_master() {
        let mut r = Recorder::new(ModelKind::PinAccurateRtl);
        r.register_master(MasterId::new(0), "cpu");
        r.record_completion(&completion(0, 0, 5, 20, 32), 8);
        r.record_completion(&completion(0, 10, 12, 40, 16), 4);
        r.record_completion(&completion(1, 0, 2, 30, 64), 16);
        let report = r.finish(&at(100), 0.001);
        assert_eq!(report.masters.len(), 2);
        let cpu = &report.masters[&MasterId::new(0)];
        assert_eq!(cpu.completed, 2);
        assert_eq!(cpu.bytes, 48);
        assert_eq!(cpu.last_completion_cycle, 40);
        assert!((cpu.avg_latency - 25.0).abs() < 1e-9);
        assert!((cpu.avg_grant_latency - 3.5).abs() < 1e-9);
        let other = &report.masters[&MasterId::new(1)];
        assert_eq!(
            other.label, "m1",
            "unregistered master gets a fallback label"
        );
    }

    #[test]
    fn qos_violations_are_counted_against_registered_objectives() {
        let mut r = Recorder::new(ModelKind::TransactionLevel);
        r.register_master(MasterId::new(1), "video");
        r.register_qos(MasterId::new(1), QosConfig::real_time(10, 0));
        // Grant latency 5: fine. Grant latency 30: violation.
        r.record_completion(&completion(1, 0, 5, 20, 64), 16);
        r.record_completion(&completion(1, 100, 130, 150, 64), 16);
        let report = r.finish(&at(200), 0.001);
        assert_eq!(report.masters[&MasterId::new(1)].qos_violations, 1);
    }

    #[test]
    fn bus_level_counters_flow_into_the_report() {
        let mut r = Recorder::new(ModelKind::TransactionLevel);
        r.add_busy_cycles(60);
        r.add_contention_cycles(12);
        let mut wb = completion(2, 0, 0, 9, 32);
        wb.via_write_buffer = true;
        r.record_completion(&wb, 8);
        let probe = Probe {
            cycle: 100,
            write_buffer_peak: 5,
            dram_row_hits: 4,
            dram_prepared_hits: 3,
            dram_accesses: 10,
            assertion_errors: 1,
            ..Probe::default()
        };
        let report = r.finish(&probe, 0.5);
        assert_eq!(report.total_cycles, 100);
        assert_eq!(report.bus.busy_cycles, 60);
        assert_eq!(report.bus.contention_cycles, 12);
        assert_eq!(report.bus.write_buffer_peak, 5);
        assert_eq!(report.bus.write_buffer_hits, 1);
        assert_eq!(report.bus.dram_row_hits, 7, "row plus prepared hits");
        assert_eq!(report.bus.dram_accesses, 10);
        assert_eq!(report.bus.assertion_errors, 1);
        assert_eq!(report.bus.data_beats, 8);
        assert_eq!(r.completions(), 1);
        assert_eq!(r.total_bytes(), 32);
        assert_eq!(r.data_beats(), 8);
        assert_eq!(r.busy_cycles(), 60);
        assert_eq!(r.write_buffer_hits(), 1);
    }

    #[test]
    fn set_counters_are_idempotent_across_snapshots() {
        // A step-driven run reports from the backend's probe on every
        // snapshot; the probe's totals are set into the report, never
        // accumulated, so repeated snapshots must not inflate them.
        let mut r = Recorder::new(ModelKind::TransactionLevel);
        let probe = Probe {
            cycle: 100,
            dram_row_hits: 7,
            dram_accesses: 10,
            assertion_errors: 2,
            ..Probe::default()
        };
        let first = r.finish(&probe, 0.1);
        r.add_busy_cycles(5);
        let report = r.finish(&probe, 0.1);
        assert_eq!(report.bus.dram_row_hits, 7);
        assert_eq!(report.bus.dram_accesses, 10);
        assert_eq!(report.bus.assertion_errors, 2);
        assert_eq!(first.bus.dram_accesses, report.bus.dram_accesses);
    }

    #[test]
    fn registered_but_idle_masters_appear_in_the_report() {
        let mut r = Recorder::new(ModelKind::PinAccurateRtl);
        r.register_master(MasterId::new(3), "writer");
        let report = r.finish(&at(10), 0.0);
        assert_eq!(report.masters[&MasterId::new(3)].completed, 0);
        assert_eq!(report.masters[&MasterId::new(3)].label, "writer");
    }
}
