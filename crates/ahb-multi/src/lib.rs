//! `ahb-multi` — the multi-bus AHB+ platform: bridged bus shards built
//! from a declarative [`Topology`].
//!
//! Real SoCs are multi-bus fabrics. This crate scales the paper's
//! single-bus models sideways: a [`MultiSystem`] instantiates N
//! independent bus *shards* — each a complete `ahb-tlm` or `ahb-lt`
//! platform with its own masters, arbiter, write buffer and DDR
//! controller — and connects them through AHB-to-AHB bridges. Each bridge
//! is a slave address window on the local shard (remote-window
//! transactions complete against it and post into a bounded request FIFO)
//! and a replay master on the owning shard (crossings arrive a configured
//! crossing latency later and compete for that bus like any other
//! master).
//!
//! The platform's *shape* is a [`Topology`] value: backend per shard
//! (mix cycle-accurate `tlm` shards with loosely-timed `lt` shards in
//! one fabric), window ownership (round-robin interleave or an explicit
//! non-uniform owner table), per-directed-link timing/capacity overrides
//! (asymmetric fabrics), and the read-crossing mode. Everything below —
//! bridge ports, router, quantum — consumes the same topology, so a
//! platform cannot be built inconsistently.
//!
//! Execution uses **conservative quantum synchronization**: the
//! synchronization quantum equals the *minimum* crossing latency over
//! all bridge links, so a shard simulating one quantum ahead can never
//! miss a remote effect — crossings issued during a quantum are
//! exchanged at the barrier and always released at or after it. Shards
//! therefore run *freely* inside a quantum, one after another on the
//! calling thread; the barrier/exchange schedule is a pure function of
//! the shard states, so bounded stepping re-enters exactly the schedule a
//! one-shot run takes. There is no threaded mode: one 96-cycle quantum of
//! shard work costs about a microsecond of wall time, less than a
//! cross-core rendezvous, so parallel quanta would not pay for their
//! synchronization. Parallelism lives where runs are independent (the
//! campaign pool, `model_accuracy`'s scenario chunks).
//!
//! On top of the fixed quantum sits an optional **adaptive lookahead**
//! scheduler ([`MultiConfig::with_lookahead`]): at a barrier where no
//! delivery is pending, every shard reports the earliest cycle it could
//! possibly emit a crossing (its `next_possible_crossing` bound — a
//! min-plus scan over its release tables, restricted to remote-window
//! items, plus vetoes for queued egress, owed responses and buffered
//! remote writes), and the scheduler stretches the next quantum up to
//! that bound plus one crossing latency (clamped by
//! [`MultiConfig::with_max_stretch`]). Because nothing can
//! cross before the bound, the stretched schedule performs the *same
//! simulation* through fewer barriers: a lookahead run stays
//! probe-identical to its fixed-quantum twin, which the proptest suite
//! verifies across topology axes. [`MultiSystem::barriers_taken`],
//! [`MultiSystem::barriers_stretched`] and
//! [`MultiSystem::lookahead_cycles_gained`] report what the stretching
//! achieved.
//!
//! [`MultiSystem`] implements `analysis::BusModel`, so it plugs into
//! every harness — `table2_speed`, `model_accuracy`, `Simulation`
//! snapshots, lockstep — without harness edits, as
//! `ModelKind::ShardedTlm` / `ShardedLt` / `ShardedHet` /
//! `ShardedTlmReads` / `ShardedSkew`.
//!
//! # What crosses the bridge (and how)
//!
//! Writes always cross **posted**: the local transfer completes into the
//! bridge FIFO (paying the slave's wait states, not DRAM latency) and
//! the replay runs asynchronously on the owning shard. Reads cross
//! posted by default (split-transaction prefetch semantics, no response
//! traffic); with [`Topology::with_posted_reads`]`(false)` they become
//! **non-posted**: the request leg crosses, the issuing master *stalls*,
//! the owning shard replays the read against its DRAM, and the response
//! leg crosses back over the reverse link to retire the stalled transfer
//! — bridges carry traffic in both directions and a remote read pays the
//! full round trip. Either way a crossing is counted once as completed
//! work (at its source) while its replay contributes bus occupancy and
//! DRAM traffic on the remote shard — the platform probe aggregates
//! accordingly.
//!
//! # Example
//!
//! ```
//! use ahb_multi::{MultiConfig, MultiSystem, ShardBackendKind, Topology};
//! use traffic::{pattern_shards, ShardMix};
//!
//! let config = MultiConfig::new(ShardBackendKind::Lt);
//! let patterns = pattern_shards(2, 4, ShardMix::LocalHeavy);
//! let mut platform = MultiSystem::from_shard_patterns(&config, &patterns, 30, 7);
//! let report = platform.run();
//! assert_eq!(report.total_transactions(), 2 * 4 * 30);
//! assert!(platform.crossings() > 0, "the block writers cross the bridge");
//!
//! // A heterogeneous, non-posted-read platform is one topology value.
//! let topology = Topology::het_2x2().with_posted_reads(false);
//! let config = MultiConfig::from_topology(topology);
//! let patterns = pattern_shards(4, 2, ShardMix::ReadHeavy);
//! let mut platform = MultiSystem::from_shard_patterns(&config, &patterns, 10, 7);
//! let report = platform.run();
//! assert_eq!(report.total_transactions(), 4 * 2 * 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod link;
pub mod system;
pub mod topology;

pub use config::{BridgeConfig, MultiConfig, ShardBackendKind};
pub use link::BridgeLink;
pub use system::{
    bridge_master, partition_by_window, partition_round_robin, MultiSystem, MAX_TRAFFIC_MASTER_ID,
};
pub use topology::{ShardSet, Topology, WindowSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::model::BusModel;
    use analysis::report::ModelKind;
    use simkern::time::CycleDelta;
    use traffic::{pattern_a, pattern_shards, ShardMix, TrafficPattern, Workload};

    fn small(backend: ShardBackendKind, mix: ShardMix) -> MultiSystem {
        let config = MultiConfig::new(backend);
        let patterns = pattern_shards(2, 4, mix);
        MultiSystem::from_shard_patterns(&config, &patterns, 40, 9)
    }

    fn workload_totals(patterns: &[TrafficPattern], count: usize, seed: u64) -> (u64, u64, u64) {
        let mut txns = 0;
        let mut bytes = 0;
        let mut beats = 0;
        for pattern in patterns {
            for (id, profile) in &pattern.masters {
                let trace = Workload::new(*id, profile.clone(), seed).generate(count);
                txns += trace.len() as u64;
                bytes += trace.total_bytes();
                beats += trace.total_beats();
            }
        }
        (txns, bytes, beats)
    }

    #[test]
    fn completes_exactly_the_generated_workload() {
        for backend in [ShardBackendKind::Tlm, ShardBackendKind::Lt] {
            for mix in [
                ShardMix::LocalHeavy,
                ShardMix::BridgeHeavy,
                ShardMix::AllToAll,
            ] {
                let patterns = pattern_shards(2, 4, mix);
                let (txns, bytes, beats) = workload_totals(&patterns, 40, 9);
                let mut system = small(backend, mix);
                let report = system.run();
                let probe = system.probe();
                assert!(system.is_finished());
                assert_eq!(report.total_transactions(), txns, "{backend:?}/{mix:?}");
                assert_eq!(probe.transactions, txns);
                assert_eq!(probe.bytes, bytes);
                assert_eq!(probe.data_beats, beats);
                assert_eq!(probe.assertion_errors, 0);
            }
        }
    }

    #[test]
    fn bridge_heavy_mix_crosses_more_than_local_heavy() {
        let mut local = small(ShardBackendKind::Tlm, ShardMix::LocalHeavy);
        let mut bridge = small(ShardBackendKind::Tlm, ShardMix::BridgeHeavy);
        local.run();
        bridge.run();
        assert!(local.crossings() > 0, "local-heavy still posts across");
        assert!(bridge.crossings() > local.crossings());
        assert!(bridge.probe().bridge_crossings == bridge.crossings());
        assert!(bridge.probe().bridge_fifo_peak >= 1);
    }

    #[test]
    fn window_partition_of_a_single_bus_pattern_is_pure_scaling() {
        // Assigning every master to the shard owning its region gives a
        // sharded run with the same work and zero bridge traffic.
        let parts = partition_by_window(&pattern_a(), 2, traffic::SHARD_WINDOW_SHIFT);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].masters.len() + parts[1].masters.len(), 4);
        let config = MultiConfig::new(ShardBackendKind::Tlm);
        let mut system = MultiSystem::from_shard_patterns(&config, &parts, 30, 7);
        let report = system.run();
        assert_eq!(report.total_transactions(), 4 * 30);
        assert_eq!(system.crossings(), 0);
        assert_eq!(system.probe().bridge_fifo_peak, 0);
    }

    #[test]
    fn round_robin_partition_of_a_single_bus_pattern_crosses_the_bridge() {
        // Pattern A's default regions interleave across the 2-way window
        // map, so a round-robin master assignment produces genuine bridge
        // traffic while still completing identical work.
        let parts = partition_round_robin(&pattern_a(), 2);
        let config = MultiConfig::new(ShardBackendKind::Tlm);
        let mut system = MultiSystem::from_shard_patterns(&config, &parts, 30, 7);
        let report = system.run();
        assert_eq!(report.total_transactions(), 4 * 30);
        assert!(system.crossings() > 0);
    }

    #[test]
    fn bounded_stepping_matches_one_shot_run() {
        let one_shot = small(ShardBackendKind::Lt, ShardMix::AllToAll).run();
        let mut stepped = small(ShardBackendKind::Lt, ShardMix::AllToAll);
        let mut guard = 0u64;
        while !BusModel::finished(&stepped) {
            stepped.step(CycleDelta::ONE);
            guard += 1;
            assert!(guard < 1_000_000, "stepping must terminate");
        }
        let report = stepped.report();
        assert!(one_shot.metrics_eq(&report));
    }

    #[test]
    fn lookahead_bounded_stepping_is_a_pure_acceleration_of_fixed() {
        // The stretch schedule lives in persistent platform state
        // (`next_target`), so a bounded-stepping driver re-enters the
        // exact barrier sequence a one-shot run takes — and that
        // sequence performs the same simulation as the fixed-quantum
        // schedule, just through fewer barriers.
        let patterns = pattern_shards(2, 4, ShardMix::AllToAll);
        let fixed_config = MultiConfig::new(ShardBackendKind::Tlm);
        let mut fixed = MultiSystem::from_shard_patterns(&fixed_config, &patterns, 40, 9);
        let fixed_report = fixed.run();
        let la_config = MultiConfig::new(ShardBackendKind::Tlm).with_lookahead(true);
        let one_shot = MultiSystem::from_shard_patterns(&la_config, &patterns, 40, 9).run();
        let mut stepped = MultiSystem::from_shard_patterns(&la_config, &patterns, 40, 9);
        let mut guard = 0u64;
        while !BusModel::finished(&stepped) {
            stepped.step(CycleDelta::new(64));
            guard += 1;
            assert!(guard < 1_000_000, "stepping must terminate");
        }
        let stepped_report = stepped.report();
        assert!(one_shot.metrics_eq(&stepped_report));
        // Against the fixed run only the model label differs (the
        // uniform-TLM lookahead platform is its own spectrum point).
        assert_eq!(stepped_report.model, ModelKind::ShardedTlmLa);
        assert_eq!(fixed_report.total_cycles, stepped_report.total_cycles);
        assert_eq!(fixed_report.masters, stepped_report.masters);
        assert_eq!(fixed_report.bus, stepped_report.bus);
        assert_eq!(fixed.probe(), stepped.probe());
        assert!(
            stepped.barriers_stretched() > 0,
            "quiet barriers must stretch"
        );
        assert!(stepped.barriers_taken() < fixed.barriers_taken());
        let stats = BusModel::sync_stats(&stepped).expect("sharded platforms expose sync stats");
        assert_eq!(stats.barriers, stepped.barriers_taken());
        assert_eq!(stats.stretched, stepped.barriers_stretched());
        assert!(stats.mean_quantum > fixed.quantum() as f64);
    }

    #[test]
    fn report_is_idempotent_and_excludes_bridge_masters() {
        let mut system = small(ShardBackendKind::Tlm, ShardMix::BridgeHeavy);
        system.run_until(simkern::time::Cycle::new(3_000));
        let first = system.report();
        let second = system.report();
        assert!(first.metrics_eq(&second));
        let done = system.run();
        assert_eq!(done.masters.len(), 8, "bridge replay ports stay internal");
        assert_eq!(done.model, ModelKind::ShardedTlm);
        // Aggregate cycles cover every shard's bus.
        let span = system.shard_probes().iter().map(|p| p.cycle).sum::<u64>();
        assert_eq!(done.total_cycles, span);
    }

    #[test]
    fn cycle_limit_stops_the_platform() {
        let config = MultiConfig::new(ShardBackendKind::Tlm).with_max_cycles(1_000);
        let patterns = pattern_shards(2, 4, ShardMix::BridgeHeavy);
        let mut system = MultiSystem::from_shard_patterns(&config, &patterns, 5_000, 3);
        system.run();
        assert!(BusModel::finished(&system), "limit counts as finished");
        assert!(system.now().value() <= 1_000 + system.quantum());
    }

    #[test]
    fn quantum_is_bounded_by_the_crossing_latency() {
        let config = MultiConfig::new(ShardBackendKind::Lt).with_quantum(17);
        let patterns = pattern_shards(2, 2, ShardMix::LocalHeavy);
        let system = MultiSystem::from_shard_patterns(&config, &patterns, 5, 1);
        assert_eq!(system.quantum(), 17);
        assert_eq!(system.shard_count(), 2);
    }
}
