//! Property tests for the trace determinism contract: the merged
//! multi-shard trace stream is a pure function of the simulated schedule.
//!
//! Two statements are asserted over randomly sampled platform shapes:
//!
//! 1. the full merged stream (lifecycle + scheduler events) of a run
//!    driven in small bounded steps is byte-identical to a one-shot run,
//!    because the barrier schedule lives in platform state, not in the
//!    driver;
//! 2. the *lifecycle* stream (scheduler events filtered out) is
//!    non-empty and byte-identical between the fixed-quantum and
//!    adaptive-lookahead schedules, because a lookahead stretch changes
//!    when shards synchronize, never what they simulate.

use ahb_multi::{MultiConfig, MultiSystem, ShardBackendKind};
use analysis::model::BusModel;
use analysis::trace::TraceLog;
use proptest::prelude::*;
use simkern::time::CycleDelta;
use traffic::{pattern_shards, ShardMix};

/// One sampled platform shape.
#[derive(Debug, Clone, Copy)]
struct Shape {
    backend: ShardBackendKind,
    shards: usize,
    masters: usize,
    mix: ShardMix,
    transactions: usize,
    seed: u64,
}

fn build(shape: Shape, lookahead: bool) -> MultiSystem {
    let config = MultiConfig::new(shape.backend)
        .with_max_cycles(500_000)
        .with_lookahead(lookahead);
    MultiSystem::from_shard_patterns(
        &config,
        &pattern_shards(shape.shards, shape.masters, shape.mix),
        shape.transactions,
        shape.seed,
    )
}

/// Runs the platform to completion with tracing on and returns the
/// drained log.
fn traced(mut system: MultiSystem) -> TraceLog {
    system.set_tracing(true);
    system.run();
    system.take_trace_log()
}

fn lifecycle_lines(log: &TraceLog) -> String {
    let mut out = String::new();
    for event in log.lifecycle_events() {
        out.push_str(&event.to_json_line());
        out.push('\n');
    }
    out
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0u64..1u64 << 48).prop_map(|bits| {
        let backend = if bits & 1 == 0 {
            ShardBackendKind::Tlm
        } else {
            ShardBackendKind::Lt
        };
        let mix = match (bits >> 1) % 3 {
            0 => ShardMix::LocalHeavy,
            1 => ShardMix::BridgeHeavy,
            _ => ShardMix::ReadHeavy,
        };
        Shape {
            backend,
            shards: 2 + ((bits >> 3) % 2) as usize,
            masters: 2 + ((bits >> 5) % 2) as usize,
            mix,
            transactions: 3 + ((bits >> 7) % 5) as usize,
            seed: bits >> 12,
        }
    })
}

/// [`traced`], but driven to completion in `step`-cycle increments.
fn traced_in_steps(mut system: MultiSystem, step: u64) -> TraceLog {
    system.set_tracing(true);
    while !BusModel::finished(&system) {
        system.step(CycleDelta::new(step));
    }
    system.take_trace_log()
}

proptest! {
    #[test]
    fn merged_streams_are_byte_identical_under_bounded_stepping(
        shape in shape_strategy(),
        lookahead in prop_oneof![Just(false), Just(true)],
        step in prop_oneof![Just(1u64), Just(50u64), Just(500u64)],
    ) {
        let one_shot = traced(build(shape, lookahead)).to_json_lines();
        let stepped = traced_in_steps(build(shape, lookahead), step).to_json_lines();
        prop_assert!(!one_shot.is_empty(), "traced run produced no events: {shape:?}");
        prop_assert_eq!(one_shot, stepped, "bounded stepping diverged: {:?}", shape);
    }

    #[test]
    fn lifecycle_streams_are_identical_across_fixed_and_lookahead_quanta(
        shape in shape_strategy(),
    ) {
        let fixed = lifecycle_lines(&traced(build(shape, false)));
        let stretched = lifecycle_lines(&traced(build(shape, true)));
        prop_assert!(!fixed.is_empty(), "traced run produced no events: {shape:?}");
        prop_assert_eq!(
            fixed,
            stretched,
            "lookahead changed simulated behaviour: {:?}",
            shape
        );
    }
}
