//! The in-process workloads: the paper's flat AHB+ platform on each
//! backend (`paper-flat-rtl`, `paper-flat-tlm`, `paper-flat-lt`) and the
//! 16-master four-shard platform (`sharded-4x4`).
//!
//! One operation is one simulation a user would ask for: expand the
//! seeded traffic, build the model, run it until the workload drains and
//! take its report. Operation `i` of a run uses seed
//! `derive_seed(--seed, i)`, so a seed fixes every input.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ahbplus::{
    Canonical, LtSystem, MultiConfig, MultiSystem, PlatformConfig, RtlSystem, ScenarioSpec,
    ShardBackendKind, TlmSystem, Topology,
};
use analysis::model::{BusModel, Probe, SyncStats, PROBE_FIELDS};
use analysis::report::ModelKind;
use analysis::AccuracyReport;
use simkern::time::Cycle;
use traffic::{pattern_a, pattern_shards, pattern_shards_union, ShardMix, TrafficPattern};

use crate::layers::{self, Counts, Stimulus, LAYER_BUDGET};
use crate::stats::{derive_seed, mean, median, percentile, tail_supported, Digest, Spans};
use crate::{Args, Outcome};

/// Transactions per master of one operation: the paper's Table 1
/// workload size. Small enough that the slowest backend (rtl) completes
/// the >1000 operations a 10-second run needs for a supported p99.
const TXNS_PER_MASTER: usize = 500;
const SHARDS: usize = 4;
const MASTERS_PER_SHARD: usize = 4;
/// Threads running operations in the measured loop, one per vCPU of the
/// 2-vCPU host the benchmark was tuned on. Each vCPU there changes speed
/// on its own (by up to 1.8x for tens of seconds), so a statistic
/// averaged over two streams varies about half as much between runs.
const STREAMS: usize = 2;
/// Operations run before `peak_rss_mb` is read.
const WARMUP_OPS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Subject {
    Flat(ModelKind),
    Sharded,
}

struct Workload {
    subject: Subject,
    /// The flat view of the workload's masters (all shards' masters for
    /// `sharded-4x4`); the accuracy reference runs on it.
    pattern: TrafficPattern,
    /// Per-shard patterns of `sharded-4x4`.
    parts: Vec<TrafficPattern>,
    /// Seeds of the reference batch: accuracy, counts and determinism.
    reference_ops: u64,
}

impl Workload {
    fn new(name: &str) -> Result<Workload, String> {
        let flat = |kind| Workload {
            subject: Subject::Flat(kind),
            pattern: pattern_a(),
            parts: Vec::new(),
            reference_ops: 16,
        };
        Ok(match name {
            "paper-flat-rtl" => flat(ModelKind::PinAccurateRtl),
            "paper-flat-tlm" => flat(ModelKind::TransactionLevel),
            "paper-flat-lt" => flat(ModelKind::LooselyTimed),
            "sharded-4x4" => Workload {
                subject: Subject::Sharded,
                pattern: pattern_shards_union(SHARDS, MASTERS_PER_SHARD, ShardMix::BridgeHeavy),
                parts: pattern_shards(SHARDS, MASTERS_PER_SHARD, ShardMix::BridgeHeavy),
                reference_ops: 4,
            },
            other => return Err(format!("not an in-process workload: {other}")),
        })
    }

    fn config(&self, seed: u64) -> PlatformConfig {
        PlatformConfig::new(self.pattern.clone(), TXNS_PER_MASTER, seed)
    }

    /// The sharded platform, built through `MultiConfig` with the
    /// library's default scheduler plus adaptive lookahead.
    fn multi(&self, config: &PlatformConfig) -> MultiConfig {
        config
            .multi_config(Topology::uniform(ShardBackendKind::Tlm))
            .with_lookahead(true)
    }

    fn expected_txns(&self) -> u64 {
        (self.pattern.master_count() * TXNS_PER_MASTER) as u64
    }

    fn kind(&self) -> ModelKind {
        match self.subject {
            Subject::Flat(kind) => kind,
            Subject::Sharded => ModelKind::ShardedTlmLa,
        }
    }

    fn build(&self, config: &PlatformConfig) -> Box<dyn BusModel> {
        match self.subject {
            Subject::Flat(kind) => config.build_model(kind),
            Subject::Sharded => Box::new(MultiSystem::from_shard_patterns(
                &self.multi(config),
                &self.parts,
                config.transactions_per_master,
                config.seed,
            )),
        }
    }

    /// The canonical description of the workload's platform, as a
    /// `campaign serve` request body would carry it.
    fn body(&self, seed: u64) -> String {
        let spec = ScenarioSpec::new("bench", "a", TXNS_PER_MASTER, seed).to_canon();
        match self.subject {
            Subject::Flat(kind) => format!(
                "{{\"scenario\": {}, \"model\": \"{}\"}}",
                spec.to_canonical_json(),
                kind.id()
            ),
            Subject::Sharded => format!(
                "{{\"scenario\": {}, \"topology\": {}}}",
                spec.to_canonical_json(),
                Topology::uniform(ShardBackendKind::Tlm)
                    .to_canon()
                    .to_canonical_json()
            ),
        }
    }
}

/// What one operation took and produced.
struct Op {
    /// Traffic expansion plus model build, in seconds.
    setup: f64,
    /// Run to drain, in seconds.
    run: f64,
    /// The whole operation, report included, in seconds.
    total: f64,
    cycles: u64,
    probe: Probe,
    sync: Option<SyncStats>,
    ok: bool,
}

impl Op {
    fn setup(&self) -> f64 {
        self.setup
    }

    fn total(&self) -> f64 {
        self.total
    }

    fn kcps(&self) -> f64 {
        self.cycles as f64 / 1e3 / self.run.max(1e-9)
    }
}

/// Runs one operation. A traced operation (`spans` given) records a span
/// around the model's build, run and report as each ends; its measured
/// interval includes that recording.
fn run_op(wl: &Workload, seed: u64, mut spans: Option<&mut Spans>) -> Op {
    let config = wl.config(seed);
    let multi = (wl.subject == Subject::Sharded).then(|| wl.multi(&config));
    let mut mark = |name: &'static str, start: Instant| match spans.as_deref_mut() {
        Some(spans) => spans.end(name, start),
        None => Instant::now(),
    };
    let t0 = Instant::now();
    let (mut model, t2): (Box<dyn BusModel>, Instant) = match (wl.subject, &multi) {
        (Subject::Flat(kind), _) => {
            let masters = config
                .pattern
                .expand(config.transactions_per_master, config.seed);
            let t1 = Instant::now();
            let model: Box<dyn BusModel> = match kind {
                ModelKind::PinAccurateRtl => Box::new(RtlSystem::new(config.rtl_config(), masters)),
                ModelKind::LooselyTimed => Box::new(LtSystem::new(config.lt_config(), masters)),
                _ => Box::new(TlmSystem::new(config.tlm_config(), masters)),
            };
            (model, mark("model.build", t1))
        }
        // The sharded builder expands each shard's traffic itself.
        (Subject::Sharded, Some(multi)) => (
            Box::new(MultiSystem::from_shard_patterns(
                multi,
                &wl.parts,
                TXNS_PER_MASTER,
                seed,
            )),
            mark("model.build", t0),
        ),
        (Subject::Sharded, None) => unreachable!("sharded workloads carry a MultiConfig"),
    };
    model.run_until(Cycle::MAX);
    let t3 = mark("model.run", t2);
    let report = model.report();
    let probe = model.probe();
    mark("model.report", t3);
    let total = t0.elapsed().as_secs_f64();
    // The workload must drain before the cycle limit (the probe's cycle
    // is the latest shard's, which the limit caps), with every
    // transaction counted exactly once (the sharded aggregate subtracts
    // bridge replays) and a clean protocol-assertion record.
    let max_cycles = multi.as_ref().map_or(config.max_cycles, |m| m.max_cycles);
    let ok = model.finished()
        && probe.cycle < max_cycles
        && probe.transactions == wl.expected_txns()
        && report.total_transactions() == wl.expected_txns()
        && probe.assertion_errors == 0;
    Op {
        setup: (t2 - t0).as_secs_f64(),
        run: (t3 - t2).as_secs_f64(),
        total,
        cycles: report.total_cycles,
        probe,
        sync: model.sync_stats(),
        ok,
    }
}

/// The reference batch: the first operations' seeds run on the subject
/// and, on identical stimulus, on the flat rtl, tlm and lt models.
struct Reference {
    tlm_err: f64,
    lt_err: f64,
    results_match: bool,
    ops_ok: bool,
    digest: Digest,
    counts: Counts,
    first: (Probe, u64),
}

/// The flat rtl, tlm and lt models run on one configuration.
pub struct FlatReference {
    /// `AccuracyReport::average_error_pct` of tlm and of lt against rtl.
    pub tlm_err: f64,
    pub lt_err: f64,
    /// Probe and simulated cycles of rtl, tlm and lt.
    pub runs: [(Probe, u64); 3],
}

impl FlatReference {
    pub fn run(config: &PlatformConfig) -> FlatReference {
        let mut rtl = config.build_rtl();
        let rtl_report = rtl.run();
        let mut tlm = config.build_tlm();
        let tlm_report = tlm.run();
        let mut lt = config.build_lt();
        let lt_report = lt.run();
        let label = config.pattern.name;
        FlatReference {
            tlm_err: AccuracyReport::compare(label, &rtl_report, &tlm_report).average_error_pct(),
            lt_err: AccuracyReport::compare(label, &rtl_report, &lt_report).average_error_pct(),
            runs: [
                (BusModel::probe(&rtl), rtl_report.total_cycles),
                (BusModel::probe(&tlm), tlm_report.total_cycles),
                (BusModel::probe(&lt), lt_report.total_cycles),
            ],
        }
    }

    /// Whether rtl, tlm, lt and `other` completed identical work.
    pub fn results_match(&self, other: &Probe) -> bool {
        let rtl = &self.runs[0].0;
        self.runs.iter().all(|(p, _)| rtl.results_match(p)) && rtl.results_match(other)
    }
}

/// Folds a probe and its cycle count into a digest.
pub fn digest_probe(digest: &mut Digest, probe: &Probe, cycles: u64) {
    digest.push(cycles);
    for (_, field) in PROBE_FIELDS {
        digest.push(field(probe));
    }
}

fn reference(wl: &Workload, seed: u64) -> Reference {
    let mut digest = Digest::new();
    let mut counts = Counts::default();
    let mut tlm_err = Vec::new();
    let mut lt_err = Vec::new();
    let mut results_match = true;
    let mut ops_ok = true;
    let mut first = None;
    for k in 0..wl.reference_ops {
        let op_seed = derive_seed(seed, k);
        let flat = FlatReference::run(&wl.config(op_seed));
        tlm_err.push(flat.tlm_err);
        lt_err.push(flat.lt_err);
        let subject = run_op(wl, op_seed, None);
        results_match &= flat.results_match(&subject.probe);
        ops_ok &= subject.ok;
        for (probe, cycles) in flat.runs.iter().chain([&(subject.probe, subject.cycles)]) {
            digest_probe(&mut digest, probe, *cycles);
        }
        counts.add(&subject.probe, subject.cycles, subject.sync);
        first.get_or_insert((subject.probe, subject.cycles));
    }
    Reference {
        tlm_err: mean(&tlm_err),
        lt_err: mean(&lt_err),
        results_match,
        ops_ok,
        digest,
        counts,
        first: first.expect("at least one reference operation"),
    }
}

pub fn run(args: &Args, name: &str) -> Result<Outcome, String> {
    let wl = Workload::new(name)?;
    let mut out = Outcome::default();
    // Memory is the high-water mark after the workload's own first
    // operations, taken before the reference models and the sample lists
    // allocate, so it does not grow with the operations a run completes.
    for k in 0..WARMUP_OPS {
        run_op(&wl, derive_seed(args.seed, k), None);
    }
    let rss = crate::peak_rss_mb("self");
    let reference = reference(&wl, args.seed);

    // The measured loop: `STREAMS` threads take seeds in index order. A
    // traced run runs each seed twice on one thread, with and without
    // spans, in alternating order, so that the two runs of a pair differ
    // only by the cost of the spans.
    let next = AtomicU64::new(0);
    let deadline = Instant::now() + args.measure;
    let (streams, stream_spans): (Vec<Vec<(bool, Op)>>, Vec<Spans>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STREAMS)
            .map(|_| {
                scope.spawn(|| {
                    let mut ops = Vec::new();
                    let mut spans = Spans::default();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let seed = derive_seed(args.seed, i);
                        if args.trace {
                            let first = i.is_multiple_of(2);
                            for traced in [first, !first] {
                                ops.push((traced, run_op(&wl, seed, traced.then_some(&mut spans))));
                            }
                        } else {
                            ops.push((false, run_op(&wl, seed, None)));
                        }
                    }
                    (ops, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("operation stream panicked"))
            .unzip()
    });
    let ops: Vec<&(bool, Op)> = streams.iter().flatten().collect();
    out.attempted = ops.len() as u64;
    out.failed = ops.iter().filter(|(_, op)| !op.ok).count() as u64;

    // Determinism: the first reference seed, run again, reproduces its
    // simulated statistics exactly.
    let again = run_op(&wl, derive_seed(args.seed, 0), None);
    out.check(
        "deterministic",
        (again.probe, again.cycles) == reference.first,
    );
    out.check("results_match_rtl_tlm_lt", reference.results_match);
    out.check("reference_ops_drain", reference.ops_ok);

    let plain = |stream: &[(bool, Op)], f: fn(&Op) -> f64| -> Vec<f64> {
        stream
            .iter()
            .filter(|(t, _)| !t)
            .map(|(_, op)| f(op))
            .collect()
    };
    let latency_ms = |op: &Op| op.total() * 1e3;
    let untraced: Vec<f64> = streams.iter().flat_map(|s| plain(s, latency_ms)).collect();

    if args.trace {
        let mut spans = Spans::default();
        for mut part in stream_spans {
            spans.append(&mut part);
        }
        out.metric(
            "model.build_us",
            median(&spans.durations("model.build")) * 1e6,
            "us",
        );
        out.metric(
            "model.run_ms",
            median(&spans.durations("model.run")) * 1e3,
            "ms",
        );
        out.metric(
            "model.report_us",
            median(&spans.durations("model.report")) * 1e6,
            "us",
        );
        let shares: Vec<f64> = ops
            .iter()
            .filter(|(traced, _)| *traced)
            .map(|(_, op)| op.run / op.total * 100.0)
            .collect();
        out.metric("sim_share_pct", median(&shares), "%");
        // Each stream holds whole pairs: the same seed with and without
        // spans, next to each other.
        let ratios: Vec<f64> = streams
            .iter()
            .flat_map(|s| s.chunks_exact(2))
            .map(|pair| {
                let (traced, plain) = if pair[0].0 {
                    (&pair[0].1, &pair[1].1)
                } else {
                    (&pair[1].1, &pair[0].1)
                };
                traced.total / plain.total
            })
            .collect();
        out.metric(
            "bench.trace_overhead_pct",
            (median(&ratios) - 1.0) * 100.0,
            "%",
        );
        out.metric("op_ms_p50", median(&untraced), "ms");
        out.metric("op_ms_p99", percentile(&untraced, 99.0), "ms");
        out.check(
            "p99_has_10_samples_beyond",
            tail_supported(untraced.len(), 99.0),
        );
        let kcps: Vec<f64> = streams.iter().flat_map(|s| plain(s, Op::kcps)).collect();
        out.metric("kcps_p50", median(&kcps), "Kcycles/s");

        let config = wl.config(derive_seed(args.seed, 0));
        let expansions = if wl.subject == Subject::Sharded {
            wl.parts
                .iter()
                .map(|p| (p.clone(), TXNS_PER_MASTER, config.seed))
                .collect()
        } else {
            vec![(config.pattern.clone(), TXNS_PER_MASTER, config.seed)]
        };
        let stimulus = Stimulus {
            masters: config
                .pattern
                .expand(config.transactions_per_master, config.seed),
            expansions,
            arbiter: config.params.arbiter.clone(),
            write_buffer_depth: config.params.write_buffer_depth,
            ddr: config.ddr,
            kind: wl.kind(),
            bodies: (0..wl.reference_ops)
                .map(|k| wl.body(derive_seed(args.seed, k)))
                .collect(),
        };
        layers::replay(&stimulus, LAYER_BUDGET, &mut out);
        layers::trace_and_profile(|| wl.build(&config), 3, &mut out);
        reference.counts.emit(&mut out);
        for name in ["serve.requests", "serve.errors", "serve.trace_events"] {
            out.metric(name, 0.0, "count");
        }
    } else {
        // Each statistic is taken per stream and averaged over the
        // streams: the host's cores change speed independently, and a
        // pooled percentile would sit in the gap between a fast and a
        // slow stream. The gated percentiles are the slow tenth of
        // operations (p10 throughput, p90 latency and set-up time): a
        // core's fast spells come and go within and between runs, its
        // slow tenth does not.
        let per_stream = |f: fn(&Op) -> f64, p: f64| {
            mean(
                &streams
                    .iter()
                    .map(|s| percentile(&plain(s, f), p))
                    .collect::<Vec<f64>>(),
            )
        };
        out.metric("kcps_p10", per_stream(Op::kcps, 10.0), "Kcycles/s");
        out.metric("op_ms_p90", per_stream(latency_ms, 90.0), "ms");
        out.metric("tlm_err_pct", reference.tlm_err, "%");
        out.metric("lt_err_pct", reference.lt_err, "%");
        out.metric("setup_s", per_stream(Op::setup, 90.0), "s");
        out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
        out.check(
            "p90_has_10_samples_beyond",
            streams
                .iter()
                .all(|s| tail_supported(plain(s, latency_ms).len(), 90.0)),
        );
    }

    let sizes = format!(
        "{{\"masters\": {}, \"txns_per_master\": {TXNS_PER_MASTER}, \"expanded_txns\": {}, \
         \"reference_ops\": {}, \"streams\": {STREAMS}, \"ops\": {}, \"untraced_samples\": {}}}",
        wl.pattern.master_count(),
        wl.expected_txns(),
        wl.reference_ops,
        ops.len(),
        untraced.len()
    );
    out.meta("sizes", sizes);
    out.meta("model", format!("\"{}\"", wl.kind().id()));
    out.meta("digest", format!("\"{}\"", reference.digest.hex()));
    if wl.subject == Subject::Sharded {
        let multi = wl.multi(&wl.config(args.seed));
        out.meta(
            "scheduler",
            format!(
                "{{\"threaded\": {}, \"spin\": {}, \"lookahead\": {}, \"shards\": {SHARDS}}}",
                multi.threaded,
                multi.effective_spin_sync(),
                multi.lookahead
            ),
        );
    }
    Ok(out)
}
