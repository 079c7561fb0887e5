//! Isolated per-layer timings and the exact per-layer counts.
//!
//! Every timing calls a live public function of one layer and replays the
//! workload's own inputs: its expanded address stream, its master set and
//! QoS registers, its posted writes and its canonical request bodies.
//! Nothing here touches the event kernel; each replay reports the median
//! over repeated batches of the cost of one call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ahb_tlm::{ReadySet, WriteBuffer, WRITE_BUFFER_MASTER};
use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, RequestView};
use amba::qos::QosConfig;
use amba::signal::HResp;
use amba::txn::{Completion, Transaction, TxnArena};
use analysis::canon::parse;
use analysis::model::{BusModel, Probe, SyncStats};
use analysis::profile::{Profile, ProfileOptions};
use analysis::recorder::Recorder;
use analysis::report::ModelKind;
use analysis::trace::Tracer;
use ddrc::{DdrConfig, DdrController};
use simkern::time::Cycle;
use traffic::{Release, TrafficPattern, TrafficTrace};

use crate::stats::median;
use crate::Outcome;

/// Wall time each isolated layer replay may take in a traced run.
pub const LAYER_BUDGET: Duration = Duration::from_millis(150);

/// The expanded per-master workload every backend consumes.
pub type Expanded = Vec<(TrafficTrace, String, QosConfig, bool)>;

/// One workload's inputs, as the layers see them.
pub struct Stimulus {
    /// Expanded masters (positions index the ready set).
    pub masters: Expanded,
    /// Patterns and their expansion arguments, replayed through
    /// `TrafficPattern::expand`.
    pub expansions: Vec<(TrafficPattern, usize, u64)>,
    pub arbiter: ArbiterConfig,
    pub write_buffer_depth: usize,
    pub ddr: DdrConfig,
    pub kind: ModelKind,
    /// Canonical JSON request bodies describing the workload.
    pub bodies: Vec<String>,
}

/// One transaction of the merged address stream, in release order.
struct StreamItem {
    release: u64,
    position: usize,
    txn: Transaction,
    posted: bool,
}

fn merged_stream(masters: &Expanded) -> Vec<StreamItem> {
    let mut out = Vec::new();
    for (position, (trace, _, _, posted)) in masters.iter().enumerate() {
        let mut at = 0u64;
        for item in trace.items() {
            at = match item.release {
                Release::AfterPrevious(gap) => at + gap.value(),
                Release::At(cycle) => cycle.value().max(at),
            };
            out.push(StreamItem {
                release: at,
                position,
                txn: item.txn,
                posted: *posted && item.txn.is_write(),
            });
        }
    }
    out.sort_by_key(|s| (s.release, s.position));
    out
}

/// Median cost of one call over repeated batches. `batch` runs one
/// replay and returns how many calls it timed and how long they took.
fn per_call(budget: Duration, mut batch: impl FnMut() -> (usize, Duration)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 500) {
        let (calls, took) = batch();
        samples.push(took.as_nanos() as f64 / calls.max(1) as f64);
    }
    median(&samples)
}

/// Synthetic completions of the stream: granted two cycles after
/// release, one cycle per beat.
fn completions(stream: &[StreamItem]) -> Vec<(Completion, u32)> {
    stream
        .iter()
        .map(|s| {
            let granted = s.release + 2;
            let beats = s.txn.beats();
            (
                Completion {
                    id: s.txn.id,
                    master: s.txn.master,
                    response: HResp::Okay,
                    granted_at: Cycle::new(granted),
                    completed_at: Cycle::new(granted + u64::from(beats)),
                    issued_at: Cycle::new(s.release),
                    bytes: s.txn.bytes(),
                    via_write_buffer: s.posted,
                },
                beats,
            )
        })
        .collect()
}

/// Runs every isolated layer replay and reports it.
pub fn replay(stim: &Stimulus, budget: Duration, out: &mut Outcome) {
    let stream = merged_stream(&stim.masters);
    let n = stim.masters.len();

    let expand_ns = per_call(budget, || {
        let t = Instant::now();
        for (pattern, txns, seed) in &stim.expansions {
            black_box(pattern.expand(black_box(*txns), *seed));
        }
        (stim.expansions.len(), t.elapsed())
    });
    out.metric("traffic.expand_us", expand_ns / 1e3, "us");

    let ddr_ns = per_call(budget, || {
        let mut ddr = DdrController::new(stim.ddr);
        let mut now = 0u64;
        let t = Instant::now();
        for s in &stream {
            let at = s.release.max(now);
            let timing = ddr.access(Cycle::new(at), s.txn.addr, s.txn.is_write(), s.txn.beats());
            now = at + timing.total().value();
        }
        let took = t.elapsed();
        black_box(ddr.stats());
        (stream.len(), took)
    });
    out.metric("ddrc.access_ns", ddr_ns, "ns");

    // Each decision sees the masters of the next `n` stream entries as
    // pending, waiting as long as their releases lie apart, plus the
    // write buffer's request when a posted write is among them.
    let request_sets: Vec<Vec<RequestView>> = (0..stream.len())
        .map(|k| {
            let window = &stream[k..(k + n).min(stream.len())];
            let mut set: Vec<RequestView> = Vec::with_capacity(n + 1);
            for s in window {
                if set.iter().any(|v| v.master == s.txn.master) {
                    continue;
                }
                let qos = stim.masters[s.position].2;
                let mut view = RequestView::new(s.txn.master, qos, s.release - window[0].release);
                view.bank_ready = (s.txn.addr.value() >> 12) & 1 == 0;
                set.push(view);
            }
            if let Some(posted) = window.iter().filter(|s| s.posted).count().checked_sub(1) {
                let mut view = RequestView::new(WRITE_BUFFER_MASTER, QosConfig::default(), 0);
                view.is_write_buffer = true;
                view.write_buffer_fill = posted + 1;
                set.push(view);
            }
            set
        })
        .collect();
    let arb_ns = per_call(budget, || {
        let mut policy = ArbitrationPolicy::new(stim.arbiter.clone());
        let t = Instant::now();
        for set in &request_sets {
            if let Some(decision) = policy.decide(black_box(set)) {
                policy.record_grant(decision.master);
            }
        }
        let took = t.elapsed();
        black_box(policy.last_granted());
        (request_sets.len(), took)
    });
    out.metric("arb.decide_ns", arb_ns, "ns");

    // The engine's per-transaction ready-set work: sync to the release,
    // visit the ready masters, retire the head, schedule the master's
    // next release.
    // Walking the stream backwards leaves each master's first entry in
    // `first`, and gives every entry the release of its master's next.
    let mut next_release = vec![u64::MAX; stream.len()];
    let mut first = vec![usize::MAX; n];
    for (k, s) in stream.iter().enumerate().rev() {
        if first[s.position] != usize::MAX {
            next_release[k] = stream[first[s.position]].release;
        }
        first[s.position] = k;
    }
    let ready_ns = per_call(budget, || {
        let mut ready = ReadySet::new(n);
        for (position, index) in first.iter().enumerate() {
            if let Some(s) = stream.get(*index) {
                ready.schedule(position, Cycle::new(s.release));
            }
        }
        let mut visited = 0usize;
        let t = Instant::now();
        for (k, s) in stream.iter().enumerate() {
            ready.sync(Cycle::new(s.release));
            ready.for_each(|p| visited += p);
            ready.clear(s.position);
            if next_release[k] != u64::MAX {
                ready.schedule(s.position, Cycle::new(next_release[k]));
            }
        }
        let took = t.elapsed();
        black_box(visited);
        (stream.len(), took)
    });
    out.metric("ready.op_ns", ready_ns, "ns");

    let posted: Vec<&StreamItem> = stream.iter().filter(|s| s.posted).collect();
    let depth = stim.write_buffer_depth.max(1);
    let wb_ns = per_call(budget, || {
        let mut arena = TxnArena::with_capacity(depth + 1);
        let mut buffer = WriteBuffer::new(depth);
        let t = Instant::now();
        for s in &posted {
            let handle = arena.alloc(s.txn.with_posted(true));
            let now = Cycle::new(s.release);
            if !buffer.absorb(&arena, handle, now) {
                if let Some(write) = buffer.drain_head() {
                    arena.release(write.handle);
                }
                if !buffer.absorb(&arena, handle, now) {
                    arena.release(handle);
                }
            }
        }
        while let Some(write) = buffer.drain_head() {
            arena.release(write.handle);
        }
        let took = t.elapsed();
        black_box(buffer.drained());
        (posted.len(), took)
    });
    out.metric("wb.absorb_drain_ns", wb_ns, "ns");

    let done = completions(&stream);
    let recorder_ns = per_call(budget, || {
        let mut recorder = Recorder::new(stim.kind);
        for (trace, label, qos, _) in &stim.masters {
            recorder.register_master(trace.master(), label);
            recorder.register_qos(trace.master(), *qos);
        }
        let t = Instant::now();
        for (completion, beats) in &done {
            recorder.record_completion(black_box(completion), *beats);
        }
        let took = t.elapsed();
        black_box(recorder.completions());
        (done.len(), took)
    });
    out.metric("recorder.completion_ns", recorder_ns, "ns");

    for (name, enabled) in [("tracer.span_off_ns", false), ("tracer.span_on_ns", true)] {
        let ns = per_call(budget, || {
            let mut tracer = Tracer::disabled();
            tracer.set_enabled(enabled);
            let t = Instant::now();
            for (c, _) in &done {
                black_box(&mut tracer).span(
                    c.master.index() as u16,
                    c.id.value(),
                    c.issued_at.value(),
                    c.granted_at.value(),
                    c.completed_at.value(),
                    c.bytes,
                    0,
                );
            }
            let took = t.elapsed();
            black_box(tracer.take());
            (done.len(), took)
        });
        out.metric(name, ns, "ns");
    }

    let parse_ns = per_call(budget, || {
        let t = Instant::now();
        for body in &stim.bodies {
            black_box(parse(black_box(body)).is_ok());
        }
        (stim.bodies.len(), t.elapsed())
    });
    out.metric("canon.parse_us", parse_ns / 1e3, "us");
}

/// Times `take_trace` and `Profile::from_log` on traced runs of models
/// built by `build`; reports medians and the event count.
pub fn trace_and_profile(build: impl Fn() -> Box<dyn BusModel>, reps: usize, out: &mut Outcome) {
    let mut take = Vec::new();
    let mut profile = Vec::new();
    let mut events = 0;
    for _ in 0..reps.max(1) {
        let mut model = build();
        model.set_tracing(true);
        model.run_until(Cycle::MAX);
        let t = Instant::now();
        let log = model.take_trace().unwrap_or_default();
        take.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(Profile::from_log(&log, ProfileOptions::default()));
        profile.push(t.elapsed().as_secs_f64());
        events = log.events.len();
    }
    out.metric("trace.take_ms", median(&take) * 1e3, "ms");
    out.metric("profile.from_log_ms", median(&profile) * 1e3, "ms");
    out.metric("trace.events", events as f64, "count");
}

/// Exact work counts of a fixed batch of runs (the same seed always gives
/// the same values).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    txns: u64,
    cycles: u64,
    ddr_accesses: u64,
    ddr_hits: u64,
    wb_absorbed: u64,
    wb_peak: u64,
    barriers: u64,
    stretched: u64,
    quantum_sum: f64,
    synced_runs: u64,
    crossings: u64,
    fifo_peak: u64,
}

impl Counts {
    pub fn add(&mut self, probe: &Probe, cycles: u64, sync: Option<SyncStats>) {
        self.txns += probe.transactions;
        self.cycles += cycles;
        self.ddr_accesses += probe.dram_accesses;
        self.ddr_hits += probe.dram_row_hits + probe.dram_prepared_hits;
        self.wb_absorbed += probe.write_buffer_absorbed;
        self.wb_peak = self.wb_peak.max(probe.write_buffer_peak);
        self.crossings += probe.bridge_crossings;
        self.fifo_peak = self.fifo_peak.max(probe.bridge_fifo_peak);
        if let Some(sync) = sync {
            self.barriers += sync.barriers;
            self.stretched += sync.stretched;
            self.quantum_sum += sync.mean_quantum;
            self.synced_runs += 1;
        }
    }

    pub fn emit(&self, out: &mut Outcome) {
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 * 100.0 / whole as f64
            }
        };
        out.metric("model.txns", self.txns as f64, "count");
        out.metric("model.sim_cycles", self.cycles as f64, "count");
        out.metric("ddrc.accesses", self.ddr_accesses as f64, "count");
        out.metric(
            "ddrc.row_hit_pct",
            pct(self.ddr_hits, self.ddr_accesses),
            "%",
        );
        out.metric("wb.absorbed", self.wb_absorbed as f64, "count");
        out.metric("wb.peak", self.wb_peak as f64, "count");
        out.metric("multi.barriers", self.barriers as f64, "count");
        out.metric("multi.stretched", self.stretched as f64, "count");
        let mean_quantum = if self.synced_runs == 0 {
            0.0
        } else {
            self.quantum_sum / self.synced_runs as f64
        };
        out.metric("multi.mean_quantum", mean_quantum, "cycles");
        out.metric("multi.crossings", self.crossings as f64, "count");
        out.metric("multi.fifo_peak", self.fifo_peak as f64, "count");
    }
}
