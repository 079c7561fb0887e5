//! Latency attribution over trace streams.
//!
//! A [`crate::trace::TraceLog`] says *what happened*; this module says
//! *where the cycles went*. Every transaction's end-to-end latency is
//! decomposed into attributed components:
//!
//! * **arbitration wait** — request release to bus grant,
//! * **DDR service** — grant to retire on a local span, split by DRAM
//!   row hit/miss class ([`crate::trace::FLAG_ROW_HIT`]),
//! * **bridge handshake** — grant to retire of a posted crossing's
//!   local leg (the bridge slave buffers the burst),
//! * **response round trip** — grant to response arrival of a
//!   non-posted remote read (the master stalls the whole way),
//! * **write-buffer absorb** — request to absorption of a posted write
//!   (the master-visible span ends there).
//!
//! The five classes are exhaustive and exclusive, so for every
//! lifecycle completion `arbitration wait + service = request→retire
//! span` holds *exactly* — the invariant the catalogue-wide attribution
//! test enforces. Two further components live outside the
//! master-visible span and are reported separately: **write-buffer
//! residency** (absorb → drain completion, the bus-side cost of
//! posting) and **bridge queueing** (egress → replay release, plus the
//! return-FIFO leg of a read response).
//!
//! [`Profile`] aggregates the decomposition per master, per shard and
//! overall — exact latency percentiles (p50/p90/p99/p999), component
//! totals, the top-K slowest transactions with their breakdowns, and a
//! fixed-window bus-utilization timeline. [`ProfileDiff`] compares two
//! profiles (the regression story for perf work): per-master percentile
//! deltas plus an exact distribution-identity verdict, which is how the
//! fixed-vs-lookahead pair of a sharded platform shows its lifecycle
//! streams really are identical.
//!
//! Profiles build from an in-memory log ([`Profile::from_log`]) or
//! stream event-by-event through a [`ProfileBuilder`] (fed from a
//! `.ahbt` [`crate::tracebin::TraceReader`]), keeping memory
//! proportional to the transaction count, not the event count.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::jsonfmt::json_f64;
use crate::trace::{
    TraceEvent, TraceEventKind, TraceLog, FLAG_REMOTE, FLAG_ROW_HIT, SCHEDULER_SHARD,
};

/// How a transaction's service time (grant → retire) is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Local span whose DRAM access hit an open or prepared row.
    DdrRowHit,
    /// Local span that paid a row activation (miss or conflict).
    DdrRowMiss,
    /// Posted crossing: the local leg completes against the bridge
    /// slave's handshake, never touching local DRAM.
    BridgeHandshake,
    /// Non-posted remote read: the span closes when the response
    /// returns, so service covers the full round trip.
    ResponseRoundTrip,
    /// Posted write absorbed by the write buffer: the master-visible
    /// span is the absorption wait; service on the bus happens later,
    /// in the drain (reported as residency, outside this span).
    WriteBufferAbsorb,
}

impl ServiceClass {
    /// Stable machine-readable name (JSON keys, table rows).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            ServiceClass::DdrRowHit => "ddr-row-hit",
            ServiceClass::DdrRowMiss => "ddr-row-miss",
            ServiceClass::BridgeHandshake => "bridge-handshake",
            ServiceClass::ResponseRoundTrip => "response-round-trip",
            ServiceClass::WriteBufferAbsorb => "write-buffer-absorb",
        }
    }
}

/// One transaction's attributed latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnBreakdown {
    /// Shard the completion was traced on.
    pub shard: u16,
    /// Issuing master.
    pub master: u16,
    /// Transaction id.
    pub id: u64,
    /// Request release cycle.
    pub start: u64,
    /// Grant cycle (equals the absorption cycle for absorbed writes).
    pub grant: u64,
    /// Completion cycle (retire / absorption).
    pub end: u64,
    /// Bytes moved (0 for absorbed writes; their drain moves the data).
    pub bytes: u32,
    /// Event flag bits, verbatim.
    pub flags: u8,
    /// Service attribution class.
    pub class: ServiceClass,
}

/// The three intervals saturate at zero: every backend emits
/// `start <= grant <= end`, but a trace read back from a file need not,
/// and a malformed event must not panic the profiler.
impl TxnBreakdown {
    /// End-to-end master-visible latency (request → retire).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Arbitration wait component (request → grant).
    #[must_use]
    pub fn arb_wait(&self) -> u64 {
        self.grant.saturating_sub(self.start)
    }

    /// Service component (grant → retire), attributed to
    /// [`TxnBreakdown::class`]. `arb_wait + service == latency` exactly
    /// whenever `start <= grant <= end`.
    #[must_use]
    pub fn service(&self) -> u64 {
        self.end.saturating_sub(self.grant)
    }
}

/// Cycle totals per attributed component, summed over a group of
/// transactions (a master, a shard, or the whole run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentTotals {
    /// Arbitration wait (request → grant), all transactions.
    pub arb_wait: u64,
    /// DDR service of row-hit-class local spans.
    pub ddr_row_hit: u64,
    /// DDR service of row-miss-class local spans.
    pub ddr_row_miss: u64,
    /// Local handshake legs of posted bridge crossings.
    pub bridge_handshake: u64,
    /// Full round trips of non-posted remote reads.
    pub response_round_trip: u64,
    /// Absorption waits of posted writes (request → absorbed).
    pub write_buffer_absorb: u64,
    /// Outside the master-visible span: absorb → drain completion.
    pub write_buffer_residency: u64,
    /// Outside the master-visible span: bridge FIFO queueing (egress →
    /// replay release) plus return-FIFO crossing legs.
    pub bridge_queueing: u64,
}

impl ComponentTotals {
    fn add_txn(&mut self, txn: &TxnBreakdown) {
        self.arb_wait += txn.arb_wait();
        let service = txn.service();
        match txn.class {
            ServiceClass::DdrRowHit => self.ddr_row_hit += service,
            ServiceClass::DdrRowMiss => self.ddr_row_miss += service,
            ServiceClass::BridgeHandshake => self.bridge_handshake += service,
            ServiceClass::ResponseRoundTrip => self.response_round_trip += service,
            ServiceClass::WriteBufferAbsorb => self.write_buffer_absorb += service,
        }
    }

    /// Components inside the master-visible span; equals the group's
    /// summed request→retire latency exactly.
    #[must_use]
    pub fn span_total(&self) -> u64 {
        self.arb_wait
            + self.ddr_row_hit
            + self.ddr_row_miss
            + self.bridge_handshake
            + self.response_round_trip
            + self.write_buffer_absorb
    }

    /// The `(label, cycles)` rows in stable render order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 8] {
        [
            ("arb-wait", self.arb_wait),
            ("ddr-row-hit", self.ddr_row_hit),
            ("ddr-row-miss", self.ddr_row_miss),
            ("bridge-handshake", self.bridge_handshake),
            ("response-round-trip", self.response_round_trip),
            ("write-buffer-absorb", self.write_buffer_absorb),
            ("write-buffer-residency", self.write_buffer_residency),
            ("bridge-queueing", self.bridge_queueing),
        ]
    }

    fn to_json(self) -> String {
        let mut out = String::from("{");
        for (i, (label, value)) in self.rows().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", label.replace('-', "_"), value);
        }
        out.push('}');
        out
    }
}

/// Exact latency percentiles of one group (nearest-rank over the full
/// sample set — no histogram approximation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Percentiles {
    /// Nearest-rank percentiles over `sorted` (ascending). All zeros
    /// when empty.
    #[must_use]
    pub fn from_sorted(sorted: &[u64]) -> Percentiles {
        if sorted.is_empty() {
            return Percentiles::default();
        }
        let rank = |p: f64| -> u64 {
            let index = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[index]
        };
        Percentiles {
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            p999: rank(0.999),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Aggregated attribution for one group of transactions — a master, a
/// shard, or the whole run (`key` holds the master/shard id; the
/// overall group uses 0).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProfile {
    /// Master or shard id.
    pub key: u16,
    /// Master-visible completions (spans + absorbed writes).
    pub count: u64,
    /// Bytes moved by the group's spans.
    pub bytes: u64,
    /// Mean request→retire latency.
    pub mean: f64,
    /// Exact latency percentiles.
    pub percentiles: Percentiles,
    /// Attributed component totals.
    pub components: ComponentTotals,
}

impl GroupProfile {
    fn from_samples(key: u16, samples: &mut GroupSamples) -> GroupProfile {
        samples.latencies.sort_unstable();
        let count = samples.latencies.len() as u64;
        let total: u64 = samples.latencies.iter().sum();
        GroupProfile {
            key,
            count,
            bytes: samples.bytes,
            mean: if count == 0 {
                0.0
            } else {
                total as f64 / count as f64
            },
            percentiles: Percentiles::from_sorted(&samples.latencies),
            components: samples.components,
        }
    }

    fn to_json(&self, key_name: &str) -> String {
        let p = &self.percentiles;
        format!(
            "{{\"{key_name}\": {}, \"count\": {}, \"bytes\": {}, \"mean\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}, \
             \"components\": {}}}",
            self.key,
            self.count,
            self.bytes,
            json_f64(self.mean),
            p.p50,
            p.p90,
            p.p99,
            p.p999,
            p.max,
            self.components.to_json()
        )
    }
}

/// One fixed window of the bus-utilization timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtilizationWindow {
    /// First cycle of the window.
    pub start: u64,
    /// Bus-busy cycles inside the window, summed over shards (span and
    /// drain occupancy, grant → retire).
    pub busy: u64,
    /// Window length × shard count.
    pub capacity: u64,
}

impl UtilizationWindow {
    /// Busy fraction relative to `capacity`. Occupancy is summed per
    /// event, so windows where pipelined bursts, drains and bridge
    /// replays overlap on one shard can exceed 1.0 — that is precisely
    /// the saturation signal the timeline exists to surface.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.busy as f64 / self.capacity as f64
    }
}

/// Most windows a utilization timeline holds. A trace reaching past
/// `window × MAX_TIMELINE_WINDOWS` cycles widens the window (doubling it
/// and folding adjacent pairs) instead of growing the timeline, so the
/// profile's memory does not depend on how large the trace's cycle
/// stamps are.
pub const MAX_TIMELINE_WINDOWS: usize = 1 << 16;

/// Tuning knobs of a profile build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Utilization-timeline window length in cycles (0 counts as 1). The
    /// finished [`Profile`] reports the effective length, which is wider
    /// when the trace spans more than [`MAX_TIMELINE_WINDOWS`] windows.
    pub window: u64,
    /// How many slowest transactions to keep with full breakdowns.
    pub top_k: usize,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions {
            window: 4096,
            top_k: 10,
        }
    }
}

#[derive(Debug, Default)]
struct GroupSamples {
    latencies: Vec<u64>,
    bytes: u64,
    components: ComponentTotals,
}

/// Sample groups indexed directly by master or shard id, so the per-event
/// lookup is an array index; `None` marks an id no event has named.
#[derive(Debug, Default)]
struct Groups(Vec<Option<GroupSamples>>);

impl Groups {
    fn entry(&mut self, key: u16) -> &mut GroupSamples {
        let index = usize::from(key);
        if index >= self.0.len() {
            self.0.resize_with(index + 1, || None);
        }
        self.0[index].get_or_insert_with(GroupSamples::default)
    }

    /// The finished groups in id order, `skip` left out.
    fn finish(&mut self, skip: Option<u16>) -> Vec<GroupProfile> {
        self.0
            .iter_mut()
            .enumerate()
            .filter_map(|(index, samples)| {
                let key = index as u16;
                let samples = samples.as_mut().filter(|_| Some(key) != skip)?;
                Some(GroupProfile::from_samples(key, samples))
            })
            .collect()
    }
}

/// Streaming profile accumulator: feed events in any order via
/// [`ProfileBuilder::add`], then [`ProfileBuilder::finish`]. Only
/// per-transaction pairing state and latency samples are retained, so
/// memory scales with transactions, not events.
///
/// The per-event path does no hashing: groups and the utilization
/// timeline are indexed by id and window number, and the pairing state
/// (absorbed writes awaiting their drain, crossings awaiting their next
/// leg) lives in ordered maps that hold only what is in flight.
#[derive(Debug)]
pub struct ProfileBuilder {
    options: ProfileOptions,
    masters: Groups,
    shards: Groups,
    overall: GroupSamples,
    /// Absorption cycle per (master, id), consumed by the drain.
    absorbed_at: BTreeMap<(u16, u64), u64>,
    /// Pending egress cycles per (master, id) — a non-posted read
    /// crosses twice (request out, response back), hence a small queue.
    egress_at: BTreeMap<(u16, u64), Vec<u64>>,
    /// (master, id) of remote reads whose response leg arrived; their
    /// closing span is a round trip. The response event always sorts
    /// before its span (same cycle, lower sequence number).
    responded: BTreeSet<(u16, u64)>,
    /// Busy cycles per timeline window index.
    busy: Vec<u64>,
    /// Effective timeline window length: the configured one, doubled
    /// as often as the largest cycle seen needs.
    window: u64,
    /// `window × MAX_TIMELINE_WINDOWS` (saturating): the first cycle the
    /// timeline cannot hold without widening.
    timeline_end: u64,
    slowest: Vec<TxnBreakdown>,
    max_cycle: u64,
    events: u64,
    scheduler_events: u64,
}

impl ProfileBuilder {
    /// A builder with the given options.
    #[must_use]
    pub fn new(options: ProfileOptions) -> ProfileBuilder {
        let window = options.window.max(1);
        ProfileBuilder {
            options,
            masters: Groups::default(),
            shards: Groups::default(),
            overall: GroupSamples::default(),
            absorbed_at: BTreeMap::new(),
            egress_at: BTreeMap::new(),
            responded: BTreeSet::new(),
            busy: Vec::new(),
            window,
            timeline_end: window.saturating_mul(MAX_TIMELINE_WINDOWS as u64),
            slowest: Vec::new(),
            max_cycle: 0,
            events: 0,
            scheduler_events: 0,
        }
    }

    /// Doubles the window, folding adjacent windows, until `cycle` falls
    /// inside the last timeline window.
    fn widen_to(&mut self, cycle: u64) {
        while cycle / self.window >= MAX_TIMELINE_WINDOWS as u64 {
            // `cycle / window ≥ 2^16` keeps `window` below 2^48, so the
            // doubling cannot overflow.
            self.window *= 2;
            let pairs = self.busy.len().div_ceil(2);
            for index in 0..pairs {
                let high = self.busy.get(2 * index + 1).copied().unwrap_or(0);
                self.busy[index] = self.busy[2 * index].saturating_add(high);
            }
            self.busy.truncate(pairs);
        }
        self.timeline_end = self.window.saturating_mul(MAX_TIMELINE_WINDOWS as u64);
    }

    /// Adds `[from, to)` to the timeline; `to` never lies past the
    /// largest cycle seen, so every window it touches exists.
    fn add_busy(&mut self, from: u64, to: u64) {
        if to <= from {
            return;
        }
        let window = self.window;
        let last = ((to - 1) / window) as usize;
        if last >= self.busy.len() {
            self.busy.resize(last + 1, 0);
        }
        let mut cursor = from;
        while cursor < to {
            let index = cursor / window;
            let window_end = (index + 1).saturating_mul(window);
            let slice_end = to.min(window_end);
            let busy = &mut self.busy[index as usize];
            *busy = busy.saturating_add(slice_end - cursor);
            cursor = slice_end;
        }
    }

    fn record_txn(&mut self, txn: TxnBreakdown) {
        let latency = txn.latency();
        for samples in [
            self.masters.entry(txn.master),
            self.shards.entry(txn.shard),
            &mut self.overall,
        ] {
            samples.latencies.push(latency);
            samples.bytes += u64::from(txn.bytes);
            samples.components.add_txn(&txn);
        }
        // Keep the K slowest seen so far (insertion into a small sorted
        // buffer; K is tiny, so this stays O(events × K)).
        let position = self
            .slowest
            .partition_point(|kept| kept.latency() >= latency);
        if position < self.options.top_k {
            self.slowest.insert(position, txn);
            self.slowest.truncate(self.options.top_k);
        }
    }

    /// Feeds one event. Events may arrive in any order, but the
    /// canonical `(cycle, shard, seq)` order — what every exporter and
    /// reader produces — guarantees response legs precede their closing
    /// spans.
    pub fn add(&mut self, event: &TraceEvent) {
        self.events += 1;
        self.max_cycle = self.max_cycle.max(event.cycle);
        if event.cycle >= self.timeline_end {
            self.widen_to(event.cycle);
        }
        let key = (event.master, event.id);
        match event.kind {
            TraceEventKind::Span => {
                let class = if event.flags & FLAG_REMOTE != 0 {
                    if self.responded.remove(&key) {
                        ServiceClass::ResponseRoundTrip
                    } else {
                        ServiceClass::BridgeHandshake
                    }
                } else if event.flags & FLAG_ROW_HIT != 0 {
                    ServiceClass::DdrRowHit
                } else {
                    ServiceClass::DdrRowMiss
                };
                // Round trips do not occupy the local bus end-to-end;
                // only local and handshake legs count as occupancy.
                if class != ServiceClass::ResponseRoundTrip {
                    self.add_busy(event.grant, event.cycle);
                }
                self.record_txn(TxnBreakdown {
                    shard: event.shard,
                    master: event.master,
                    id: event.id,
                    start: event.start,
                    grant: event.grant,
                    end: event.cycle,
                    bytes: event.bytes,
                    flags: event.flags,
                    class,
                });
            }
            TraceEventKind::Absorb => {
                self.absorbed_at.insert(key, event.cycle);
                self.record_txn(TxnBreakdown {
                    shard: event.shard,
                    master: event.master,
                    id: event.id,
                    start: event.start,
                    grant: event.cycle,
                    end: event.cycle,
                    bytes: event.bytes,
                    flags: event.flags,
                    class: ServiceClass::WriteBufferAbsorb,
                });
            }
            TraceEventKind::Drain => {
                self.add_busy(event.start, event.cycle);
                if let Some(absorbed) = self.absorbed_at.remove(&key) {
                    let residency = event.cycle.saturating_sub(absorbed);
                    for samples in [
                        self.masters.entry(event.master),
                        self.shards.entry(event.shard),
                        &mut self.overall,
                    ] {
                        samples.components.write_buffer_residency += residency;
                    }
                }
            }
            TraceEventKind::BridgeEgress => {
                self.egress_at.entry(key).or_default().push(event.cycle);
            }
            TraceEventKind::BridgeReplay | TraceEventKind::BridgeResponse => {
                if event.kind == TraceEventKind::BridgeResponse {
                    self.responded.insert(key);
                }
                // Pair against the oldest pending egress for this
                // transaction: replay legs measure FIFO queueing, the
                // response leg measures the return-FIFO crossing.
                if let Entry::Occupied(mut pending) = self.egress_at.entry(key) {
                    let issued = pending.get_mut().remove(0);
                    if pending.get().is_empty() {
                        pending.remove();
                    }
                    let wait = event.cycle.saturating_sub(issued);
                    for samples in [
                        self.masters.entry(event.master),
                        self.shards.entry(event.shard),
                        &mut self.overall,
                    ] {
                        samples.components.bridge_queueing += wait;
                    }
                }
            }
            TraceEventKind::Barrier | TraceEventKind::Stretch => {
                self.scheduler_events += 1;
            }
        }
    }

    /// Finalizes the profile: sorts samples, computes percentiles and
    /// renders the utilization timeline.
    #[must_use]
    pub fn finish(mut self) -> Profile {
        let masters = self.masters.finish(None);
        let shards = self.shards.finish(Some(SCHEDULER_SHARD));
        let overall = GroupProfile::from_samples(0, &mut self.overall);
        let shard_count = shards.len().max(1) as u64;
        let window = self.window;
        let windows = if self.max_cycle == 0 && self.busy.is_empty() {
            0
        } else {
            self.max_cycle / window + 1
        };
        let timeline: Vec<UtilizationWindow> = (0..windows)
            .map(|index| UtilizationWindow {
                start: index * window,
                busy: self.busy.get(index as usize).copied().unwrap_or(0),
                capacity: window.saturating_mul(shard_count),
            })
            .collect();
        Profile {
            options: ProfileOptions {
                window,
                ..self.options
            },
            masters,
            shards,
            overall,
            slowest: self.slowest,
            timeline,
            events: self.events,
            scheduler_events: self.scheduler_events,
        }
    }
}

/// The attribution report of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The options the profile was built with.
    pub options: ProfileOptions,
    /// Per-master groups, ordered by master id.
    pub masters: Vec<GroupProfile>,
    /// Per-shard groups, ordered by shard id (scheduler pseudo-shard
    /// excluded).
    pub shards: Vec<GroupProfile>,
    /// The whole run as one group.
    pub overall: GroupProfile,
    /// The K slowest transactions, slowest first.
    pub slowest: Vec<TxnBreakdown>,
    /// Fixed-window bus-utilization timeline.
    pub timeline: Vec<UtilizationWindow>,
    /// Events consumed (all kinds).
    pub events: u64,
    /// Scheduler events among them (barriers + stretches) — excluded
    /// from every distribution, so fixed-quantum and lookahead runs of
    /// the same workload profile identically.
    pub scheduler_events: u64,
}

impl Profile {
    /// Builds a profile from an in-memory log.
    #[must_use]
    pub fn from_log(log: &TraceLog, options: ProfileOptions) -> Profile {
        let mut builder = ProfileBuilder::new(options);
        for event in &log.events {
            builder.add(event);
        }
        builder.finish()
    }

    /// Mean utilization over the timeline (0.0 when empty).
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.timeline.is_empty() {
            return 0.0;
        }
        self.timeline
            .iter()
            .map(UtilizationWindow::utilization)
            .sum::<f64>()
            / self.timeline.len() as f64
    }

    /// Peak window utilization (0.0 when empty).
    #[must_use]
    pub fn peak_utilization(&self) -> f64 {
        self.timeline
            .iter()
            .map(UtilizationWindow::utilization)
            .fold(0.0, f64::max)
    }

    /// Renders the attribution report as a human-readable table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} events ({} scheduler), {} completions, {} bytes",
            self.events, self.scheduler_events, self.overall.count, self.overall.bytes
        );
        let _ = writeln!(
            out,
            "bus utilization: mean {:.1}%, peak {:.1}% over {} windows of {} cycles",
            self.mean_utilization() * 100.0,
            self.peak_utilization() * 100.0,
            self.timeline.len(),
            self.options.window
        );
        let _ = writeln!(
            out,
            "\n{:<8} {:>7} {:>10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "master", "txns", "bytes", "mean", "p50", "p90", "p99", "p999", "max"
        );
        for group in &self.masters {
            let p = &group.percentiles;
            let _ = writeln!(
                out,
                "m{:<7} {:>7} {:>10} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>7}",
                group.key, group.count, group.bytes, group.mean, p.p50, p.p90, p.p99, p.p999, p.max
            );
        }
        if self.shards.len() > 1 {
            let _ = writeln!(
                out,
                "\n{:<8} {:>7} {:>10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
                "shard", "txns", "bytes", "mean", "p50", "p90", "p99", "p999", "max"
            );
            for group in &self.shards {
                let p = &group.percentiles;
                let _ = writeln!(
                    out,
                    "s{:<7} {:>7} {:>10} {:>9.1} {:>7} {:>7} {:>7} {:>7} {:>7}",
                    group.key,
                    group.count,
                    group.bytes,
                    group.mean,
                    p.p50,
                    p.p90,
                    p.p99,
                    p.p999,
                    p.max
                );
            }
        }
        let _ = writeln!(out, "\nattributed cycles (all masters):");
        let span_total = self.overall.components.span_total();
        for (label, value) in self.overall.components.rows() {
            let share = if span_total == 0 {
                0.0
            } else {
                value as f64 / span_total as f64 * 100.0
            };
            let _ = writeln!(out, "  {label:<24} {value:>12}  ({share:>5.1}%)");
        }
        let _ = writeln!(
            out,
            "  (shares are of the {span_total}-cycle master-visible span total; \
             residency and queueing run concurrently with it)"
        );
        if !self.slowest.is_empty() {
            let _ = writeln!(
                out,
                "\nslowest transactions:\n{:<8} {:>7} {:>8} {:>10} {:>10} {:>10}  class",
                "master", "shard", "id", "latency", "arb-wait", "service"
            );
            for txn in &self.slowest {
                let _ = writeln!(
                    out,
                    "m{:<7} {:>7} {:>8} {:>10} {:>10} {:>10}  {}",
                    txn.master,
                    txn.shard,
                    txn.id,
                    txn.latency(),
                    txn.arb_wait(),
                    txn.service(),
                    txn.class.id()
                );
            }
        }
        out
    }

    /// The full report as JSON (schema `ahbplus-trace-profile/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"ahbplus-trace-profile/v1\",");
        let _ = writeln!(out, "  \"events\": {},", self.events);
        let _ = writeln!(out, "  \"scheduler_events\": {},", self.scheduler_events);
        let _ = writeln!(out, "  \"window\": {},", self.options.window);
        let _ = writeln!(out, "  \"overall\": {},", self.overall.to_json("key"));
        let join = |groups: &[GroupProfile], key: &str| -> String {
            groups
                .iter()
                .map(|g| g.to_json(key))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  \"masters\": [{}],", join(&self.masters, "master"));
        let _ = writeln!(out, "  \"shards\": [{}],", join(&self.shards, "shard"));
        let slowest = self
            .slowest
            .iter()
            .map(|txn| {
                format!(
                    "{{\"master\": {}, \"shard\": {}, \"id\": {}, \"start\": {}, \
                     \"grant\": {}, \"end\": {}, \"latency\": {}, \"arb_wait\": {}, \
                     \"service\": {}, \"class\": \"{}\"}}",
                    txn.master,
                    txn.shard,
                    txn.id,
                    txn.start,
                    txn.grant,
                    txn.end,
                    txn.latency(),
                    txn.arb_wait(),
                    txn.service(),
                    txn.class.id()
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  \"slowest\": [{slowest}],");
        let timeline = self
            .timeline
            .iter()
            .map(|w| {
                format!(
                    "{{\"start\": {}, \"busy\": {}, \"capacity\": {}}}",
                    w.start, w.busy, w.capacity
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  \"timeline\": [{timeline}]");
        out.push('}');
        out.push('\n');
        out
    }

    /// The compact summary a serving layer embeds in its report line:
    /// per-master p50/p99 plus the run-wide component totals.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let masters = self
            .masters
            .iter()
            .map(|g| {
                format!(
                    "{{\"master\": {}, \"count\": {}, \"p50\": {}, \"p99\": {}}}",
                    g.key, g.count, g.percentiles.p50, g.percentiles.p99
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"masters\": [{masters}], \"components\": {}}}",
            self.overall.components.to_json()
        )
    }
}

/// One master's side-by-side comparison inside a [`ProfileDiff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupDelta {
    /// Master id.
    pub key: u16,
    /// Completions in A / B.
    pub count: (u64, u64),
    /// Mean latency in A / B.
    pub mean: (f64, f64),
    /// p50 in A / B.
    pub p50: (u64, u64),
    /// p99 in A / B.
    pub p99: (u64, u64),
    /// Whether every compared statistic (count, bytes, mean,
    /// percentiles, component totals) is identical.
    pub identical: bool,
}

/// The A/B comparison of two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Per-master rows, ordered by master id (union of both sides).
    pub masters: Vec<GroupDelta>,
    /// Overall component totals of A and B.
    pub components: (ComponentTotals, ComponentTotals),
    /// Overall completions of A and B.
    pub count: (u64, u64),
    /// `true` when every per-master and overall lifecycle statistic is
    /// identical — the schedule-independence verdict for a
    /// fixed-vs-lookahead pair.
    pub identical_distributions: bool,
}

impl ProfileDiff {
    /// Compares two profiles (A = baseline, B = candidate).
    #[must_use]
    pub fn between(a: &Profile, b: &Profile) -> ProfileDiff {
        let keys: std::collections::BTreeSet<u16> =
            a.masters.iter().chain(&b.masters).map(|g| g.key).collect();
        let empty = |key: u16| GroupProfile {
            key,
            count: 0,
            bytes: 0,
            mean: 0.0,
            percentiles: Percentiles::default(),
            components: ComponentTotals::default(),
        };
        let mut identical = true;
        let masters: Vec<GroupDelta> = keys
            .into_iter()
            .map(|key| {
                let find = |profile: &Profile| -> Option<GroupProfile> {
                    profile.masters.iter().find(|g| g.key == key).cloned()
                };
                let ga = find(a).unwrap_or_else(|| empty(key));
                let gb = find(b).unwrap_or_else(|| empty(key));
                let same = ga == gb;
                identical &= same;
                GroupDelta {
                    key,
                    count: (ga.count, gb.count),
                    mean: (ga.mean, gb.mean),
                    p50: (ga.percentiles.p50, gb.percentiles.p50),
                    p99: (ga.percentiles.p99, gb.percentiles.p99),
                    identical: same,
                }
            })
            .collect();
        identical &= a.overall == b.overall;
        ProfileDiff {
            masters,
            components: (a.overall.components, b.overall.components),
            count: (a.overall.count, b.overall.count),
            identical_distributions: identical,
        }
    }

    /// Renders the comparison as a human-readable table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "completions: {} vs {}{}",
            self.count.0,
            self.count.1,
            if self.identical_distributions {
                " — lifecycle distributions identical"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "\n{:<8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  same",
            "master", "txns A", "txns B", "p50 A", "p50 B", "p99 A", "p99 B"
        );
        for row in &self.masters {
            let _ = writeln!(
                out,
                "m{:<7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}  {}",
                row.key,
                row.count.0,
                row.count.1,
                row.p50.0,
                row.p50.1,
                row.p99.0,
                row.p99.1,
                if row.identical { "yes" } else { "NO" }
            );
        }
        let _ = writeln!(out, "\nattributed cycles (A vs B):");
        for ((label, a), (_, b)) in self
            .components
            .0
            .rows()
            .iter()
            .zip(self.components.1.rows().iter())
        {
            let delta = *b as i64 - *a as i64;
            let _ = writeln!(out, "  {label:<24} {a:>12} {b:>12}  ({delta:+})");
        }
        out
    }

    /// The comparison as JSON (schema `ahbplus-trace-profile-diff/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let masters = self
            .masters
            .iter()
            .map(|row| {
                format!(
                    "{{\"master\": {}, \"count_a\": {}, \"count_b\": {}, \
                     \"mean_a\": {}, \"mean_b\": {}, \"p50_a\": {}, \"p50_b\": {}, \
                     \"p99_a\": {}, \"p99_b\": {}, \"identical\": {}}}",
                    row.key,
                    row.count.0,
                    row.count.1,
                    json_f64(row.mean.0),
                    json_f64(row.mean.1),
                    row.p50.0,
                    row.p50.1,
                    row.p99.0,
                    row.p99.1,
                    row.identical
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"schema\": \"ahbplus-trace-profile-diff/v1\",\n  \
             \"identical_distributions\": {},\n  \"count_a\": {}, \"count_b\": {},\n  \
             \"masters\": [{masters}],\n  \"components_a\": {},\n  \"components_b\": {}\n}}\n",
            self.identical_distributions,
            self.count.0,
            self.count.1,
            self.components.0.to_json(),
            self.components.1.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Tracer, FLAG_WRITE, FLAG_WRITE_BUFFER};

    fn sample_log() -> TraceLog {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        // Two local spans (one row hit, one miss), an absorbed write
        // with its drain, and a remote round-trip read.
        tracer.span(0, 1, 0, 4, 20, 64, FLAG_ROW_HIT);
        tracer.span(1, 2, 5, 12, 40, 32, FLAG_WRITE);
        tracer.absorb(0, 3, 42, 44);
        tracer.drain(0, 3, 50, 58);
        tracer.bridge(TraceEventKind::BridgeEgress, 1, 4, 60, 60, 0);
        tracer.bridge(TraceEventKind::BridgeReplay, 1, 4, 60, 70, 0);
        tracer.bridge(TraceEventKind::BridgeEgress, 1, 4, 80, 80, 0);
        tracer.bridge(TraceEventKind::BridgeResponse, 1, 4, 60, 90, 0);
        tracer.span(1, 4, 58, 60, 90, 16, FLAG_REMOTE);
        tracer.barrier(96, 96);
        tracer.take()
    }

    #[test]
    fn components_sum_to_the_observed_span() {
        let profile = Profile::from_log(&sample_log(), ProfileOptions::default());
        // 4 master-visible completions: ids 1, 2, 3 (absorb), 4.
        assert_eq!(profile.overall.count, 4);
        let expected: u64 = 20 + (40 - 5) + (44 - 42) + (90 - 58);
        assert_eq!(profile.overall.components.span_total(), expected);
        // Per class: id 1 hit (16 cycles), id 2 miss (28), id 4 round
        // trip (30), id 3 absorb (0 service; 2 cycles arb wait).
        let c = &profile.overall.components;
        assert_eq!(c.ddr_row_hit, 16);
        assert_eq!(c.ddr_row_miss, 28);
        assert_eq!(c.response_round_trip, 30);
        assert_eq!(c.write_buffer_absorb, 0);
        assert_eq!(c.arb_wait, 4 + 7 + 2 + 2);
        // Outside the span: residency 58-44, queueing (70-60) + (90-80).
        assert_eq!(c.write_buffer_residency, 14);
        assert_eq!(c.bridge_queueing, 20);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        let p = Percentiles::from_sorted(&sorted);
        assert_eq!(p.p50, 500);
        assert_eq!(p.p90, 900);
        assert_eq!(p.p99, 990);
        assert_eq!(p.p999, 999);
        assert_eq!(p.max, 1000);
        assert_eq!(Percentiles::from_sorted(&[]), Percentiles::default());
        let single = Percentiles::from_sorted(&[7]);
        assert_eq!((single.p50, single.p999, single.max), (7, 7, 7));
    }

    #[test]
    fn masters_and_shards_group_independently() {
        let mut a = Tracer::disabled();
        a.set_enabled(true);
        a.set_shard(0);
        a.span(0, 1, 0, 2, 10, 32, 0);
        let mut b = Tracer::disabled();
        b.set_enabled(true);
        b.set_shard(1);
        b.span(0, 2, 0, 4, 30, 32, 0);
        b.span(1, 3, 0, 6, 20, 32, 0);
        let log = TraceLog::merge(vec![a.take(), b.take()]);
        let profile = Profile::from_log(&log, ProfileOptions::default());
        assert_eq!(profile.masters.len(), 2);
        assert_eq!(profile.masters[0].count, 2, "master 0 spans both shards");
        assert_eq!(profile.shards.len(), 2);
        assert_eq!(profile.shards[1].count, 2);
        assert_eq!(profile.overall.count, 3);
    }

    #[test]
    fn slowest_transactions_keep_the_top_k() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        for i in 0..20u64 {
            tracer.span(0, i, 0, 1, 1 + i, 8, 0);
        }
        let profile = Profile::from_log(
            &tracer.take(),
            ProfileOptions {
                top_k: 3,
                ..ProfileOptions::default()
            },
        );
        let latencies: Vec<u64> = profile.slowest.iter().map(TxnBreakdown::latency).collect();
        assert_eq!(latencies, vec![20, 19, 18]);
    }

    #[test]
    fn utilization_timeline_splits_busy_spans_across_windows() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        // Busy from grant 90 to retire 110 over 100-cycle windows: 10
        // cycles in window 0, 10 in window 1.
        tracer.span(0, 1, 80, 90, 110, 32, 0);
        let profile = Profile::from_log(
            &tracer.take(),
            ProfileOptions {
                window: 100,
                ..ProfileOptions::default()
            },
        );
        assert_eq!(profile.timeline.len(), 2);
        assert_eq!(profile.timeline[0].busy, 10);
        assert_eq!(profile.timeline[1].busy, 10);
        assert_eq!(profile.timeline[0].capacity, 100);
        assert!(profile.peak_utilization() > 0.0);
    }

    #[test]
    fn diff_flags_identical_and_divergent_distributions() {
        let log = sample_log();
        let options = ProfileOptions::default();
        let a = Profile::from_log(&log, options);
        let b = Profile::from_log(&log, options);
        let same = ProfileDiff::between(&a, &b);
        assert!(same.identical_distributions);
        assert!(same.format_table().contains("identical"));

        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.span(0, 1, 0, 4, 25, 64, FLAG_ROW_HIT);
        let c = Profile::from_log(&tracer.take(), options);
        let diff = ProfileDiff::between(&a, &c);
        assert!(!diff.identical_distributions);
        assert!(diff
            .to_json()
            .contains("\"identical_distributions\": false"));
    }

    #[test]
    fn scheduler_events_do_not_touch_distributions() {
        let base = Profile::from_log(&sample_log(), ProfileOptions::default());
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.span(0, 1, 0, 4, 20, 64, FLAG_ROW_HIT);
        tracer.span(1, 2, 5, 12, 40, 32, FLAG_WRITE);
        tracer.absorb(0, 3, 42, 44);
        tracer.drain(0, 3, 50, 58);
        tracer.bridge(TraceEventKind::BridgeEgress, 1, 4, 60, 60, 0);
        tracer.bridge(TraceEventKind::BridgeReplay, 1, 4, 60, 70, 0);
        tracer.bridge(TraceEventKind::BridgeEgress, 1, 4, 80, 80, 0);
        tracer.bridge(TraceEventKind::BridgeResponse, 1, 4, 60, 90, 0);
        tracer.span(1, 4, 58, 60, 90, 16, FLAG_REMOTE);
        // Different scheduler activity than sample_log().
        tracer.barrier(48, 48);
        tracer.barrier(96, 48);
        tracer.stretch(96, 12);
        let other = Profile::from_log(&tracer.take(), ProfileOptions::default());
        let diff = ProfileDiff::between(&base, &other);
        assert!(diff.identical_distributions);
        assert_ne!(base.scheduler_events, other.scheduler_events);
    }

    #[test]
    fn renders_table_json_and_summary() {
        let profile = Profile::from_log(&sample_log(), ProfileOptions::default());
        let table = profile.format_table();
        assert!(table.contains("arb-wait"), "{table}");
        assert!(table.contains("slowest transactions"), "{table}");
        let json = profile.to_json();
        assert!(json.contains("\"schema\": \"ahbplus-trace-profile/v1\""));
        assert!(json.contains("\"masters\": ["));
        assert!(json.contains("\"timeline\": ["));
        let summary = profile.summary_json();
        assert!(summary.contains("\"p99\""), "{summary}");
        assert!(summary.contains("\"arb_wait\""), "{summary}");
    }

    #[test]
    fn out_of_order_span_stamps_saturate_instead_of_panicking() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        // Granted after it retired, and retired before it was requested.
        tracer.span(0, 1, 0, 9, 4, 8, 0);
        tracer.span(0, 2, 30, 20, 10, 8, 0);
        let profile = Profile::from_log(&tracer.take(), ProfileOptions::default());
        let c = &profile.overall.components;
        assert_eq!(profile.overall.count, 2);
        assert_eq!((c.arb_wait, c.ddr_row_miss), (9, 0));
        assert_eq!(profile.overall.percentiles.max, 4);
    }

    #[test]
    fn far_cycle_stamps_widen_the_timeline_instead_of_growing_it() {
        for far in [18_446_744_073_709_551_000u64, 100_000_000_000] {
            for grant in [far - 5, 0] {
                let mut tracer = Tracer::disabled();
                tracer.set_enabled(true);
                tracer.span(0, 1, 0, 10, 30, 8, 0);
                tracer.span(0, 2, 0, grant, far, 8, 0);
                let profile = Profile::from_log(&tracer.take(), ProfileOptions::default());
                let timeline = &profile.timeline;
                assert!(
                    timeline.len() <= MAX_TIMELINE_WINDOWS,
                    "{far}: {}",
                    timeline.len()
                );
                let window = profile.options.window;
                assert!(window > ProfileOptions::default().window);
                assert_eq!(window % ProfileOptions::default().window, 0);
                let last = timeline.last().expect("non-empty timeline");
                assert!(last.start <= far && far - last.start < window);
                // Folding keeps every busy cycle.
                let busy: u64 = timeline.iter().map(|w| w.busy).sum();
                assert_eq!(busy, 20 + (far - grant), "{far}/{grant}");
            }
        }
    }

    #[test]
    fn write_buffer_flagged_events_parse_flags_verbatim() {
        let mut tracer = Tracer::disabled();
        tracer.set_enabled(true);
        tracer.absorb(3, 9, 10, 12);
        let log = tracer.take();
        let profile = Profile::from_log(&log, ProfileOptions::default());
        assert_eq!(profile.slowest.len(), 1);
        assert_eq!(
            profile.slowest[0].flags & FLAG_WRITE_BUFFER,
            FLAG_WRITE_BUFFER
        );
        assert_eq!(profile.slowest[0].class, ServiceClass::WriteBufferAbsorb);
    }
}
