//! The AHB-to-AHB bridge vocabulary shared by multi-bus platforms.
//!
//! A multi-bus platform splits the address space into windows, each owned
//! by one bus *shard*. A transaction whose address falls into a remote
//! shard's window leaves the shard through the bridge's slave port and is
//! later replayed on the owning shard by that shard's bridge master port.
//! [`WindowMap`] is the window decode both sides agree on — interleaved
//! round-robin ownership ([`ShardMap`], the classic layout) or an explicit
//! per-window owner table for non-uniform platforms; [`BridgeCrossing`] is
//! the record a shard's bridge emits when a transaction (or a read
//! response) leaves the shard, with [`CrossingLeg`] saying which leg of
//! the protocol it is; [`ReplayStats`] counts the work a shard's bridge
//! master replayed on behalf of remote shards, so platform-level
//! aggregation can count every transaction exactly once.
//!
//! # The bridge endpoint
//!
//! [`BridgeEndpoint`] is the whole bridge-side state of one shard, owned
//! once so every shard-capable backend embeds it instead of keeping its
//! own copy:
//!
//! * the [`BridgePort`] (window decode, slave timing, replay master id);
//! * the position of the bridge replay (ingress) master in the backend's
//!   master table;
//! * the egress log of crossings issued since the scheduler last drained
//!   it ([`BridgeEndpoint::drain_egress_into`]);
//! * the [`ReplayStats`] of work replayed for remote shards;
//! * the table of masters [`Parked`] on a non-posted read, retired by
//!   transaction id when the response leg arrives;
//! * the replays that still owe a [`CrossingLeg::ReadResponse`];
//! * the per-master lookahead transform tables ([`CrossingTransform`]),
//!   from which [`BridgeEndpoint::next_possible_crossing`] bounds the
//!   earliest crossing the shard's masters could issue.
//!
//! A backend routes remote-window transfers to the bridge slave and calls
//! the endpoint at four points: [`BridgeEndpoint::accept_crossing`] when
//! a crossing is delivered, [`BridgeEndpoint::push_egress`] when a
//! request leg leaves, [`BridgeEndpoint::park`] / [`BridgeEndpoint::retire`]
//! around a stalled read, and [`BridgeEndpoint::replay_completed`] when
//! the ingress master finishes a replay. Tracing and its own buffered
//! state (the write buffer's remote entries) stay with the backend.
//!
//! # Posted and non-posted crossings
//!
//! Writes always cross *posted*: the local transfer completes into the
//! bridge request FIFO and the replay runs asynchronously on the owning
//! shard. Reads cross posted by default (split-transaction prefetch
//! semantics), but a bridge port configured with `posted_reads == false`
//! turns them into **non-posted** crossings: the request leg crosses, the
//! issuing master stalls, the read is replayed on the owning shard, and a
//! [`CrossingLeg::ReadResponse`] crosses back to retire the stalled
//! transfer — the bridge carries traffic in both directions.
//!
//! The types live here (not in the multi-bus crate) because both bus
//! backends produce and consume them at their ports, exactly like the rest
//! of the transaction vocabulary.

use std::sync::Arc;

use crate::ids::Addr;
use crate::txn::{Transaction, TransactionId};
use simkern::time::Cycle;

/// The interleaved shard-window decode of a multi-bus platform.
///
/// The address space is divided into `1 << window_shift`-byte windows and
/// window `w` is owned by shard `w % shards`. This is the uniform special
/// case of [`WindowMap`]; keep using it where the interleave is all a
/// platform needs — it is `Copy` and two machine operations per decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    /// Log2 of the window size in bytes.
    pub window_shift: u32,
    /// Number of bus shards the windows are interleaved over.
    pub shards: u8,
}

impl ShardMap {
    /// Creates a map over `shards` shards with `1 << window_shift`-byte
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or the shift leaves no windows.
    #[must_use]
    pub fn new(window_shift: u32, shards: u8) -> Self {
        assert!(shards >= 1, "a platform needs at least one shard");
        assert!(window_shift < 32, "window shift must leave windows");
        ShardMap {
            window_shift,
            shards,
        }
    }

    /// The shard owning `addr`.
    #[must_use]
    pub fn owner(&self, addr: Addr) -> u8 {
        ((addr.value() >> self.window_shift) % u32::from(self.shards)) as u8
    }

    /// Whether `addr` lies outside the window set of shard `own` (and a
    /// transaction to it must cross the bridge).
    #[must_use]
    pub fn is_remote(&self, addr: Addr, own: u8) -> bool {
        self.owner(addr) != own
    }
}

/// Smallest explicit-table window shift [`WindowMap::explicit`] accepts:
/// the owner table covers the whole 32-bit address space, so the shift
/// bounds its size (`1 << (32 - shift)` entries; shift 16 → 65536).
pub const MIN_EXPLICIT_WINDOW_SHIFT: u32 = 16;

/// The generalized shard-window decode: every address is owned by exactly
/// one shard, either by round-robin interleave or by an explicit
/// per-window owner table (non-uniform ownership — a hot shard may own
/// three windows for every one of its neighbour's).
///
/// Both the local bridge slave (deciding which transactions leave the
/// shard) and the platform router (deciding which shard a crossing lands
/// on) evaluate the same map, so a crossing can never be mis-routed.
/// Cloning is cheap: the explicit owner table is shared (`Arc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowMap {
    window_shift: u32,
    shards: u8,
    /// `None` → interleaved (`window % shards`); `Some` → explicit owner
    /// per window, covering the full address space.
    owners: Option<Arc<[u8]>>,
}

impl WindowMap {
    /// The interleaved map: window `w` is owned by shard `w % shards`
    /// (exactly [`ShardMap`] semantics).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero or the shift leaves no windows.
    #[must_use]
    pub fn interleaved(window_shift: u32, shards: u8) -> Self {
        let map = ShardMap::new(window_shift, shards);
        WindowMap {
            window_shift: map.window_shift,
            shards: map.shards,
            owners: None,
        }
    }

    /// An explicit map: `owners[w]` is the shard owning window `w`. The
    /// table must cover the full 32-bit address space — exactly
    /// `1 << (32 - window_shift)` entries — which is also what makes
    /// "every address has exactly one owner, no overlap" true by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics when the shift is outside
    /// `[`[`MIN_EXPLICIT_WINDOW_SHIFT`]`, 32)`, when the table length
    /// does not match the shift, or when an owner index reaches `shards`.
    #[must_use]
    pub fn explicit(window_shift: u32, shards: u8, owners: Vec<u8>) -> Self {
        assert!(shards >= 1, "a platform needs at least one shard");
        assert!(
            (MIN_EXPLICIT_WINDOW_SHIFT..32).contains(&window_shift),
            "explicit window shift must lie in [{MIN_EXPLICIT_WINDOW_SHIFT}, 32)"
        );
        let windows = 1usize << (32 - window_shift);
        assert_eq!(
            owners.len(),
            windows,
            "owner table must cover the full address space ({windows} windows)"
        );
        assert!(
            owners.iter().all(|&owner| owner < shards),
            "window owner index out of range"
        );
        WindowMap {
            window_shift,
            shards,
            owners: Some(owners.into()),
        }
    }

    /// Log2 of the window size in bytes.
    #[must_use]
    pub fn window_shift(&self) -> u32 {
        self.window_shift
    }

    /// Number of shards the map decodes to.
    #[must_use]
    pub fn shards(&self) -> u8 {
        self.shards
    }

    /// `true` when ownership is the uniform round-robin interleave.
    #[must_use]
    pub fn is_interleaved(&self) -> bool {
        self.owners.is_none()
    }

    /// The shard owning `addr`.
    #[must_use]
    #[inline]
    pub fn owner(&self, addr: Addr) -> u8 {
        let window = addr.value() >> self.window_shift;
        match &self.owners {
            None => (window % u32::from(self.shards)) as u8,
            Some(owners) => owners[window as usize],
        }
    }

    /// Whether `addr` lies outside the window set of shard `own` (and a
    /// transaction to it must cross the bridge).
    #[must_use]
    #[inline]
    pub fn is_remote(&self, addr: Addr, own: u8) -> bool {
        self.owner(addr) != own
    }
}

impl From<ShardMap> for WindowMap {
    fn from(map: ShardMap) -> Self {
        WindowMap::interleaved(map.window_shift, map.shards)
    }
}

/// The bridge attachment of one bus shard: how the shard recognizes
/// remote addresses (slave side), which master identifier its bridge
/// replay port uses (master side), and whether remote reads cross posted
/// or stall the issuing master until the response returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgePort {
    /// The platform-wide shard-window decode.
    pub map: WindowMap,
    /// This shard's index in the map.
    pub own: u8,
    /// Wait states of the bridge slave window: cycles between a local
    /// transaction's address phase and its first data beat when it posts
    /// into the bridge FIFO (the bridge buffers, so no DRAM latency is
    /// paid locally).
    pub slave_cycles: u64,
    /// Master identifier of the shard's bridge replay port. Must not
    /// collide with the shard's trace masters or the write-buffer id.
    pub master: crate::ids::MasterId,
    /// `true` → remote reads complete locally against the bridge slave
    /// like writes do (split-transaction prefetch semantics, no response
    /// traffic — the classic posted bridge). `false` → remote reads are
    /// **non-posted**: the request leg crosses, the issuing master stalls,
    /// and a [`CrossingLeg::ReadResponse`] crosses back to retire it.
    pub posted_reads: bool,
}

impl BridgePort {
    /// Whether `addr` lies outside this shard's windows (a transfer to it
    /// leaves through the bridge slave).
    #[must_use]
    #[inline]
    pub fn is_remote(&self, addr: Addr) -> bool {
        self.map.is_remote(addr, self.own)
    }

    /// Turns a crossing's source transaction into the replay the bridge
    /// master issues on this shard: same address, direction, burst shape
    /// and size; the master id rewritten to the bridge port; posting
    /// disabled (the crossing was already posted on its source shard —
    /// posting the replay would count the write buffer twice); and a
    /// fresh identifier from the reserved replay namespace.
    ///
    /// Replay ids set bit 63 (no workload generator does — trace ids are
    /// namespaced `master << 32`, below 2^40), carry the shard index in
    /// bits 48..56 and the *source transaction's* id below. A source
    /// transaction crosses into a given shard at most once (routing is a
    /// pure function of its address), so the replay id is unique — and,
    /// unlike a per-shard injection counter, independent of the order
    /// deliveries reach this shard in. That order independence is what
    /// lets the adaptive-lookahead scheduler merge delivery batches
    /// without perturbing replay identity. Both shard backends mint
    /// through this one method, which is what keeps a `sharded-tlm` and
    /// a `sharded-lt` run of the same platform id-for-id comparable.
    #[must_use]
    pub fn replay_txn(&self, source: Transaction) -> Transaction {
        let seq = source.id.value();
        debug_assert!(seq < 1 << 48, "source id outside the replay namespace");
        let mut txn = source;
        txn.master = self.master;
        txn.posted_ok = false;
        txn.id = crate::txn::TransactionId::new(
            (1 << 63) | (u64::from(self.own) << 48) | (seq & ((1 << 48) - 1)),
        );
        txn
    }
}

/// Which leg of the bridge protocol a [`BridgeCrossing`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingLeg {
    /// A posted request: replayed on the owning shard, no response. The
    /// source shard has already completed (and counted) the transfer.
    Posted,
    /// A non-posted read request from shard `origin`: replayed on the
    /// owning shard, which must return a [`CrossingLeg::ReadResponse`]
    /// once the replay completes. The source master is stalled until the
    /// response retires it; the transfer is counted at retirement.
    NonPostedRead {
        /// Shard the stalled master lives on (where the response goes).
        origin: u8,
    },
    /// The response leg of a non-posted read: carries the *original*
    /// transaction (source master id and transaction id intact) back to
    /// shard `origin`, where it retires the stalled transfer.
    ReadResponse {
        /// Shard the stalled master lives on.
        origin: u8,
    },
}

impl CrossingLeg {
    /// `true` for the two request legs (routed to the window owner).
    #[must_use]
    pub fn is_request(&self) -> bool {
        !matches!(self, CrossingLeg::ReadResponse { .. })
    }
}

/// One transaction handed from a shard's bridge to the bridge fabric: the
/// transaction, the cycle it entered the link (local transfer completed
/// into the request FIFO, or the replay whose response this is
/// completed), and which protocol leg it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeCrossing {
    /// Cycle the crossing entered the bridge FIFO on its source shard.
    pub issued_at: Cycle,
    /// The crossing transaction. Request legs still carry the original
    /// master id (the remote replay rewrites it to the bridge master);
    /// the response leg carries the original transaction unchanged.
    pub txn: Transaction,
    /// Which protocol leg this crossing is.
    pub leg: CrossingLeg,
}

impl BridgeCrossing {
    /// A posted request crossing (the PR-4 bridge's only traffic).
    #[must_use]
    pub fn posted(issued_at: Cycle, txn: Transaction) -> Self {
        BridgeCrossing {
            issued_at,
            txn,
            leg: CrossingLeg::Posted,
        }
    }
}

/// Work a shard's bridge master replayed on behalf of remote shards.
///
/// Every crossing is counted once at its *source* (the local posting
/// transfer, or the response retirement of a non-posted read); the remote
/// replay is additional bus occupancy, not additional completed work, so
/// platform aggregation subtracts these totals from the summed per-shard
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Replayed transactions.
    pub transactions: u64,
    /// Bytes the replays moved.
    pub bytes: u64,
    /// Data beats the replays transferred.
    pub data_beats: u64,
}

impl ReplayStats {
    /// Records one replayed transaction.
    pub fn record(&mut self, txn: &Transaction) {
        self.transactions += 1;
        self.bytes += u64::from(txn.bytes());
        self.data_beats += u64::from(txn.beats());
    }
}

/// One position of a master's lookahead transform table: `Some((a, b))`
/// means the earliest cycle a crossing can issue from that trace position
/// on, given the head item releases no earlier than `t`, is
/// `max(t + a, b)`; `None` means no remote-addressed item remains.
pub type CrossingTransform = Option<(u64, u64)>;

/// One read transfer stalled on its bridge response: the issuing master
/// is parked (trace not advanced) until the [`CrossingLeg::ReadResponse`]
/// carrying the same transaction id arrives and retires it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parked {
    /// Position of the stalled master in the backend's master table.
    pub position: usize,
    /// The stalled transaction (retirement needs its bytes and beats).
    pub txn: Transaction,
    /// Cycle the request was raised (latency accounting).
    pub requested_at: Cycle,
    /// Cycle the request leg was granted the bus.
    pub granted_at: Cycle,
}

/// The bridge-side state of one bus shard (see the module docs).
#[derive(Debug, Clone)]
pub struct BridgeEndpoint {
    port: BridgePort,
    /// Position of the bridge replay master in the backend's master table.
    ingress: usize,
    /// Crossings issued since the last [`BridgeEndpoint::drain_egress_into`].
    egress: Vec<BridgeCrossing>,
    replayed: ReplayStats,
    /// Local masters stalled on a non-posted read crossing.
    parked: Vec<Parked>,
    /// Replays that owe a response: replay id → (origin shard, original
    /// transaction). Filled at acceptance, resolved when the replay
    /// completes on this shard's bus.
    owed: Vec<(TransactionId, u8, Transaction)>,
    /// Per-master transform tables, indexed by master position, then trace
    /// position. The ingress master's trace is dynamic and gets an empty
    /// table; its traffic is covered by the egress/owed-response checks.
    remote_ahead: Vec<Vec<CrossingTransform>>,
}

impl BridgeEndpoint {
    /// An endpoint for `port` whose replay master sits at position
    /// `ingress`, with one lookahead transform table per master position.
    #[must_use]
    pub fn new(
        port: BridgePort,
        ingress: usize,
        remote_ahead: Vec<Vec<CrossingTransform>>,
    ) -> Self {
        BridgeEndpoint {
            port,
            ingress,
            egress: Vec::new(),
            replayed: ReplayStats::default(),
            parked: Vec::new(),
            owed: Vec::new(),
            remote_ahead,
        }
    }

    /// The shard's bridge attachment.
    #[must_use]
    pub fn port(&self) -> &BridgePort {
        &self.port
    }

    /// Position of the bridge replay master in the backend's master table.
    #[must_use]
    pub fn ingress(&self) -> usize {
        self.ingress
    }

    /// Accepts one delivered crossing: returns the replay the ingress
    /// master must issue ([`BridgePort::replay_txn`]) and, when
    /// `respond_to` names an origin shard, records that the replay owes
    /// that shard a response leg.
    pub fn accept_crossing(&mut self, source: Transaction, respond_to: Option<u8>) -> Transaction {
        let txn = self.port.replay_txn(source);
        if let Some(origin) = respond_to {
            self.owed.push((txn.id, origin, source));
        }
        txn
    }

    /// Logs one crossing leaving through the bridge at `issued_at`.
    pub fn push_egress(&mut self, issued_at: Cycle, txn: Transaction, leg: CrossingLeg) {
        self.egress.push(BridgeCrossing {
            issued_at,
            txn,
            leg,
        });
    }

    /// Parks a master on its non-posted read until [`BridgeEndpoint::retire`].
    pub fn park(&mut self, parked: Parked) {
        self.parked.push(parked);
    }

    /// Retires the read stalled on transaction `id` (its response leg
    /// arrived).
    ///
    /// # Panics
    ///
    /// Panics when no master is stalled on `id` (a platform routing bug).
    pub fn retire(&mut self, id: TransactionId) -> Parked {
        let index = self
            .parked
            .iter()
            .position(|parked| parked.txn.id == id)
            .expect("response for a transaction nobody is stalled on");
        self.parked.swap_remove(index)
    }

    /// Records a replay the ingress master completed at `completed_at`.
    /// When the replay owed a response, the [`CrossingLeg::ReadResponse`]
    /// carrying the original transaction joins the egress log and the
    /// original is returned (so the backend can trace the leg).
    pub fn replay_completed(
        &mut self,
        replay: &Transaction,
        completed_at: Cycle,
    ) -> Option<Transaction> {
        self.replayed.record(replay);
        let index = self.owed.iter().position(|(id, ..)| *id == replay.id)?;
        let (_, origin, original) = self.owed.swap_remove(index);
        self.push_egress(completed_at, original, CrossingLeg::ReadResponse { origin });
        Some(original)
    }

    /// Clears `out` and swaps it with the egress log, so a scheduler
    /// draining every quantum recycles the same two buffers instead of
    /// allocating per crossing batch.
    pub fn drain_egress_into(&mut self, out: &mut Vec<BridgeCrossing>) {
        out.clear();
        std::mem::swap(&mut self.egress, out);
    }

    /// Work the ingress master replayed on behalf of remote shards so far.
    #[must_use]
    pub fn replayed(&self) -> ReplayStats {
        self.replayed
    }

    /// Conservative lower bound on the earliest cycle the shard could
    /// issue another crossing, or `None` when none is possible. `now` is
    /// returned while traffic is imminent (undrained egress or a replay
    /// owing a response). Otherwise the bound is the minimum over the
    /// masters' transform tables, where `head(position)` gives a master's
    /// head release and trace position (`None` for a master that cannot
    /// issue). A backend checks its own buffered remote traffic first.
    #[must_use]
    pub fn next_possible_crossing(
        &self,
        now: Cycle,
        head: impl Fn(usize) -> Option<(u64, usize)>,
    ) -> Option<Cycle> {
        if !self.egress.is_empty() || !self.owed.is_empty() {
            return Some(now);
        }
        let mut bound = u64::MAX;
        for (position, ahead) in self.remote_ahead.iter().enumerate() {
            if position == self.ingress {
                continue;
            }
            let Some((ready, next)) = head(position) else {
                continue;
            };
            if let Some((a, b)) = ahead[next] {
                bound = bound.min(ready.saturating_add(a).max(b));
            }
        }
        (bound != u64::MAX).then(|| Cycle::new(bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstKind;
    use crate::ids::MasterId;
    use crate::signal::HSize;
    use crate::txn::TransferDirection;

    fn port() -> BridgePort {
        BridgePort {
            map: WindowMap::interleaved(24, 4),
            own: 3,
            slave_cycles: 2,
            master: MasterId::new(252),
            posted_reads: true,
        }
    }

    #[test]
    fn windows_interleave_over_the_shards() {
        let map = ShardMap::new(24, 4);
        assert_eq!(map.owner(Addr::new(0x0000_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0100_0000)), 1);
        assert_eq!(map.owner(Addr::new(0x0200_0000)), 2);
        assert_eq!(map.owner(Addr::new(0x0300_0000)), 3);
        assert_eq!(map.owner(Addr::new(0x0400_0000)), 0);
        assert!(map.is_remote(Addr::new(0x0100_0000), 0));
        assert!(!map.is_remote(Addr::new(0x0400_0000), 0));
    }

    #[test]
    fn single_shard_map_owns_everything() {
        let map = ShardMap::new(24, 1);
        for addr in [0u32, 0x2000_0000, 0xFFFF_FFFF] {
            assert_eq!(map.owner(Addr::new(addr)), 0);
            assert!(!map.is_remote(Addr::new(addr), 0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panic() {
        let _ = ShardMap::new(24, 0);
    }

    #[test]
    fn window_map_interleaved_matches_the_shard_map() {
        let shard_map = ShardMap::new(24, 4);
        let window_map = WindowMap::from(shard_map);
        assert!(window_map.is_interleaved());
        assert_eq!(window_map.shards(), 4);
        assert_eq!(window_map.window_shift(), 24);
        for addr in [0u32, 0x0100_0000, 0x1234_5678, 0xFFFF_FFFF] {
            let addr = Addr::new(addr);
            assert_eq!(window_map.owner(addr), shard_map.owner(addr));
            assert_eq!(window_map.is_remote(addr, 2), shard_map.is_remote(addr, 2));
        }
    }

    #[test]
    fn explicit_window_map_follows_its_owner_table() {
        // 24-bit windows → 256 entries: shard 1 owns every fourth window,
        // shard 0 the other three — non-uniform 3:1 ownership.
        let owners: Vec<u8> = (0..256).map(|w| u8::from(w % 4 == 3)).collect();
        let map = WindowMap::explicit(24, 2, owners);
        assert!(!map.is_interleaved());
        assert_eq!(map.owner(Addr::new(0x0000_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0200_0000)), 0);
        assert_eq!(map.owner(Addr::new(0x0300_0000)), 1);
        assert!(map.is_remote(Addr::new(0x0300_0000), 0));
        assert!(!map.is_remote(Addr::new(0x0700_0000), 1));
    }

    #[test]
    #[should_panic(expected = "full address space")]
    fn explicit_window_map_rejects_partial_coverage() {
        let _ = WindowMap::explicit(24, 2, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "owner index out of range")]
    fn explicit_window_map_rejects_dangling_owners() {
        let _ = WindowMap::explicit(24, 2, vec![7; 256]);
    }

    #[test]
    fn replay_transactions_are_rewritten_and_uniquely_namespaced() {
        let port = port();
        let source = Transaction::new(
            MasterId::new(7),
            Addr::new(0x0100_0000),
            TransferDirection::Write,
            BurstKind::Incr8,
            HSize::Word,
        )
        .with_posted(true)
        .with_id(crate::txn::TransactionId::new(41));
        let replay = port.replay_txn(source);
        assert_eq!(replay.master, MasterId::new(252));
        assert!(!replay.posted_ok, "replays are demand transfers");
        assert_eq!(replay.addr, source.addr);
        assert_eq!(replay.beats(), source.beats());
        // Bit 63 marks the replay namespace; shard index and the source
        // transaction's id follow.
        assert_eq!(replay.id.value(), (1 << 63) | (3 << 48) | 41);
        let other_shard = BridgePort {
            own: 2,
            ..port.clone()
        };
        assert_ne!(other_shard.replay_txn(source).id, replay.id);
    }

    #[test]
    fn crossing_legs_distinguish_requests_from_responses() {
        assert!(CrossingLeg::Posted.is_request());
        assert!(CrossingLeg::NonPostedRead { origin: 1 }.is_request());
        assert!(!CrossingLeg::ReadResponse { origin: 1 }.is_request());
        let txn = Transaction::new(
            MasterId::new(3),
            Addr::new(0x2000_0000),
            TransferDirection::Read,
            BurstKind::Incr4,
            HSize::Word,
        );
        let crossing = BridgeCrossing::posted(Cycle::new(10), txn);
        assert_eq!(crossing.leg, CrossingLeg::Posted);
        assert_eq!(crossing.issued_at, Cycle::new(10));
    }

    #[test]
    fn replay_stats_accumulate_transaction_totals() {
        let txn = Transaction::new(
            MasterId::new(3),
            Addr::new(0x2000_0000),
            TransferDirection::Write,
            BurstKind::Incr8,
            HSize::Word,
        );
        let mut stats = ReplayStats::default();
        stats.record(&txn);
        stats.record(&txn);
        assert_eq!(stats.transactions, 2);
        assert_eq!(stats.data_beats, 16);
        assert_eq!(stats.bytes, u64::from(txn.bytes()) * 2);
    }

    fn read(id: u64) -> Transaction {
        Transaction::new(
            MasterId::new(7),
            Addr::new(0x0100_0000),
            TransferDirection::Read,
            BurstKind::Incr4,
            HSize::Word,
        )
        .with_id(TransactionId::new(id))
    }

    /// An endpoint for shard 3 whose replay master is position 2; master
    /// 0 can cross 5 cycles after its head releases (but not before cycle
    /// 40), master 1 has no remote item left.
    fn endpoint() -> BridgeEndpoint {
        BridgeEndpoint::new(
            port(),
            2,
            vec![vec![Some((5, 40)), None], vec![None, None], Vec::new()],
        )
    }

    #[test]
    fn endpoint_resolves_an_owed_response_when_the_replay_completes() {
        let mut endpoint = endpoint();
        let source = read(9);
        let replay = endpoint.accept_crossing(source, Some(1));
        assert_eq!(replay, port().replay_txn(source));
        // A replay nobody waits on is counted but sends nothing back.
        let posted = endpoint.accept_crossing(read(10), None);
        assert_eq!(endpoint.replay_completed(&posted, Cycle::new(30)), None);
        assert_eq!(
            endpoint.replay_completed(&replay, Cycle::new(50)),
            Some(source)
        );
        let mut out = vec![BridgeCrossing::posted(Cycle::ZERO, source)];
        endpoint.drain_egress_into(&mut out);
        assert_eq!(
            out,
            vec![BridgeCrossing {
                issued_at: Cycle::new(50),
                txn: source,
                leg: CrossingLeg::ReadResponse { origin: 1 },
            }]
        );
        assert_eq!(endpoint.replayed().transactions, 2);
        endpoint.drain_egress_into(&mut out);
        assert!(out.is_empty(), "the drain empties the log");
    }

    #[test]
    fn endpoint_retires_parked_reads_by_id() {
        let mut endpoint = endpoint();
        for (position, id) in [(0, 4), (1, 5)] {
            endpoint.park(Parked {
                position,
                txn: read(id),
                requested_at: Cycle::new(id),
                granted_at: Cycle::new(id + 1),
            });
        }
        let parked = endpoint.retire(TransactionId::new(5));
        assert_eq!((parked.position, parked.requested_at), (1, Cycle::new(5)));
        assert_eq!(endpoint.retire(TransactionId::new(4)).position, 0);
    }

    #[test]
    #[should_panic(expected = "nobody is stalled on")]
    fn endpoint_rejects_a_response_for_an_unparked_read() {
        let _ = endpoint().retire(TransactionId::new(4));
    }

    #[test]
    fn endpoint_lookahead_is_imminent_with_pending_egress_or_owed_responses() {
        let now = Cycle::new(12);
        // Both trace masters sit at position 0: master 0 released at 20
        // can cross at max(20 + 5, 40) = 40; master 1 never can; the
        // ingress table is never consulted.
        let head = |position: usize| (position != 2).then_some((20, 0));
        let mut endpoint = endpoint();
        assert_eq!(
            endpoint.next_possible_crossing(now, head),
            Some(Cycle::new(40))
        );
        assert_eq!(endpoint.next_possible_crossing(now, |_| None), None);

        endpoint.push_egress(now, read(1), CrossingLeg::Posted);
        assert_eq!(endpoint.next_possible_crossing(now, head), Some(now));
        endpoint.drain_egress_into(&mut Vec::new());
        assert_eq!(
            endpoint.next_possible_crossing(now, head),
            Some(Cycle::new(40))
        );

        let replay = endpoint.accept_crossing(read(2), Some(0));
        assert_eq!(endpoint.next_possible_crossing(now, head), Some(now));
        endpoint.replay_completed(&replay, Cycle::new(30));
        endpoint.drain_egress_into(&mut Vec::new());
        assert_eq!(
            endpoint.next_possible_crossing(now, head),
            Some(Cycle::new(40))
        );
    }
}
