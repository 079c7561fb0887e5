//! Workload expansion: from a statistical profile to a concrete trace.
//!
//! A [`Workload`] couples a [`MasterProfile`] with a master id and a seed
//! and expands it into a [`TrafficTrace`]: a finite list of fully-formed
//! transactions, each annotated with a release rule (a think gap after the
//! previous completion, or an absolute release cycle for periodic masters).
//! Both bus models replay the identical trace, beat for beat.

use amba::bridge::{BridgePort, CrossingTransform};
use amba::check::validate_transaction;
use amba::ids::{Addr, MasterId};
use amba::txn::{Transaction, TransactionId, TransferDirection};
use simkern::rng::SimRng;
use simkern::time::{Cycle, CycleDelta};

use crate::profile::{MasterProfile, ReleasePolicy};

/// When a trace item may be issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Release {
    /// Issue the request `gap` cycles after the previous request of this
    /// master completed (closed-loop master).
    AfterPrevious(CycleDelta),
    /// Issue the request at the given absolute cycle (periodic master); if
    /// the previous request is still outstanding the new one queues behind
    /// it.
    At(Cycle),
}

/// One entry of a traffic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceItem {
    /// Release rule for this request.
    pub release: Release,
    /// The transaction to issue.
    pub txn: Transaction,
}

/// A finite, deterministic request trace for one master.
///
/// Protocol validation happens once, at generation: [`Workload::generate`]
/// asserts `amba::check::validate_transaction` on every item it produces
/// and records the fact in the trace ([`TrafficTrace::is_validated`]), so
/// bus models built from the trace read the record instead of re-checking
/// every item at each build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficTrace {
    master: MasterId,
    items: Vec<TraceItem>,
    /// Every item passed `validate_transaction`.
    validated: bool,
}

impl TrafficTrace {
    /// An empty trace owned by `master` (vacuously validated). Dynamic
    /// ports (the AHB-to-AHB bridge master of a multi-bus platform) start
    /// from this and receive their items at runtime via
    /// [`TrafficTrace::insert`].
    #[must_use]
    pub fn empty(master: MasterId) -> Self {
        TrafficTrace {
            master,
            items: Vec::new(),
            validated: true,
        }
    }

    /// Inserts one item at `index`, shifting later entries back. Dynamic
    /// bridge ports use this to keep their not-yet-issued tail sorted by
    /// release time, so the shape of the delivery batches (one per
    /// barrier under a fixed quantum, merged under adaptive lookahead)
    /// cannot influence replay order.
    ///
    /// The item is not re-validated: a bridge replay inherits its validity
    /// from the source transaction, which was checked when its own trace
    /// was generated (the replay rewrites only the master, id and posting
    /// flag, none of which the protocol rules read). Debug builds assert
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when the item's transaction does not belong to this trace's
    /// master or `index` is out of bounds.
    pub fn insert(&mut self, index: usize, item: TraceItem) {
        assert_eq!(
            item.txn.master, self.master,
            "trace item inserted into the wrong master's trace"
        );
        debug_assert!(
            validate_transaction(&item.txn).is_ok(),
            "illegal transaction inserted into a trace: {}",
            item.txn
        );
        self.items.insert(index, item);
    }

    /// The master this trace belongs to.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// The trace entries in issue order.
    #[must_use]
    pub fn items(&self) -> &[TraceItem] {
        &self.items
    }

    /// Returns `true` when every item is known to pass
    /// `amba::check::validate_transaction` — checked once, by the generator
    /// — so a bus model may skip its per-issue consistency re-check.
    #[must_use]
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Number of requests in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` for an empty trace.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total number of bytes the trace will move.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.items.iter().map(|i| u64::from(i.txn.bytes())).sum()
    }

    /// Total number of data beats the trace will transfer.
    #[must_use]
    pub fn total_beats(&self) -> u64 {
        self.items.iter().map(|i| u64::from(i.txn.beats())).sum()
    }

    /// The backward min-plus transform table a bridge endpoint's lookahead
    /// scan evaluates over this (static) trace. A release rule is the
    /// affine-max function `f(t) = max(t + a, b)` (`AfterPrevious(gap)` →
    /// `(gap, 0)`, `At(at)` → `(0, at)`); composing the rules from a trace
    /// position up to its next item addressed outside `port`'s windows
    /// gives that position's [`CrossingTransform`], so the earliest
    /// crossing is found in O(1) per master. Entry `len()` is the
    /// past-the-end sentinel (`None`).
    #[must_use]
    pub fn crossing_transforms(&self, port: &BridgePort) -> Vec<CrossingTransform> {
        let step = |release: Release| match release {
            Release::AfterPrevious(gap) => (gap.value(), 0),
            Release::At(at) => (0, at.value()),
        };
        let items = &self.items;
        let mut ahead: Vec<CrossingTransform> = vec![None; items.len() + 1];
        for p in (0..items.len()).rev() {
            ahead[p] = if port.is_remote(items[p].txn.addr) {
                Some((0, 0))
            } else {
                ahead[p + 1].map(|(a2, b2)| {
                    let (a1, b1) = step(items[p + 1].release);
                    (a1.saturating_add(a2), b1.saturating_add(a2).max(b2))
                })
            };
        }
        ahead
    }
}

/// A master profile bound to a master id and a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    master: MasterId,
    profile: MasterProfile,
    seed: u64,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(master: MasterId, profile: MasterProfile, seed: u64) -> Self {
        Workload {
            master,
            profile,
            seed,
        }
    }

    /// The master id.
    #[must_use]
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// The profile.
    #[must_use]
    pub fn profile(&self) -> &MasterProfile {
        &self.profile
    }

    /// Expands the workload into a trace of `count` transactions.
    ///
    /// The expansion is fully determined by `(master, profile, seed)`: two
    /// calls always return identical traces.
    ///
    /// # Panics
    ///
    /// Panics if the profile would generate an illegal transaction (this is
    /// a bug in the generator, caught eagerly by a protocol check on every
    /// produced item).
    #[must_use]
    pub fn generate(&self, count: usize) -> TrafficTrace {
        let mut rng = SimRng::new(self.seed).fork(self.master.index() as u64 + 1);
        let profile = &self.profile;
        let align = profile.max_burst_bytes().next_power_of_two();
        let region_slots = (profile.region_bytes / align).max(1);

        let mut items = Vec::with_capacity(count);
        let mut cursor = profile.region_base;
        let mut next_periodic = Cycle::ZERO;
        let mut id = TransactionId::new(u64::from(self.master.index() as u32) << 32);
        let weights: Vec<u32> = profile.burst_weights.iter().map(|(_, w)| *w).collect();

        for _ in 0..count {
            // Direction.
            let direction = if rng.chance_permille(profile.read_permille) {
                TransferDirection::Read
            } else {
                TransferDirection::Write
            };

            // Burst shape.
            let pick = rng.pick_weighted(&weights).unwrap_or(0);
            let burst = profile.burst_weights[pick].0;

            // Address: either continue sequentially or jump somewhere random
            // in the region; always aligned to the largest burst so no
            // generated burst can cross a 1 KB boundary.
            let addr = if rng.chance_permille(profile.sequential_permille) {
                cursor
            } else {
                let slot = rng.range_u64(0, u64::from(region_slots)) as u32;
                profile.region_base.wrapping_add(slot * align)
            };
            let addr = Addr::new(
                profile.region_base.value()
                    + (addr.value().wrapping_sub(profile.region_base.value())
                        % profile.region_bytes),
            )
            .align_down(align);
            cursor = addr.wrapping_add(burst.beats() * profile.size.bytes());
            // Keep the cursor inside the region.
            if cursor.value().wrapping_sub(profile.region_base.value()) >= profile.region_bytes {
                cursor = profile.region_base;
            }

            // Release rule.
            let release = match profile.release {
                ReleasePolicy::ClosedLoop { min_gap, max_gap } => {
                    let gap = if max_gap > min_gap {
                        rng.range_u64(u64::from(min_gap), u64::from(max_gap) + 1)
                    } else {
                        u64::from(min_gap)
                    };
                    Release::AfterPrevious(CycleDelta::new(gap))
                }
                ReleasePolicy::Periodic { period, jitter } => {
                    let jitter = if jitter > 0 {
                        rng.range_u64(0, u64::from(jitter) + 1)
                    } else {
                        0
                    };
                    let release = Release::At(next_periodic + CycleDelta::new(jitter));
                    next_periodic += CycleDelta::new(u64::from(period));
                    release
                }
            };

            let txn = Transaction::new(self.master, addr, direction, burst, profile.size)
                .with_id(id)
                .with_posted(profile.posted_writes);
            assert!(
                validate_transaction(&txn).is_ok(),
                "generator produced an illegal transaction: {txn}"
            );
            id = id.next();
            items.push(TraceItem { release, txn });
        }

        TrafficTrace {
            master: self.master,
            items,
            validated: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::MasterKind;

    #[test]
    fn generation_is_deterministic() {
        let w = Workload::new(MasterId::new(2), MasterProfile::cpu(), 7);
        let a = w.generate(200);
        let b = w.generate(200);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::new(MasterId::new(0), MasterProfile::cpu(), 1).generate(50);
        let b = Workload::new(MasterId::new(0), MasterProfile::cpu(), 2).generate(50);
        assert_ne!(a, b);
    }

    #[test]
    fn all_generated_transactions_are_legal() {
        for profile in [
            MasterProfile::cpu(),
            MasterProfile::dma_stream(),
            MasterProfile::video_realtime(),
            MasterProfile::block_writer(),
        ] {
            let w = Workload::new(MasterId::new(1), profile, 99);
            let trace = w.generate(500);
            for item in trace.items() {
                assert!(validate_transaction(&item.txn).is_ok());
            }
        }
    }

    #[test]
    fn generated_and_empty_traces_record_their_validation() {
        let trace = Workload::new(MasterId::new(1), MasterProfile::cpu(), 4).generate(20);
        assert!(trace.is_validated());
        let mut port = TrafficTrace::empty(MasterId::new(9));
        assert!(port.is_validated());
        let mut replay = trace.items()[0].txn;
        replay.master = MasterId::new(9);
        port.insert(
            0,
            TraceItem {
                release: Release::At(Cycle::new(5)),
                txn: replay,
            },
        );
        assert!(port.is_validated());
    }

    #[test]
    fn addresses_stay_inside_the_region() {
        let profile = MasterProfile::dma_stream();
        let base = profile.region_base.value();
        let size = profile.region_bytes;
        let trace = Workload::new(MasterId::new(0), profile, 3).generate(500);
        for item in trace.items() {
            let offset = item.txn.addr.value().wrapping_sub(base);
            assert!(offset < size, "address {} outside region", item.txn.addr);
        }
    }

    #[test]
    fn write_only_profile_generates_only_writes() {
        let trace =
            Workload::new(MasterId::new(3), MasterProfile::block_writer(), 11).generate(100);
        assert!(trace.items().iter().all(|i| i.txn.is_write()));
        assert!(trace.items().iter().all(|i| i.txn.posted_ok));
    }

    #[test]
    fn read_only_profile_generates_only_reads() {
        let trace =
            Workload::new(MasterId::new(1), MasterProfile::video_realtime(), 11).generate(100);
        assert!(trace.items().iter().all(|i| !i.txn.is_write()));
    }

    #[test]
    fn periodic_profile_uses_absolute_releases_in_order() {
        let trace =
            Workload::new(MasterId::new(1), MasterProfile::video_realtime(), 5).generate(50);
        let mut last = Cycle::ZERO;
        for item in trace.items() {
            match item.release {
                Release::At(at) => {
                    assert!(at >= last, "periodic releases must be monotone");
                    last = at;
                }
                Release::AfterPrevious(_) => panic!("periodic master must use absolute releases"),
            }
        }
    }

    #[test]
    fn closed_loop_gaps_respect_bounds() {
        let profile = MasterProfile::cpu();
        let (min_gap, max_gap) = match profile.release {
            ReleasePolicy::ClosedLoop { min_gap, max_gap } => (min_gap, max_gap),
            _ => unreachable!(),
        };
        let trace = Workload::new(MasterId::new(0), profile, 21).generate(300);
        for item in trace.items() {
            match item.release {
                Release::AfterPrevious(gap) => {
                    assert!(gap.value() >= u64::from(min_gap));
                    assert!(gap.value() <= u64::from(max_gap));
                }
                Release::At(_) => panic!("closed-loop master must use relative releases"),
            }
        }
    }

    #[test]
    fn transaction_ids_are_unique_and_namespaced_per_master() {
        let a = Workload::new(MasterId::new(1), MasterProfile::cpu(), 1).generate(100);
        let b = Workload::new(MasterId::new(2), MasterProfile::cpu(), 1).generate(100);
        let mut ids: Vec<u64> = a
            .items()
            .iter()
            .chain(b.items())
            .map(|i| i.txn.id.value())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }

    #[test]
    fn trace_totals_are_consistent() {
        let trace = Workload::new(MasterId::new(0), MasterProfile::dma_stream(), 8).generate(50);
        assert_eq!(trace.len(), 50);
        assert!(!trace.is_empty());
        assert_eq!(trace.total_bytes(), trace.total_beats() * 4);
        assert_eq!(trace.master(), MasterId::new(0));
        let kind = MasterKind::StreamingDma;
        assert_eq!(kind.label(), "dma");
    }
}
