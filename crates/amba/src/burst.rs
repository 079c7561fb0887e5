//! Burst address arithmetic.
//!
//! A burst is described by its kind (single, fixed-length incrementing or
//! wrapping, undefined-length incrementing), the per-beat transfer size and
//! the starting address. [`BurstSequence`] produces the exact per-beat
//! address sequence the AMBA 2.0 specification mandates, including the
//! wrap-around behaviour of `WRAPx` bursts; both bus models and the DDR
//! controller use it so their beat-by-beat address streams agree.

use crate::ids::Addr;
use crate::signal::{HBurst, HSize};

/// The burst vocabulary used by workload generators and transactions.
///
/// This is a slightly higher-level view than raw [`HBurst`]: undefined
/// length `INCR` bursts carry their intended beat count, which the
/// signal-level encoding cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstKind {
    /// A single beat.
    Single,
    /// Undefined-length incrementing burst of the given number of beats.
    Incr(u32),
    /// 4-beat incrementing burst.
    Incr4,
    /// 8-beat incrementing burst.
    Incr8,
    /// 16-beat incrementing burst.
    Incr16,
    /// 4-beat wrapping burst.
    Wrap4,
    /// 8-beat wrapping burst.
    Wrap8,
    /// 16-beat wrapping burst.
    Wrap16,
}

impl BurstKind {
    /// Number of beats in the burst.
    ///
    /// `Incr(0)` is normalized to one beat: a master that requests a burst
    /// always transfers at least one beat.
    #[must_use]
    pub const fn beats(self) -> u32 {
        match self {
            BurstKind::Single => 1,
            BurstKind::Incr(n) => {
                if n == 0 {
                    1
                } else {
                    n
                }
            }
            BurstKind::Incr4 | BurstKind::Wrap4 => 4,
            BurstKind::Incr8 | BurstKind::Wrap8 => 8,
            BurstKind::Incr16 | BurstKind::Wrap16 => 16,
        }
    }

    /// Returns `true` for the wrapping variants.
    #[must_use]
    pub const fn is_wrapping(self) -> bool {
        matches!(
            self,
            BurstKind::Wrap4 | BurstKind::Wrap8 | BurstKind::Wrap16
        )
    }

    /// The `HBURST` encoding driven on the wires for this burst.
    #[must_use]
    pub const fn hburst(self) -> HBurst {
        match self {
            BurstKind::Single => HBurst::Single,
            BurstKind::Incr(_) => HBurst::Incr,
            BurstKind::Incr4 => HBurst::Incr4,
            BurstKind::Incr8 => HBurst::Incr8,
            BurstKind::Incr16 => HBurst::Incr16,
            BurstKind::Wrap4 => HBurst::Wrap4,
            BurstKind::Wrap8 => HBurst::Wrap8,
            BurstKind::Wrap16 => HBurst::Wrap16,
        }
    }

    /// Builds the burst kind matching a fixed-length `HBURST` encoding.
    ///
    /// `INCR` needs an explicit length, supplied by `incr_beats`.
    #[must_use]
    pub const fn from_hburst(hburst: HBurst, incr_beats: u32) -> Self {
        match hburst {
            HBurst::Single => BurstKind::Single,
            HBurst::Incr => BurstKind::Incr(incr_beats),
            HBurst::Incr4 => BurstKind::Incr4,
            HBurst::Incr8 => BurstKind::Incr8,
            HBurst::Incr16 => BurstKind::Incr16,
            HBurst::Wrap4 => BurstKind::Wrap4,
            HBurst::Wrap8 => BurstKind::Wrap8,
            HBurst::Wrap16 => BurstKind::Wrap16,
        }
    }
}

/// Iterator over the per-beat addresses of a burst.
///
/// # Example
///
/// ```
/// use amba::burst::{BurstKind, BurstSequence};
/// use amba::ids::Addr;
/// use amba::signal::HSize;
///
/// // WRAP4 of words starting at 0x38 wraps inside the 16-byte block.
/// let addrs: Vec<u32> = BurstSequence::new(Addr::new(0x38), BurstKind::Wrap4, HSize::Word)
///     .map(|a| a.value())
///     .collect();
/// assert_eq!(addrs, vec![0x38, 0x3C, 0x30, 0x34]);
/// ```
#[derive(Debug, Clone)]
pub struct BurstSequence {
    start: Addr,
    kind: BurstKind,
    size: HSize,
    beat: u32,
}

impl BurstSequence {
    /// Creates the address sequence for one burst.
    #[must_use]
    pub fn new(start: Addr, kind: BurstKind, size: HSize) -> Self {
        BurstSequence {
            start,
            kind,
            size,
            beat: 0,
        }
    }

    /// Total number of beats the sequence will produce.
    #[must_use]
    pub fn beats(&self) -> u32 {
        self.kind.beats()
    }

    /// Address of beat `index` (0-based) without consuming the iterator.
    #[must_use]
    pub fn beat_addr(&self, index: u32) -> Addr {
        let step = self.size.bytes();
        if self.kind.is_wrapping() {
            let total = step * self.kind.beats();
            let base = self.start.align_down(total);
            let offset = (self.start.offset_in(total) + index * step) % total;
            base.wrapping_add(offset)
        } else {
            self.start.wrapping_add(index * step)
        }
    }

    /// Returns `true` if any beat of the burst would fall into a different
    /// 1 KB block than the first beat — the boundary the AMBA 2.0
    /// specification forbids bursts to cross.
    ///
    /// Constant time. An incrementing burst's beats ascend from the first,
    /// so it crosses exactly when its last beat lies past the first beat's
    /// block (computed in `u64`, so a burst running off the top of the
    /// address space counts as crossing, like its wrapped-around beats
    /// do). A wrapping burst visits every beat slot of its aligned wrap
    /// block, so it crosses exactly when that block's first and last slot
    /// lie in different 1 KB blocks.
    #[must_use]
    pub fn crosses_1kb_boundary(&self) -> bool {
        let step = self.size.bytes();
        if self.kind.is_wrapping() {
            let total = step * self.kind.beats();
            let base = self.start.align_down(total);
            base.kib_block() != base.wrapping_add(total - step).kib_block()
        } else {
            let span = u64::from(self.beats() - 1) * u64::from(step);
            u64::from(self.start.offset_in(1024)) + span >= 1024
        }
    }

    /// Total number of bytes moved by the burst.
    #[must_use]
    pub fn bytes(&self) -> u32 {
        self.beats() * self.size.bytes()
    }
}

impl Iterator for BurstSequence {
    type Item = Addr;

    fn next(&mut self) -> Option<Addr> {
        if self.beat >= self.kind.beats() {
            return None;
        }
        let addr = self.beat_addr(self.beat);
        self.beat += 1;
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.kind.beats() - self.beat) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BurstSequence {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_counts() {
        assert_eq!(BurstKind::Single.beats(), 1);
        assert_eq!(BurstKind::Incr(7).beats(), 7);
        assert_eq!(BurstKind::Incr(0).beats(), 1, "zero-length normalized");
        assert_eq!(BurstKind::Incr16.beats(), 16);
        assert_eq!(BurstKind::Wrap8.beats(), 8);
    }

    #[test]
    fn hburst_mapping_round_trips() {
        for kind in [
            BurstKind::Single,
            BurstKind::Incr4,
            BurstKind::Incr8,
            BurstKind::Incr16,
            BurstKind::Wrap4,
            BurstKind::Wrap8,
            BurstKind::Wrap16,
        ] {
            assert_eq!(BurstKind::from_hburst(kind.hburst(), 0), kind);
        }
        assert_eq!(BurstKind::from_hburst(HBurst::Incr, 6), BurstKind::Incr(6));
    }

    #[test]
    fn incrementing_addresses_step_by_size() {
        let seq = BurstSequence::new(Addr::new(0x100), BurstKind::Incr4, HSize::Word);
        let addrs: Vec<u32> = seq.map(|a| a.value()).collect();
        assert_eq!(addrs, vec![0x100, 0x104, 0x108, 0x10C]);
    }

    #[test]
    fn incrementing_halfword_addresses() {
        let seq = BurstSequence::new(Addr::new(0x20), BurstKind::Incr(3), HSize::Halfword);
        let addrs: Vec<u32> = seq.map(|a| a.value()).collect();
        assert_eq!(addrs, vec![0x20, 0x22, 0x24]);
    }

    #[test]
    fn wrap4_wraps_inside_aligned_block() {
        let seq = BurstSequence::new(Addr::new(0x38), BurstKind::Wrap4, HSize::Word);
        let addrs: Vec<u32> = seq.map(|a| a.value()).collect();
        assert_eq!(addrs, vec![0x38, 0x3C, 0x30, 0x34]);
    }

    #[test]
    fn wrap8_doubleword_matches_spec_example() {
        // 8-beat wrapping burst of doublewords wraps at a 64-byte boundary.
        let seq = BurstSequence::new(Addr::new(0x34), BurstKind::Wrap8, HSize::Word);
        let addrs: Vec<u32> = seq.map(|a| a.value()).collect();
        assert_eq!(addrs, vec![0x34, 0x38, 0x3C, 0x20, 0x24, 0x28, 0x2C, 0x30]);
    }

    #[test]
    fn wrap_burst_at_aligned_start_never_wraps() {
        let seq = BurstSequence::new(Addr::new(0x40), BurstKind::Wrap4, HSize::Word);
        let addrs: Vec<u32> = seq.map(|a| a.value()).collect();
        assert_eq!(addrs, vec![0x40, 0x44, 0x48, 0x4C]);
    }

    #[test]
    fn boundary_rule_detection() {
        // An INCR16 of words starting 8 bytes below a 1KB boundary crosses it.
        let crossing = BurstSequence::new(Addr::new(0x0000_03F8), BurstKind::Incr16, HSize::Word);
        assert!(crossing.crosses_1kb_boundary());
        // Wrapping bursts never cross because they stay in an aligned block.
        let wrapping = BurstSequence::new(Addr::new(0x0000_03F8), BurstKind::Wrap16, HSize::Word);
        assert!(!wrapping.crosses_1kb_boundary());
        let safe = BurstSequence::new(Addr::new(0x0000_0000), BurstKind::Incr16, HSize::Word);
        assert!(!safe.crosses_1kb_boundary());
    }

    /// The per-beat walk the constant-time check replaces, kept as its
    /// oracle: does any beat leave the first beat's 1 KB block?
    fn crosses_by_walk(seq: &BurstSequence) -> bool {
        let first_block = seq.beat_addr(0).kib_block();
        (1..seq.beats()).any(|i| seq.beat_addr(i).kib_block() != first_block)
    }

    #[test]
    fn constant_time_boundary_check_matches_the_per_beat_walk() {
        let sizes = [
            HSize::Byte,
            HSize::Halfword,
            HSize::Word,
            HSize::Doubleword,
            HSize::Line4,
            HSize::Line8,
        ];
        let mut kinds = vec![
            BurstKind::Single,
            BurstKind::Incr4,
            BurstKind::Incr8,
            BurstKind::Incr16,
            BurstKind::Wrap4,
            BurstKind::Wrap8,
            BurstKind::Wrap16,
        ];
        kinds.extend(
            [
                0, 1, 2, 3, 5, 7, 31, 32, 33, 255, 256, 257, 1023, 1024, 1025,
            ]
            .map(BurstKind::Incr),
        );
        // Every offset inside a 1 KB block (aligned and misaligned), in a
        // low block, a mid block and the top block of the address space,
        // where incrementing beats wrap past 0xFFFF_FFFF.
        let blocks = [0u32, 0x2000_0400, 0xFFFF_FC00];
        let mut cases = 0u32;
        for &size in &sizes {
            for &kind in &kinds {
                for &block in &blocks {
                    for offset in 0..1024u32 {
                        let seq = BurstSequence::new(Addr::new(block + offset), kind, size);
                        assert_eq!(
                            seq.crosses_1kb_boundary(),
                            crosses_by_walk(&seq),
                            "{kind:?} of {size:?} from {:#010x}",
                            block + offset
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 22 * 3 * 1024);
    }

    #[test]
    fn huge_incrementing_bursts_cross_without_overflow() {
        // Spans beyond 4 GiB: the walk would take billions of beats and its
        // u32 offsets would wrap, so only the closed form is checked here.
        for beats in [1 << 26, u32::MAX] {
            for start in [0u32, 0x3FC, 0xFFFF_FFE0] {
                let seq =
                    BurstSequence::new(Addr::new(start), BurstKind::Incr(beats), HSize::Line8);
                assert!(seq.crosses_1kb_boundary());
            }
        }
    }

    #[test]
    fn bytes_and_len() {
        let seq = BurstSequence::new(Addr::new(0), BurstKind::Incr8, HSize::Word);
        assert_eq!(seq.bytes(), 32);
        assert_eq!(seq.len(), 8);
        let mut seq = seq;
        seq.next();
        assert_eq!(seq.len(), 7);
    }
}
