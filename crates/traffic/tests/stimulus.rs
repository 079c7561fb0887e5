//! Stimulus identity and replay validity.
//!
//! Every backend replays the traces `TrafficPattern::expand` produces, so
//! any change to the generator that alters a single draw silently changes
//! every simulated result. The hashes pinned below were computed from the
//! generator as it stood before the burst-weight table was hoisted out of
//! the per-item loop; they must only change in a commit that means to
//! change the stimulus.

use amba::bridge::{BridgePort, WindowMap};
use amba::burst::BurstKind;
use amba::check::validate_transaction;
use amba::ids::MasterId;
use traffic::{pattern_registry, Release, SHARD_WINDOW_SHIFT};

/// 64-bit FNV-1a over a stream of `u64` words: stable across toolchains,
/// unlike `std`'s `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn burst_code(burst: BurstKind) -> u64 {
    match burst {
        BurstKind::Single => 1,
        BurstKind::Incr(n) => 2 | u64::from(n) << 8,
        BurstKind::Incr4 => 3,
        BurstKind::Incr8 => 4,
        BurstKind::Incr16 => 5,
        BurstKind::Wrap4 => 6,
        BurstKind::Wrap8 => 7,
        BurstKind::Wrap16 => 8,
    }
}

/// Hashes everything `expand` returns: per master its label, QoS
/// programming, posting flag and every trace item field by field.
fn expansion_hash(key: &str, seed: u64) -> u64 {
    let pattern = pattern_registry()
        .into_iter()
        .find(|(name, _)| *name == key)
        .map(|(_, build)| build())
        .expect("registered pattern");
    let mut hash = Fnv::new();
    for (trace, label, qos, posted) in pattern.expand(500, seed) {
        for byte in label.bytes() {
            hash.word(u64::from(byte));
        }
        hash.word(u64::from(qos.class.is_real_time()));
        hash.word(u64::from(qos.objective_cycles));
        hash.word(u64::from(qos.fixed_priority));
        hash.word(u64::from(posted));
        hash.word(trace.master().index() as u64);
        for item in trace.items() {
            match item.release {
                Release::AfterPrevious(gap) => hash.word(gap.value() << 1),
                Release::At(at) => hash.word(at.value() << 1 | 1),
            }
            let txn = &item.txn;
            hash.word(txn.id.value());
            hash.word(txn.master.index() as u64);
            hash.word(u64::from(txn.addr.value()));
            hash.word(u64::from(txn.is_write()));
            hash.word(burst_code(txn.burst));
            hash.word(u64::from(txn.size.bytes()));
            hash.word(txn.issued_at.value());
            hash.word(u64::from(txn.posted_ok));
        }
    }
    hash.0
}

#[test]
fn expansion_is_bit_identical_to_the_pinned_stimulus() {
    let pinned: [(&str, u64, u64); 16] = [
        ("a", 1, 0xab46_03c7_3f7c_926f),
        ("a", 7, 0x86ef_8dbd_ba09_8d97),
        ("b", 1, 0x1d49_4fcc_0dfe_f82b),
        ("b", 7, 0x416f_2b0c_984e_dc00),
        ("c", 1, 0xe4df_6a12_0419_56af),
        ("c", 7, 0xefdf_d260_3d9b_42ab),
        ("qos-stress", 1, 0x6786_b814_d082_4210),
        ("qos-stress", 7, 0x84bf_9cad_ce22_a6df),
        ("dual-stream", 1, 0x513c_afb2_1dec_baee),
        ("dual-stream", 7, 0xd88f_1643_0bca_e4cf),
        ("many-32", 1, 0x45c1_b567_a3af_5489),
        ("many-32", 7, 0xcc0b_e140_d02c_7a4f),
        ("many-64", 1, 0xfc2c_4a25_0166_7479),
        ("many-64", 7, 0x0e30_c5df_5417_64db),
        ("shards-read", 1, 0x6b97_1b66_e4c8_e4f5),
        ("shards-read", 7, 0x1bf2_237a_9bde_3df7),
    ];
    let registered: Vec<&str> = pattern_registry().iter().map(|(name, _)| *name).collect();
    for name in &registered {
        assert!(
            pinned.iter().any(|(key, ..)| key == name),
            "pattern {name} has no pinned stimulus hash"
        );
    }
    let mismatches: Vec<String> = pinned
        .iter()
        .filter_map(|&(key, seed, want)| {
            let got = expansion_hash(key, seed);
            (got != want).then(|| format!("({key:?}, {seed}, {got:#018x}),"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "stimulus changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn bridge_replays_keep_the_validity_of_their_source() {
    // A replay rewrites only the master, id and posting flag, none of
    // which the static rules read, so a validated source yields a valid
    // replay and the replay port's trace needs no re-check per crossing.
    let port = BridgePort {
        map: WindowMap::interleaved(SHARD_WINDOW_SHIFT, 4),
        own: 2,
        slave_cycles: 4,
        master: MasterId::new(200),
        posted_reads: false,
    };
    for (key, build) in pattern_registry() {
        for (trace, ..) in build().expand(500, 3) {
            for item in trace.items() {
                let replay = port.replay_txn(item.txn);
                assert_eq!(
                    validate_transaction(&replay),
                    validate_transaction(&item.txn),
                    "pattern {key}: replay of {} changed validity",
                    item.txn
                );
            }
        }
    }
}
