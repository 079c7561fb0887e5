//! The cycle-level AHB+ arbiter.
//!
//! Samples the `HBUSREQ` wires (plus the write buffer's internal request)
//! every clock cycle, keeps a per-master waited counter for the QoS urgency
//! filter, and runs the exact same
//! [`amba::arbitration::ArbitrationPolicy`] chain as the transaction-level
//! arbiter. The decision is driven onto the registered `HGRANT` signal by
//! the system; this block is purely combinational plus the waited counters.

use amba::arbitration::{ArbiterConfig, ArbitrationPolicy, Decision, RequestView};
use amba::ids::{Addr, MasterId};
use amba::qos::{QosConfig, QosRegisterFile};
use ddrc::DdrController;
use simkern::time::Cycle;

/// One per-cycle candidate as sampled from the wires.
#[derive(Debug, Clone, Copy)]
pub struct SampledRequest {
    /// Requesting master.
    pub master: MasterId,
    /// Cycle the request was first asserted.
    pub requested_at: Cycle,
    /// Start address of the transaction the master wants to issue (from the
    /// AHB+ sideband), used for the bank-affinity filter and the BI hint.
    pub addr: Addr,
    /// Whether this is the write buffer's own request.
    pub is_write_buffer: bool,
    /// Write-buffer occupancy (only meaningful for its own request).
    pub write_buffer_fill: usize,
}

/// The cycle-level arbiter block.
#[derive(Debug, Clone)]
pub struct RtlArbiter {
    policy: ArbitrationPolicy,
    qos: QosRegisterFile,
    bank_affinity_from_bi: bool,
    grants: u64,
    /// Request views of the current decision, reused across cycles so the
    /// cycle loop allocates nothing.
    views: Vec<RequestView>,
}

impl RtlArbiter {
    /// Creates an arbiter with the given filter configuration.
    #[must_use]
    pub fn new(config: ArbiterConfig, bank_affinity_from_bi: bool) -> Self {
        RtlArbiter {
            policy: ArbitrationPolicy::new(config),
            qos: QosRegisterFile::new(),
            bank_affinity_from_bi,
            grants: 0,
            views: Vec::new(),
        }
    }

    /// Programs the QoS registers of a master.
    pub fn program_qos(&mut self, master: MasterId, qos: QosConfig) {
        self.qos.program(master, qos);
    }

    /// Number of grants issued so far.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Runs the filter chain over the sampled requests. Takes `&mut self`
    /// only to reuse the internal view buffer; no decision state changes
    /// until [`RtlArbiter::record_grant`].
    #[must_use]
    pub fn decide(
        &mut self,
        now: Cycle,
        sampled: &[SampledRequest],
        ddr: &DdrController,
    ) -> Option<Decision> {
        self.views.clear();
        for request in sampled {
            let mut view = RequestView::new(
                request.master,
                self.qos.lookup(request.master),
                now.saturating_since(request.requested_at).value(),
            );
            view.is_write_buffer = request.is_write_buffer;
            view.write_buffer_fill = request.write_buffer_fill;
            view.bank_ready = self.bank_affinity_from_bi && ddr.is_addr_ready(now, request.addr);
            self.views.push(view);
        }
        self.policy.decide(&self.views)
    }

    /// Commits a grant (advances the round-robin pointer).
    pub fn record_grant(&mut self, master: MasterId) {
        self.policy.record_grant(master);
        self.grants += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddrc::DdrConfig;

    fn sampled(master: u8, requested_at: u64, addr: u32) -> SampledRequest {
        SampledRequest {
            master: MasterId::new(master),
            requested_at: Cycle::new(requested_at),
            addr: Addr::new(addr),
            is_write_buffer: false,
            write_buffer_fill: 0,
        }
    }

    #[test]
    fn empty_sample_set_gives_no_grant() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        assert!(arbiter.decide(Cycle::new(0), &[], &ddr).is_none());
    }

    #[test]
    fn real_time_master_wins_over_best_effort() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(0));
        arbiter.program_qos(MasterId::new(1), QosConfig::real_time(300, 7));
        let decision = arbiter
            .decide(
                Cycle::new(5),
                &[sampled(0, 0, 0x2000_0000), sampled(1, 0, 0x2000_0800)],
                &ddr,
            )
            .unwrap();
        assert_eq!(decision.master, MasterId::new(1));
    }

    #[test]
    fn waited_counters_trigger_qos_urgency() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::real_time(1_000, 0));
        arbiter.program_qos(MasterId::new(1), QosConfig::real_time(100, 7));
        // Master 1 has been waiting 90 of its 100-cycle budget; master 0 has
        // barely waited. Urgency must override the better fixed priority.
        let decision = arbiter
            .decide(
                Cycle::new(100),
                &[sampled(0, 99, 0x2000_0000), sampled(1, 10, 0x2000_0800)],
                &ddr,
            )
            .unwrap();
        assert_eq!(decision.master, MasterId::new(1));
    }

    #[test]
    fn grant_recording_rotates_round_robin() {
        let mut arbiter = RtlArbiter::new(ArbiterConfig::ahb_plus(), true);
        let ddr = DdrController::new(DdrConfig::ahb_plus());
        arbiter.program_qos(MasterId::new(0), QosConfig::non_real_time(4));
        arbiter.program_qos(MasterId::new(1), QosConfig::non_real_time(4));
        let requests = [sampled(0, 0, 0x2000_0000), sampled(1, 0, 0x2000_0000)];
        let first = arbiter.decide(Cycle::new(0), &requests, &ddr).unwrap();
        arbiter.record_grant(first.master);
        let second = arbiter.decide(Cycle::new(0), &requests, &ddr).unwrap();
        assert_ne!(first.master, second.master);
        assert_eq!(arbiter.grants(), 1);
    }
}
