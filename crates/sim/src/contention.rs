//! Cross-tenant DRAM-channel contention for multi-model co-plans.
//!
//! Each tenant of a co-plan is planned and simulated against its own
//! device *partition* (a scaled-bank view of the shared DDR system, see
//! `Device::partition`). This module composes those per-tenant runs
//! into a shared-memory-system estimate: when the tenants' bank
//! demands together fit the physical banks, every tenant keeps its
//! dedicated channels and nothing changes; when they oversubscribe the
//! device, each tensor interface's aggregate demand scales the tenants
//! that use it, reusing the same raw-utilisation / oversubscription
//! accounting as [`crate::SimReport::oversubscribed_channels`].

use crate::channel::ChannelKind;
use crate::engine::{SimConfig, Simulator};
use crate::validate::weight_classes;
use lcmm_core::LcmmResult;
use lcmm_fpga::GraphProfile;
use lcmm_graph::Graph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The three tensor interfaces, in a fixed order for deterministic
/// iteration and serialisation.
pub const CHANNEL_KINDS: [ChannelKind; 3] = [
    ChannelKind::InputFeature,
    ChannelKind::Weight,
    ChannelKind::OutputFeature,
];

/// One tenant's steady-state demand on its partition's memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantLoad {
    /// Uncontended steady-state latency of one inference, seconds.
    pub steady_latency: f64,
    /// Busy seconds per tensor interface over the simulated run.
    pub channel_busy: HashMap<ChannelKind, f64>,
    /// Wall-clock seconds of the simulated run the busy times are
    /// measured against.
    pub run_seconds: f64,
    /// DDR banks of the tenant's partition view.
    pub banks: usize,
}

impl TenantLoad {
    /// Fraction of the run this tenant keeps interface `kind` busy.
    #[must_use]
    pub fn utilization(&self, kind: ChannelKind) -> f64 {
        if self.run_seconds <= 0.0 {
            return 0.0;
        }
        self.channel_busy.get(&kind).copied().unwrap_or(0.0) / self.run_seconds
    }
}

/// Simulates one tenant's plan in steady state (two warm inferences,
/// as in [`crate::validate::simulate_lcmm`]) and measures its channel
/// demand.
#[must_use]
pub fn tenant_load(graph: &Graph, result: &LcmmResult) -> TenantLoad {
    tenant_load_with_profile(graph, result, &result.design.profile(graph))
}

/// [`tenant_load`] against `profile`, which must be the table
/// `result.design.profile(graph)` builds (a cached copy saves
/// re-profiling the design).
#[must_use]
pub fn tenant_load_with_profile(
    graph: &Graph,
    result: &LcmmResult,
    profile: &GraphProfile,
) -> TenantLoad {
    let sim = Simulator::new(graph, profile);
    let config = SimConfig::default()
        .with_inferences(2)
        .with_weight_classes(weight_classes(result))
        .with_prefetch(result.prefetch.clone());
    let report = sim.run(&result.residency, &config);
    TenantLoad {
        steady_latency: report.steady_latency,
        channel_busy: report.channel_busy.clone(),
        run_seconds: report.total_latency,
        banks: result.design.device.ddr.banks,
    }
}

/// Shared-memory-system contention estimate for a set of tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// Whether tenants actually share banks (`false` when the partition
    /// bank counts sum to at most the physical banks — every tenant
    /// then keeps dedicated channels).
    pub shared: bool,
    /// Aggregate normalised demand per tensor interface. Values above
    /// 1.0 mean the interface cannot serve all tenants concurrently.
    pub demand: HashMap<ChannelKind, f64>,
    /// Interfaces whose aggregate demand exceeds capacity (same 1e-9
    /// band as [`crate::SimReport::oversubscribed_channels`]).
    pub oversubscribed_channels: usize,
    /// Per-tenant slowdown factor (≥ 1.0), index-aligned with the
    /// input loads.
    pub slowdown: Vec<f64>,
    /// Per-tenant contended steady latency, seconds.
    pub contended_latency: Vec<f64>,
}

/// Composes per-tenant loads into a shared-device contention estimate.
///
/// Model: tenant `t`'s demand on interface `k` is its utilisation
/// `busy_{t,k} / run_t`, weighted by the fraction of the physical banks
/// its partition claims (`banks_t / total_banks`) — a tenant that was
/// granted half the banks can at most present half the device's
/// bandwidth demand. The interface's aggregate demand is the sum over
/// tenants; a tenant slows down by the worst oversubscribed interface
/// it touches, `max(1, max_k D_k)`.
#[must_use]
pub fn cross_tenant_contention(total_banks: usize, loads: &[TenantLoad]) -> ContentionReport {
    let requested: usize = loads.iter().map(|l| l.banks).sum();
    let shared = requested > total_banks && loads.len() > 1;

    let mut demand = HashMap::new();
    if shared {
        for kind in CHANNEL_KINDS {
            let d: f64 = loads
                .iter()
                .map(|l| l.utilization(kind) * l.banks as f64 / total_banks.max(1) as f64)
                .sum();
            demand.insert(kind, d);
        }
    } else {
        for kind in CHANNEL_KINDS {
            demand.insert(kind, 0.0);
        }
    }

    let oversubscribed_channels = CHANNEL_KINDS
        .iter()
        .filter(|k| demand.get(k).copied().unwrap_or(0.0) > 1.0 + 1e-9)
        .count();

    let slowdown: Vec<f64> = loads
        .iter()
        .map(|l| {
            if !shared {
                return 1.0;
            }
            CHANNEL_KINDS
                .iter()
                .filter(|&&k| l.utilization(k) > 0.0)
                .map(|k| demand.get(k).copied().unwrap_or(0.0))
                .fold(1.0f64, f64::max)
        })
        .collect();

    let contended_latency = loads
        .iter()
        .zip(&slowdown)
        .map(|(l, &s)| l.steady_latency * s)
        .collect();

    ContentionReport {
        shared,
        demand,
        oversubscribed_channels,
        slowdown,
        contended_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(util: f64, banks: usize, steady: f64) -> TenantLoad {
        let mut channel_busy = HashMap::new();
        for kind in CHANNEL_KINDS {
            channel_busy.insert(kind, util);
        }
        TenantLoad {
            steady_latency: steady,
            channel_busy,
            run_seconds: 1.0,
            banks,
        }
    }

    #[test]
    fn dedicated_banks_mean_no_contention() {
        // 2 + 2 banks on a 4-bank device: dedicated channels.
        let loads = vec![load(0.9, 2, 1e-3), load(0.9, 2, 2e-3)];
        let report = cross_tenant_contention(4, &loads);
        assert!(!report.shared);
        assert_eq!(report.oversubscribed_channels, 0);
        assert_eq!(report.slowdown, vec![1.0, 1.0]);
        assert_eq!(report.contended_latency, vec![1e-3, 2e-3]);
    }

    #[test]
    fn oversubscribed_banks_slow_all_users() {
        // 3 + 3 banks requested on a 4-bank device, both near-saturated:
        // aggregate demand 2 × (0.9 × 3/4) = 1.35 per interface.
        let loads = vec![load(0.9, 3, 1e-3), load(0.9, 3, 2e-3)];
        let report = cross_tenant_contention(4, &loads);
        assert!(report.shared);
        assert_eq!(report.oversubscribed_channels, 3);
        for (s, l) in report.slowdown.iter().zip(&loads) {
            assert!((s - 1.35).abs() < 1e-12);
            let _ = l;
        }
        assert!((report.contended_latency[0] - 1.35e-3).abs() < 1e-15);
    }

    #[test]
    fn idle_tenant_is_not_slowed() {
        let mut idle = load(0.0, 3, 1e-3);
        idle.channel_busy.clear();
        let busy = load(1.0, 3, 1e-3);
        let report = cross_tenant_contention(4, &[idle, busy]);
        assert!(report.shared);
        assert_eq!(report.slowdown[0], 1.0, "no demand, no contention");
        assert!(report.slowdown[1] >= 1.0);
    }

    #[test]
    fn light_sharing_stays_at_unity() {
        // Shared banks but low utilisation: demand under 1, no slowdown.
        let loads = vec![load(0.3, 3, 1e-3), load(0.3, 3, 1e-3)];
        let report = cross_tenant_contention(4, &loads);
        assert!(report.shared);
        assert_eq!(report.oversubscribed_channels, 0);
        assert!(report.slowdown.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn single_tenant_never_contends() {
        let loads = vec![load(1.0, 4, 1e-3)];
        let report = cross_tenant_contention(4, &loads);
        assert!(!report.shared);
        assert_eq!(report.slowdown, vec![1.0]);
    }
}
