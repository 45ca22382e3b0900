//! FPGA device resources and the off-chip memory system.

use serde::{Deserialize, Serialize};

/// A 36-Kb BRAM block's capacity in bytes.
pub const BRAM_BLOCK_BYTES: u64 = 36 * 1024 / 8;
/// A 288-Kb URAM block's capacity in bytes.
pub const URAM_BLOCK_BYTES: u64 = 288 * 1024 / 8;

/// The DDR memory system attached to the FPGA.
///
/// The paper's setup: four DDR4 banks of 19.2 GB/s theoretical bandwidth,
/// with the three tensor interfaces (input features, weights, output
/// features) each assigned one third of the aggregate
/// (`19.2 × 4 / 3 = 25.6 GB/s`, §2.2).
///
/// `access_efficiency` models the fraction of theoretical bandwidth that
/// tiled tensor traffic actually sustains. Tile-by-tile accesses issue
/// short, strided bursts that pay DRAM row-activation and bus-turnaround
/// penalties on every tile row; published measurements for this access
/// pattern on DDR4 land in the 15–35 % range, and the paper's own
/// motivation (layers "needing 70 GB/s" against a 19.2 GB/s bank) only
/// arises under such derating. The default, 0.21, is calibrated so that
/// the Table 1 reproduction lands at the paper's 1.36× average speedup
/// and a comparable memory-bound layer population; see DESIGN.md §2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DdrConfig {
    /// Number of DDR banks.
    pub banks: usize,
    /// Theoretical bandwidth per bank, bytes per second.
    pub bank_bandwidth: f64,
    /// Fraction of aggregate bandwidth assigned to each of the three
    /// tensor interfaces.
    pub interface_share: f64,
    /// Sustained fraction of theoretical bandwidth for tiled tensor
    /// traffic.
    pub access_efficiency: f64,
}

impl DdrConfig {
    /// The paper's four-bank DDR4 configuration.
    #[must_use]
    pub fn ddr4_x4() -> Self {
        Self {
            banks: 4,
            bank_bandwidth: 19.2e9,
            interface_share: 1.0 / 3.0,
            access_efficiency: 0.21,
        }
    }

    /// Theoretical aggregate bandwidth across all banks, bytes/s.
    #[must_use]
    pub fn aggregate_bandwidth(&self) -> f64 {
        self.banks as f64 * self.bank_bandwidth
    }

    /// Theoretical bandwidth assigned to one tensor interface, bytes/s.
    #[must_use]
    pub fn interface_bandwidth(&self) -> f64 {
        self.aggregate_bandwidth() * self.interface_share
    }

    /// Sustained (derated) bandwidth of one tensor interface, bytes/s —
    /// the number every transfer-latency estimate divides by.
    #[must_use]
    pub fn effective_interface_bandwidth(&self) -> f64 {
        self.interface_bandwidth() * self.access_efficiency
    }

    /// Access efficiency as a function of the contiguous chunk size of
    /// a transfer: each chunk pays a fixed row-activation/turnaround
    /// cost equivalent to [`DDR_CHUNK_OVERHEAD_BYTES`] of bus time, so
    /// `eff = chunk / (chunk + overhead)`.
    ///
    /// This is the *granular* alternative to the flat
    /// `access_efficiency` knob: a 112-byte feature row (56-wide fmap at
    /// 16-bit) sustains ≈ 0.21 of peak — the calibrated uniform value —
    /// while multi-KB weight streams approach 0.9.
    #[must_use]
    pub fn chunk_efficiency(&self, chunk_bytes: u64) -> f64 {
        let c = chunk_bytes.max(1) as f64;
        c / (c + DDR_CHUNK_OVERHEAD_BYTES)
    }

    /// Sustained bandwidth of one interface for transfers whose
    /// contiguous chunks are `chunk_bytes` long.
    #[must_use]
    pub fn granular_interface_bandwidth(&self, chunk_bytes: u64) -> f64 {
        self.interface_bandwidth() * self.chunk_efficiency(chunk_bytes)
    }
}

/// Fixed per-chunk cost of a DRAM access in bus-byte equivalents
/// (row activation + precharge + read latency + turnaround at DDR4
/// timing, ≈ 17 ns on a 25.6 GB/s stream).
pub const DDR_CHUNK_OVERHEAD_BYTES: f64 = 430.0;

/// An FPGA device: compute and memory resources.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Device name, e.g. `"xcvu9p"`.
    pub name: String,
    /// Total DSP48 slices.
    pub dsp_slices: usize,
    /// Total 36-Kb BRAM blocks.
    pub bram_blocks: usize,
    /// Total 288-Kb URAM blocks.
    pub uram_blocks: usize,
    /// Total CLB LUTs (used only for the utilisation columns of the
    /// report tables; the model never gates on logic).
    pub clb_luts: usize,
    /// The attached DDR system.
    pub ddr: DdrConfig,
}

impl Device {
    /// The Xilinx Virtex UltraScale+ VU9P used throughout the paper:
    /// 6840 DSPs, 2160 BRAM36, 960 URAM288, ~1.18 M LUTs.
    #[must_use]
    pub fn vu9p() -> Self {
        Self {
            name: "xcvu9p".to_string(),
            dsp_slices: 6840,
            bram_blocks: 2160,
            uram_blocks: 960,
            clb_luts: 1_182_000,
            ddr: DdrConfig::ddr4_x4(),
        }
    }

    /// The Xilinx VU13P: the next device up (12288 DSPs, 2688 BRAM36,
    /// 1280 URAM288) with the same four-bank DDR4 — more compute and
    /// SRAM against unchanged bandwidth, so *more* layers go memory
    /// bound and LCMM has more to recover.
    #[must_use]
    pub fn vu13p() -> Self {
        Self {
            name: "xcvu13p".to_string(),
            dsp_slices: 12_288,
            bram_blocks: 2688,
            uram_blocks: 1280,
            clb_luts: 1_728_000,
            ddr: DdrConfig::ddr4_x4(),
        }
    }

    /// The Xilinx ZU9EG (Zynq UltraScale+ MPSoC, embedded class):
    /// 2520 DSPs, 912 BRAM36, **no URAM**, a single DDR4 channel. The
    /// stress case for LCMM — barely 4 MiB of SRAM to allocate.
    #[must_use]
    pub fn zu9eg() -> Self {
        Self {
            name: "xczu9eg".to_string(),
            dsp_slices: 2520,
            bram_blocks: 912,
            uram_blocks: 0,
            clb_luts: 274_000,
            ddr: DdrConfig {
                banks: 1,
                bank_bandwidth: 19.2e9,
                interface_share: 1.0 / 3.0,
                access_efficiency: 0.21,
            },
        }
    }

    /// Resolves a device by its short CLI/wire name.
    ///
    /// Recognised names: `vu9p`/`xcvu9p`, `vu13p`/`xcvu13p`,
    /// `zu9eg`/`xczu9eg` (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "vu9p" | "xcvu9p" => Some(Self::vu9p()),
            "vu13p" | "xcvu13p" => Some(Self::vu13p()),
            "zu9eg" | "xczu9eg" => Some(Self::zu9eg()),
            _ => None,
        }
    }

    /// Total BRAM capacity in bytes.
    #[must_use]
    pub fn bram_bytes(&self) -> u64 {
        self.bram_blocks as u64 * BRAM_BLOCK_BYTES
    }

    /// Total URAM capacity in bytes.
    #[must_use]
    pub fn uram_bytes(&self) -> u64 {
        self.uram_blocks as u64 * URAM_BLOCK_BYTES
    }

    /// Total on-chip SRAM (BRAM + URAM) in bytes.
    ///
    /// For the VU9P this is ≈ 43 MB — the "device limit (40 MB)" marked
    /// in the paper's Fig. 2(b).
    #[must_use]
    pub fn sram_bytes(&self) -> u64 {
        self.bram_bytes() + self.uram_bytes()
    }

    /// Peak MAC throughput in operations per second at `freq_hz` for a
    /// design using `dsps` slices at `dsps_per_mac` cost
    /// (2 ops — multiply and add — per MAC per cycle).
    #[must_use]
    pub fn peak_ops(&self, dsps: usize, dsps_per_mac: usize, freq_hz: f64) -> f64 {
        (dsps / dsps_per_mac) as f64 * 2.0 * freq_hz
    }

    /// A tenant's view of this device in a multi-tenant co-plan: DSP
    /// slices and DDR banks are scaled by `share` (rounded down, but a
    /// tenant always keeps at least one bank so the transfer model stays
    /// finite); name and SRAM blocks are unchanged, because SRAM is
    /// partitioned at byte granularity by the joint knapsack, not by the
    /// device view.
    ///
    /// `share == 1.0` returns the device unchanged (bit-identical), so
    /// the single-tenant case degenerates exactly to the whole device.
    /// This is the single-tenant view of [`Device::partition_set`]; use
    /// the set form when partitioning for several tenants at once, so
    /// the views are guaranteed to conserve the physical totals.
    ///
    /// # Panics
    ///
    /// Panics when `share` is not in `(0.0, 1.0]`.
    #[must_use]
    pub fn partition(&self, share: f64) -> Self {
        assert!(
            share > 0.0 && share <= 1.0,
            "partition share {share} out of (0, 1]"
        );
        if share == 1.0 {
            return self.clone();
        }
        self.partition_set(std::slice::from_ref(&share))
            .expect("a single in-range share always fits")
            .pop()
            .expect("partition_set returns one view per share")
    }

    /// Partitions the device across several tenants at once, conserving
    /// the physical totals: the returned views' DSP slices and DDR banks
    /// each sum to at most the parent device's.
    ///
    /// Each resource is apportioned by largest remainder: every tenant
    /// gets `floor(total × share)` units, and the units lost to
    /// flooring (up to `floor(total × Σ shares)`) go to the largest
    /// fractional remainders (ties to the lower index). A tenant whose
    /// quota floors to zero is still bumped to one unit — but only
    /// while the sum fits, first from slack the shares left unclaimed,
    /// then by taking a unit from the largest grant; when even that
    /// cannot cover every tenant (more tenants than physical units) the
    /// split is reported as infeasible instead of overclaiming.
    ///
    /// # Errors
    ///
    /// A share outside `(0, 1]`, shares summing past 1, or more tenants
    /// than DSP slices / DDR banks.
    pub fn partition_set(&self, shares: &[f64]) -> Result<Vec<Self>, String> {
        for &share in shares {
            if !(share.is_finite() && share > 0.0 && share <= 1.0) {
                return Err(format!("partition share {share} out of (0, 1]"));
            }
        }
        let sum: f64 = shares.iter().sum();
        if sum > 1.0 + 1e-9 {
            return Err(format!("partition shares sum to {sum:.6} > 1"));
        }
        self.check_tenant_count(shares.len())?;
        let dsp = apportion(self.dsp_slices, shares);
        let banks = apportion(self.ddr.banks, shares);
        Ok(shares
            .iter()
            .enumerate()
            .map(|(i, &share)| {
                if share == 1.0 {
                    return self.clone();
                }
                let mut part = self.clone();
                part.dsp_slices = dsp[i];
                part.ddr.banks = banks[i];
                part
            })
            .collect())
    }

    /// Whether `tenants` partitions can each get a DSP slice and a DDR
    /// bank: the error [`Self::partition_set`] gives for that many
    /// shares, checked without any. Callers that enumerate share
    /// vectors check this first, since the count alone decides it.
    ///
    /// # Errors
    ///
    /// More tenants than DSP slices, or than DDR banks (checked in that
    /// order).
    pub fn check_tenant_count(&self, tenants: usize) -> Result<(), String> {
        for (unit, have) in [
            ("DSP slices", self.dsp_slices),
            ("DDR banks", self.ddr.banks),
        ] {
            if tenants > have {
                return Err(format!(
                    "{tenants} tenants need {tenants} {unit}; device has {have}"
                ));
            }
        }
        Ok(())
    }
}

/// Largest-remainder apportionment of `total` indivisible units over
/// `shares` (each in `(0, 1]`, summing to at most 1): grants sum to at
/// most `total`, every tenant gets at least one unit, and a tenant's
/// grant never exceeds its quota by more than the one unit the floor /
/// minimum rules move. Needs at most `total` tenants
/// ([`Device::check_tenant_count`]).
fn apportion(total: usize, shares: &[f64]) -> Vec<usize> {
    let n = shares.len();
    debug_assert!(
        n <= total,
        "{n} tenants cannot each get one of {total} units"
    );
    let quotas: Vec<f64> = shares.iter().map(|&s| total as f64 * s).collect();
    let mut grants: Vec<usize> = quotas.iter().map(|&q| q as usize).collect();
    // The collective entitlement, rounded down (the 1e-9 band absorbs
    // float noise in shares that sum to exactly 1).
    let target = ((quotas.iter().sum::<f64>() + 1e-9).floor() as usize).min(total);
    let mut granted: usize = grants.iter().sum();
    if granted < target {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let ra = quotas[a] - grants[a] as f64;
            let rb = quotas[b] - grants[b] as f64;
            rb.partial_cmp(&ra)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &i in order.iter().cycle().take(target - granted) {
            grants[i] += 1;
        }
        granted = target;
    }
    // Minimum-one floor, only while the sum fits: free units first,
    // then a unit from the largest grant (first such index).
    for i in 0..n {
        if grants[i] > 0 {
            continue;
        }
        if granted < total {
            grants[i] = 1;
            granted += 1;
        } else {
            // The grants sum to `total` ≥ n with tenant `i` at zero, so
            // another tenant holds at least two units.
            let donor = (0..n)
                .max_by(|&a, &b| grants[a].cmp(&grants[b]).then(b.cmp(&a)))
                .filter(|&d| grants[d] > 1)
                .expect("n <= total leaves a grant above one");
            grants[donor] -= 1;
            grants[i] = 1;
        }
    }
    grants
}

impl Default for Device {
    fn default() -> Self {
        Self::vu9p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vu9p_sram_near_43_mb() {
        let d = Device::vu9p();
        let mb = d.sram_bytes() as f64 / (1024.0 * 1024.0);
        assert!((42.0..45.0).contains(&mb), "got {mb} MiB");
    }

    #[test]
    fn interface_bandwidth_is_25_6_gbps() {
        let ddr = DdrConfig::ddr4_x4();
        assert!((ddr.interface_bandwidth() - 25.6e9).abs() < 1e6);
        assert!(ddr.effective_interface_bandwidth() < ddr.interface_bandwidth());
    }

    #[test]
    fn peak_ops_matches_paper_2_7_tops() {
        // 6840 DSPs x 2 ops x 200 MHz = 2.736 Tops, the paper's "up to
        // 2.7 Tops under 200 MHz".
        let d = Device::vu9p();
        let tops = d.peak_ops(d.dsp_slices, 1, 200e6) / 1e12;
        assert!((2.6..2.8).contains(&tops), "got {tops} Tops");
    }

    #[test]
    fn float_peak_is_one_fifth() {
        let d = Device::vu9p();
        let fx = d.peak_ops(5000, 1, 200e6);
        let fp = d.peak_ops(5000, 5, 200e6);
        assert!((fx / fp - 5.0).abs() < 1e-9);
    }

    #[test]
    fn device_family_ordering() {
        let zu = Device::zu9eg();
        let vu9 = Device::vu9p();
        let vu13 = Device::vu13p();
        assert!(zu.dsp_slices < vu9.dsp_slices && vu9.dsp_slices < vu13.dsp_slices);
        assert!(zu.sram_bytes() < vu9.sram_bytes() && vu9.sram_bytes() < vu13.sram_bytes());
        assert_eq!(zu.uram_blocks, 0);
        // Embedded part has a quarter of the DDR bandwidth.
        assert!(zu.ddr.aggregate_bandwidth() < vu9.ddr.aggregate_bandwidth() / 3.9);
    }

    #[test]
    fn partition_full_share_is_identity() {
        let d = Device::vu9p();
        assert_eq!(d.partition(1.0), d);
    }

    #[test]
    fn partition_scales_dsp_and_banks() {
        let d = Device::vu9p();
        let half = d.partition(0.5);
        assert_eq!(half.dsp_slices, 3420);
        assert_eq!(half.ddr.banks, 2);
        // SRAM is split by the joint knapsack, not the device view.
        assert_eq!(half.sram_bytes(), d.sram_bytes());
        assert_eq!(half.name, d.name);
        // Tiny shares keep at least one bank.
        let sliver = d.partition(0.05);
        assert_eq!(sliver.ddr.banks, 1);
        assert!(sliver.dsp_slices >= 1);
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn partition_rejects_zero_share() {
        let _ = Device::vu9p().partition(0.0);
    }

    #[test]
    fn partition_set_conserves_totals() {
        let d = Device::vu9p();
        // Many small shares used to overclaim banks through the min-1
        // floor (4 × max(1, floor(4 × 0.25-ε)) could exceed 4); the set
        // form must never hand out more than the device has.
        for shares in [
            vec![0.25; 4],
            vec![0.1, 0.1, 0.1, 0.1],
            vec![0.375, 0.625],
            vec![1.0 / 3.0; 3],
            vec![0.05, 0.05, 0.45, 0.45],
        ] {
            let parts = d.partition_set(&shares).expect("feasible split");
            let dsp: usize = parts.iter().map(|p| p.dsp_slices).sum();
            let banks: usize = parts.iter().map(|p| p.ddr.banks).sum();
            assert!(
                dsp <= d.dsp_slices,
                "{shares:?}: {dsp} DSPs > {}",
                d.dsp_slices
            );
            assert!(
                banks <= d.ddr.banks,
                "{shares:?}: {banks} banks > {}",
                d.ddr.banks
            );
            assert!(parts.iter().all(|p| p.dsp_slices >= 1 && p.ddr.banks >= 1));
        }
    }

    #[test]
    fn partition_set_uses_largest_remainders() {
        let d = Device::vu9p();
        // 3/8 and 5/8 of 4 banks floor to (1, 2); the flooring loss goes
        // back to the largest remainder (tie → lower index) so the full
        // entitlement of 4 banks is granted.
        let parts = d.partition_set(&[0.375, 0.625]).expect("feasible");
        assert_eq!([parts[0].ddr.banks, parts[1].ddr.banks], [2, 2]);
        assert_eq!(parts[0].dsp_slices + parts[1].dsp_slices, d.dsp_slices);
        // Exact quarters stay exact — the steps-4 grid is untouched.
        let quarters = d.partition_set(&[0.25, 0.75]).expect("feasible");
        assert_eq!([quarters[0].ddr.banks, quarters[1].ddr.banks], [1, 3]);
        assert_eq!(quarters[0].dsp_slices, 1710);
    }

    #[test]
    fn partition_set_min_one_only_while_it_fits() {
        let d = Device::vu9p(); // 4 DDR banks
                                // Four slivers: every tenant still gets its one bank because
                                // the unclaimed slack covers the bumps.
        let parts = d.partition_set(&[0.01; 4]).expect("fits exactly");
        assert!(parts.iter().all(|p| p.ddr.banks == 1));
        // Five tenants cannot all get a bank: explicit infeasibility,
        // not phantom capacity.
        let err = d.partition_set(&[0.01; 5]).unwrap_err();
        assert!(err.contains("DDR banks"), "{err}");
    }

    #[test]
    fn partition_matches_single_entry_partition_set() {
        let d = Device::vu9p();
        for share in [0.05, 0.25, 0.375, 0.5, 0.9, 1.0] {
            let single = d.partition(share);
            let via_set = d.partition_set(&[share]).expect("feasible")[0].clone();
            assert_eq!(single, via_set, "share {share}");
        }
    }

    #[test]
    fn partition_set_rejects_bad_shares() {
        let d = Device::vu9p();
        assert!(d.partition_set(&[0.0, 0.5]).is_err());
        assert!(d.partition_set(&[0.7, 0.7]).is_err());
        assert!(d.partition_set(&[f64::NAN]).is_err());
        assert!(d
            .partition_set(&[])
            .expect("empty is trivially fine")
            .is_empty());
    }

    #[test]
    fn block_capacities() {
        assert_eq!(BRAM_BLOCK_BYTES, 4608);
        assert_eq!(URAM_BLOCK_BYTES, 36 * 1024);
    }
}
