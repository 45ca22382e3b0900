//! A complete accelerator design point: array + clock + tile budget.

use crate::array::SystolicArray;
use crate::device::Device;
use crate::latency::{post_engine_cycles, resolved_sources, GraphProfile, OpLatency};
use crate::precision::Precision;
use crate::tiling::{choose_tiling, TileBudget, TilingMemo};
use lcmm_graph::{ConvParams, FeatureShape, Graph, Node, OpKind};
use serde::{Deserialize, Serialize};

/// Fraction of the device's DSPs the DSE may spend on the array. Matches
/// the paper's designs, which land at 75–83 % DSP utilisation.
const DSP_BUDGET_FRACTION: f64 = 0.84;

/// Fraction of total SRAM usable overall (routing/ECC headroom); the
/// paper's LCMM designs top out at 81–89 % SRAM utilisation.
const SRAM_CAP_FRACTION: f64 = 0.82;

/// One accelerator design point: the systolic array, its clock, the tile
/// buffer budget, and the device it lives on.
///
/// Baseline clocks mirror Table 1 of the paper (fixed-point designs close
/// timing at 190 MHz, float at 170 MHz; LCMM variants derate slightly —
/// see [`AccelDesign::with_frequency`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelDesign {
    /// Target device.
    pub device: Device,
    /// Datapath precision.
    pub precision: Precision,
    /// The chosen systolic array.
    pub array: SystolicArray,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Tile buffer budget.
    pub tile_budget: TileBudget,
    /// Images processed per invocation. Batching multiplies compute and
    /// feature traffic but amortises weight traffic — the classic
    /// throughput-vs-latency lever (the paper works at batch 1).
    pub batch: usize,
    /// Derive per-tensor DRAM efficiency from access granularity
    /// (`DdrConfig::chunk_efficiency`) instead of the flat
    /// `access_efficiency` knob. Off by default: the uniform knob is
    /// what the Table 1 calibration fixes; granular mode is the
    /// analysis that justifies its magnitude.
    pub granular_ddr: bool,
}

impl AccelDesign {
    /// Runs the design-space exploration of \[18\]: picks the array shape
    /// minimising total compute cycles for `graph` within the DSP
    /// budget, at the default clock for `precision`, with the UMM tile
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics when no array fits the device's DSP budget; a planning
    /// service should use [`AccelDesign::try_explore`] instead.
    #[must_use]
    pub fn explore(graph: &Graph, device: &Device, precision: Precision) -> Self {
        Self::try_explore(graph, device, precision)
            .expect("device DSP budget admits no systolic array")
    }

    /// Fallible variant of [`AccelDesign::explore`]: returns an error
    /// naming the budget when not even the smallest candidate array fits
    /// the device.
    ///
    /// # Errors
    ///
    /// A human-readable description of the infeasible DSP budget.
    pub fn try_explore(
        graph: &Graph,
        device: &Device,
        precision: Precision,
    ) -> Result<Self, String> {
        Self::try_explore_with_dsp_fraction(graph, device, precision, DSP_BUDGET_FRACTION)
    }

    /// Like [`AccelDesign::explore`] but with an explicit DSP budget
    /// fraction — used to model comparison designs that deliberately
    /// spend fewer DSPs (e.g. TGPA's 60 % in the paper's Table 3).
    ///
    /// # Panics
    ///
    /// Panics when no array fits the scaled DSP budget.
    #[must_use]
    pub fn explore_with_dsp_fraction(
        graph: &Graph,
        device: &Device,
        precision: Precision,
        dsp_fraction: f64,
    ) -> Self {
        Self::try_explore_with_dsp_fraction(graph, device, precision, dsp_fraction)
            .expect("DSP budget admits no systolic array")
    }

    /// Fallible variant of [`AccelDesign::explore_with_dsp_fraction`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the infeasible DSP budget.
    pub fn try_explore_with_dsp_fraction(
        graph: &Graph,
        device: &Device,
        precision: Precision,
        dsp_fraction: f64,
    ) -> Result<Self, String> {
        let budget = (device.dsp_slices as f64 * dsp_fraction) as usize;
        let array = SystolicArray::try_explore(graph, precision, budget).ok_or_else(|| {
            format!(
                "no systolic array fits {budget} DSP slices on {} at {precision}",
                device.name
            )
        })?;
        Ok(Self {
            device: device.clone(),
            precision,
            array,
            freq_hz: default_frequency(precision),
            tile_budget: TileBudget::default_umm(),
            batch: 1,
            granular_ddr: false,
        })
    }

    /// Returns a copy clocked at `freq_hz`.
    #[must_use]
    pub fn with_frequency(mut self, freq_hz: f64) -> Self {
        self.freq_hz = freq_hz;
        self
    }

    /// Returns a copy with a different tile budget.
    #[must_use]
    pub fn with_tile_budget(mut self, tile_budget: TileBudget) -> Self {
        self.tile_budget = tile_budget;
        self
    }

    /// Returns a copy using granularity-derived DRAM efficiency.
    #[must_use]
    pub fn with_granular_ddr(mut self) -> Self {
        self.granular_ddr = true;
        self
    }

    /// Returns a copy processing `batch` images per invocation.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be nonzero");
        self.batch = batch;
        self
    }

    /// DSP slices used by the array.
    #[must_use]
    pub fn dsp_used(&self) -> usize {
        self.array.dsp_cost(self.precision)
    }

    /// DSP utilisation in [0, 1].
    #[must_use]
    pub fn dsp_utilization(&self) -> f64 {
        self.dsp_used() as f64 / self.device.dsp_slices as f64
    }

    /// Peak throughput of this design in ops/s (2 ops per MAC).
    #[must_use]
    pub fn peak_ops(&self) -> f64 {
        self.array.macs_per_cycle() as f64 * 2.0 * self.freq_hz
    }

    /// SRAM bytes available for LCMM tensor buffers after the (double
    /// buffered) tile buffers and the global cap are accounted for.
    #[must_use]
    pub fn tensor_sram_budget(&self) -> u64 {
        let cap = (self.device.sram_bytes() as f64 * SRAM_CAP_FRACTION) as u64;
        cap.saturating_sub(self.tile_budget.total_double_buffered())
    }

    /// Builds the full operation latency table for `graph`.
    #[must_use]
    pub fn profile(&self, graph: &Graph) -> GraphProfile {
        GraphProfile::build(graph, self)
    }

    /// Sustained per-interface DRAM bandwidth, bytes/s.
    #[must_use]
    pub fn interface_bandwidth(&self) -> f64 {
        self.device.ddr.effective_interface_bandwidth()
    }

    /// Transfer latency of `bytes` over one tensor interface.
    #[must_use]
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.interface_bandwidth()
    }

    /// The latency row (Fig. 7(c)) for one node; `tilings` is the
    /// profile build's tiling memo.
    pub(crate) fn node_latency(
        &self,
        graph: &Graph,
        node: &Node,
        tilings: &mut TilingMemo,
    ) -> OpLatency {
        let b = self.precision.bytes();
        let bw = self.interface_bandwidth();
        let zero = OpLatency {
            id: node.id(),
            compute: 0.0,
            inputs: Vec::new(),
            weight: 0.0,
            output: 0.0,
            fill: 0.0,
        };
        match node.op() {
            OpKind::Input | OpKind::Concat => zero,
            OpKind::Conv(p) => {
                let input = graph.node(node.inputs()[0]).output_shape();
                self.matmul_latency(graph, node, input, node.output_shape(), *p, tilings)
            }
            OpKind::Fc(f) => {
                let input = graph.node(node.inputs()[0]).output_shape();
                let as_conv = ConvParams::pointwise(f.out_features);
                let flat = FeatureShape::new(input.elems() as usize, 1, 1);
                self.matmul_latency(graph, node, flat, node.output_shape(), as_conv, tilings)
            }
            OpKind::Pool(_) | OpKind::GlobalAvgPool | OpKind::EltwiseAdd => {
                let n = self.batch as f64;
                let in_elems = graph.node_input_elems(node.id());
                let compute = n * post_engine_cycles(in_elems) as f64 / self.freq_hz;
                let inputs = resolved_sources(graph, node)
                    .into_iter()
                    .map(|s| {
                        let src = graph.node(s).output_shape();
                        let chunk = (src.width * src.height) as u64 * b;
                        let sbw = self.feature_bandwidth(chunk, bw);
                        (s, n * (src.elems() * b) as f64 / sbw)
                    })
                    .collect();
                let out = node.output_shape();
                let obw = self.feature_bandwidth((out.width * out.height) as u64 * b, bw);
                let output = n * (out.elems() * b) as f64 / obw;
                OpLatency {
                    id: node.id(),
                    compute,
                    inputs,
                    weight: 0.0,
                    output,
                    fill: 0.0,
                }
            }
        }
    }

    fn matmul_latency(
        &self,
        graph: &Graph,
        node: &Node,
        input: FeatureShape,
        output: FeatureShape,
        params: ConvParams,
        tilings: &mut TilingMemo,
    ) -> OpLatency {
        let b = self.precision.bytes();
        let bw = self.interface_bandwidth();
        let tile = *tilings.entry((input, output, params)).or_insert_with(|| {
            choose_tiling(input, output, &params, self.precision, &self.tile_budget)
        });
        let cycles = self.array.conv_cycles(
            output.channels,
            output.height,
            output.width,
            input.channels,
            params.kernel_h,
            params.kernel_w,
        );
        let n = self.batch as f64;
        let compute = n * cycles as f64 / self.freq_hz;
        let wt_bytes = params.weight_elems(input.channels) * b;
        // Weights are loaded once per invocation and reused across the
        // whole batch; features scale with it. In granular mode weights
        // stream in pre-packed multi-KB runs.
        let wt_bw = if self.granular_ddr {
            self.device
                .ddr
                .granular_interface_bandwidth(wt_bytes.min(4096))
        } else {
            bw
        };
        let weight = wt_bytes as f64 * tile.reload_wt / wt_bw;
        // Contiguous run of a feature access: a whole channel plane when
        // the tiling keeps the full spatial extent (the common case),
        // one row when rows are split.
        let spatially_split = tile.th < output.height;
        let feature_chunk = |shape: lcmm_graph::FeatureShape| -> u64 {
            if spatially_split {
                shape.width as u64 * b
            } else {
                (shape.width * shape.height) as u64 * b
            }
        };
        let out_bw = self.feature_bandwidth(feature_chunk(output), bw);
        let output_lat = n * (output.elems() * b) as f64 * tile.reload_of / out_bw;
        let inputs: Vec<(lcmm_graph::NodeId, f64)> = resolved_sources(graph, node)
            .into_iter()
            .map(|s| {
                let src = graph.node(s).output_shape();
                let sbw = self.feature_bandwidth(feature_chunk(src), bw);
                (s, n * (src.elems() * b) as f64 * tile.reload_if / sbw)
            })
            .collect();
        // One tile's worth of the slowest input stream cannot hide
        // behind compute: with `t` outer-loop tiles, that is 1/t of the
        // stream. Output tiles drain after compute and overlap the next
        // layer, so only input-side streams contribute.
        let n_tiles = (output.channels.div_ceil(tile.tm)
            * input.channels.div_ceil(tile.tc)
            * output.height.div_ceil(tile.th)) as f64;
        let if_total: f64 = inputs.iter().map(|(_, t)| *t).sum();
        let fill = if_total.max(weight) / n_tiles.max(1.0);
        OpLatency {
            id: node.id(),
            compute,
            inputs,
            weight,
            output: output_lat,
            fill,
        }
    }
}

impl AccelDesign {
    /// Bandwidth for a feature stream whose contiguous rows are
    /// `row_bytes` long: the granular model when enabled, otherwise the
    /// uniform derated interface bandwidth.
    fn feature_bandwidth(&self, row_bytes: u64, uniform_bw: f64) -> f64 {
        if self.granular_ddr {
            self.device.ddr.granular_interface_bandwidth(row_bytes)
        } else {
            uniform_bw
        }
    }
}

fn default_frequency(precision: Precision) -> f64 {
    match precision {
        Precision::Fix8 | Precision::Fix16 => 190e6,
        Precision::Float32 => 170e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_graph::zoo;

    #[test]
    fn explore_lands_near_paper_dsp_utilization() {
        let g = zoo::resnet152();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        let u = d.dsp_utilization();
        assert!((0.6..=0.84).contains(&u), "got {u}");
    }

    #[test]
    fn default_clocks_match_table1() {
        let g = zoo::alexnet();
        let fx = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix8);
        let fp = AccelDesign::explore(&g, &Device::vu9p(), Precision::Float32);
        assert_eq!(fx.freq_hz, 190e6);
        assert_eq!(fp.freq_hz, 170e6);
        assert_eq!(fx.with_frequency(180e6).freq_hz, 180e6);
    }

    #[test]
    fn tensor_sram_budget_below_device_sram() {
        let g = zoo::googlenet();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        assert!(d.tensor_sram_budget() < d.device.sram_bytes());
        assert!(d.tensor_sram_budget() > 20 << 20); // still tens of MB
    }

    #[test]
    fn peak_ops_in_tops_range() {
        let g = zoo::resnet152();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        let tops = d.peak_ops() / 1e12;
        assert!((1.0..2.6).contains(&tops), "got {tops}");
    }

    #[test]
    fn transfer_seconds_linear() {
        let g = zoo::alexnet();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix8);
        let t1 = d.transfer_seconds(1 << 20);
        let t2 = d.transfer_seconds(2 << 20);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn granular_ddr_matches_uniform_on_typical_feature_rows() {
        // The calibration argument: a mid-network feature row sustains
        // about the uniform knob's 0.21.
        let d = Device::vu9p();
        let row_56_wide_16bit = 56 * 2;
        let eff = d.ddr.chunk_efficiency(row_56_wide_16bit);
        assert!((0.15..0.30).contains(&eff), "got {eff}");
        // Pre-packed weight streams approach peak.
        assert!(d.ddr.chunk_efficiency(4096) > 0.85);
    }

    #[test]
    fn granular_mode_preserves_the_lcmm_story() {
        // Under the granularity-derived model, deep ResNet layers stay
        // weight-bound (huge weights vs tiny fmaps), so memory-bound
        // layers still exist even with efficient weight streaming.
        let g = zoo::resnet152();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16).with_granular_ddr();
        let profile = d.profile(&g);
        let frac = profile.memory_bound_fraction(&g);
        assert!(
            frac > 0.10,
            "granular mode erased all memory-bound layers: {frac}"
        );
        // And small-spatial layers transfer slower per byte than the
        // theoretical interface.
        let res5 = g.node_by_name("res5c_branch2b").unwrap();
        let row = d.node_latency(&g, res5, &mut TilingMemo::default());
        let theoretical = d.device.ddr.interface_bandwidth();
        let wt_bytes = g.node_weight_elems(res5.id()) * 2;
        assert!(row.weight > wt_bytes as f64 / theoretical);
    }

    #[test]
    fn batching_amortises_weights() {
        let g = zoo::vgg16();
        let d1 = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        let d8 = d1.clone().with_batch(8);
        let fc6 = g.node_by_name("fc6").unwrap();
        let r1 = d1.node_latency(&g, fc6, &mut TilingMemo::default());
        let r8 = d8.node_latency(&g, fc6, &mut TilingMemo::default());
        // Weight transfer is batch-independent; compute and features
        // scale linearly.
        assert!((r8.weight - r1.weight).abs() < 1e-15);
        assert!((r8.compute / r1.compute - 8.0).abs() < 1e-9);
        assert!((r8.input_total() / r1.input_total() - 8.0).abs() < 1e-9);
        // So the weight wall shrinks relative to the work.
        assert!(r8.weight / r8.compute < r1.weight / r1.compute);
    }

    #[test]
    #[should_panic(expected = "batch must be nonzero")]
    fn zero_batch_panics() {
        let g = zoo::alexnet();
        let _ = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix8).with_batch(0);
    }

    #[test]
    fn tiling_memo_enumerates_each_layer_shape_once() {
        // ResNet-152 repeats a few block shapes dozens of times: one
        // build's memo holds a tiling per distinct shape, and a row read
        // through it is the row a fresh enumeration gives.
        let g = zoo::resnet152();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        let mut tilings = TilingMemo::default();
        for node in g.iter() {
            let row = d.node_latency(&g, node, &mut tilings);
            assert_eq!(row, d.node_latency(&g, node, &mut TilingMemo::default()));
        }
        let layers = g.compute_layers().count();
        assert!(4 * tilings.len() < layers, "{} of {layers}", tilings.len());
    }

    #[test]
    fn fc_latency_is_weight_bound() {
        // Batch-1 FC layers are the canonical memory-bound case.
        let g = zoo::vgg16();
        let d = AccelDesign::explore(&g, &Device::vu9p(), Precision::Fix16);
        let fc6 = g.node_by_name("fc6").unwrap();
        let row = d.node_latency(&g, fc6, &mut TilingMemo::default());
        assert!(row.weight > row.compute, "fc6 should be weight bound");
    }
}
