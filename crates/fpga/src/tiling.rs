//! Tile-buffer sizing and per-layer tiling with DRAM reload accounting.
//!
//! The UMM baseline (Fig. 1 of the paper) streams every tensor through
//! fixed-size on-chip tile buffers. When a tensor exceeds its tile buffer
//! the affected loop is blocked, and one of the operands must be reloaded
//! from DRAM once per block of another — this multiplied traffic is where
//! much of the memory-boundedness of large layers comes from.
//!
//! [`choose_tiling`] is a pure function of its arguments and keeps no
//! state. [`crate::GraphProfile::build`] memoizes it for the length of
//! one build, so a net's repeated layer shapes are enumerated once and
//! no tiling outlives the table it was chosen for.

use crate::precision::Precision;
use lcmm_graph::fast_hash::FxHashMap;
use lcmm_graph::{ConvParams, FeatureShape};
use serde::{Deserialize, Serialize};

/// Single-buffer (not double-buffered) capacities of the three tile
/// buffers, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileBudget {
    /// Input feature tile buffer (IB).
    pub ib_bytes: u64,
    /// Weight tile buffer (WB).
    pub wb_bytes: u64,
    /// Output feature tile buffer (OB).
    pub ob_bytes: u64,
}

impl TileBudget {
    /// The default budget, sized so the three double-buffered tile
    /// buffers land in the 10–20 % SRAM utilisation band that the
    /// paper's UMM designs report (Table 2).
    #[must_use]
    pub fn default_umm() -> Self {
        Self {
            ib_bytes: 768 * 1024,
            wb_bytes: 768 * 1024,
            ob_bytes: 512 * 1024,
        }
    }

    /// A reduced budget for LCMM designs, which shrink the tile buffers
    /// once tensor buffers absorb the large transfers (§4.1: "the sizes
    /// of tile buffers of LCMM designs is thereby smaller than UMM").
    #[must_use]
    pub fn default_lcmm() -> Self {
        Self {
            ib_bytes: 384 * 1024,
            wb_bytes: 384 * 1024,
            ob_bytes: 256 * 1024,
        }
    }

    /// Total SRAM footprint with double buffering.
    #[must_use]
    pub fn total_double_buffered(&self) -> u64 {
        2 * (self.ib_bytes + self.wb_bytes + self.ob_bytes)
    }
}

/// Loop-order template chosen per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoopOrder {
    /// Output-channel tiles outermost: each weight block is loaded once,
    /// the input is reloaded once per output-channel tile.
    WeightStationary,
    /// Spatial tiles outermost: each input tile is loaded once, weights
    /// are reloaded once per spatial tile.
    InputStationary,
}

/// Tiling decision for one layer, with the resulting traffic multipliers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileChoice {
    /// Output-channel tile (`Tm`).
    pub tm: usize,
    /// Input-channel tile (`Tc`).
    pub tc: usize,
    /// Output-row tile (`Th`); columns are never split.
    pub th: usize,
    /// Selected loop order.
    pub order: LoopOrder,
    /// DRAM traffic multiplier for the input feature tensor.
    pub reload_if: f64,
    /// DRAM traffic multiplier for the weight tensor.
    pub reload_wt: f64,
    /// DRAM traffic multiplier for the output tensor (partial-sum
    /// spilling when the input channels are blocked).
    pub reload_of: f64,
    /// Bytes of IB/WB/OB actually occupied (single buffer).
    pub buffer_bytes: [u64; 3],
}

impl TileChoice {
    /// A unit tiling for layers whose tensors all fit their buffers, or
    /// for non-convolution layers that stream.
    #[must_use]
    pub fn unit(buffer_bytes: [u64; 3]) -> Self {
        Self {
            tm: 1,
            tc: 1,
            th: 1,
            order: LoopOrder::WeightStationary,
            reload_if: 1.0,
            reload_wt: 1.0,
            reload_of: 1.0,
            buffer_bytes,
        }
    }
}

/// The tilings of one profile build, keyed by a layer's input shape,
/// output shape and conv parameters; precision and tile budget are the
/// design's, fixed for the build. Deep networks repeat a handful of
/// layer configurations hundreds of times (every residual block of a
/// stage shares shapes), so [`crate::GraphProfile::build`] enumerates
/// each configuration once and drops the memo when the table is built.
pub(crate) type TilingMemo = FxHashMap<(FeatureShape, FeatureShape, ConvParams), TileChoice>;

/// Chooses a tiling for a convolution layer.
///
/// Enumerates a small candidate lattice of `(Tm, Tc, Th)` tiles that fit
/// `budget`, evaluates both loop orders, and returns the choice that
/// minimises the worst per-interface transfer time (interfaces run in
/// parallel, so the max is what shows up in the layer's latency).
#[must_use]
pub fn choose_tiling(
    input: FeatureShape,
    output: FeatureShape,
    params: &ConvParams,
    precision: Precision,
    budget: &TileBudget,
) -> TileChoice {
    let b = precision.bytes();
    let (m, c) = (output.channels, input.channels);
    let (oh, ow) = (output.height, output.width);
    let k_elems = (params.kernel_h * params.kernel_w) as u64;
    let if_bytes = input.elems() * b;
    let wt_bytes = params.weight_elems(c) * b;
    let of_bytes = output.elems() * b;

    // Every per-candidate quantity that does not involve all three tile
    // extents is computed at the loop level where it is determined. The
    // visit order and the exact float expressions (values and
    // association) are those of the naive nesting, so the chosen tiling
    // is bit-identical to it. `x * 1.0` is exact for finite floats, so
    // the reload-1 traffic is just the tensor size.
    let wt_ws = wt_bytes as f64;
    let if_is = if_bytes as f64;
    let mut best: Option<(f64, TileChoice)> = None;
    for tm in dim_candidates(m) {
        let n_m = m.div_ceil(tm) as f64;
        let if_ws = if_bytes as f64 * n_m;
        for tc in dim_candidates(c) {
            let wb_use = (tm * tc) as u64 * k_elems * b;
            if wb_use > budget.wb_bytes {
                continue;
            }
            let n_c = c.div_ceil(tc) as f64;
            let reload_of = if n_c > 1.0 { 2.0 * n_c - 1.0 } else { 1.0 };
            let of_t = of_bytes as f64 * reload_of;
            // Every candidate under this `tc` scores at least `of_t`
            // (the max includes it and the tie-break term is ≥ 0), so
            // once a better incumbent exists the whole Th × order block
            // is a strict loss — skipping it cannot change the winner.
            if let Some((score, _)) = &best {
                if of_t > *score {
                    continue;
                }
            }
            for th in dim_candidates(oh) {
                // Halo'd input rows of one spatial tile.
                let ih = (th - 1) * params.stride_h + params.kernel_h;
                let ib_use = tc as u64 * (ih.min(input.height) * input.width) as u64 * b;
                let ob_use = (tm * th * ow) as u64 * b;
                if ib_use > budget.ib_bytes || ob_use > budget.ob_bytes {
                    continue;
                }
                let n_s = oh.div_ceil(th) as f64;
                for order in [LoopOrder::WeightStationary, LoopOrder::InputStationary] {
                    let (reload_if, reload_wt, if_t, wt_t) = match order {
                        LoopOrder::WeightStationary => (n_m, 1.0, if_ws, wt_ws),
                        LoopOrder::InputStationary => (1.0, n_s, if_is, wt_bytes as f64 * n_s),
                    };
                    // Interfaces are parallel; the max governs latency.
                    // A small total-traffic term breaks ties: secondary
                    // interfaces still burn bandwidth others could use.
                    let worst = if_t.max(wt_t).max(of_t) + (if_t + wt_t + of_t) * 1e-3;
                    // Ties go to the larger tile: fewer tile iterations
                    // means less control overhead and fuller bursts.
                    let better = match &best {
                        None => true,
                        Some((score, prev)) => {
                            worst < *score
                                || (worst == *score && tm * tc * th > prev.tm * prev.tc * prev.th)
                        }
                    };
                    if better {
                        best = Some((
                            worst,
                            TileChoice {
                                tm,
                                tc,
                                th,
                                order,
                                reload_if,
                                reload_wt,
                                reload_of,
                                buffer_bytes: [ib_use, wb_use, ob_use],
                            },
                        ));
                    }
                }
                // Tiles only grow with Th, so the Ths that fit are the
                // tail of this largest-first list, and the first of them
                // wins over the rest: weight-stationary scores the same
                // at every Th, input-stationary no better at a smaller
                // one, and a smaller tile loses ties.
                break;
            }
        }
    }
    best.map_or_else(
        // Even a 1x1x1 tile over-ran a buffer: degenerate budget. Fall
        // back to element streaming with full reload pessimism.
        || TileChoice {
            tm: 1,
            tc: 1,
            th: 1,
            order: LoopOrder::WeightStationary,
            reload_if: m as f64,
            reload_wt: 1.0,
            reload_of: (2 * c - 1) as f64,
            buffer_bytes: [b * input.width as u64, k_elems * b, ow as u64 * b],
        },
        |(_, choice)| choice,
    )
}

/// Candidate tile extents for a dimension of size `n`: the full size and
/// its repeated halvings (rounded up) down to 1, largest first.
fn dim_candidates(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(n), |&v| (v > 1).then(|| v.div_ceil(2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layer_gets_unit_reloads() {
        // Everything fits: 64ch 28x28 in, 128ch out, 3x3.
        let input = FeatureShape::new(64, 28, 28);
        let p = ConvParams::square(128, 3, 1, 1);
        let output = p.output_shape(input).unwrap();
        let t = choose_tiling(
            input,
            output,
            &p,
            Precision::Fix16,
            &TileBudget::default_umm(),
        );
        assert_eq!(t.reload_if, 1.0);
        assert_eq!(t.reload_wt, 1.0);
        assert_eq!(t.reload_of, 1.0);
        assert_eq!(t.tm, 128);
        assert_eq!(t.tc, 64);
    }

    #[test]
    fn oversized_weights_force_blocking() {
        // ResNet stage-5 3x3: 512 -> 512, 2.36 MB of 8-bit weights
        // against a 768 KB WB. Tc or Tm must split.
        let input = FeatureShape::new(512, 7, 7);
        let p = ConvParams::square(512, 3, 1, 1);
        let output = p.output_shape(input).unwrap();
        let t = choose_tiling(
            input,
            output,
            &p,
            Precision::Fix8,
            &TileBudget::default_umm(),
        );
        assert!(t.tm < 512 || t.tc < 512);
        assert!(t.buffer_bytes[1] <= TileBudget::default_umm().wb_bytes);
        // The worst transfer should still be weights loaded exactly once
        // (weight-stationary order), since the input here is tiny.
        assert_eq!(t.reload_wt, 1.0);
    }

    #[test]
    fn large_input_prefers_input_stationary_or_small_penalty() {
        // Early GoogLeNet conv: big fmap, small weights.
        let input = FeatureShape::new(64, 56, 56);
        let p = ConvParams::square(192, 3, 1, 1);
        let output = p.output_shape(input).unwrap();
        let t = choose_tiling(
            input,
            output,
            &p,
            Precision::Fix16,
            &TileBudget::default_umm(),
        );
        // Whatever the blocking, input traffic must not blow up: the
        // optimiser minimises the max interface.
        let if_traffic = input.elems() as f64 * 2.0 * t.reload_if;
        let wt_traffic = p.weight_elems(64) as f64 * 2.0 * t.reload_wt;
        assert!(if_traffic <= 4.0 * (if_traffic.min(wt_traffic)).max(1.0));
    }

    #[test]
    fn buffers_respect_budget() {
        let budget = TileBudget::default_lcmm();
        let input = FeatureShape::new(1024, 17, 17);
        let p = ConvParams::square(384, 1, 1, 0);
        let output = p.output_shape(input).unwrap();
        let t = choose_tiling(input, output, &p, Precision::Float32, &budget);
        assert!(t.buffer_bytes[0] <= budget.ib_bytes);
        assert!(t.buffer_bytes[1] <= budget.wb_bytes);
        assert!(t.buffer_bytes[2] <= budget.ob_bytes);
    }

    #[test]
    fn dim_candidates_halve() {
        assert!(dim_candidates(17).eq([17, 9, 5, 3, 2, 1]));
        assert!(dim_candidates(1).eq([1]));
    }

    #[test]
    fn partial_sum_spill_counted() {
        // Force a tiny WB so Tc must split, and check OF reloads rise.
        let budget = TileBudget {
            ib_bytes: 1 << 20,
            wb_bytes: 16 * 1024,
            ob_bytes: 1 << 20,
        };
        let input = FeatureShape::new(512, 14, 14);
        let p = ConvParams::square(512, 3, 1, 1);
        let output = p.output_shape(input).unwrap();
        let t = choose_tiling(input, output, &p, Precision::Fix16, &budget);
        assert!(t.tc < 512 || t.tm * t.tc * 9 * 2 <= 16 * 1024);
        if t.tc < 512 {
            assert!(t.reload_of > 1.0);
        }
    }

    #[test]
    fn budget_totals() {
        let b = TileBudget::default_umm();
        assert_eq!(b.total_double_buffered(), 2 * (768 + 768 + 512) * 1024);
        assert!(TileBudget::default_lcmm().total_double_buffered() < b.total_double_buffered());
    }
}
