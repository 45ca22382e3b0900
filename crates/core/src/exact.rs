//! Cache-key parts compared by exact value.
//!
//! The harness and the serve daemon key their memo tables on the
//! inputs of a run: a device, a design, pipeline options. Keying them
//! on their serialized JSON never goes stale, but costs a serialization
//! on every lookup. An [`Exact`] part keys on the value itself: two
//! parts are equal exactly when every field is, integers, booleans,
//! enums and strings by value and floats by bit pattern. Building,
//! hashing or comparing one serializes nothing.
//!
//! Exact equality is never coarser than equal JSON: the JSON writer
//! prints distinct finite floats differently (`0.0` and `-0.0`
//! included), so parts whose JSON differs always differ. It is finer
//! only for non-finite floats, which all print `null` and which the bit
//! patterns keep apart.
//!
//! Each type's fields are listed by an exhaustive destructuring, so a
//! field added to one of these types does not compile until its key
//! covers it.

use crate::pipeline::LcmmOptions;
use lcmm_fpga::{AccelDesign, DdrConfig, Device};
use std::hash::{Hash, Hasher};

/// A value as a cache-key part, compared and hashed by its
/// [`ExactFields`].
#[derive(Debug, Clone)]
pub struct Exact<T>(T);

impl<T> Exact<T> {
    /// Wraps `value` as a key part.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self(value)
    }

    /// The wrapped value.
    #[must_use]
    pub(crate) fn get(&self) -> &T {
        &self.0
    }
}

/// Every field of a value, as a tuple that compares and hashes them
/// exactly (floats by bit pattern).
pub trait ExactFields {
    /// The field tuple.
    type Fields<'a>: Eq + Hash
    where
        Self: 'a;

    /// The value's fields, floats as their bits.
    fn exact_fields(&self) -> Self::Fields<'_>;
}

impl<T: ExactFields> PartialEq for Exact<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.exact_fields() == other.0.exact_fields()
    }
}

impl<T: ExactFields> Eq for Exact<T> {}

impl<T: ExactFields> Hash for Exact<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.exact_fields().hash(state);
    }
}

impl ExactFields for Device {
    type Fields<'a> = (&'a str, [usize; 5], [u64; 3]);

    fn exact_fields(&self) -> Self::Fields<'_> {
        let Device {
            name,
            dsp_slices,
            bram_blocks,
            uram_blocks,
            clb_luts,
            ddr:
                DdrConfig {
                    banks,
                    bank_bandwidth,
                    interface_share,
                    access_efficiency,
                },
        } = self;
        (
            name,
            [*dsp_slices, *bram_blocks, *uram_blocks, *clb_luts, *banks],
            [
                bank_bandwidth.to_bits(),
                interface_share.to_bits(),
                access_efficiency.to_bits(),
            ],
        )
    }
}

impl ExactFields for AccelDesign {
    type Fields<'a> = (
        <Device as ExactFields>::Fields<'a>,
        lcmm_fpga::Precision,
        lcmm_fpga::SystolicArray,
        u64,
        lcmm_fpga::TileBudget,
        usize,
        bool,
    );

    fn exact_fields(&self) -> Self::Fields<'_> {
        let AccelDesign {
            device,
            precision,
            array,
            freq_hz,
            tile_budget,
            batch,
            granular_ddr,
        } = self;
        (
            device.exact_fields(),
            *precision,
            *array,
            freq_hz.to_bits(),
            *tile_budget,
            *batch,
            *granular_ddr,
        )
    }
}

impl ExactFields for LcmmOptions {
    type Fields<'a> = (
        [bool; 3],
        crate::AllocatorKind,
        Option<u64>,
        Option<u64>,
        crate::StreamingMode,
        crate::FusionMode,
    );

    fn exact_fields(&self) -> Self::Fields<'_> {
        let LcmmOptions {
            feature_reuse,
            weight_prefetch,
            splitting,
            allocator,
            frequency_hz,
            tensor_budget,
            weight_streaming,
            fusion,
        } = *self;
        (
            [feature_reuse, weight_prefetch, splitting],
            allocator,
            frequency_hz.map(f64::to_bits),
            tensor_budget,
            weight_streaming,
            fusion,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmm_fpga::Precision;

    fn json<T: serde::Serialize>(value: &T) -> String {
        serde_json::to_string(value).expect("key parts serialise")
    }

    /// `a` and `b` key apart exactly when their JSON differs, and equal
    /// parts hash alike.
    fn assert_keys_like_json<T: ExactFields + serde::Serialize + Clone>(a: &T, b: &T) {
        let (a, b, same_json) = (
            Exact::new(a.clone()),
            Exact::new(b.clone()),
            json(a) == json(b),
        );
        assert_eq!(a == b, same_json, "{} vs {}", json(a.get()), json(b.get()));
        if same_json {
            use std::hash::BuildHasher;
            let hasher = std::collections::hash_map::RandomState::new();
            assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        }
    }

    #[test]
    fn parts_differ_exactly_where_their_json_does() {
        let device = Device::vu9p();
        let mut banks = device.clone();
        banks.ddr.banks = 3;
        let mut bandwidth = device.clone();
        bandwidth.ddr.bank_bandwidth *= 1.0 + f64::EPSILON;
        for other in [Device::vu9p(), banks, bandwidth, Device::vu13p()] {
            assert_keys_like_json(&device, &other);
        }
        let design = AccelDesign::explore(&lcmm_graph::zoo::alexnet(), &device, Precision::Fix16);
        let variants = [
            design.clone(),
            design.clone().with_frequency(0.0),
            design.clone().with_frequency(-0.0),
            AccelDesign {
                batch: 2,
                ..design.clone()
            },
            AccelDesign {
                granular_ddr: true,
                ..design.clone()
            },
            design
                .clone()
                .with_tile_budget(lcmm_fpga::TileBudget::default_lcmm()),
        ];
        for a in &variants {
            for b in &variants {
                assert_keys_like_json(a, b);
            }
        }
        let options = LcmmOptions::default();
        let variants = [
            options,
            LcmmOptions::default().with_tensor_budget(None),
            options.with_frequency_hz(Some(1.8e8)),
            options.with_frequency_hz(Some(0.0)),
            options.with_frequency_hz(Some(-0.0)),
            options.with_weight_streaming(crate::StreamingMode::Auto),
            options.with_fusion(crate::FusionMode::Auto),
            options.with_tensor_budget(Some(0)),
            options.with_tensor_budget(Some(u64::MAX)),
        ];
        for a in &variants {
            for b in &variants {
                assert_keys_like_json(a, b);
            }
        }
    }
}
