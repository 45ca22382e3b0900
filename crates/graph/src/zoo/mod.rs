//! Model zoo: the paper's benchmark networks, built layer by layer.
//!
//! The LCMM paper evaluates on ResNet-152 (`RN`), GoogLeNet (`GN`) and
//! Inception-v4 (`IN`), and compares against prior art on ResNet-50.
//! AlexNet and VGG-16 are included as the linear-topology counterpoints
//! that the introduction argues uniform double-buffering was designed for.
//!
//! All builders produce batch-1 inference graphs at the canonical ImageNet
//! input resolution (224×224, or 299×299 for Inception-v4), with ReLU and
//! batch-norm folded into the convolutions.

mod alexnet;
mod densenet;
mod googlenet;
mod inception_resnet;
mod inception_v4;
mod mobilenet;
mod resnet;
mod squeezenet;
mod synthetic;
mod vgg;

pub use alexnet::alexnet;
pub use densenet::densenet121;
pub use googlenet::googlenet;
pub use inception_resnet::inception_resnet_v2;
pub use inception_v4::inception_v4;
pub use mobilenet::mobilenet;
pub use resnet::{resnet101, resnet152, resnet50};
pub use squeezenet::squeezenet;
pub use synthetic::{synthetic, synthetic_scaled, synthetic_shortcut};
pub use vgg::vgg16;

use crate::Graph;
use std::sync::OnceLock;

/// Canonical short names of the named models, smallest first.
const NAMES: [&str; 11] = [
    "alexnet",
    "mobilenet",
    "squeezenet",
    "vgg16",
    "googlenet",
    "densenet121",
    "resnet50",
    "resnet101",
    "resnet152",
    "inception_v4",
    "inception_resnet_v2",
];

/// The builder of each entry of [`NAMES`], index for index.
const BUILDERS: [fn() -> Graph; 11] = [
    alexnet,
    mobilenet,
    squeezenet,
    vgg16,
    googlenet,
    densenet121,
    resnet50,
    resnet101,
    resnet152,
    inception_v4,
    inception_resnet_v2,
];

/// Each named model, built on first use and then kept for the life of
/// the process. Its clones share the fingerprint memo, so a zoo net is
/// built and serialised at most once per process.
static BUILT: [OnceLock<Graph>; 11] = [const { OnceLock::new() }; 11];

/// The named model at `index` of [`NAMES`].
fn built(index: usize) -> Graph {
    BUILT[index].get_or_init(BUILDERS[index]).clone()
}

/// The paper's Table 1 benchmark suite: ResNet-152, GoogLeNet,
/// Inception-v4, in that order.
#[must_use]
pub fn benchmark_suite() -> Vec<Graph> {
    ["resnet152", "googlenet", "inception_v4"]
        .into_iter()
        .map(|name| by_name(name).expect("suite nets are zoo nets"))
        .collect()
}

/// Every named model in the zoo, smallest first — the audit grid walks
/// this list so a divergence in a cheap linear model fails fast before
/// the expensive inception builds run.
#[must_use]
pub fn full_zoo() -> Vec<Graph> {
    (0..NAMES.len()).map(built).collect()
}

/// Canonical short names of every zoo model, in [`full_zoo`] order —
/// for CLI error messages and docs (the parameterised `synthetic:*`
/// specs accepted by [`by_name`] are not listed).
#[must_use]
pub fn names() -> &'static [&'static str] {
    &NAMES
}

/// Builds a model by its short name, as used by the CLI.
///
/// Recognised names: `alexnet`, `vgg16`, `resnet50`, `resnet101`,
/// `resnet152`, `googlenet`, `inception_v4` (aliases `rn`, `gn`, `in`),
/// plus parameterised scale workloads `synthetic:<depth>x<branching>x<seed>`
/// (e.g. `synthetic:1024x4x7`), optionally width-scaled with an
/// `@<percent>` suffix (e.g. `synthetic:1024x4x7@50`) and/or tilted
/// toward residual diamonds with a `+res` suffix (e.g.
/// `synthetic:1024x4x7@50+res`, see [`synthetic_shortcut`]).
///
/// Named models are built once per process and returned as clones;
/// `synthetic` specs are built on every call.
#[must_use]
pub fn by_name(name: &str) -> Option<Graph> {
    if let Some(spec) = name
        .strip_prefix("synthetic:")
        .or_else(|| name.strip_prefix("synthetic_"))
    {
        let (spec, shortcut) = match spec.strip_suffix("+res") {
            Some(head) => (head, true),
            None => (spec, false),
        };
        let (spec, width_percent) = match spec.split_once('@') {
            Some((head, scale)) => (head, scale.parse().ok()?),
            None => (spec, 100),
        };
        let mut parts = spec.split('x');
        let depth: usize = parts.next()?.parse().ok()?;
        let branching: usize = parts.next()?.parse().ok()?;
        let seed: u64 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || depth == 0 || width_percent == 0 {
            return None;
        }
        return Some(if shortcut {
            synthetic_shortcut(depth, branching, seed, width_percent)
        } else {
            synthetic_scaled(depth, branching, seed, width_percent)
        });
    }
    index_of(name).map(built)
}

/// The named model `name` (an alias as [`by_name`] accepts it) if this
/// process has already built it, without building it: `None` for a net
/// not built yet, a `synthetic` spec, or an unknown name. Lets a caller
/// that must not spend a build (the serve event loop) resolve the nets
/// already in memory.
#[must_use]
pub fn built_by_name(name: &str) -> Option<Graph> {
    index_of(name).and_then(|index| BUILT[index].get().cloned())
}

/// The index in [`NAMES`] of the named model `name` or its alias.
fn index_of(name: &str) -> Option<usize> {
    let lower = name.to_ascii_lowercase();
    let canonical = match lower.as_str() {
        "densenet" | "dn" => "densenet121",
        "mn" => "mobilenet",
        "sq" => "squeezenet",
        "vgg" => "vgg16",
        "rn" => "resnet152",
        "gn" => "googlenet",
        "inception-v4" | "in" => "inception_v4",
        "irv2" => "inception_resnet_v2",
        other => other,
    };
    NAMES.iter().position(|&n| n == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_resolves_aliases() {
        assert_eq!(by_name("RN").unwrap().name(), "resnet152");
        assert_eq!(by_name("gn").unwrap().name(), "googlenet");
        assert_eq!(by_name("in").unwrap().name(), "inception_v4");
        assert!(by_name("lenet").is_none());
    }

    #[test]
    fn by_name_parses_synthetic_specs() {
        let g = by_name("synthetic:128x4x7").unwrap();
        assert_eq!(g.name(), "synthetic_128x4x7");
        assert!(g.len() >= 128);
        assert!(by_name("synthetic:128x4").is_none(), "missing seed");
        assert!(by_name("synthetic:0x4x7").is_none(), "zero depth");
        assert!(by_name("synthetic:ax4x7").is_none(), "non-numeric");
        assert!(by_name("synthetic:1x2x3x4").is_none(), "extra field");
    }

    #[test]
    fn by_name_parses_width_scaled_synthetic_specs() {
        let g = by_name("synthetic:128x4x7@50").unwrap();
        assert_eq!(g.name(), "synthetic_128x4x7@50");
        assert!(by_name("synthetic:128x4x7@0").is_none(), "zero scale");
        assert!(by_name("synthetic:128x4x7@").is_none(), "empty scale");
        assert!(by_name("synthetic:128x4x7@abc").is_none(), "non-numeric");
    }

    #[test]
    fn by_name_parses_shortcut_heavy_synthetic_specs() {
        let g = by_name("synthetic:128x2x7+res").unwrap();
        assert_eq!(g.name(), "synthetic_128x2x7+res");
        // Round-trips through its own name, like every zoo model.
        assert_eq!(by_name(g.name()).unwrap().len(), g.len());
        // Composes with width scaling, in `@W%` then `+res` order.
        let scaled = by_name("synthetic:128x2x7@50+res").unwrap();
        assert_eq!(scaled.name(), "synthetic_128x2x7@50+res");
        assert!(by_name("synthetic:128x2x7+res@50").is_none(), "wrong order");
        assert!(by_name("synthetic:+res").is_none(), "missing spec");
    }

    #[test]
    fn named_models_are_built_once_and_share_a_fingerprint() {
        let fp = |name: &str| by_name(name).expect("zoo net").fingerprint().as_ptr();
        for name in names() {
            assert_eq!(fp(name), fp(name), "{name}");
        }
        assert_eq!(fp("rn"), fp("resnet152"));
        assert_eq!(fp("IN"), fp("inception-v4"));
        let zoo = full_zoo();
        assert_eq!(zoo[0].fingerprint().as_ptr(), fp("alexnet"));
        assert_eq!(benchmark_suite()[1].fingerprint().as_ptr(), fp("googlenet"));
        // The table holds what the builders build.
        assert_eq!(
            by_name("alexnet").unwrap().fingerprint(),
            alexnet().fingerprint()
        );
    }

    #[test]
    fn synthetic_specs_build_on_every_call() {
        let a = by_name("synthetic:32x2x7").unwrap();
        let b = by_name("synthetic:32x2x7").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint().as_ptr(), b.fingerprint().as_ptr());
    }

    #[test]
    fn full_zoo_covers_every_named_model() {
        let zoo = full_zoo();
        assert_eq!(zoo.len(), 11);
        for g in &zoo {
            let again = by_name(g.name()).expect("zoo models resolve by name");
            assert_eq!(again.len(), g.len());
        }
    }

    #[test]
    fn benchmark_suite_is_the_paper_trio() {
        let names: Vec<String> = benchmark_suite()
            .iter()
            .map(|g| g.name().to_string())
            .collect();
        assert_eq!(names, ["resnet152", "googlenet", "inception_v4"]);
    }
}
