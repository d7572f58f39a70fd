//! # macedon-baselines
//!
//! Models of the external comparators the paper measures MACEDON against
//! (we have no access to the original artifacts; DESIGN.md documents the
//! substitutions):
//!
//! * [`lsd`] — MIT's `lsd` Chord distribution (Fig 10): chord.mac run
//!   with lsd's **dynamic fix-fingers timer adaptation** switched on
//!   through its constants. The figure's claim under study is about
//!   convergence *shape*: a static 1 s timer beats lsd's adaptive
//!   policy, which in turn beats a static 20 s timer.
//! * [`freepastry`] — Rice's FreePastry over Java RMI (Fig 11): our
//!   Pastry behind an **RMI cost model** (per-message processing queue
//!   with a fixed marshal+dispatch delay, modelling RMI's reflective
//!   serialization), plus the memory-footprint scaling cap that kept the
//!   authors from running FreePastry past 100 nodes.

pub mod freepastry;
pub mod lsd;

pub use freepastry::{FreePastry, RmiModel};
pub use lsd::LSD_CONSTANTS;

use macedon_lang::{bundled_specs, compile, Spec};

/// The bundled spec `name` with `overrides` replacing its constants —
/// how a caller runs a spec with non-default parameters (interpret the
/// result; generated agents bake the defaults in).
///
/// Panics when `name` is not a bundled spec or an override names a
/// constant the spec does not declare.
pub fn spec_with(name: &str, overrides: &[(&str, i64)]) -> Spec {
    let (_, src) = bundled_specs()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no bundled spec {name}"));
    let mut spec = compile(src).expect("bundled specs compile");
    for &(constant, value) in overrides {
        spec.constants
            .iter_mut()
            .find(|(n, _)| n == constant)
            .unwrap_or_else(|| panic!("{name}.mac declares no constant {constant}"))
            .1 = value;
    }
    spec
}
