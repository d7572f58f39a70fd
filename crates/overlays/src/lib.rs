//! # macedon-overlays
//!
//! Hand-written Rust agents for the protocols whose `.mac` specs cannot
//! yet carry every caller: **Pastry, Scribe, SplitStream, NICE and
//! Bullet**, each an [`macedon_core::Agent`]. Every other roster
//! protocol (Chord, RandTree, Overcast, AMMO) runs only from its spec in
//! `crates/lang/specs/`, interpreted or as the generated agent in
//! `macedon-generated`; ARCHITECTURE.md's native agent inventory records
//! why each remaining agent is still here.
//!
//! Layering follows Figure 2: Scribe runs over Pastry or over any agent
//! serving the key-routing API (the generated Chord included — the
//! paper's one-line `uses` switch), SplitStream over Scribe, Bullet over
//! a tree that delivers multicast upcalls (the generated RandTree).

pub mod bullet;
pub mod common;
pub mod nice;
pub mod pastry;
pub mod scribe;
pub mod splitstream;
pub mod testutil;

pub use bullet::{Bullet, BulletConfig};
pub use nice::{Nice, NiceConfig};
pub use pastry::{Pastry, PastryConfig};
pub use scribe::{Scribe, ScribeConfig};
pub use splitstream::{SplitStream, SplitStreamConfig};
