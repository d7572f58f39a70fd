//! # macedon-bench
//!
//! The figure-regeneration harness: one binary per evaluation figure of
//! the paper (`fig7_loc` … `fig12_splitstream_bandwidth`), plus the
//! self-gating `bench_*` binaries and the `par_eq`/`trace_eq`
//! equality checks.
//!
//! Every figure binary accepts `--paper` to run at the paper's full
//! scale (20,000-router INET topologies, hundreds of overlay nodes,
//! multi-hundred-second runs); the default is a laptop-scale
//! configuration that preserves every qualitative shape.

pub mod experiments;
pub mod table;

/// Common CLI scale switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Laptop-scale defaults (seconds of wall time).
    Quick,
    /// The paper's configuration.
    Paper,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper") {
            Scale::Paper
        } else {
            Scale::Quick
        }
    }
}

/// The value following the command-line flag `name`
/// (`--nodes 200` → `Some("200")`), if the flag is present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}
