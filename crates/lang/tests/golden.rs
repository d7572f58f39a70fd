//! The checked-in `crates/generated/src` is the golden snapshot of the
//! translator's output: every file `generate_bundled_crate` emits for
//! the nine bundled specs, `lib.rs` included, must match it byte for
//! byte, and the directory must hold no other module. A codegen or spec
//! change that alters output shows up here as a readable diff instead of
//! an opaque downstream failure, and a hand edit to a generated file or a
//! stale module cannot pass.
//!
//! To refresh after an intentional codegen or spec change:
//!
//! ```sh
//! cargo run -p macedon-bench --bin regen
//! ```

use macedon_lang::codegen::generate_bundled_crate;
use std::path::PathBuf;

const REFRESH: &str = "cargo run -p macedon-bench --bin regen";

fn generated_src() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../generated/src")
}

/// First differing line, for a readable failure message.
fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}:\n  checked in: {w}\n  generated:  {g}", i + 1);
        }
    }
    format!(
        "line counts differ: checked in {} vs generated {}",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn generated_code_matches_golden_snapshots() {
    let dir = generated_src();
    for (name, got) in generate_bundled_crate().expect("bundled crate generates") {
        let path = dir.join(&name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|_| panic!("missing generated file {}; run {REFRESH}", path.display()));
        assert!(
            want == got,
            "crates/generated/src/{name} drifted from the code generator's output.\n{}\n\
             If intentional: {REFRESH}",
            first_diff(&want, &got)
        );
    }
}

#[test]
fn golden_snapshots_cover_exactly_the_bundled_roster() {
    let mut on_disk: Vec<String> = std::fs::read_dir(generated_src())
        .expect("crates/generated/src exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = generate_bundled_crate()
        .expect("bundled crate generates")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    expected.sort();
    assert_eq!(
        on_disk, expected,
        "stale or missing modules in crates/generated/src; run {REFRESH}"
    );
}
