//! Regenerate `crates/generated` from the bundled `.mac` specifications.
//!
//! ```sh
//! cargo run -p macedon-bench --bin regen
//! ```
//!
//! Rerun after editing any bundled spec or the code generator. The
//! tier-1 test `crates/lang/tests/golden.rs` fails unless the checked-in
//! agents are exactly this tool's output, so they can never drift from
//! the specs (and hand edits to generated files cannot merge). Output is
//! byte-deterministic; the generated files carry `#![rustfmt::skip]` so
//! formatter drift cannot perturb that gate.

use std::fs;
use std::path::Path;
use std::process::exit;

fn main() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../generated/src");
    let files = match macedon_lang::codegen::generate_bundled_crate() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("regen: {e}");
            exit(1);
        }
    };
    fs::create_dir_all(&out_dir).unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    // Drop stale modules left over from renamed or removed specs.
    let keep: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    if let Ok(entries) = fs::read_dir(&out_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".rs") && !keep.contains(&name.as_str()) {
                println!("{name}  (stale, removed)");
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    let mut total = 0usize;
    for (name, contents) in &files {
        let path = out_dir.join(name);
        let up_to_date = fs::read_to_string(&path)
            .map(|c| &c == contents)
            .unwrap_or(false);
        if !up_to_date {
            fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        }
        total += contents.lines().count();
        println!(
            "{name}  {} lines{}",
            contents.lines().count(),
            if up_to_date { "" } else { "  (updated)" }
        );
    }
    println!(
        "regenerated {} files, {total} lines -> {}",
        files.len(),
        out_dir.display()
    );
}
