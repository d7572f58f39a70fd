//! Parallel ≡ sequential equality check for the build+test CI job.
//!
//! Runs the `bench-scale` scenario shape at 1k nodes (staggered
//! full-population join, route stream, crash wave with rejoin) once on
//! the sequential engine and once per sharded configuration, and
//! asserts the full `MetricsReport` JSON *and* the rendered report are
//! byte-identical. This is the cheap tier-1 determinism tripwire; the
//! exhaustive worker/shard/seed matrix lives in `tests/prop.rs`.
//!
//! The topology keeps the run inside the equality contract
//! (ARCHITECTURE.md, "The sharded windowed engine"): spoke delays are
//! all distinct (2ms + 1µs·i) so no two shards act in the same
//! microsecond, and the links are fat enough (1 Gbps, 4 MiB queues)
//! that no queue ever holds traffic from two shards at once — the
//! regime where link charging commutes and the sharded engine is
//! exact, not approximate.
//!
//! Usage: `cargo run --release -p macedon-bench --bin par_eq`
//! (`--nodes N` overrides the population, `--shards 2,4` the matrix).

use macedon_bench::arg_value;
use macedon_core::WorldConfig;
use macedon_lang::SpecRegistry;
use macedon_net::topology::{LinkSpec, Topology, TopologyBuilder};
use macedon_scenario::ScenarioRunner;
use macedon_sim::Duration;

/// Uncontended star: distinct per-spoke delays (2ms + 1µs·i), links
/// fat enough that reservations never queue behind cross-shard
/// traffic.
fn jittered_star(nodes: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let hub = b.add_router();
    for i in 0..nodes {
        let h = b.add_host();
        b.add_link(
            h,
            hub,
            LinkSpec::new(
                Duration::from_micros(2_000 + i as u64),
                1_000_000_000,
                4 * 1024 * 1024,
            ),
        );
    }
    b.build()
}

fn run(script: &str, nodes: usize, shards: usize, workers: usize) -> (String, String) {
    let registry = SpecRegistry::bundled();
    let scenario = macedon_scenario::script::parse(script).expect("script parses");
    let cfg = WorldConfig {
        seed: 1_000,
        channels: registry
            .channel_table_for("splitstream")
            .expect("bundled chain resolves"),
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        shards,
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        jittered_star(nodes),
        cfg,
        Box::new(|_idx, _host, bootstrap| {
            registry
                .build_stack("splitstream", bootstrap)
                .expect("bundled stack builds")
        }),
    )
    .expect("scenario binds");
    runner.set_workers(workers);
    let outcome = runner.run();
    (outcome.report.to_json(), outcome.report.render())
}

fn main() {
    let nodes: usize = arg_value("--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000);
    let shard_counts: Vec<usize> = arg_value("--shards")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--shards takes n,n"))
                .collect()
        })
        .unwrap_or_else(|| vec![4]);

    let script = macedon_bench::experiments::scenario_scale_script(nodes);
    let start = std::time::Instant::now();
    let want = run(&script, nodes, 1, 1);
    println!(
        "par_eq: {nodes}-node sequential reference in {:.2}s",
        start.elapsed().as_secs_f64()
    );
    for &p in &shard_counts {
        let start = std::time::Instant::now();
        let got = run(&script, nodes, p, p);
        let secs = start.elapsed().as_secs_f64();
        if got != want {
            let _ = std::fs::write("par_eq_sequential.json", &want.0);
            let _ = std::fs::write(format!("par_eq_{p}shard.json"), &got.0);
            panic!(
                "{p}-shard run diverged from the sequential engine \
                 (reports dumped to par_eq_*.json)"
            );
        }
        println!("par_eq: {p} shards byte-identical to sequential ({secs:.2}s)");
    }
    println!("par_eq: OK");
}
