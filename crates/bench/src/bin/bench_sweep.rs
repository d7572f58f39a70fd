//! Parallel sweep benchmark + determinism gate.
//!
//! Runs the churn-loss sweep (seeds × {50,100,200} nodes × loss grid,
//! 18 cells by default) **twice** on the full worker pool and asserts
//! the two `SweepReport`s are byte-identical in both JSON and CSV —
//! the merge-in-cell-order determinism contract, self-asserted on
//! every CI run, under real thread interleaving. Wall time and
//! cell throughput go to `BENCH_sweep.json` for the perf trajectory;
//! the report content itself is deterministic, so only timing varies
//! between runs.
//!
//! Usage: `cargo run --release -p macedon-bench --bin bench_sweep`
//! (`--seeds 1,2,3`, `--nodes 50,100,200`, `--loss 0,0.02`,
//! `--workers N`, `--out PATH` override the defaults).

use macedon_bench::arg_value;
use macedon_bench::experiments::{sweep_churn_cell, sweep_churn_spec};
use macedon_scenario::run_sweep;
use std::time::Instant;

fn list_u64(name: &str, default: &[u64]) -> Vec<u64> {
    arg_value(name)
        .map(|v| {
            v.split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{name} takes n,n,n"))
                })
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn main() {
    let seeds = list_u64("--seeds", &[101, 202, 303]);
    let node_counts: Vec<usize> = list_u64("--nodes", &[50, 100, 200])
        .into_iter()
        .map(|n| n as usize)
        .collect();
    let loss_arg = arg_value("--loss").unwrap_or_else(|| "0,0.02".to_string());
    let losses: Vec<&str> = loss_arg.split(',').map(|s| s.trim()).collect();
    let workers: Option<usize> = arg_value("--workers").and_then(|v| v.parse().ok());
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_sweep.json".to_string());

    let spec = sweep_churn_spec(seeds.clone(), node_counts.clone(), &losses, workers);
    let pool = workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    println!(
        "sweep: {} cells ({} node counts x {} loss points x {} seeds) on {pool} workers",
        spec.cell_count(),
        node_counts.len(),
        losses.len(),
        seeds.len(),
    );

    // -- run 1 --------------------------------------------------------------
    let start = Instant::now();
    let report1 = run_sweep(&spec, sweep_churn_cell).expect("sweep runs");
    let wall1 = start.elapsed().as_secs_f64();
    println!("run 1: {wall1:.2} s wall");
    println!("{}", report1.render());

    // -- run 2: the determinism gate ----------------------------------------
    let start = Instant::now();
    let report2 = run_sweep(&spec, sweep_churn_cell).expect("sweep runs");
    let wall2 = start.elapsed().as_secs_f64();
    println!("run 2: {wall2:.2} s wall");

    let (json1, json2) = (report1.to_json(), report2.to_json());
    let (csv1, csv2) = (report1.to_csv(), report2.to_csv());
    assert_eq!(
        json1, json2,
        "SweepReport JSON differs between two runs of the same sweep — \
         the cell-order merge is no longer deterministic"
    );
    assert_eq!(
        csv1, csv2,
        "SweepReport CSV differs between two runs of the same sweep"
    );
    println!(
        "determinism: two parallel runs byte-identical \
         (json fnv64 {:#018x}, {} bytes)",
        fnv64(&json1),
        json1.len()
    );
    for c in &report1.cells {
        assert!(
            c.delivered > 0,
            "cell {} (nodes={}, seed={}) delivered nothing",
            c.index,
            c.nodes,
            c.seed
        );
    }

    let cells = report1.cells.len();
    let best = wall1.min(wall2);
    let cells_per_sec = cells as f64 / best;
    let config_lines: Vec<String> = report1
        .configs
        .iter()
        .map(|s| {
            let params: Vec<String> = s
                .params
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                .collect();
            format!(
                "    {{ \"nodes\": {}, {}, \"delivered_mean\": {}, \"net_drops_mean\": {}, \
                 \"goodput_bps_mean\": {} }}",
                s.nodes,
                params.join(", "),
                s.delivered.mean,
                s.net_drops.mean,
                s.goodput_bps.mean,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"cells\": {cells}, \"seeds\": {}, \
         \"node_counts\": {:?}, \"grid_points\": {}, \"workers\": {pool},\n  \
         \"wall_secs\": {best:.2}, \"cells_per_sec\": {cells_per_sec:.2}, \
         \"deterministic\": true, \"report_fnv64\": \"{:#018x}\",\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        seeds.len(),
        node_counts,
        losses.len(),
        fnv64(&json1),
        config_lines.join(",\n"),
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("(wrote {out})"),
        Err(e) => eprintln!("{out}: {e}"),
    }
}
