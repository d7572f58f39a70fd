//! The untraced benchmark binary. Nothing observes the program here: no
//! counting allocator, no agent wrapper, no profile, so its timings and
//! its peak RSS are the ones users see. `run.py` drives it.
//!
//! * `perfbench run --workload W --seed S --seconds T` — set-up and run
//!   repetitions of one workload for about `T` seconds.
//! * `perfbench peak --workload W --seed S` — one run in a process of
//!   its own, for its peak RSS.
//! * `perfbench selfcheck --seed S` — interpreted ≡ generated on
//!   `churn-multicast`, and a second seed must change the digest.
//! * `perfbench micro --workload W --seed S --pending N` — the per-layer
//!   micro-benchmarks on the workload's inputs.
//! * `perfbench expect --workload W --from A --to B` — the checked
//!   outputs of one run per seed in `A..B`, which `run.py
//!   --write-expected` stores as the expected outputs.

use perfbench::micro::{self, Sampled};
use perfbench::{rss_peak_kb, setup, Args, Backend, JsonLine, Outputs, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up-only repetitions follow every timed run and take about this
/// share of the run's time (at most [`SETUP_REPS_PER_RUN`] of them).
/// Set-up takes a tenth of a millisecond to a few milliseconds, and one
/// burst of repetitions sees only the host's state of that moment;
/// spread over the whole measurement, they see the same mix of host
/// states as the runs, and `setup_s` is the median of hundreds of them.
const SETUP_SHARE: f64 = 0.1;
const SETUP_REPS_PER_RUN: usize = 200;
/// Timed runs made however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// One set-up plus run: (setup seconds, run seconds, outputs), or
/// `None` if it panicked.
fn timed_run(w: &Workload, backend: Backend, seed: u64) -> Option<(f64, f64, Outputs)> {
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let runner = setup(w, backend, seed, None);
        let t1 = Instant::now();
        let outcome = runner.run();
        let t2 = Instant::now();
        let out = Outputs::of(&outcome);
        ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), out)
    }))
    .ok()
}

fn run(args: &Args) {
    let w = args.workload();
    let seed: u64 = args.req("--seed");
    let seconds: f64 = args.req("--seconds");
    let started = Instant::now();
    let (mut setup_s, mut run_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference: Option<Outputs> = None;
    let mut rss_kb = 0;
    loop {
        attempted += 1;
        let run_started = Instant::now();
        match timed_run(&w, w.backend, seed) {
            Some((s, r, out)) => {
                setup_s.push(s);
                run_s.push(r);
                let expected = reference.get_or_insert_with(|| out.clone());
                if !out.sane(&w) || out != *expected {
                    eprintln!(
                        "perfbench: {} run {attempted} failed its output check: {}",
                        w.name,
                        out.to_json()
                    );
                    failed += 1;
                }
            }
            None => failed += 1,
        }
        // The peak RSS is read after the first run: later runs in the
        // same process only add allocator fragmentation, which one-shot
        // users of a seeded experiment never see.
        if attempted == 1 {
            rss_kb = rss_peak_kb();
        }
        let budget = run_started.elapsed().as_secs_f64() * SETUP_SHARE;
        let reps_started = Instant::now();
        for _ in 0..SETUP_REPS_PER_RUN {
            let t0 = Instant::now();
            let runner = setup(&w, w.backend, seed, None);
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(runner);
            if reps_started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        // A run that cannot complete would otherwise spin here forever.
        let done = run_s.len() >= MIN_RUNS && started.elapsed().as_secs_f64() >= seconds;
        if done || (run_s.is_empty() && attempted >= MIN_RUNS as u64) {
            break;
        }
    }
    JsonLine::default()
        .str("workload", w.name)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .nums("setup_s", &setup_s)
        .nums("run_s", &run_s)
        .num("rss_peak_kb", rss_kb as f64)
        .num("rss_seeds", w.rss_seeds as f64)
        .num("nodes", w.nodes as f64)
        .raw(
            "outputs",
            &reference
                .map(|o| o.to_json())
                .unwrap_or_else(|| "null".into()),
        )
        .print();
}

fn peak(args: &Args) {
    let w = args.workload();
    let seed: u64 = args.req("--seed");
    let out = timed_run(&w, w.backend, seed).map(|(_, _, out)| out);
    let sane = out.as_ref().is_some_and(|o| o.sane(&w));
    JsonLine::default()
        .num("attempted", 1.0)
        .num("failed", if sane { 0.0 } else { 1.0 })
        .num("rss_peak_kb", rss_peak_kb() as f64)
        .raw(
            "outputs",
            &out.map(|o| o.to_json()).unwrap_or_else(|| "null".into()),
        )
        .print();
}

fn selfcheck(args: &Args) {
    let seed: u64 = args.req("--seed");
    let w = perfbench::workload("churn-multicast").expect("workload exists");
    let one = |backend, seed| timed_run(&w, backend, seed).map(|(_, _, out)| out);
    let interp = one(Backend::Interpreted, seed);
    let generated = one(Backend::Generated, seed);
    let other_seed = one(Backend::Generated, seed.wrapping_add(1));
    let mut failed = 0;
    let mut why = Vec::new();
    match (&interp, &generated, &other_seed) {
        (Some(i), Some(g), Some(o)) => {
            if i != g {
                failed += 1;
                why.push("interpreted and generated outputs differ");
            }
            if o.digest == g.digest {
                failed += 1;
                why.push("a different seed left the digest unchanged");
            }
            if !i.sane(&w) || !g.sane(&w) || !o.sane(&w) {
                failed += 1;
                why.push("a self-check run failed its sanity invariants");
            }
        }
        _ => {
            failed += [&interp, &generated, &other_seed]
                .iter()
                .filter(|o| o.is_none())
                .count();
            why.push("a self-check run panicked");
        }
    }
    let json = |o: &Option<Outputs>| {
        o.as_ref()
            .map(|o| o.to_json())
            .unwrap_or_else(|| "null".into())
    };
    JsonLine::default()
        .num("attempted", 3.0)
        .num("failed", failed as f64)
        .str("why", &why.join("; "))
        .raw("interpreted", &json(&interp))
        .raw("generated", &json(&generated))
        .raw("other_seed", &json(&other_seed))
        .print();
}

fn expect(args: &Args) {
    let w = args.workload();
    let from: u64 = args.req("--from");
    let to: u64 = args.req("--to");
    let mut line = JsonLine::default();
    for seed in from..to {
        match timed_run(&w, w.backend, seed) {
            Some((_, _, out)) if out.sane(&w) => line.raw(&seed.to_string(), &out.to_json()),
            _ => {
                eprintln!("perfbench: {} seed {seed} has no sane outputs", w.name);
                std::process::exit(1)
            }
        };
    }
    line.print();
}

fn micro(args: &Args) {
    let w = args.workload();
    let seed: u64 = args.req("--seed");
    let pending: usize = args.req("--pending");
    let mut line = JsonLine::default();
    let mut put = |name: &str, s: Sampled| {
        line.num(name, s.median)
            .num(&format!("{name}.samples"), s.samples as f64);
    };
    put("sim.sched_ns", micro::sched_ns(pending, seed));
    put("net.walk_ns", micro::walk_ns(&w, seed));
    put("net.route_us", micro::route_us(&w));
    put(
        "transport.reliable_msg_ns",
        micro::transport_msg_ns(&w, true, 0.0, seed),
    );
    put(
        "transport.reliable_msg_ns_lossy",
        micro::transport_msg_ns(&w, true, 0.02, seed),
    );
    put(
        "transport.udp_msg_ns",
        micro::transport_msg_ns(&w, false, 0.0, seed),
    );
    put("lang.compile_us", micro::compile_us());
    put("lang.registry_ms", micro::registry_ms());
    put("scenario.parse_us", micro::parse_us(&w));
    let (off, disabled, high) = micro::trace_dispatch_ns();
    put("core.trace.high_ns", high);
    put("core.trace.disabled_ns", disabled);
    line.num(
        "core.trace.off_overhead_pct",
        (off.median / disabled.median - 1.0) * 100.0,
    );
    line.print();
}

fn main() {
    let args = Args::from_env();
    match args.command() {
        Some("run") => run(&args),
        Some("peak") => peak(&args),
        Some("selfcheck") => selfcheck(&args),
        Some("micro") => micro(&args),
        Some("expect") => expect(&args),
        _ => {
            eprintln!("usage: perfbench run|peak|selfcheck|micro|expect --workload W --seed S ...");
            std::process::exit(2);
        }
    }
}
