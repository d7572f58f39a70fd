//! The traced benchmark binary: one observed run of a workload, kept
//! apart from the timed runs so its overhead never reaches `setup_s`,
//! `run_s` or `rss_peak_mb`. It
//!
//! * counts every allocation (a counting global allocator that only this
//!   binary installs),
//! * times every agent callback through a wrapper keyed by stack
//!   position (`Agent::name()` cannot tell interpreted specs apart),
//!   keeping a bounded set of callback spans in memory and writing them
//!   out as a Chrome/Perfetto trace when the run ends,
//! * collects the engine's shard profile and a 1 s telemetry series,
//! * reads the engine's deterministic counters after the run.
//!
//! Usage: `perfbench-traced --workload W --seed S --spans PATH --stamp JSON`

use bytes::Bytes;
use macedon_core::{Agent, Ctx, DownCall, ForwardInfo, NodeId, ProtocolId, UpCall};
use macedon_scenario::ScenarioOutcome;
use perfbench::{setup, Args, Backend, JsonLine, Outputs, Workload, LAYERS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Allocation census. The counters are statistics only (they publish no
/// other data), hence `Relaxed`.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only updates counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Callback kinds an agent is timed under. `init` and
/// `neighbor_failed` are engine-fired API transitions and count as
/// downcalls; `on_forward` and `forward_resolved` both count as forward.
const KINDS: [&str; 5] = ["recv", "timer", "downcall", "upcall", "forward"];

/// Log-linear histogram of callback nanoseconds: exact below 64 ns,
/// then 32 buckets per power of two (about 3% resolution).
const BUCKETS: usize = 64 + 58 * 32;

fn bucket(ns: u64) -> usize {
    if ns < 64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros() as usize;
    64 + (e - 6) * 32 + ((ns >> (e - 5)) & 31) as usize
}

/// Midpoint of a histogram bucket, in nanoseconds.
fn bucket_mid(b: usize) -> f64 {
    if b < 64 {
        return b as f64;
    }
    let e = (b - 64) / 32 + 6;
    let lo = ((32 + (b - 64) % 32) as u64) << (e - 5);
    lo as f64 + (1u64 << (e - 5)) as f64 / 2.0
}

/// One agent callback: wall start relative to the recorder's epoch.
#[derive(Clone, Copy)]
struct Span {
    start_ns: u64,
    dur_ns: u64,
    node: u32,
    layer: u8,
    kind: u8,
}

/// Spans kept per traced run; later callbacks are counted, not kept.
const SPAN_CAP: usize = 50_000;

/// Callback statistics shared by every wrapped agent of a run (the
/// sharded workload dispatches from two worker threads).
struct Recorder {
    epoch: Instant,
    calls: Vec<AtomicU64>,
    ns: Vec<AtomicU64>,
    hist: Vec<AtomicU64>,
    span_count: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Recorder {
        let zeros = |n| (0..n).map(|_| AtomicU64::new(0)).collect();
        Recorder {
            epoch: Instant::now(),
            calls: zeros(LAYERS.len() * KINDS.len()),
            ns: zeros(LAYERS.len() * KINDS.len()),
            hist: zeros(BUCKETS),
            span_count: AtomicUsize::new(0),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAP)),
        }
    }

    fn record(&self, node: NodeId, layer: usize, kind: usize, start: Instant, end: Instant) {
        let dur = (end - start).as_nanos() as u64;
        let slot = layer * KINDS.len() + kind;
        self.calls[slot].fetch_add(1, Relaxed);
        self.ns[slot].fetch_add(dur, Relaxed);
        self.hist[bucket(dur)].fetch_add(1, Relaxed);
        if self.span_count.fetch_add(1, Relaxed) < SPAN_CAP {
            self.spans
                .lock()
                .expect("span buffer lock poisoned")
                .push(Span {
                    start_ns: (start - self.epoch).as_nanos() as u64,
                    dur_ns: dur,
                    node: node.0,
                    layer: layer as u8,
                    kind: kind as u8,
                });
        }
    }

    fn total_s(&self) -> f64 {
        self.ns.iter().map(|n| n.load(Relaxed)).sum::<u64>() as f64 / 1e9
    }

    fn percentile_ns(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self.hist.iter().map(|c| c.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let rank = ((total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        0.0
    }
}

/// An agent whose every callback is timed into a [`Recorder`].
struct Timed {
    inner: Box<dyn Agent>,
    node: NodeId,
    layer: usize,
    rec: Arc<Recorder>,
}

impl Timed {
    fn time<R>(&mut self, kind: usize, f: impl FnOnce(&mut dyn Agent) -> R) -> R {
        let start = Instant::now();
        let r = f(self.inner.as_mut());
        self.rec
            .record(self.node, self.layer, kind, start, Instant::now());
        r
    }
}

const RECV: usize = 0;
const TIMER: usize = 1;
const DOWNCALL: usize = 2;
const UPCALL: usize = 3;
const FORWARD: usize = 4;

impl Agent for Timed {
    fn protocol_id(&self) -> ProtocolId {
        self.inner.protocol_id()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn init(&mut self, ctx: &mut Ctx) {
        self.time(DOWNCALL, |a| a.init(ctx))
    }
    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        self.time(DOWNCALL, |a| a.downcall(ctx, call))
    }
    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        self.time(UPCALL, |a| a.upcall(ctx, up))
    }
    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        self.time(FORWARD, |a| a.on_forward(ctx, fwd))
    }
    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        self.time(FORWARD, |a| a.forward_resolved(ctx, fwd))
    }
    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        self.time(RECV, |a| a.recv(ctx, from, msg))
    }
    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        self.time(TIMER, |a| a.timer(ctx, timer))
    }
    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.time(DOWNCALL, |a| a.neighbor_failed(ctx, peer))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// One traced run: its outcome, wall seconds, callback recorder and
/// allocation deltas (count, bytes, live bytes left at run end).
struct Traced {
    outcome: ScenarioOutcome,
    run_s: f64,
    rec: Arc<Recorder>,
    allocs: u64,
    alloc_bytes: u64,
    live_bytes: u64,
}

fn traced_run(w: &Workload, backend: Backend, seed: u64) -> Traced {
    let rec = Arc::new(Recorder::new());
    let live_before = LIVE_BYTES.load(Relaxed);
    let wrap_rec = rec.clone();
    let runner = setup(
        w,
        backend,
        seed,
        Some(Box::new(move |layer, node, inner| {
            Box::new(Timed {
                inner,
                node,
                layer,
                rec: wrap_rec.clone(),
            })
        })),
    );
    let (a0, b0) = (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed));
    let start = Instant::now();
    let outcome = runner.run();
    let run_s = start.elapsed().as_secs_f64();
    Traced {
        allocs: ALLOCS.load(Relaxed) - a0,
        alloc_bytes: ALLOC_BYTES.load(Relaxed) - b0,
        live_bytes: LIVE_BYTES.load(Relaxed).saturating_sub(live_before),
        outcome,
        run_s,
        rec,
    }
}

/// The kept spans as a Chrome trace-event document (loads in Perfetto),
/// one lane per node, stamped with the host fingerprint.
fn write_spans(path: &str, stamp: &str, workload: &str, rec: &Recorder) -> std::io::Result<()> {
    use std::io::Write;
    let spans = rec.spans.lock().expect("span buffer lock poisoned");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "{{\"otherData\": {{\"workload\": \"{workload}\", \"kept\": {}, \"callbacks\": {}, \
         \"fingerprint\": {stamp}}},\n\"traceEvents\": [",
        spans.len(),
        rec.span_count.load(Relaxed)
    )?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"name\": \"{}.{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
             \"dur\": {:.3}}}{}",
            LAYERS[s.layer as usize],
            KINDS[s.kind as usize],
            s.node,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}

fn main() {
    let args = Args::from_env();
    let w = args.workload();
    let seed: u64 = args.req("--seed");
    let spans_path: String = args.req("--spans");
    let stamp = args.get("--stamp").unwrap_or("null").to_string();

    let t = traced_run(&w, w.backend, seed);
    let out = Outputs::of(&t.outcome);
    let world = &t.outcome.world;
    let report = &t.outcome.report;
    let mut line = JsonLine::default();
    line.str("workload", w.name).raw("outputs", &out.to_json());

    // Agent dispatch.
    let agent_s = t.rec.total_s();
    // Agent time sums callback time over every worker thread, so on a
    // sharded run it is CPU time and no share of the wall-clock run:
    // the shares and the engine remainder read 0 (not applicable) there.
    let sequential = w.shards == 1;
    let engine_s = if sequential { t.run_s - agent_s } else { 0.0 };
    let share = |x: f64| if sequential { x / t.run_s } else { 0.0 };
    let calls: u64 = t.rec.calls.iter().map(|c| c.load(Relaxed)).sum();
    line.num("traced_run_s", t.run_s)
        .num("agent.calls", calls as f64)
        .num("agent.s", agent_s)
        .num("agent.share", share(agent_s))
        .num("agent.ns_p50", t.rec.percentile_ns(0.50))
        .num("agent.ns_p99", t.rec.percentile_ns(0.99));
    for (l, layer) in LAYERS.iter().enumerate() {
        for (k, kind) in KINDS.iter().enumerate() {
            let slot = l * KINDS.len() + k;
            line.num(
                &format!("agent.{layer}.{kind}.calls"),
                t.rec.calls[slot].load(Relaxed) as f64,
            )
            .num(
                &format!("agent.{layer}.{kind}.s"),
                t.rec.ns[slot].load(Relaxed) as f64 / 1e9,
            );
        }
    }

    // Engine counters.
    let events = world.events_fired();
    let ec = world.event_counts();
    let (recv_tr, other_tr) = world.transition_counts();
    let telemetry = report
        .telemetry
        .as_ref()
        .map(|r| r.samples.as_slice())
        .unwrap_or(&[]);
    line.num("core.events", events as f64)
        .num("core.events.net", ec.net as f64)
        .num("core.events.conn_timer", ec.conn_timer as f64)
        .num("core.events.agent_timer", ec.agent_timer as f64)
        .num("core.events.fd_tick", ec.fd_tick as f64)
        .num("core.events.control", ec.control as f64)
        .num("core.transitions", (recv_tr + other_tr) as f64)
        .num(
            "core.pending_peak",
            telemetry
                .iter()
                .map(|s| s.pending_events)
                .max()
                .unwrap_or(0) as f64,
        )
        .num("core.telemetry.samples", telemetry.len() as f64)
        .num("core.engine_s", engine_s)
        .num("core.engine_share", share(engine_s));

    // Windowed-engine profile (all zero on the sequential engine).
    let prof = world.profile();
    let sum =
        |f: fn(&macedon_core::ShardProfile) -> u64| prof.iter().map(f).sum::<u64>() as f64 / 1e9;
    let (inject, barrier, drain, route) = (
        sum(|p| p.inject_ns),
        sum(|p| p.barrier_ns),
        sum(|p| p.drain_ns),
        sum(|p| p.route_ns),
    );
    let busy = inject + barrier + drain + route;
    line.num(
        "core.shard.windows",
        prof.iter().map(|p| p.windows).max().unwrap_or(0) as f64,
    )
    .num("core.shard.inject_s", inject)
    .num("core.shard.barrier_s", barrier)
    .num("core.shard.drain_s", drain)
    .num("core.shard.route_s", route)
    .num(
        "core.shard.barrier_share",
        if busy > 0.0 { barrier / busy } else { 0.0 },
    );

    // Transport, from the report's per-channel totals.
    let ch = |f: fn(&macedon_scenario::ChannelReport) -> u64| -> f64 {
        report.channels.iter().map(f).sum::<u64>() as f64
    };
    let segments = ch(|c| c.segments);
    line.num("transport.segments", segments)
        .num("transport.retransmissions", ch(|c| c.retransmissions))
        .num("transport.acks", ch(|c| c.acks))
        .num("transport.messages", ch(|c| c.messages))
        .num("transport.bytes", ch(|c| c.bytes))
        .num(
            "transport.retransmit_ratio",
            if segments > 0.0 {
                ch(|c| c.retransmissions) / segments
            } else {
                0.0
            },
        );

    // Network, from the per-link counters.
    let links = world.link_counters();
    line.num("net.drops", world.total_net_drops() as f64)
        .num(
            "net.link_pkts_max",
            links.iter().map(|l| l.0).max().unwrap_or(0) as f64,
        )
        .num(
            "net.links_used",
            links.iter().filter(|l| l.0 > 0).count() as f64,
        );

    // Memory census.
    line.num("mem.allocs_per_event", t.allocs as f64 / events as f64)
        .num(
            "mem.alloc_bytes_per_event",
            t.alloc_bytes as f64 / events as f64,
        )
        .num(
            "mem.live_bytes_per_node",
            t.live_bytes as f64 / w.nodes as f64,
        );

    // Interpreted over generated agent self time, on churn-multicast
    // only: the generated twin must also reproduce the digest.
    let mut generated_outputs = "null".to_string();
    let mut ratio = 0.0;
    let (mut attempted, mut failed) = (1, u64::from(!out.sane(&w)));
    if w.name == "churn-multicast" {
        let g = traced_run(&w, Backend::Generated, seed);
        let g_out = Outputs::of(&g.outcome);
        ratio = agent_s / g.rec.total_s();
        generated_outputs = g_out.to_json();
        attempted += 1;
        failed += u64::from(!g_out.sane(&w));
    }
    line.num("agent.interp_over_generated", ratio)
        .raw("generated_outputs", &generated_outputs)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64);

    if let Err(e) = write_spans(&spans_path, &stamp, w.name, &t.rec) {
        eprintln!("perfbench-traced: cannot write {spans_path}: {e}");
        std::process::exit(1);
    }
    line.print();
}
