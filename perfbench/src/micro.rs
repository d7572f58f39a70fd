//! Per-layer micro-benchmarks. Each times one layer's public calls on the
//! inputs of a workload (its topology, message size, spec chain and
//! pending-set size) and reports the median of its samples together
//! with the sample count.

use crate::{median, Workload, MESSAGE_BYTES, PROTOCOL};
use bytes::Bytes;
use macedon_core::{MacedonKey, NodeId, SpanId, Stack, Time, TraceLevel, WireWriter};
use macedon_net::topology::canned;
use macedon_net::{NetEvent, Network, NetworkConfig, Packet, Router, Sink};
use macedon_sim::{Duration, Scheduler, SimRng};
use macedon_transport::harness::TransportWorld;
use macedon_transport::{ChannelId, TransportKind};
use std::hint::black_box;
use std::time::Instant;

/// A median over `samples` timed samples.
#[derive(Clone, Copy, Debug)]
pub struct Sampled {
    pub median: f64,
    pub samples: usize,
}

/// One untimed warm-up call of `f`, then `n` timed ones.
fn sample(n: usize, mut f: impl FnMut() -> f64) -> Sampled {
    f();
    let xs: Vec<f64> = (0..n).map(|_| f()).collect();
    Sampled {
        median: median(&xs),
        samples: n,
    }
}

/// `sim.sched_ns`: one `Scheduler` pop plus one re-schedule, with
/// `pending` events outstanding. Re-schedules alternate packet-class
/// (sub-5 ms) and timer-class (sub-2 s) delays, the workloads' mix.
pub fn sched_ns(pending: usize, seed: u64) -> Sampled {
    let pending = pending.max(1);
    let mut rng = SimRng::new(seed);
    let mut s: Scheduler<u64> = Scheduler::new();
    for i in 0..pending as u64 {
        s.schedule_timer(Time::from_micros(rng.gen_range(2_000_000)), i);
    }
    const OPS: u64 = 200_000;
    sample(11, || {
        let start = Instant::now();
        for _ in 0..OPS {
            let (now, v) = s.pop().expect("pending set never drains");
            if v % 2 == 0 {
                s.schedule(now + Duration::from_micros(100 + rng.gen_range(5_000)), v);
            } else {
                s.schedule_timer(
                    now + Duration::from_micros(100 + rng.gen_range(2_000_000)),
                    v,
                );
            }
        }
        start.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// `net.walk_ns`: wall time per packet carried from `Network::send`
/// through every `Network::handle` of its walk, on the workload's star,
/// packets of the workload's message size between random host pairs.
pub fn walk_ns(w: &Workload, seed: u64) -> Sampled {
    let topo = canned::star(w.nodes, w.link);
    let hosts = topo.hosts().to_vec();
    let mut rng = SimRng::new(seed);
    let pairs: Vec<(NodeId, NodeId)> = (0..20_000)
        .map(|_| {
            let a = *rng.choose(&hosts);
            let mut b = *rng.choose(&hosts);
            while b == a {
                b = *rng.choose(&hosts);
            }
            (a, b)
        })
        .collect();
    sample(9, || {
        let mut net: Network<u32> = Network::new(topo.clone(), NetworkConfig::default());
        let mut sched: Scheduler<NetEvent> = Scheduler::new();
        let mut sink = Sink::new();
        let mut delivered = 0usize;
        let start = Instant::now();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            // One packet every 200 us of virtual time: the star's access
            // links stay below saturation, so every packet arrives.
            let t = Time::from_micros(i as u64 * 200);
            while let Some((now, ev)) = sched.pop_before(t) {
                net.handle(now, ev, &mut sink);
                delivered += sink.delivered.len();
                for (at, ev) in sink.schedule.drain(..) {
                    sched.schedule(at, ev);
                }
                sink.clear();
            }
            sched.fast_forward(t);
            net.send(
                t,
                Packet::new(a, b, MESSAGE_BYTES as u32, i as u32),
                &mut sink,
            );
            for (at, ev) in sink.schedule.drain(..) {
                sched.schedule(at, ev);
            }
            sink.clear();
        }
        while let Some((now, ev)) = sched.pop() {
            net.handle(now, ev, &mut sink);
            delivered += sink.delivered.len();
            for (at, ev) in sink.schedule.drain(..) {
                sched.schedule(at, ev);
            }
            sink.clear();
        }
        let ns = start.elapsed().as_nanos() as f64 / pairs.len() as f64;
        assert_eq!(delivered, pairs.len(), "net micro-benchmark lost packets");
        ns
    })
}

/// `net.route_us`: `Router::path` to a destination the router has not
/// seen yet (so the per-destination tree is built), on the workload's star.
pub fn route_us(w: &Workload) -> Sampled {
    let topo = canned::star(w.nodes, w.link);
    let hosts = topo.hosts().to_vec();
    let dests = hosts.len().min(200);
    sample(11, || {
        let mut router = Router::new();
        let start = Instant::now();
        for &d in &hosts[1..dests] {
            black_box(router.path(&topo, hosts[0], d));
        }
        start.elapsed().as_nanos() as f64 / 1e3 / (dests - 1) as f64
    })
}

/// `transport.*_msg_ns`: wall time per message delivered through
/// `TransportWorld` on a 16-host star of the workload's links, over the
/// chain's first channel of the given kind. Every 20 ms of virtual time
/// each host sends one message of the workload's size to a random peer;
/// `loss` is the network-wide drop probability.
pub fn transport_msg_ns(w: &Workload, reliable: bool, loss: f64, seed: u64) -> Sampled {
    const HOSTS: usize = 16;
    const ROUNDS: u64 = 150;
    let channels = macedon_lang::SpecRegistry::bundled()
        .channel_table_for(PROTOCOL)
        .expect("bundled chain resolves");
    let ch = channels
        .iter()
        .position(|c| matches!(c.kind, TransportKind::Udp) != reliable)
        .map(|i| ChannelId(i as u16))
        .expect("chain has both channel kinds");
    let topo = canned::star(HOSTS, w.link);
    let payload = Bytes::from(vec![7u8; MESSAGE_BYTES]);
    sample(9, || {
        let mut rng = SimRng::new(seed);
        let mut tw = TransportWorld::new(topo.clone(), channels.clone());
        tw.net.faults_mut().set_drop_probability(loss);
        let hosts = tw.net.topology().hosts().to_vec();
        let start = Instant::now();
        for round in 0..ROUNDS {
            tw.run_until(Time::from_millis(round * 20));
            for (i, &src) in hosts.iter().enumerate() {
                let dst = hosts[(i + 1 + rng.index(HOSTS - 1)) % HOSTS];
                tw.send(src, dst, ch, payload.clone());
            }
        }
        tw.run_until(Time::from_secs(600));
        let got = tw.inbox.len();
        let ns = start.elapsed().as_nanos() as f64 / got.max(1) as f64;
        if reliable {
            assert_eq!(
                got as u64,
                ROUNDS * HOSTS as u64,
                "reliable channel lost messages"
            );
        }
        ns
    })
}

/// `lang.compile_us`: `macedon_lang::compile` per spec of the chain.
pub fn compile_us() -> Sampled {
    let registry = macedon_lang::SpecRegistry::bundled();
    let chain: Vec<&'static str> = registry
        .resolve_chain(PROTOCOL)
        .expect("bundled chain resolves")
        .iter()
        .map(|s| {
            macedon_lang::bundled_specs()
                .into_iter()
                .find(|(n, _)| *n == s.name)
                .expect("chain spec is bundled")
                .1
        })
        .collect();
    const REPS: usize = 20;
    sample(21, || {
        let start = Instant::now();
        for _ in 0..REPS {
            for src in &chain {
                black_box(macedon_lang::compile(src).expect("bundled spec compiles"));
            }
        }
        start.elapsed().as_nanos() as f64 / 1e3 / (REPS * chain.len()) as f64
    })
}

/// `lang.registry_ms`: `SpecRegistry::bundled()`.
pub fn registry_ms() -> Sampled {
    sample(21, || {
        let start = Instant::now();
        black_box(macedon_lang::SpecRegistry::bundled());
        start.elapsed().as_nanos() as f64 / 1e6
    })
}

/// `scenario.parse_us`: `macedon_scenario::script::parse` of the workload script.
pub fn parse_us(w: &Workload) -> Sampled {
    const REPS: usize = 500;
    sample(21, || {
        let start = Instant::now();
        for _ in 0..REPS {
            black_box(macedon_scenario::script::parse(&w.script).expect("script parses"));
        }
        start.elapsed().as_nanos() as f64 / 1e3 / REPS as f64
    })
}

/// A compact protocol whose messages have the chain's field shapes
/// (node, int, neighbor lists, key + payload) and a periodic timer: the
/// interpreter's per-event dispatch path, nothing else. It mirrors the
/// `bench_interp` dispatch harness, copied so the benchmark stays fixed
/// when that harness changes.
const DISPATCH_SPEC: &str = r#"
    protocol perfbench_dispatch;
    addressing hash;
    states { joined; }
    neighbor_types { member 32 { } }
    transports { TCP CTRL; UDP DATA; }
    messages {
        CTRL hello { node who; int round; }
        CTRL roster { member sibs; member others; }
        DATA chunk { key group; node origin; int seqno; payload data; }
    }
    state_variables {
        member members;
        member backups;
        node origin;
        int rounds;
        int seen;
        timer tick 1000;
    }
    transitions {
        init API init { state_change(joined); }
        any recv hello { rounds = rounds + field(round); neighbor_add(members, field(who)); }
        any recv roster { members = field(sibs); backups = field(others); }
        joined recv chunk {
            if (field(seqno) > seen) { seen = field(seqno); origin = field(origin); }
        }
        any timer tick { rounds = rounds + 1; }
    }
"#;

fn dispatch_stack(level: TraceLevel, observability: bool) -> Stack {
    let spec = std::sync::Arc::new(macedon_lang::compile(DISPATCH_SPEC).expect("spec compiles"));
    let agent = macedon_lang::InterpretedAgent::new(spec, Some(NodeId(1)));
    let mut stack = Stack::new(
        NodeId(7),
        MacedonKey(7),
        vec![Box::new(agent)],
        Box::new(macedon_core::NullApp),
        SimRng::new(42),
    );
    stack.set_trace_level(level);
    stack.set_observability(observability);
    stack.init(Time::ZERO, &mut Vec::new());
    stack
}

fn dispatch_frames() -> Vec<(NodeId, Bytes)> {
    let proto = macedon_lang::interp::protocol_id_of("perfbench_dispatch");
    let mut w = WireWriter::new();
    w.u16(proto).u16(0).node(NodeId(3)).u64(2);
    let hello = w.finish();
    let mut w = WireWriter::new();
    w.u16(proto).u16(1);
    w.nodes(&[NodeId(2), NodeId(3), NodeId(4), NodeId(5)]);
    w.nodes(&[NodeId(6), NodeId(8), NodeId(9)]);
    let roster = w.finish();
    let mut w = WireWriter::new();
    w.u16(proto)
        .u16(2)
        .key(MacedonKey(0xBEEF))
        .node(NodeId(9))
        .u64(9);
    w.bytes(&[0u8; 64]);
    let chunk = w.finish();
    vec![(NodeId(3), hello), (NodeId(2), roster), (NodeId(4), chunk)]
}

/// `core.trace.*`: interpreter dispatch ns/event with tracing Off, with
/// the observability machinery disabled, and at High, interleaved so
/// host drift hits all three alike. Returns (off, disabled, high).
pub fn trace_dispatch_ns() -> (Sampled, Sampled, Sampled) {
    let frames = dispatch_frames();
    let mut stacks = [
        dispatch_stack(TraceLevel::Off, true),
        dispatch_stack(TraceLevel::Off, false),
        dispatch_stack(TraceLevel::High, true),
    ];
    const PASSES: u64 = 25_000;
    let events = PASSES * (frames.len() as u64 + 1);
    let mut fx = Vec::new();
    let mut pass = |stack: &mut Stack| {
        let start = Instant::now();
        for _ in 0..PASSES {
            for (from, frame) in &frames {
                stack.recv(Time::ZERO, *from, frame.clone(), SpanId::NONE, &mut fx);
            }
            stack.timer(Time::ZERO, 0, 0, &mut fx);
            fx.clear();
        }
        start.elapsed().as_nanos() as f64 / events as f64
    };
    for s in stacks.iter_mut() {
        pass(s);
    }
    const ROUNDS: usize = 15;
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        for (s, xs) in stacks.iter_mut().zip(ns.iter_mut()) {
            xs.push(pass(s));
        }
    }
    let s = |xs: &[f64]| Sampled {
        median: median(xs),
        samples: xs.len(),
    };
    (s(&ns[0]), s(&ns[1]), s(&ns[2]))
}
