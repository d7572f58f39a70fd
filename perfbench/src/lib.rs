//! Shared pieces of the repository benchmark: the seeded workloads,
//! the set-up and run steps they are timed through, the checked outputs
//! of a run, and the one-line JSON the benchmark binaries print.
//!
//! Everything here drives the program from outside, through the public
//! functions of the workspace crates; nothing in those crates is changed
//! or instrumented.

pub mod micro;

use macedon_core::{Agent, NodeId, WorldConfig};
use macedon_lang::SpecRegistry;
use macedon_net::topology::{canned, LinkSpec};
use macedon_scenario::{MetricsReport, ScenarioOutcome, ScenarioRunner};
use macedon_sim::Duration;
use std::fmt::Write as _;

/// Which implementation of the spec chain every node runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// `.mac` specs executed by `macedon_lang::InterpretedAgent`.
    Interpreted,
    /// The checked-in Rust agents of `macedon-generated`.
    Generated,
}

/// One seeded scenario workload: a script, the star topology it runs
/// on, the agents every node runs and the engine it runs on.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    /// Access link of every host on the star.
    pub link: LinkSpec,
    pub backend: Backend,
    /// Shards the world is cut into; as many worker threads drive them.
    pub shards: usize,
    /// Virtual-time telemetry cadence the workload itself runs with.
    pub telemetry: Option<Duration>,
    /// Seeds, from the benchmark's seed on, whose peak RSS is measured,
    /// each in a process of its own; `rss_peak_mb` is their median.
    /// The lossy sharded run's peak moves by up to a quarter from one
    /// seed to the next, the other workloads' by about 1%.
    pub rss_seeds: u64,
    pub script: String,
}

/// The top spec of every workload's chain (splitstream → scribe → pastry).
pub const PROTOCOL: &str = "splitstream";

/// Layer names by stack position, lowest first, as `resolve_chain`
/// returns them for [`PROTOCOL`].
pub const LAYERS: [&str; 3] = ["pastry", "scribe", "splitstream"];

/// Message size of every scripted stream, in bytes.
pub const MESSAGE_BYTES: usize = 1000;

// The scripts are the `bench-churn` and `bench-scale` scenarios of the
// repository's bench bins, kept here so that no change outside the
// benchmark's own directory can alter what it measures.

fn constrained_link() -> LinkSpec {
    LinkSpec::new(Duration::from_millis(2), 2_000_000, 64 * 1024)
}

fn churn_script(nodes: usize, loss: Option<&str>) -> String {
    let loss = loss
        .map(|p| format!("at 10s drop {p}\n"))
        .unwrap_or_default();
    format!(
        "scenario bench-churn\nnodes {nodes}\nend 80s\n\
         at 0s join 0..{first} over 2s\n\
         at 4s join {first}..{nodes} over 8s\n\
         {loss}\
         at 20s stream 0 rate 200kbps size {MESSAGE_BYTES} for 50s multicast\n\
         at 35s crash {c1} {c2}\n\
         at 45s rejoin {c1}\n\
         at 55s partition half {half}..{nodes}\n\
         at 65s heal half\n",
        first = nodes / 4,
        c1 = nodes / 3,
        c2 = nodes / 2,
        half = nodes / 2,
    )
}

fn scale_script(nodes: usize) -> String {
    format!(
        "scenario bench-scale\nnodes {nodes}\nend 40s\n\
         at 0s join 0..{first} over 2s\n\
         at 4s join {first}..{nodes} over 10s\n\
         at 20s stream 0 rate 200kbps size {MESSAGE_BYTES} for 15s route\n\
         at 25s crash {c1} {c2}\n\
         at 30s rejoin {c1}\n",
        first = nodes / 4,
        c1 = nodes / 3,
        c2 = nodes / 2,
    )
}

/// The workload called `name`, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "churn-multicast" => Workload {
            name: "churn-multicast",
            nodes: 200,
            link: constrained_link(),
            backend: Backend::Interpreted,
            shards: 1,
            telemetry: None,
            rss_seeds: 1,
            script: churn_script(200, None),
        },
        "scale-route" => Workload {
            name: "scale-route",
            nodes: 2000,
            link: LinkSpec::new(Duration::from_millis(2), 100_000_000, 1024 * 1024),
            backend: Backend::Generated,
            shards: 1,
            telemetry: None,
            rss_seeds: 1,
            script: scale_script(2000),
        },
        "churn-sharded-lossy" => Workload {
            name: "churn-sharded-lossy",
            nodes: 200,
            link: constrained_link(),
            backend: Backend::Interpreted,
            shards: 2,
            telemetry: Some(Duration::from_secs(1)),
            rss_seeds: 5,
            script: churn_script(200, Some("0.02")),
        },
        _ => return None,
    })
}

/// Wraps every agent a stack factory builds: `(layer, host, agent)`,
/// where `layer` is the agent's stack position (0 = lowest).
pub type AgentWrap = Box<dyn Fn(usize, NodeId, Box<dyn Agent>) -> Box<dyn Agent> + Send>;

/// Virtual-time telemetry cadence of a traced run, in seconds; it feeds
/// `core.pending_peak` on every workload.
pub const TRACED_TELEMETRY_S: u64 = 1;

/// Everything from nothing to a ready runner: spec registry (interpreted
/// back end), script parse, topology build and `ScenarioRunner::new`.
///
/// Timed runs pass no `wrap` and observe nothing. The traced run wraps
/// every agent, which also turns on the engine's shard profile and
/// telemetry every [`TRACED_TELEMETRY_S`] seconds.
pub fn setup(
    w: &Workload,
    backend: Backend,
    seed: u64,
    wrap: Option<AgentWrap>,
) -> ScenarioRunner<'static> {
    let traced = wrap.is_some();
    let scenario = macedon_scenario::script::parse(&w.script).expect("workload script parses");
    let topo = canned::star(w.nodes, w.link);
    // The interpreted back end needs the spec registry; generated agents
    // are plain Rust and need nothing built.
    let registry = (backend == Backend::Interpreted).then(SpecRegistry::bundled);
    let channels = match &registry {
        Some(r) => r
            .channel_table_for(PROTOCOL)
            .expect("bundled chain resolves"),
        None => macedon_generated::channel_table(PROTOCOL).expect("generated chain exists"),
    };
    let cfg = WorldConfig {
        seed,
        channels,
        fd_g: Duration::from_secs(2),
        fd_f: Duration::from_secs(6),
        shards: w.shards,
        profile: traced,
        ..Default::default()
    };
    let mut runner = ScenarioRunner::new(
        scenario,
        topo,
        cfg,
        Box::new(move |_idx, host, boot| {
            let agents = match &registry {
                Some(r) => r.build_stack(PROTOCOL, boot).expect("bundled stack builds"),
                None => {
                    macedon_generated::build_stack(PROTOCOL, boot).expect("generated stack builds")
                }
            };
            match &wrap {
                Some(wrap) => agents
                    .into_iter()
                    .enumerate()
                    .map(|(layer, a)| wrap(layer, host, a))
                    .collect(),
                None => agents,
            }
        }),
    )
    .expect("workload scenario binds");
    runner.set_workers(w.shards);
    let telemetry = match traced {
        true => Some(Duration::from_secs(TRACED_TELEMETRY_S)),
        false => w.telemetry,
    };
    if let Some(every) = telemetry {
        runner.enable_telemetry(every);
    }
    runner
}

/// The checked outputs of one run. A speed-only change leaves every
/// field identical for a given workload and seed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outputs {
    pub delivered: u64,
    pub alive: usize,
    pub events: u64,
    pub net_drops: u64,
    pub retransmissions: u64,
    pub latency_p50_us: u64,
    pub latency_p99_us: u64,
    /// FNV-1a of `MetricsReport::to_json` with the telemetry series
    /// left out, since telemetry is an observation switch.
    pub digest: u64,
}

impl Outputs {
    pub fn of(out: &ScenarioOutcome) -> Outputs {
        let r = &out.report;
        let (p50, p99) = r
            .latency
            .map(|l| (l.p50.as_micros(), l.p99.as_micros()))
            .unwrap_or((0, 0));
        Outputs {
            delivered: r.total_delivered,
            alive: r.alive,
            events: out.world.events_fired(),
            net_drops: r.net_drops,
            retransmissions: r.channels.iter().map(|c| c.retransmissions).sum(),
            latency_p50_us: p50,
            latency_p99_us: p99,
            digest: digest(r),
        }
    }

    /// The sanity invariants every workload must meet: traffic was
    /// delivered and most nodes are alive at the end.
    pub fn sane(&self, w: &Workload) -> bool {
        self.delivered > 0 && self.alive > w.nodes / 2
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"out.delivered\": {}, \"out.alive\": {}, \"out.events\": {}, \
             \"out.net_drops\": {}, \"out.retransmissions\": {}, \
             \"out.latency_p50_ms\": {}, \"out.latency_p99_ms\": {}, \
             \"out.digest\": \"{:016x}\"}}",
            self.delivered,
            self.alive,
            self.events,
            self.net_drops,
            self.retransmissions,
            self.latency_p50_us as f64 / 1e3,
            self.latency_p99_us as f64 / 1e3,
            self.digest
        )
    }
}

fn digest(r: &MetricsReport) -> u64 {
    let mut r = r.clone();
    r.telemetry = None;
    r.to_json().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
pub fn rss_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Median of a sample set (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A flat JSON object of named numbers, strings and raw JSON values,
/// printed as one line — the protocol between the benchmark binaries
/// and `run.py`.
#[derive(Default)]
pub struct JsonLine(String);

impl JsonLine {
    fn key(&mut self, k: &str) {
        self.0.push_str(if self.0.is_empty() { "{" } else { ", " });
        let _ = write!(self.0, "\"{k}\": ");
    }
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(
            self.0,
            "\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
        self
    }
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }
    pub fn nums(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
        self.raw(k, &format!("[{}]", items.join(", ")))
    }
    pub fn print(&mut self) {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        println!("{}", self.0);
    }
}

/// Command-line arguments of the benchmark binaries: `--name value` pairs.
pub struct Args(Vec<String>);

impl Args {
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }
    /// The first positional argument (the subcommand).
    pub fn command(&self) -> Option<&str> {
        self.0
            .first()
            .filter(|a| !a.starts_with("--"))
            .map(|s| s.as_str())
    }
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
    }
    /// A required argument, parsed; exits with code 2 when missing or malformed.
    pub fn req<T: std::str::FromStr>(&self, name: &str) -> T {
        match self.get(name).map(str::parse) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("perfbench: {name} <value> is required");
                std::process::exit(2)
            }
        }
    }
    /// The `--workload` argument, resolved.
    pub fn workload(&self) -> Workload {
        let name: String = self.req("--workload");
        workload(&name).unwrap_or_else(|| {
            eprintln!("perfbench: unknown workload '{name}'");
            std::process::exit(2)
        })
    }
}
