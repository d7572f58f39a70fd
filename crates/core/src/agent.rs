//! The [`Agent`] trait — the interface MACEDON-generated code implements —
//! and the [`Ctx`] handed to every transition.
//!
//! In the paper, `macedon` translates a `.mac` specification into a C++
//! *agent* class whose methods are the protocol's transitions; the engine
//! (thread pools, timer and transport subsystems) invokes them. Here the
//! same contract is a Rust trait: the agents `macedon_lang::codegen`
//! generates from the specs (`macedon-generated`), the DSL interpreter
//! in `macedon-lang`, and the hand-written agents still in
//! `macedon-overlays` all implement it.
//!
//! Transitions never call other layers directly (that would be reentrant);
//! instead they buffer [`Op`]s on the [`Ctx`], and the stack dispatcher
//! drains the queue after the transition returns. This mirrors the
//! serialization the paper's per-instance read/write locks provide, and
//! gives deterministic cross-layer ordering.

use crate::api::{DownCall, ForwardInfo, ProtocolId, UpCall};
use crate::key::{MacedonKey, NodeKeys};
use crate::measure::MeasureLedger;
use crate::trace::{TraceEvent, TraceLevel};
use bytes::Bytes;
use macedon_net::NodeId;
use macedon_sim::{Duration, SimRng, Time};
use macedon_transport::ChannelId;
use std::any::Any;
use std::collections::VecDeque;

/// Transition locking class (§2.1.2): control transitions take the write
/// lock; data transitions share a read lock. The DES is single-threaded,
/// but the classification is tracked for the concurrency-ablation stats.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Locking {
    Read,
    Write,
}

/// Buffered effect emitted by a transition.
#[derive(Debug)]
pub enum Op {
    /// Invoke the layer below.
    Down(DownCall),
    /// Invoke the layer above (or the application at the top).
    Up(UpCall),
    /// Ask the layers above to vet a forwarding decision, then continue
    /// in this layer's `forward_resolved`.
    ForwardQuery(ForwardInfo),
    /// Transmit bytes to a peer host (lowest layer only).
    Send {
        dst: NodeId,
        channel: ChannelId,
        bytes: Bytes,
    },
    /// Arm (or re-arm) a named timer.
    TimerSet {
        timer: u16,
        delay: Duration,
        periodic: bool,
    },
    /// Cancel a named timer.
    TimerCancel { timer: u16 },
    /// Start engine failure-detection of a peer.
    Monitor { peer: NodeId },
    /// Stop monitoring a peer.
    Unmonitor { peer: NodeId },
    /// Emit a trace record.
    Trace {
        level: TraceLevel,
        event: TraceEvent,
    },
}

/// Everything a transition may observe and request.
pub struct Ctx<'a> {
    /// Current virtual time.
    pub now: Time,
    /// This node's address.
    pub me: NodeId,
    /// This node's key under the world's addressing mode.
    pub my_key: MacedonKey,
    /// Index of the executing layer (0 = lowest).
    pub layer: usize,
    /// Total protocol layers in this stack (the application sits at
    /// index `layers`). Lets an agent tell whether anything is stacked
    /// above it — e.g. whether a forward query would reach anyone.
    pub layers: usize,
    /// Per-node deterministic RNG.
    pub rng: &'a mut SimRng,
    /// This node's engine measurement ledger (smoothed RTT and inbound
    /// goodput per peer — see [`crate::measure`]).
    pub(crate) measures: &'a MeasureLedger,
    /// The world's node-key table (see [`Ctx::key_of`]).
    pub(crate) keys: &'a NodeKeys,
    pub(crate) ops: &'a mut VecDeque<(usize, Op)>,
    pub(crate) locking: Locking,
    /// Verbosity threshold traces are collected at (the world's
    /// configured level; see [`Ctx::trace_on`]).
    pub(crate) trace_level: TraceLevel,
}

impl<'a> Ctx<'a> {
    /// Key of `node` under the world's addressing mode (how `my_key`
    /// was derived), read from the world's node-key table.
    pub fn key_of(&self, node: NodeId) -> MacedonKey {
        self.keys.key_of(node)
    }

    /// The world's node-key table (what `owner_of` resolves list
    /// members against).
    pub fn node_keys(&self) -> &NodeKeys {
        self.keys
    }

    /// Invoke the layer below with an API downcall.
    pub fn down(&mut self, call: DownCall) {
        self.ops.push_back((self.layer, Op::Down(call)));
    }

    /// Invoke the layer above (application at the top) with an upcall.
    pub fn up(&mut self, up: UpCall) {
        self.ops.push_back((self.layer, Op::Up(up)));
    }

    /// Route a forwarding decision past the layers above; the dispatcher
    /// calls back `forward_resolved` on this layer with the (possibly
    /// modified) result.
    pub fn forward_query(&mut self, fwd: ForwardInfo) {
        self.ops.push_back((self.layer, Op::ForwardQuery(fwd)));
    }

    /// Transmit raw protocol bytes to a peer over a named transport
    /// instance. Only the lowest layer may use this (upper layers tunnel
    /// through `down`).
    pub fn send(&mut self, dst: NodeId, channel: ChannelId, bytes: Bytes) {
        debug_assert_eq!(self.layer, 0, "only the lowest layer touches transports");
        self.ops.push_back((
            self.layer,
            Op::Send {
                dst,
                channel,
                bytes,
            },
        ));
    }

    /// Arm a one-shot timer (the paper's `timer_resched`): any previous
    /// pending expiration of the same timer id is superseded.
    pub fn timer_set(&mut self, timer: u16, delay: Duration) {
        self.ops.push_back((
            self.layer,
            Op::TimerSet {
                timer,
                delay,
                periodic: false,
            },
        ));
    }

    /// Arm a periodic timer that re-fires every `period` until cancelled.
    pub fn timer_periodic(&mut self, timer: u16, period: Duration) {
        self.ops.push_back((
            self.layer,
            Op::TimerSet {
                timer,
                delay: period,
                periodic: true,
            },
        ));
    }

    /// Cancel a pending timer.
    pub fn timer_cancel(&mut self, timer: u16) {
        self.ops.push_back((self.layer, Op::TimerCancel { timer }));
    }

    /// Register `peer` with the engine failure detector (`fail_detect`
    /// neighbor lists); `neighbor_failed` fires if it goes silent.
    pub fn monitor(&mut self, peer: NodeId) {
        self.ops.push_back((self.layer, Op::Monitor { peer }));
    }

    pub fn unmonitor(&mut self, peer: NodeId) {
        self.ops.push_back((self.layer, Op::Unmonitor { peer }));
    }

    /// Would a trace record at `level` survive the sink's verbosity
    /// filter? Hot paths use this to skip building the message string
    /// entirely (the sink drops filtered records unread, so skipping
    /// emission is unobservable); the check mirrors
    /// [`crate::trace::TraceSink::record`].
    pub fn trace_on(&self, level: TraceLevel) -> bool {
        level != TraceLevel::Off && level <= self.trace_level
    }

    /// Emit a free-form trace record at the given level (wrapped as a
    /// [`TraceEvent::Custom`]).
    pub fn trace(&mut self, level: TraceLevel, msg: impl Into<String>) {
        self.ops.push_back((
            self.layer,
            Op::Trace {
                level,
                event: TraceEvent::Custom { msg: msg.into() },
            },
        ));
    }

    /// Emit a structured FSM state-change event (High level). Both
    /// translator back ends call this with the IR's state-name strings,
    /// so the trace streams agree byte-for-byte.
    pub fn trace_fsm(&mut self, from: &str, to: &str) {
        if self.trace_on(TraceLevel::High) {
            self.ops.push_back((
                self.layer,
                Op::Trace {
                    level: TraceLevel::High,
                    event: TraceEvent::FsmTransition {
                        from: from.to_string(),
                        to: to.to_string(),
                    },
                },
            ));
        }
    }

    /// Is this the topmost protocol layer (only the application above)?
    pub fn is_top_layer(&self) -> bool {
        self.layer + 1 >= self.layers
    }

    /// Engine-measured smoothed round-trip time to `peer` (from
    /// reliable-transport acknowledgements), if any sample exists.
    pub fn rtt(&self, peer: NodeId) -> Option<Duration> {
        self.measures.rtt(peer)
    }

    /// Engine-measured smoothed inbound goodput from `peer` in bits/s,
    /// if at least one measurement window has closed.
    pub fn goodput_bps(&self, peer: NodeId) -> Option<u64> {
        self.measures.goodput_bps(peer)
    }

    /// [`Ctx::rtt`] in whole milliseconds, `0` when unmeasured — the
    /// value surface of the spec language's `rtt(peer)` builtin (both
    /// translator back ends call this one method, so they agree
    /// bit-for-bit). Rounds *up*, so a measured sub-millisecond RTT
    /// reads as `1`, never colliding with the unmeasured sentinel.
    pub fn rtt_ms(&self, peer: NodeId) -> i64 {
        self.measures
            .rtt(peer)
            .map(|d| d.as_micros().div_ceil(1_000).max(1) as i64)
            .unwrap_or(0)
    }

    /// [`Ctx::goodput_bps`] in whole kilobits/s, `0` when unmeasured —
    /// the value surface of the spec language's `goodput(peer)`
    /// builtin. Rounds *up*, so a measured trickle below 1 kbit/s
    /// reads as `1`, never colliding with the unmeasured sentinel.
    pub fn goodput_kbps(&self, peer: NodeId) -> i64 {
        self.measures
            .goodput_bps(peer)
            .map(|b| b.div_ceil(1_000).max(1) as i64)
            .unwrap_or(0)
    }

    /// Declare this transition a data (read-locked) transition; the
    /// default is control/write, matching the paper's default semantics.
    pub fn locking_read(&mut self) {
        self.locking = Locking::Read;
    }

    pub(crate) fn locking(&self) -> Locking {
        self.locking
    }
}

/// A protocol layer instance — what generated code implements.
///
/// All methods receive the [`Ctx`] for buffering effects. Default bodies
/// make pass-through layering painless: an agent that doesn't understand
/// an upcall forwards it up the stack.
pub trait Agent: Any + Send {
    /// Well-known protocol value.
    fn protocol_id(&self) -> ProtocolId;

    /// Human-readable protocol name (tracing).
    fn name(&self) -> &'static str;

    /// The `init` API transition, fired when the node spawns.
    fn init(&mut self, ctx: &mut Ctx);

    /// An API downcall from the layer above (or the application).
    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall);

    /// An upcall from the layer below. Default: pass it further up.
    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        ctx.up(up);
    }

    /// The `forward` query from the layer below. Default: leave untouched.
    fn on_forward(&mut self, _ctx: &mut Ctx, _fwd: &mut ForwardInfo) {}

    /// Continuation after this layer's own [`Ctx::forward_query`] came
    /// back from the layers above. Routers transmit here (unless quashed).
    fn forward_resolved(&mut self, _ctx: &mut Ctx, _fwd: ForwardInfo) {}

    /// A message of this layer's own protocol arrived. Only the lowest
    /// layer receives from the transport; upper layers receive tunneled
    /// payloads via their own decoding of `Deliver` upcalls.
    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes);

    /// A named timer expired.
    fn timer(&mut self, ctx: &mut Ctx, timer: u16);

    /// The engine failure detector declared `peer` dead (the `error` API).
    fn neighbor_failed(&mut self, _ctx: &mut Ctx, _peer: NodeId) {}

    /// Downcast support so tests and experiment harnesses can inspect
    /// protocol state (the paper's equivalent: debug dumps of routing
    /// tables).
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The application atop a stack: registered handlers (Figure 3's
/// `macedon_register_handlers`) plus timers for workload generation.
pub trait AppHandler: Any + Send {
    /// Called once when the node spawns (after all layers' `init`).
    fn start(&mut self, _ctx: &mut Ctx) {}

    /// `macedon_deliver_handler`.
    fn on_deliver(&mut self, _ctx: &mut Ctx, _src: MacedonKey, _from: NodeId, _payload: Bytes) {}

    /// `macedon_notify_handler`.
    fn on_notify(&mut self, _ctx: &mut Ctx, _nbr_type: u32, _neighbors: &[NodeId]) {}

    /// `macedon_forward_handler`.
    fn on_forward(&mut self, _ctx: &mut Ctx, _fwd: &mut ForwardInfo) {}

    /// Generic extensible upcall.
    fn on_upcall_ext(&mut self, _ctx: &mut Ctx, _op: u32, _payload: Bytes) {}

    /// Application timer (workload ticks).
    fn on_timer(&mut self, _ctx: &mut Ctx, _timer: u16) {}

    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An application with no handlers — "having null handlers would be used
/// when evaluating just the construction process of different overlays".
pub struct NullApp;

impl AppHandler for NullApp {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Addressing;

    #[test]
    fn ctx_buffers_ops_with_layer_tags() {
        let mut ops = VecDeque::new();
        let mut rng = SimRng::new(1);
        let measures = MeasureLedger::new();
        let keys = NodeKeys::new(Addressing::Hash, 0);
        let mut ctx = Ctx {
            now: Time::ZERO,
            me: NodeId(0),
            my_key: MacedonKey(0),
            layer: 2,
            layers: 3,
            rng: &mut rng,
            measures: &measures,
            keys: &keys,
            ops: &mut ops,
            locking: Locking::Write,
            trace_level: TraceLevel::High,
        };
        ctx.down(DownCall::Join {
            group: MacedonKey(5),
        });
        ctx.up(UpCall::Notify {
            nbr_type: 1,
            neighbors: vec![],
        });
        ctx.timer_set(3, Duration::from_secs(1));
        ctx.monitor(NodeId(8));
        assert_eq!(ops.len(), 4);
        assert!(ops.iter().all(|(l, _)| *l == 2));
    }

    #[test]
    fn measured_values_never_collide_with_unmeasured_sentinel() {
        use crate::measure::MeasureLedger;
        let mut ops = VecDeque::new();
        let mut rng = SimRng::new(1);
        let mut measures = MeasureLedger::new();
        let peer = NodeId(9);
        // Sub-millisecond RTT and a sub-kilobit goodput trickle.
        measures.on_ack(Time::ZERO, peer, Some(Duration::from_micros(300)));
        measures.on_bytes_in(Time::ZERO, peer, 10);
        measures.on_bytes_in(Time::from_millis(200), peer, 10);
        let keys = NodeKeys::new(Addressing::Hash, 0);
        let ctx = Ctx {
            now: Time::ZERO,
            me: NodeId(0),
            my_key: MacedonKey(0),
            layer: 0,
            layers: 1,
            rng: &mut rng,
            measures: &measures,
            keys: &keys,
            ops: &mut ops,
            locking: Locking::Write,
            trace_level: TraceLevel::High,
        };
        // Measured values round *up*: never 0, which is the
        // unmeasured sentinel.
        assert_eq!(ctx.rtt_ms(peer), 1);
        assert_eq!(ctx.goodput_kbps(peer), 1);
        assert_eq!(ctx.rtt_ms(NodeId(1)), 0, "unmeasured peer");
        assert_eq!(ctx.goodput_kbps(NodeId(1)), 0, "unmeasured peer");
    }

    #[test]
    fn locking_defaults_to_write() {
        let mut ops = VecDeque::new();
        let mut rng = SimRng::new(1);
        let measures = MeasureLedger::new();
        let keys = NodeKeys::new(Addressing::Hash, 0);
        let mut ctx = Ctx {
            now: Time::ZERO,
            me: NodeId(0),
            my_key: MacedonKey(0),
            layer: 0,
            layers: 1,
            rng: &mut rng,
            measures: &measures,
            keys: &keys,
            ops: &mut ops,
            locking: Locking::Write,
            trace_level: TraceLevel::High,
        };
        assert_eq!(ctx.locking(), Locking::Write);
        ctx.locking_read();
        assert_eq!(ctx.locking(), Locking::Read);
    }
}
