//! The specification interpreter: runs a compiled [`Spec`] as a live
//! [`macedon_core::Agent`].
//!
//! The paper's `macedon` tool translates specs to C++ compiled against
//! the engine. This interpreter is the equivalent executable semantics —
//! the same FSM dispatch (transition = (event, state-scope) → actions),
//! the same primitives (§3.3), over the same engine — without a compile
//! step. The agents codegen emits from the same specs
//! (`macedon-generated`) are its reference: the test suite requires
//! interpreted and generated runs of every bundled spec to match
//! exactly.
//!
//! The interpreter does not walk the AST. [`InterpretedAgent`] executes
//! the slot-indexed IR of [`crate::ir`]: every variable, neighbor list,
//! timer, FSM state, message, and message field was resolved to a dense
//! index when the spec was lowered (once, shared as an `Arc<IrSpec>`
//! across all nodes and layers interpreting it), so the per-event path
//! is jump-table dispatch plus `Vec` slot access — no string hashing,
//! no per-message declaration clones, and no `HashMap` frames. The IR
//! is purely a faster representation: execution order, RNG draw points,
//! wire bytes, and engine op order are identical to AST semantics, so
//! interpreted agents stay bit-for-bit cross-validatable against the
//! generated ones (`tests/integration_generated.rs`).
//!
//! Interpretation covers the whole roster, layered specs included. An
//! [`InterpretedAgent`] is a first-class citizen of the engine's
//! multi-layer [`macedon_core::Stack`]:
//!
//! * A **lowest-layer** spec (no `uses`) owns the transports: message
//!   sends go straight to the wire, `routeIP` downcalls from layers
//!   above are served natively by tunneling the payload to the target
//!   host, and sends that carry tunneled upper-layer data are vetted
//!   through the engine's `forward` query so the layers above may
//!   redirect or quash them — exactly what native routers do.
//! * A **layered** spec (`uses base`) never touches the wire: message
//!   sends become `route`/`routeIP` downcalls on the layer below
//!   (destination `null` routes toward the message's first key field),
//!   incoming messages arrive as `deliver` upcalls demultiplexed by
//!   protocol id, `forward <msg>` transitions fire from the layer
//!   below's forward queries (with `quash();` available to swallow the
//!   message), and `downcall(<api>, ..)` statements invoke the base
//!   layer's API. API calls the spec declares no transition for are
//!   relayed down the stack unchanged.
//!
//! Interpreted and native agents compose freely in one stack (e.g. a
//! native Pastry under an interpreted `scribe.mac`), because both speak
//! the same [`macedon_core::DownCall`]/[`macedon_core::UpCall`] API.
//! Use [`crate::registry::SpecRegistry`] to resolve a spec's `uses`
//! chain and assemble the ready-to-run stack (sharing one lowered
//! `IrSpec` per protocol).

use crate::ast::{Spec, TransportKindDecl};
use crate::ir::{ApiArgKind, ApiKind, FieldKind, IrDown, IrExpr, IrMessage, IrSpec, IrStmt, Table};
use macedon_core::key;
use macedon_core::wire::{read_tunnel_ref, WireRef};
use macedon_core::{
    Agent, Bytes, ChannelId, ChannelSpec, Ctx, DownCall, Duration, ForwardInfo, MacedonKey, NodeId,
    NodeKeys, ProtocolId, TraceLevel, TransportKind, UpCall, WireWriter, DEFAULT_PRIORITY,
};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::ast::BinOp;

/// Pseudo protocol id framing payloads a lowest layer tunnels on behalf
/// of the layers above (the native engine's `macedon_routeIP` service).
/// Re-exported from the engine: the interpreter and the generated agents
/// share one frame format ([`macedon_core::wire::tunnel_frame`]) so they
/// can tunnel for each other inside mixed stacks.
pub use macedon_core::TUNNEL_PROTOCOL;

/// Runtime values of the action language.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Bool(bool),
    Node(NodeId),
    Key(MacedonKey),
    Bytes(Bytes),
    List(Vec<NodeId>),
    Null,
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Bool(b) => *b,
            Value::Node(_) | Value::Key(_) | Value::List(_) => true,
            Value::Bytes(b) => !b.is_empty(),
            Value::Null => false,
        }
    }

    fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(format!("expected int, got {other:?}")),
        }
    }

    fn as_node(&self) -> Result<NodeId, String> {
        match self {
            Value::Node(n) => Ok(*n),
            other => Err(format!("expected node, got {other:?}")),
        }
    }

    /// Coerce to an optional key, the way every key-typed position does
    /// (message key fields, `route` destinations, the key builtins):
    /// keys pass through, nodes map through the world's key table, ints
    /// truncate onto the ring, null stays null.
    fn as_key_opt(&self, keys: &NodeKeys) -> Result<Option<MacedonKey>, String> {
        match self {
            Value::Key(k) => Ok(Some(*k)),
            Value::Node(n) => Ok(Some(keys.key_of(*n))),
            Value::Int(v) => Ok(Some(MacedonKey(*v as u32))),
            Value::Null => Ok(None),
            other => Err(format!("expected key, got {other:?}")),
        }
    }
}

/// Per-transition bindings (decoded message fields by slot, `from`,
/// `payload`, API arguments).
#[derive(Default)]
struct Frame {
    fields: Vec<Value>,
    from: Option<NodeId>,
    payload: Option<Bytes>,
    api_dest: Option<Value>,
    api_group: Option<Value>,
    /// Set by `quash();` inside a `forward` transition.
    quash: bool,
}

enum Flow {
    Continue,
    Return,
}

/// A dispatch point: which jump table, which slot.
#[derive(Clone, Copy)]
enum At {
    Api(ApiKind),
    Timer(u16),
    Recv(u16),
    Forward(u16),
    Error,
}

fn table_of(ir: &IrSpec, at: At) -> &Table {
    match at {
        At::Api(k) => &ir.tables.api[k as usize],
        At::Timer(i) => &ir.tables.timer[i as usize],
        At::Recv(i) => &ir.tables.recv[i as usize],
        At::Forward(i) => &ir.tables.forward[i as usize],
        At::Error => &ir.tables.error,
    }
}

/// Derive the channel table a world must be built with to host this spec.
pub fn channel_table(spec: &Spec) -> Vec<ChannelSpec> {
    spec.transports
        .iter()
        .map(|t| {
            let kind = match t.kind {
                TransportKindDecl::Tcp => TransportKind::Tcp,
                TransportKindDecl::Udp => TransportKind::Udp,
                TransportKindDecl::Swp => TransportKind::Swp { window: 16 },
            };
            ChannelSpec::new(t.name.clone(), kind)
        })
        .collect()
}

/// Well-known protocol id derived from the protocol name.
pub fn protocol_id_of(name: &str) -> ProtocolId {
    let h = macedon_core::sha1::sha1_u32(name.as_bytes()) as u16;
    // Stay clear of reserved values (engine heartbeat, app wrapper,
    // interpreter tunnel).
    match h {
        0xFFFD..=0xFFFF => 0x7FFF,
        v => v,
    }
}

/// An interpreted protocol instance executing a shared [`IrSpec`].
///
/// The mutable runtime lives in `Core`, a separate field from the
/// shared `Arc<IrSpec>`, so the executor borrows the program and the
/// state disjointly — no per-event `Arc` refcount traffic.
pub struct InterpretedAgent {
    ir: Arc<IrSpec>,
    core: Core,
    /// Transitions fired, per trigger kind (observability / tests).
    pub transitions_fired: u64,
}

/// The mutable interpreter runtime (everything a transition touches).
struct Core {
    proto: ProtocolId,
    bootstrap: Option<NodeId>,
    /// Has a `uses` base: sends become downcalls, receives come as
    /// `deliver` upcalls, and the wire is never touched directly.
    layered: bool,
    /// Index into `ir.states`.
    state: u16,
    /// Scalar slots (constants, declared scalars, `foreach` bindings).
    vars: Vec<Value>,
    /// Neighbor-list slots.
    lists: Vec<Vec<NodeId>>,
    /// Number of transport channels of this spec (lowest layers only;
    /// bounds the `priority` values the `routeIP` tunnel honors).
    num_channels: u16,
    /// Per-message transport priority for layered sends: the base
    /// (tunneling) layer's channel index the message's declared class
    /// maps onto, or [`DEFAULT_PRIORITY`] when unresolved. Populated by
    /// [`InterpretedAgent::set_base_transports`]; indexed by message id.
    msg_prio: Vec<i8>,
    /// Encoded sends awaiting their forward-query verdict, FIFO (the
    /// dispatcher resolves queries in emission order).
    pending_fwd: VecDeque<(NodeId, ChannelId, Bytes)>,
    /// Recycled field buffer: decoded message values live here between
    /// events instead of a fresh allocation per decode.
    fields_pool: Vec<Value>,
    /// Recycled node-list buffers for decoded `Value::List` fields and
    /// replaced neighbor lists (bounded; see [`NODE_POOL_MAX`]).
    node_pool: Vec<Vec<NodeId>>,
}

/// Cap on pooled node-list buffers per agent.
const NODE_POOL_MAX: usize = 8;

impl InterpretedAgent {
    /// Instantiate a compiled spec as one layer of a stack, lowering it
    /// to IR on the spot. `bootstrap` is bound to the variable
    /// `bootstrap` inside transitions (`Null` for the designated root).
    /// Specs with a `uses` clause must be stacked above an agent serving
    /// their base protocol's API — interpreted or native;
    /// [`crate::registry::SpecRegistry`] builds whole chains **and
    /// shares one lowered `Arc<IrSpec>` across every node**, which this
    /// convenience constructor cannot.
    ///
    /// Panics if the spec fails IR lowering — only possible when it
    /// never passed [`crate::sema::analyze`] (use [`crate::compile`]).
    pub fn new(spec: Arc<Spec>, bootstrap: Option<NodeId>) -> InterpretedAgent {
        let ir = IrSpec::lower(&spec).unwrap_or_else(|e| {
            panic!(
                "spec '{}' cannot be interpreted: {e} (was it sema-analyzed?)",
                spec.name
            )
        });
        InterpretedAgent::from_ir(Arc::new(ir), bootstrap)
    }

    /// Instantiate from an already-lowered spec, sharing the `IrSpec`
    /// with every other node interpreting the same protocol.
    pub fn from_ir(ir: Arc<IrSpec>, bootstrap: Option<NodeId>) -> InterpretedAgent {
        let vars = ir.vars.iter().map(|v| v.init.clone()).collect();
        let lists = vec![Vec::new(); ir.lists.len()];
        InterpretedAgent {
            core: Core {
                proto: ir.proto,
                layered: ir.layered,
                bootstrap,
                state: 0,
                vars,
                lists,
                num_channels: ir.num_channels,
                msg_prio: vec![DEFAULT_PRIORITY; ir.messages.len()],
                pending_fwd: VecDeque::new(),
                fields_pool: Vec::new(),
                node_pool: Vec::new(),
            },
            transitions_fired: 0,
            ir,
        }
    }

    /// The shared lowered spec this agent executes.
    pub fn ir(&self) -> &Arc<IrSpec> {
        &self.ir
    }

    /// Resolve this layered spec's message class names (`HIGH`,
    /// `BEST_EFFORT`, …) against the base (tunneling) layer's transport
    /// table, so sends carry a transport priority instead of
    /// [`DEFAULT_PRIORITY`]. [`crate::registry::SpecRegistry::build_stack`]
    /// calls this with the chain's lowest spec; standalone agents keep
    /// default priorities (channel 0 at the tunnel).
    ///
    /// The priority is honored by the engine-served `routeIP` tunnel —
    /// i.e. for node-addressed sends. A key-addressed send becomes a
    /// `Route` downcall served by the base spec's own `route`
    /// transition, which sends its *own* declared message on that
    /// message's class; the priority cannot override a spec-level
    /// transport choice (see ROADMAP).
    pub fn set_base_transports(&mut self, base: &[crate::ast::TransportDecl]) {
        for (i, m) in self.ir.messages.iter().enumerate() {
            if let Some(class) = &m.transport {
                if let Some(ch) = crate::ast::map_class_to_channel(base, class) {
                    if let Ok(p) = i8::try_from(ch) {
                        self.core.msg_prio[i] = p;
                    }
                }
            }
        }
    }

    pub fn state(&self) -> &str {
        &self.ir.states[self.core.state as usize]
    }

    pub fn list(&self, name: &str) -> Option<&Vec<NodeId>> {
        self.ir
            .list_slot(name)
            .map(|s| &self.core.lists[s as usize])
    }

    pub fn var(&self, name: &str) -> Option<&Value> {
        self.ir.var_slot(name).map(|s| &self.core.vars[s as usize])
    }

    // ---- dispatch --------------------------------------------------------

    /// Fire the transition matching the dispatch point in the current
    /// state, if any; returns the frame's quash flag (only `forward`
    /// transitions set it).
    fn fire(&mut self, ctx: &mut Ctx, at: At, mut frame: Frame) -> bool {
        let ir = &*self.ir;
        let core = &mut self.core;
        let hit = table_of(ir, at)
            .iter()
            .find(|(mask, _)| mask.contains(core.state));
        let Some(&(_, tidx)) = hit else {
            // No trace here: the generated back end cannot observe a
            // missed dispatch either, and the two trace streams must
            // stay byte-identical.
            core.recycle(frame);
            return false;
        };
        let t = &ir.transitions[tidx as usize];
        if t.read_locked {
            ctx.locking_read();
        }
        self.transitions_fired += 1;
        if let Err(e) = core.exec_block(ir, ctx, &mut frame, &t.body) {
            if ctx.trace_on(TraceLevel::Low) {
                ctx.trace(TraceLevel::Low, format!("{}: runtime error: {e}", ir.name));
            }
            debug_assert!(false, "interpreter runtime error: {e}");
        }
        let quash = frame.quash;
        core.recycle(frame);
        quash
    }
}

impl Core {
    /// Return a frame's field buffer (and any node-list values still in
    /// it) to the pools so the next decode reuses the allocations.
    fn recycle(&mut self, frame: Frame) {
        let mut fields = frame.fields;
        for v in fields.drain(..) {
            if let Value::List(l) = v {
                self.pool_nodes(l);
            }
        }
        if fields.capacity() > self.fields_pool.capacity() {
            self.fields_pool = fields;
        }
    }

    fn pool_nodes(&mut self, mut l: Vec<NodeId>) {
        if self.node_pool.len() < NODE_POOL_MAX && l.capacity() > 0 {
            l.clear();
            self.node_pool.push(l);
        }
    }

    fn exec_block(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        stmts: &[IrStmt],
    ) -> Result<Flow, String> {
        for s in stmts {
            match self.exec(ir, ctx, frame, s)? {
                Flow::Return => return Ok(Flow::Return),
                Flow::Continue => {}
            }
        }
        Ok(Flow::Continue)
    }

    fn exec(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        frame: &mut Frame,
        stmt: &IrStmt,
    ) -> Result<Flow, String> {
        match stmt {
            IrStmt::If { cond, then, els } => {
                if self.eval(ctx, frame, cond)?.truthy() {
                    self.exec_block(ir, ctx, frame, then)
                } else {
                    self.exec_block(ir, ctx, frame, els)
                }
            }
            IrStmt::Return => Ok(Flow::Return),
            IrStmt::StateChange(s) => {
                ctx.trace_fsm(&ir.states[self.state as usize], &ir.states[*s as usize]);
                self.state = *s;
                Ok(Flow::Continue)
            }
            IrStmt::TimerResched(id, e) => {
                let ms = self.eval(ctx, frame, e)?.as_int()?;
                ctx.timer_set(*id, Duration::from_millis(ms.max(0) as u64));
                Ok(Flow::Continue)
            }
            IrStmt::TimerCancel(id) => {
                ctx.timer_cancel(*id);
                Ok(Flow::Continue)
            }
            IrStmt::NeighborAdd(slot, e) => {
                let node = self.eval(ctx, frame, e)?.as_node()?;
                let decl = &ir.lists[*slot as usize];
                let l = &mut self.lists[*slot as usize];
                if !l.contains(&node) && l.len() < decl.max {
                    l.push(node);
                    if decl.fail_detect {
                        ctx.monitor(node);
                    }
                }
                Ok(Flow::Continue)
            }
            IrStmt::NeighborRemove(slot, e) => {
                let node = self.eval(ctx, frame, e)?.as_node()?;
                self.lists[*slot as usize].retain(|&n| n != node);
                if ir.lists[*slot as usize].fail_detect {
                    ctx.unmonitor(node);
                }
                Ok(Flow::Continue)
            }
            IrStmt::NeighborClear(slot) => {
                let fd = ir.lists[*slot as usize].fail_detect;
                for n in self.lists[*slot as usize].drain(..) {
                    if fd {
                        ctx.unmonitor(n);
                    }
                }
                Ok(Flow::Continue)
            }
            IrStmt::Send { msg, dest, args } => {
                let dest = self.eval(ctx, frame, dest)?;
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(ctx, frame, a)?);
                }
                self.send_message(ir, ctx, frame.from, *msg, dest, values)?;
                Ok(Flow::Continue)
            }
            IrStmt::Quash => {
                frame.quash = true;
                Ok(Flow::Continue)
            }
            IrStmt::DownCall(down) => {
                let call = self.build_downcall(ctx, frame, down)?;
                ctx.down(call);
                Ok(Flow::Continue)
            }
            IrStmt::UpcallNotify(slot, e) => {
                let ty = self.eval(ctx, frame, e)?.as_int()? as u32;
                ctx.up(UpCall::Notify {
                    nbr_type: ty,
                    neighbors: self.lists[*slot as usize].clone(),
                });
                Ok(Flow::Continue)
            }
            IrStmt::Deliver { src, payload } => {
                let src = match self.eval(ctx, frame, src)? {
                    Value::Key(k) => k,
                    Value::Node(n) => MacedonKey(n.0),
                    other => return Err(format!("deliver src must be key/node, got {other:?}")),
                };
                let payload = match self.eval(ctx, frame, payload)? {
                    Value::Bytes(b) => b,
                    Value::Null => Bytes::new(),
                    other => return Err(format!("deliver payload must be bytes, got {other:?}")),
                };
                let from = frame.from.unwrap_or(ctx.me);
                ctx.up(UpCall::Deliver { src, from, payload });
                Ok(Flow::Continue)
            }
            IrStmt::Monitor(e) => {
                let n = self.eval(ctx, frame, e)?.as_node()?;
                ctx.monitor(n);
                Ok(Flow::Continue)
            }
            IrStmt::Unmonitor(e) => {
                let n = self.eval(ctx, frame, e)?.as_node()?;
                ctx.unmonitor(n);
                Ok(Flow::Continue)
            }
            IrStmt::ForEach { var, list, body } => {
                // Snapshot (into a pooled buffer) so the body may mutate
                // the list; the loop variable owns a dedicated slot, so
                // no save/restore.
                let mut snapshot = self.node_pool.pop().unwrap_or_default();
                snapshot.extend_from_slice(&self.lists[*list as usize]);
                let mut i = 0;
                while i < snapshot.len() {
                    self.vars[*var as usize] = Value::Node(snapshot[i]);
                    i += 1;
                    if let Flow::Return = self.exec_block(ir, ctx, frame, body)? {
                        self.pool_nodes(snapshot);
                        return Ok(Flow::Return);
                    }
                }
                self.pool_nodes(snapshot);
                Ok(Flow::Continue)
            }
            IrStmt::AssignVar(slot, e) => {
                let v = self.eval(ctx, frame, e)?;
                self.vars[*slot as usize] = v;
                Ok(Flow::Continue)
            }
            IrStmt::AssignList(slot, e) => {
                let v = self.eval(ctx, frame, e)?;
                self.assign_list(ir, ctx, *slot, v)?;
                Ok(Flow::Continue)
            }
            IrStmt::AssignVarTakeField(slot, i) => {
                self.vars[*slot as usize] = take_field(frame, *i)?;
                Ok(Flow::Continue)
            }
            IrStmt::AssignListTakeField(slot, i) => {
                let v = take_field(frame, *i)?;
                self.assign_list(ir, ctx, *slot, v)?;
                Ok(Flow::Continue)
            }
            IrStmt::Trace(e) => {
                // Always evaluate — the expression may draw from the RNG
                // (`trace(neighbor_random(..))`); only the formatting is
                // gated on the trace threshold.
                let v = self.eval(ctx, frame, e)?;
                if ctx.trace_on(TraceLevel::Med) {
                    ctx.trace(TraceLevel::Med, format!("{}: trace {v:?}", ir.name));
                }
                Ok(Flow::Continue)
            }
        }
    }

    /// Whole-list assignment (e.g. `brothers = field(sibs);`):
    /// replaces contents; own id is filtered out.
    fn assign_list(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        slot: u16,
        v: Value,
    ) -> Result<(), String> {
        let Value::List(mut ns) = v else {
            return Err(format!(
                "assigning non-list to neighbor list '{}'",
                ir.lists[slot as usize].name
            ));
        };
        ns.retain(|&n| n != ctx.me);
        let decl = &ir.lists[slot as usize];
        ns.truncate(decl.max);
        let l = &mut self.lists[slot as usize];
        if decl.fail_detect {
            for n in l.iter() {
                ctx.unmonitor(*n);
            }
            for n in &ns {
                ctx.monitor(*n);
            }
        }
        let old = std::mem::replace(l, ns);
        self.pool_nodes(old);
        Ok(())
    }

    /// Translate a lowered `downcall(<api>, args...)` into the engine
    /// API call it names (value shapes checked here; name and arity were
    /// resolved at lowering).
    fn build_downcall(
        &mut self,
        ctx: &mut Ctx,
        frame: &Frame,
        down: &IrDown,
    ) -> Result<DownCall, String> {
        let api = down.api();
        let as_key = |v: &Value| match v {
            Value::Key(k) => Ok(*k),
            Value::Node(n) => Ok(MacedonKey(n.0)),
            other => Err(format!("downcall({api}, ..): expected key, got {other:?}")),
        };
        let as_payload = |v: Value| match v {
            Value::Bytes(b) => Ok(b),
            Value::Null => Ok(Bytes::new()),
            other => Err(format!(
                "downcall({api}, ..): expected payload, got {other:?}"
            )),
        };
        Ok(match down {
            IrDown::Join(g) => DownCall::Join {
                group: as_key(&self.eval(ctx, frame, g)?)?,
            },
            IrDown::Leave(g) => DownCall::Leave {
                group: as_key(&self.eval(ctx, frame, g)?)?,
            },
            IrDown::CreateGroup(g) => DownCall::CreateGroup {
                group: as_key(&self.eval(ctx, frame, g)?)?,
            },
            IrDown::Multicast(g, p) => DownCall::Multicast {
                group: as_key(&self.eval(ctx, frame, g)?)?,
                payload: as_payload(self.eval(ctx, frame, p)?)?,
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Anycast(g, p) => DownCall::Anycast {
                group: as_key(&self.eval(ctx, frame, g)?)?,
                payload: as_payload(self.eval(ctx, frame, p)?)?,
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Collect(g, p) => DownCall::Collect {
                group: as_key(&self.eval(ctx, frame, g)?)?,
                payload: as_payload(self.eval(ctx, frame, p)?)?,
                priority: DEFAULT_PRIORITY,
            },
            IrDown::Route(d, p) => DownCall::Route {
                dest: as_key(&self.eval(ctx, frame, d)?)?,
                payload: as_payload(self.eval(ctx, frame, p)?)?,
                priority: DEFAULT_PRIORITY,
            },
            IrDown::RouteIp(d, p) => match self.eval(ctx, frame, d)? {
                Value::Node(n) => DownCall::RouteIp {
                    dest: n,
                    payload: as_payload(self.eval(ctx, frame, p)?)?,
                    priority: DEFAULT_PRIORITY,
                },
                other => {
                    return Err(format!(
                        "downcall(routeIP, ..): expected node, got {other:?}"
                    ))
                }
            },
        })
    }

    fn send_message(
        &mut self,
        ir: &IrSpec,
        ctx: &mut Ctx,
        from: Option<NodeId>,
        msg: u16,
        dest: Value,
        values: Vec<Value>,
    ) -> Result<(), String> {
        let decl = &ir.messages[msg as usize];
        debug_assert_eq!(values.len(), decl.fields.len(), "lowering checked arity");
        let mut w = WireWriter::new();
        w.u16(self.proto).u16(msg);
        for (f, v) in decl.fields.iter().zip(&values) {
            match (f.kind, v) {
                (FieldKind::Int, v) => {
                    w.u64(v.as_int()? as u64);
                }
                (FieldKind::Bool, v) => {
                    w.u8(v.truthy() as u8);
                }
                (FieldKind::Node, Value::Node(n)) => {
                    w.node(*n);
                }
                (FieldKind::Node, Value::Null) => {
                    w.node(NodeId(u32::MAX));
                }
                (FieldKind::Key, Value::Key(k)) => {
                    w.key(*k);
                }
                (FieldKind::Key, Value::Node(n)) => {
                    w.key(MacedonKey(n.0));
                }
                (FieldKind::Payload, Value::Bytes(b)) => {
                    w.bytes(b);
                }
                (FieldKind::Payload, Value::Null) => {
                    w.bytes(&[]);
                }
                (FieldKind::Nodes, Value::List(ns)) => {
                    w.nodes(ns);
                }
                (kind, v) => {
                    return Err(format!("field {}: cannot encode {v:?} as {kind:?}", f.name))
                }
            }
        }
        let bytes = w.finish();

        // First key field holding a key/node value, if any: the routing
        // destination when the message addresses a key rather than a
        // host. Candidate positions were precomputed at lowering.
        let key_of = |decl: &IrMessage, values: &[Value]| {
            decl.key_fields
                .iter()
                .find_map(|&i| match &values[i as usize] {
                    Value::Key(k) => Some(*k),
                    Value::Node(n) => Some(MacedonKey(n.0)),
                    _ => None,
                })
        };

        if self.layered {
            // Layered specs never touch the wire: sends tunnel through
            // the base layer's API. A node destination is a direct
            // `routeIP`; `null` routes toward the message's first key
            // field (Scribe's `subscribe(null, group, me)` idiom). The
            // priority carries the base channel the message's declared
            // transport class maps onto (see `set_base_transports`).
            let priority = self.msg_prio[msg as usize];
            let call = match dest {
                Value::Node(n) => DownCall::RouteIp {
                    dest: n,
                    payload: bytes,
                    priority,
                },
                Value::Key(k) => DownCall::Route {
                    dest: k,
                    payload: bytes,
                    priority,
                },
                Value::Null => {
                    let Some(k) = key_of(decl, &values) else {
                        return Err(format!(
                            "message {}: null destination needs a key field to route toward",
                            decl.name
                        ));
                    };
                    DownCall::Route {
                        dest: k,
                        payload: bytes,
                        priority,
                    }
                }
                other => return Err(format!("message dest must be node/key, got {other:?}")),
            };
            ctx.down(call);
            return Ok(());
        }

        let dest = match dest {
            Value::Node(n) => n,
            Value::Null => return Ok(()), // sending to nobody is a no-op
            other => return Err(format!("message dest must be a node, got {other:?}")),
        };
        let ch = decl.channel;
        // A send carrying tunneled upper-layer data is an in-transit
        // forwarding decision: when layers are stacked above, vet it
        // through the engine's forward query (they may redirect or
        // quash) and transmit in `forward_resolved`, as native routers
        // do. Single-layer stacks transmit directly.
        let tunneled = decl
            .payload_fields
            .iter()
            .find_map(|&i| match &values[i as usize] {
                Value::Bytes(b) if !b.is_empty() => Some(b.clone()),
                _ => None,
            });
        match tunneled {
            Some(payload) if !ctx.is_top_layer() => {
                let dest_key = key_of(decl, &values).unwrap_or(ctx.my_key);
                self.pending_fwd.push_back((dest, ch, bytes));
                ctx.forward_query(ForwardInfo {
                    src: ctx.my_key,
                    dest: dest_key,
                    prev_hop: from.unwrap_or(ctx.me),
                    next_hop: dest,
                    payload,
                    quash: false,
                });
            }
            _ => ctx.send(dest, ch, bytes),
        }
        Ok(())
    }

    /// Serve a `routeIP` downcall from the layers above natively: frame
    /// the payload and transmit it straight to the target host (the
    /// engine service the paper's `macedon_routeIP` provides).
    ///
    /// A non-negative `priority` names one of this spec's transport
    /// channels (the layers above resolve their message class names
    /// against this table — see
    /// [`InterpretedAgent::set_base_transports`]); the default priority
    /// or an out-of-range value pins the frame to the first declared
    /// transport (channel 0 — reliable in every bundled spec), as the
    /// native agents do.
    fn tunnel_send(&mut self, ctx: &mut Ctx, dest: NodeId, payload: Bytes, priority: i8) {
        let ch = if priority >= 0 && (priority as u16) < self.num_channels {
            ChannelId(priority as u16)
        } else {
            ChannelId(0)
        };
        let frame = macedon_core::wire::tunnel_frame(ctx.my_key, &payload);
        ctx.send(dest, ch, frame);
    }

    /// If `bytes` is one of this protocol's messages, decode it into
    /// slot-ordered field values (in a pooled buffer); otherwise
    /// (foreign protocol, malformed, truncated) `None`. Borrows the
    /// buffer — no clone.
    fn decode_own(&mut self, ir: &IrSpec, bytes: &Bytes) -> Option<(u16, Vec<Value>)> {
        let mut r = WireRef::new(bytes);
        let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) else {
            return None;
        };
        if proto != self.proto || id as usize >= ir.messages.len() {
            return None;
        }
        let mut fields = std::mem::take(&mut self.fields_pool);
        match decode_fields_into(
            &ir.messages[id as usize],
            &mut r,
            &mut fields,
            &mut self.node_pool,
        ) {
            Ok(()) => Some((id, fields)),
            Err(_) => {
                fields.clear();
                self.fields_pool = fields;
                None
            }
        }
    }

    fn eval(&mut self, ctx: &mut Ctx, frame: &Frame, e: &IrExpr) -> Result<Value, String> {
        Ok(match e {
            IrExpr::Int(v) => Value::Int(*v),
            IrExpr::From => frame.from.map(Value::Node).unwrap_or(Value::Null),
            IrExpr::Me => Value::Node(ctx.me),
            IrExpr::MyKey => Value::Key(ctx.my_key),
            IrExpr::Bootstrap => self.bootstrap.map(Value::Node).unwrap_or(Value::Null),
            IrExpr::Payload => frame
                .payload
                .clone()
                .map(Value::Bytes)
                .unwrap_or(Value::Null),
            IrExpr::Null => Value::Null,
            IrExpr::True => Value::Bool(true),
            IrExpr::False => Value::Bool(false),
            IrExpr::ApiArg { which, fallback } => {
                let bound = match which {
                    ApiArgKind::Dest => &frame.api_dest,
                    ApiArgKind::Group => &frame.api_group,
                };
                bound
                    .clone()
                    .or_else(|| fallback.map(|s| self.vars[s as usize].clone()))
                    .unwrap_or(Value::Null)
            }
            IrExpr::Var(slot) => self.vars[*slot as usize].clone(),
            IrExpr::ListValue(slot) => {
                let mut v = self.node_pool.pop().unwrap_or_default();
                v.extend_from_slice(&self.lists[*slot as usize]);
                Value::List(v)
            }
            IrExpr::Field(i) => frame
                .fields
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| format!("unknown message field #{i}"))?,
            IrExpr::NeighborSize(slot) => Value::Int(self.lists[*slot as usize].len() as i64),
            IrExpr::NeighborQuery(slot, e) => {
                let n = self.eval(ctx, frame, e)?;
                let l = &self.lists[*slot as usize];
                match n {
                    Value::Node(n) => Value::Bool(l.contains(&n)),
                    Value::Null => Value::Bool(false),
                    other => return Err(format!("neighbor_query needs node, got {other:?}")),
                }
            }
            IrExpr::NeighborRandom(slot) => {
                let l = &self.lists[*slot as usize];
                if l.is_empty() {
                    Value::Null
                } else {
                    Value::Node(l[ctx.rng.index(l.len())])
                }
            }
            IrExpr::Rtt(e) => match self.eval(ctx, frame, e)? {
                Value::Node(n) => Value::Int(ctx.rtt_ms(n)),
                Value::Null => Value::Int(0),
                other => return Err(format!("rtt(..) needs a node, got {other:?}")),
            },
            IrExpr::Goodput(e) => match self.eval(ctx, frame, e)? {
                Value::Node(n) => Value::Int(ctx.goodput_kbps(n)),
                Value::Null => Value::Int(0),
                other => return Err(format!("goodput(..) needs a node, got {other:?}")),
            },
            IrExpr::RingDist(a, b) => {
                let a = self.eval(ctx, frame, a)?.as_key_opt(ctx.node_keys())?;
                let b = self.eval(ctx, frame, b)?.as_key_opt(ctx.node_keys())?;
                Value::Int(key::dsl_ring_dist(a, b))
            }
            IrExpr::RingBetween(x, lo, hi) => {
                let x = self.eval(ctx, frame, x)?.as_key_opt(ctx.node_keys())?;
                let lo = self.eval(ctx, frame, lo)?.as_key_opt(ctx.node_keys())?;
                let hi = self.eval(ctx, frame, hi)?.as_key_opt(ctx.node_keys())?;
                Value::Bool(key::dsl_ring_between(x, lo, hi))
            }
            IrExpr::Digit(k, i, base) => {
                let k = self.eval(ctx, frame, k)?.as_key_opt(ctx.node_keys())?;
                let i = self.eval(ctx, frame, i)?.as_int()?;
                let base = self.eval(ctx, frame, base)?.as_int()?;
                Value::Int(key::dsl_digit(k, i, base))
            }
            IrExpr::PrefixLen(a, b) => {
                let a = self.eval(ctx, frame, a)?.as_key_opt(ctx.node_keys())?;
                let b = self.eval(ctx, frame, b)?.as_key_opt(ctx.node_keys())?;
                Value::Int(key::dsl_prefix_len(a, b))
            }
            IrExpr::OwnerOf(k, slot) => {
                let k = self.eval(ctx, frame, k)?.as_key_opt(ctx.node_keys())?;
                match key::dsl_owner_of(k, &self.lists[*slot as usize], ctx.node_keys()) {
                    Some(n) => Value::Node(n),
                    None => Value::Null,
                }
            }
            IrExpr::Not(e) => Value::Bool(!self.eval(ctx, frame, e)?.truthy()),
            IrExpr::Neg(e) => Value::Int(-self.eval(ctx, frame, e)?.as_int()?),
            IrExpr::Bin(op, a, b) => {
                let a = self.eval(ctx, frame, a)?;
                let b = self.eval(ctx, frame, b)?;
                match op {
                    BinOp::And => Value::Bool(a.truthy() && b.truthy()),
                    BinOp::Or => Value::Bool(a.truthy() || b.truthy()),
                    BinOp::Eq => Value::Bool(values_eq(&a, &b)),
                    BinOp::Ne => Value::Bool(!values_eq(&a, &b)),
                    BinOp::Lt => Value::Bool(a.as_int()? < b.as_int()?),
                    BinOp::Gt => Value::Bool(a.as_int()? > b.as_int()?),
                    BinOp::Le => Value::Bool(a.as_int()? <= b.as_int()?),
                    BinOp::Ge => Value::Bool(a.as_int()? >= b.as_int()?),
                    // Key ± int wraps on the 2^32 ring (Chord's
                    // `my_key + pow2` finger targets).
                    BinOp::Add => match &a {
                        Value::Key(k) => Value::Key(key::dsl_key_add(*k, b.as_int()?)),
                        _ => Value::Int(a.as_int()? + b.as_int()?),
                    },
                    BinOp::Sub => match &a {
                        Value::Key(k) => Value::Key(key::dsl_key_add(*k, -b.as_int()?)),
                        _ => Value::Int(a.as_int()? - b.as_int()?),
                    },
                    BinOp::Mul => Value::Int(a.as_int()? * b.as_int()?),
                    BinOp::Div => {
                        let d = b.as_int()?;
                        if d == 0 {
                            return Err("division by zero".into());
                        }
                        Value::Int(a.as_int()? / d)
                    }
                    BinOp::Mod => {
                        let d = b.as_int()?;
                        if d == 0 {
                            return Err("modulo by zero".into());
                        }
                        Value::Int(a.as_int()? % d)
                    }
                }
            }
        })
    }
}
/// Decode one message's fields into a slot-ordered buffer (`out` must
/// be empty; pooled by the caller), drawing node-list buffers from
/// `node_pool`.
fn decode_fields_into(
    decl: &IrMessage,
    r: &mut WireRef,
    out: &mut Vec<Value>,
    node_pool: &mut Vec<Vec<NodeId>>,
) -> Result<(), String> {
    debug_assert!(out.is_empty());
    out.reserve(decl.fields.len());
    for f in &decl.fields {
        let v = match f.kind {
            FieldKind::Int => Value::Int(r.u64().map_err(|e| e.to_string())? as i64),
            FieldKind::Bool => Value::Bool(r.u8().map_err(|e| e.to_string())? != 0),
            FieldKind::Node => {
                let n = r.node().map_err(|e| e.to_string())?;
                if n == NodeId(u32::MAX) {
                    Value::Null
                } else {
                    Value::Node(n)
                }
            }
            FieldKind::Key => Value::Key(r.key().map_err(|e| e.to_string())?),
            FieldKind::Payload => Value::Bytes(r.bytes().map_err(|e| e.to_string())?),
            FieldKind::Nodes => {
                let mut l = node_pool.pop().unwrap_or_default();
                r.nodes_into(&mut l).map_err(|e| e.to_string())?;
                Value::List(l)
            }
        };
        out.push(v);
    }
    Ok(())
}

/// Move a single-use field value out of the frame (leaving `Null`; the
/// lowering guarantees no later read).
fn take_field(frame: &mut Frame, i: u16) -> Result<Value, String> {
    frame
        .fields
        .get_mut(i as usize)
        .map(|f| std::mem::replace(f, Value::Null))
        .ok_or_else(|| format!("unknown message field #{i}"))
}

fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Bool(y)) => (*x != 0) == *y,
        (Value::Bool(x), Value::Int(y)) => *x == (*y != 0),
        (Value::Node(n), Value::Key(k)) | (Value::Key(k), Value::Node(n)) => n.0 == k.0,
        _ => a == b,
    }
}

impl Agent for InterpretedAgent {
    fn protocol_id(&self) -> ProtocolId {
        self.core.proto
    }

    fn name(&self) -> &'static str {
        "interpreted"
    }

    fn init(&mut self, ctx: &mut Ctx) {
        // A layered spec at the bottom of a stack has nobody to tunnel
        // its sends through — every message would be silently dropped.
        debug_assert!(
            !self.core.layered || ctx.layer > 0,
            "'{}' uses '{}' and must be stacked above an agent serving that protocol \
             (see macedon_lang::registry::SpecRegistry)",
            self.ir.name,
            self.ir.uses.as_deref().unwrap_or_default()
        );
        // Auto-arm timers that declare a period (slot = engine timer id).
        for (id, t) in self.ir.timers.iter().enumerate() {
            if let Some(ms) = t.period_ms {
                ctx.timer_periodic(id as u16, Duration::from_millis(ms as u64));
            }
        }
        self.fire(ctx, At::Api(ApiKind::Init), Frame::default());
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        let kind = match &call {
            DownCall::Route { .. } => ApiKind::Route,
            DownCall::RouteIp { .. } => ApiKind::RouteIp,
            DownCall::Multicast { .. } => ApiKind::Multicast,
            DownCall::Anycast { .. } => ApiKind::Anycast,
            DownCall::Collect { .. } => ApiKind::Collect,
            DownCall::CreateGroup { .. } => ApiKind::CreateGroup,
            DownCall::Join { .. } => ApiKind::Join,
            DownCall::Leave { .. } => ApiKind::Leave,
            DownCall::Ext { .. } => ApiKind::Ext,
        };
        if !self.ir.tables.api[kind as usize].is_empty() {
            let mut f = Frame::default();
            match call {
                DownCall::Route { dest, payload, .. } => {
                    f.api_dest = Some(Value::Key(dest));
                    f.payload = Some(payload);
                }
                DownCall::RouteIp { dest, payload, .. } => {
                    f.api_dest = Some(Value::Node(dest));
                    f.payload = Some(payload);
                }
                DownCall::Multicast { group, payload, .. }
                | DownCall::Anycast { group, payload, .. }
                | DownCall::Collect { group, payload, .. } => {
                    f.api_group = Some(Value::Key(group));
                    f.payload = Some(payload);
                }
                DownCall::CreateGroup { group }
                | DownCall::Join { group }
                | DownCall::Leave { group } => {
                    f.api_group = Some(Value::Key(group));
                }
                DownCall::Ext { .. } => {}
            }
            self.fire(ctx, At::Api(kind), f);
            return;
        }
        if self.core.layered {
            // Unhandled API calls fall through to the base layer — the
            // stack relaying every pass-through agent performs.
            ctx.down(call);
            return;
        }
        // Lowest layer: `routeIP` is an engine service (direct
        // transmission); everything else the spec chose not to handle.
        match call {
            DownCall::RouteIp {
                dest,
                payload,
                priority,
            } => self.core.tunnel_send(ctx, dest, payload, priority),
            other => {
                if ctx.trace_on(TraceLevel::Low) {
                    ctx.trace(
                        TraceLevel::Low,
                        format!("{}: unhandled API call {other:?}", self.ir.name),
                    );
                }
            }
        }
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        match up {
            UpCall::Deliver { src, from, payload } => {
                // Demultiplex by protocol id: our own tunneled messages
                // fire `recv` transitions, anything else continues up.
                if let Some((id, fields)) = self.core.decode_own(&self.ir, &payload) {
                    let frame = Frame {
                        fields,
                        from: Some(from),
                        ..Default::default()
                    };
                    self.fire(ctx, At::Recv(id), frame);
                } else {
                    ctx.up(UpCall::Deliver { src, from, payload });
                }
            }
            other => ctx.up(other),
        }
    }

    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        // An in-transit message of ours passing through the layer below:
        // fire the spec's `forward` transition, which may `quash();` it.
        // Peek only the 4-byte header first — most messages declare no
        // forward transition, and the common case must not pay a field
        // decode (or drop pooled buffers).
        let mut r = WireRef::new(&fwd.payload);
        let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) else {
            return;
        };
        if proto != self.core.proto
            || id as usize >= self.ir.messages.len()
            || self.ir.tables.forward[id as usize].is_empty()
        {
            return;
        }
        let mut fields = std::mem::take(&mut self.core.fields_pool);
        if decode_fields_into(
            &self.ir.messages[id as usize],
            &mut r,
            &mut fields,
            &mut self.core.node_pool,
        )
        .is_err()
        {
            fields.clear();
            self.core.fields_pool = fields;
            return;
        }
        let frame = Frame {
            fields,
            from: Some(fwd.prev_hop),
            ..Default::default()
        };
        if self.fire(ctx, At::Forward(id), frame) {
            fwd.quash = true;
        }
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        let Some((_dest, ch, bytes)) = self.core.pending_fwd.pop_front() else {
            debug_assert!(false, "forward_resolved without a pending send");
            return;
        };
        if !fwd.quash {
            // The layers above may have redirected the hop.
            ctx.send(fwd.next_hop, ch, bytes);
        }
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        debug_assert!(
            !self.core.layered,
            "layered interpreted agents never touch the wire"
        );
        let mut r = WireRef::new(&msg);
        let (Ok(proto), Ok(id)) = (r.u16(), r.u16()) else {
            return;
        };
        if proto == TUNNEL_PROTOCOL {
            // A `routeIP` frame tunneled on behalf of the layers above:
            // unwrap and deliver up.
            let Ok((src, payload)) = read_tunnel_ref(&mut r) else {
                return;
            };
            ctx.up(UpCall::Deliver { src, from, payload });
            return;
        }
        if proto != self.core.proto || id as usize >= self.ir.messages.len() {
            return;
        }
        let mut fields = std::mem::take(&mut self.core.fields_pool);
        if let Err(e) = decode_fields_into(
            &self.ir.messages[id as usize],
            &mut r,
            &mut fields,
            &mut self.core.node_pool,
        ) {
            if ctx.trace_on(TraceLevel::Low) {
                ctx.trace(
                    TraceLevel::Low,
                    format!("{}: decode error: {e}", self.ir.name),
                );
            }
            fields.clear();
            self.core.fields_pool = fields;
            return;
        }
        let frame = Frame {
            fields,
            from: Some(from),
            ..Default::default()
        };
        self.fire(ctx, At::Recv(id), frame);
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        if (timer as usize) >= self.ir.timers.len() {
            return;
        }
        self.fire(ctx, At::Timer(timer), Frame::default());
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        // Engine convention: drop the peer from fail_detect lists, then
        // fire the error transition.
        for (slot, decl) in self.ir.lists.iter().enumerate() {
            if decl.fail_detect {
                self.core.lists[slot].retain(|&n| n != peer);
            }
        }
        let frame = Frame {
            from: Some(peer),
            ..Default::default()
        };
        self.fire(ctx, At::Error, frame);
    }

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
    use crate::compile;
    use macedon_core::{Addressing, NullApp, Time, World, WorldConfig};
    use macedon_net::topology::{canned, LinkSpec};

    /// A toy protocol: everyone joins a star around the bootstrap.
    const STAR: &str = r#"
        protocol star;
        addressing hash;
        states { joined; }
        neighbor_types { member 64 { } }
        transports { TCP CTRL; }
        messages {
            CTRL hello { node who; }
            CTRL welcome { }
        }
        state_variables {
            fail_detect member members;
            int hellos;
        }
        transitions {
            init API init {
                if (bootstrap != null) {
                    hello(bootstrap, me);
                } else {
                    state_change(joined);
                }
            }
            any recv hello {
                hellos = hellos + 1;
                neighbor_add(members, field(who));
                welcome(from);
            }
            init recv welcome {
                neighbor_add(members, from);
                state_change(joined);
            }
        }
    "#;

    fn star_world(n: usize) -> (World, Vec<NodeId>, Arc<Spec>) {
        let spec = Arc::new(compile(STAR).unwrap());
        let topo = canned::star(n, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let mut cfg = WorldConfig {
            seed: 5,
            ..Default::default()
        };
        cfg.channels = channel_table(&spec);
        let mut w = World::new(topo, cfg);
        for (i, &h) in hosts.iter().enumerate() {
            let agent = InterpretedAgent::new(spec.clone(), (i > 0).then(|| hosts[0]));
            w.spawn_at(
                Time::from_millis(i as u64 * 10),
                h,
                vec![Box::new(agent)],
                Box::new(NullApp),
            );
        }
        (w, hosts, spec)
    }

    fn agent_of(w: &World, n: NodeId) -> &InterpretedAgent {
        w.stack(n)
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap()
    }

    #[test]
    fn interpreted_protocol_runs_end_to_end() {
        let (mut w, hosts, _) = star_world(6);
        w.run_until(Time::from_secs(10));
        for &h in &hosts {
            assert_eq!(agent_of(&w, h).state(), "joined", "{h:?}");
        }
        // The bootstrap heard from everyone.
        let boot = agent_of(&w, hosts[0]);
        assert_eq!(boot.var("hellos"), Some(&Value::Int(5)));
        assert_eq!(boot.list("members").unwrap().len(), 5);
    }

    #[test]
    fn transitions_scoped_by_state() {
        // `init recv welcome` must not fire once joined.
        let (mut w, hosts, _) = star_world(3);
        w.run_until(Time::from_secs(10));
        let a = agent_of(&w, hosts[1]);
        assert_eq!(a.state(), "joined");
        // Joined members got exactly one welcome each (scoped transition
        // consumed it once).
        assert_eq!(a.list("members").unwrap().len(), 1);
    }

    #[test]
    fn shared_ir_instance_across_agents() {
        // The registry path: every node executes the same Arc<IrSpec>.
        let spec = Arc::new(compile(STAR).unwrap());
        let ir = Arc::new(IrSpec::lower(&spec).unwrap());
        let a = InterpretedAgent::from_ir(ir.clone(), None);
        let b = InterpretedAgent::from_ir(ir.clone(), Some(NodeId(1)));
        assert!(Arc::ptr_eq(a.ir(), b.ir()));
        assert_eq!(Arc::strong_count(&ir), 3);
        assert_eq!(a.state(), "init");
    }

    #[test]
    fn protocol_id_is_stable_and_safe() {
        let a = protocol_id_of("overcast");
        let b = protocol_id_of("overcast");
        assert_eq!(a, b);
        assert_ne!(protocol_id_of("x"), 0xFFFF);
        assert_ne!(protocol_id_of("x"), 0xFFFE);
    }

    #[test]
    fn channel_table_mirrors_transports() {
        let spec = compile(STAR).unwrap();
        let table = channel_table(&spec);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].name, "CTRL");
        assert_eq!(table[0].kind, TransportKind::Tcp);
    }

    #[test]
    fn value_semantics() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Null.truthy());
        assert!(values_eq(&Value::Int(1), &Value::Bool(true)));
        assert!(values_eq(
            &Value::Node(NodeId(5)),
            &Value::Key(MacedonKey(5))
        ));
        assert!(!values_eq(&Value::Int(2), &Value::Int(3)));
    }

    /// A trivial lowest layer owning one transport; it serves `routeIP`
    /// natively and has no behavior of its own.
    const BASE: &str = r#"
        protocol base;
        addressing hash;
        transports { TCP CTRL; }
    "#;

    /// The STAR protocol re-expressed as a layer above `base`: sends
    /// tunnel through the base's API instead of touching the wire.
    const STAR_OVER_BASE: &str = r#"
        protocol starup uses base;
        addressing hash;
        states { joined; }
        neighbor_types { member 64 { } }
        messages {
            hello { node who; }
            welcome { }
        }
        state_variables {
            member members;
            int hellos;
        }
        transitions {
            init API init {
                if (bootstrap != null) {
                    hello(bootstrap, me);
                } else {
                    state_change(joined);
                }
            }
            any recv hello {
                hellos = hellos + 1;
                neighbor_add(members, field(who));
                welcome(from);
            }
            init recv welcome {
                neighbor_add(members, from);
                state_change(joined);
            }
        }
    "#;

    #[test]
    fn layered_spec_runs_above_interpreted_base() {
        let base = Arc::new(compile(BASE).unwrap());
        let upper = Arc::new(compile(STAR_OVER_BASE).unwrap());
        let topo = canned::star(5, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let mut cfg = WorldConfig {
            seed: 9,
            ..Default::default()
        };
        cfg.channels = channel_table(&base);
        let mut w = World::new(topo, cfg);
        for (i, &h) in hosts.iter().enumerate() {
            let boot = (i > 0).then(|| hosts[0]);
            w.spawn_at(
                Time::from_millis(i as u64 * 10),
                h,
                vec![
                    Box::new(InterpretedAgent::new(base.clone(), boot)),
                    Box::new(InterpretedAgent::new(upper.clone(), boot)),
                ],
                Box::new(NullApp),
            );
        }
        w.run_until(Time::from_secs(10));
        for &h in &hosts {
            let a: &InterpretedAgent = w
                .stack(h)
                .unwrap()
                .agent(1)
                .as_any()
                .downcast_ref()
                .unwrap();
            assert_eq!(a.state(), "joined", "{h:?}");
        }
        let boot: &InterpretedAgent = w
            .stack(hosts[0])
            .unwrap()
            .agent(1)
            .as_any()
            .downcast_ref()
            .unwrap();
        assert_eq!(boot.var("hellos"), Some(&Value::Int(4)));
        assert_eq!(boot.list("members").unwrap().len(), 4);
    }

    #[test]
    fn periodic_timer_autoarms() {
        const TICKER: &str = r#"
            protocol ticker;
            addressing ip;
            transports { UDP U; }
            messages { U noop { } }
            state_variables { timer tick 100; int n; }
            transitions {
                any timer tick { n = n + 1; }
            }
        "#;
        let spec = Arc::new(compile(TICKER).unwrap());
        let topo = canned::star(1, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        w.spawn_at(
            Time::ZERO,
            hosts[0],
            vec![Box::new(InterpretedAgent::new(spec, None))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(1));
        let a = agent_of(&w, hosts[0]);
        let Some(&Value::Int(n)) = a.var("n") else {
            panic!()
        };
        assert!((8..=10).contains(&n), "ticked ~10 times in 1s, got {n}");
    }

    /// Peers blast traffic at each other; a timer snapshots the engine
    /// measurements through the `rtt()`/`goodput()` builtins.
    const METERED: &str = r#"
        protocol metered;
        addressing hash;
        states { running; }
        neighbor_types { peer 4 { } }
        transports { TCP CTRL; }
        messages { CTRL blast { int pad1; int pad2; int pad3; } }
        state_variables {
            peer peers;
            timer tick 100;
            timer snap 2000;
            node target;
            int last_rtt;
            int last_goodput;
        }
        transitions {
            init API init {
                if (bootstrap != null) { target = bootstrap; }
                state_change(running);
            }
            running timer tick {
                if (target != null) { blast(target, 1, 2, 3); }
            }
            any recv blast { }
            running timer snap {
                last_rtt = rtt(target);
                last_goodput = goodput(from);
                if (target != null) { last_goodput = goodput(target); }
            }
        }
    "#;

    #[test]
    fn rtt_and_goodput_builtins_read_engine_measurements() {
        let spec = Arc::new(compile(METERED).unwrap());
        let topo = canned::two_hosts(LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            seed: 77,
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        // hosts[1] blasts at hosts[0]; hosts[0] (bootstrap-less) idles.
        w.spawn_at(
            Time::ZERO,
            hosts[0],
            vec![Box::new(InterpretedAgent::new(
                spec.clone(),
                Some(hosts[1]),
            ))],
            Box::new(NullApp),
        );
        w.spawn_at(
            Time::ZERO,
            hosts[1],
            vec![Box::new(InterpretedAgent::new(
                spec.clone(),
                Some(hosts[0]),
            ))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(10));
        let a = agent_of(&w, hosts[0]);
        // The sender sees a sub-5ms LAN RTT (>= 1 ms after rounding may
        // floor to 0, so only assert the goodput side is positive and
        // the rtt is small).
        let Some(&Value::Int(rtt)) = a.var("last_rtt") else {
            panic!()
        };
        assert!((0..50).contains(&rtt), "LAN rtt_ms, got {rtt}");
        let Some(&Value::Int(gp)) = a.var("last_goodput") else {
            panic!()
        };
        // 28-byte messages every 100 ms ≈ 2.2 kbit/s inbound.
        assert!(gp > 0, "goodput measured, got {gp}");
        assert!(gp < 1_000, "sane kbps magnitude, got {gp}");
    }

    #[test]
    fn foreach_loop_variable_restores_outer_binding() {
        // The loop variable shadows a declared scalar; after the loop,
        // the scalar's own value is visible again (AST semantics, now
        // expressed by dedicated slots).
        const SHADOW: &str = r#"
            protocol shadow;
            addressing ip;
            neighbor_types { kid 8 { } }
            transports { TCP C; }
            messages { C ping { } }
            state_variables { kid kids; node n; int count; }
            transitions {
                any API init {
                    n = me;
                    neighbor_add(kids, me);
                    foreach (n in kids) { count = count + 1; }
                    if (n == me) { count = count + 100; }
                }
            }
        "#;
        let spec = Arc::new(compile(SHADOW).unwrap());
        let topo = canned::star(2, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        w.spawn_at(
            Time::ZERO,
            hosts[1],
            vec![Box::new(InterpretedAgent::new(spec, None))],
            Box::new(NullApp),
        );
        w.run_until(Time::from_secs(1));
        let a: &InterpretedAgent = w
            .stack(hosts[1])
            .unwrap()
            .agent(0)
            .as_any()
            .downcast_ref()
            .unwrap();
        // `neighbor_add(kids, me)` filters nothing here (me is allowed
        // in adds), so the loop ran once; afterwards `n` reads the
        // declared scalar (me) again: 1 + 100.
        assert_eq!(a.var("count"), Some(&Value::Int(101)));
    }

    #[test]
    fn key_builtins_evaluate_via_shared_helpers() {
        // Ip addressing makes keys the raw node ids, so every expected
        // value is computable from the host list with the same
        // macedon_core::key helpers the interpreter calls.
        const KEYS: &str = r#"
            protocol keys;
            addressing ip;
            neighbor_types { succ 4 { } }
            transports { TCP C; }
            messages { C nop { } }
            state_variables {
                succ ring;
                key target;
                int dist; bool between; int dig; int plen; node owner;
            }
            transitions {
                any API init {
                    if (bootstrap != null) { neighbor_add(ring, bootstrap); }
                    target = my_key + 10;
                    dist = ring_dist(me, bootstrap);
                    between = ring_between(bootstrap, my_key, my_key);
                    dig = digit(my_key, 7, 16);
                    plen = prefix_len(my_key, target);
                    owner = owner_of(target, ring);
                }
            }
        "#;
        let spec = Arc::new(compile(KEYS).unwrap());
        let topo = canned::star(3, LinkSpec::lan());
        let hosts = topo.hosts().to_vec();
        let cfg = WorldConfig {
            addressing: Addressing::Ip,
            channels: channel_table(&spec),
            ..Default::default()
        };
        let mut w = World::new(topo, cfg);
        for (i, &h) in hosts.iter().enumerate() {
            let agent = InterpretedAgent::new(spec.clone(), (i > 0).then(|| hosts[0]));
            w.spawn_at(Time::ZERO, h, vec![Box::new(agent)], Box::new(NullApp));
        }
        w.run_until(Time::from_secs(1));

        let boot_key = MacedonKey(hosts[0].0);
        let a = agent_of(&w, hosts[1]);
        let me_key = MacedonKey(hosts[1].0);
        let target = key::dsl_key_add(me_key, 10);
        assert_eq!(
            a.var("dist"),
            Some(&Value::Int(key::dsl_ring_dist(
                Some(me_key),
                Some(boot_key)
            )))
        );
        // Degenerate interval (lo == hi) is the full ring.
        assert_eq!(a.var("between"), Some(&Value::Bool(true)));
        assert_eq!(a.var("dig"), Some(&Value::Int((hosts[1].0 & 0xF) as i64)));
        assert_eq!(
            a.var("plen"),
            Some(&Value::Int(key::dsl_prefix_len(Some(me_key), Some(target))))
        );
        assert_eq!(a.var("target"), Some(&Value::Key(target)));
        // The only ring member is the bootstrap, so it owns everything.
        assert_eq!(a.var("owner"), Some(&Value::Node(hosts[0])));

        // Without a bootstrap the null-operand sentinels apply: RING
        // distance, false interval test, null owner.
        let b = agent_of(&w, hosts[0]);
        assert_eq!(b.var("dist"), Some(&Value::Int(key::RING as i64)));
        assert_eq!(b.var("between"), Some(&Value::Bool(false)));
        assert_eq!(b.var("owner"), Some(&Value::Null));
    }
}
