//! The simulation engine.

use crate::queue::{Event, EventQueue};
use crate::trace::{DropReason, SimMetrics, TraceEvent};
use crate::{NodeBehavior, TimerId};
use btr_crypto::{
    digest64, AuthSuite, KeyStore, NodeKey, SigError, Signer, SplitMix64, Xoshiro256StarStar,
};
use btr_model::{
    Duration, Envelope, EvidenceFlaw, LinkId, NodeId, Payload, PeriodIdx, SignedOutput, TaskId,
    Time, Topology, Value,
};
use btr_net::{Nic, RouteBackend, Routes, SendError};
use btr_obs::{
    Counter, Histogram, Lat, Phase, PhaseMark, Profile, Recorder, Subsystem, TrafficMatrix,
    COUNTER_KINDS,
};
use std::collections::{BTreeMap, BTreeSet};

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for keys, clock skews, and per-node RNG streams.
    pub seed: u64,
    /// The system period P (guardian refill interval).
    pub period: Duration,
    /// Maximum absolute per-node clock skew (local clocks stay within
    /// this bound of global time — the paper's synchrony assumption).
    pub max_clock_skew: Duration,
    /// Collect a full event trace (adds memory; metrics are always on).
    pub trace: bool,
    /// Message-loss probability in parts per million (per message, or
    /// per shard when FEC is enabled).
    ///
    /// Section 2.1 assumes "losses are rare enough to be ignored" because
    /// link-level FEC masks transmission errors; without `fec` this is
    /// the *residual* post-FEC rate. Deterministic per seed.
    pub loss_ppm: u32,
    /// Link-level forward error correction: `(k, m)` sends every message
    /// as k data + m parity shards (cf. `btr_net::fec::FecCodec`); the
    /// message survives any ≤ m shard losses, at a wire-byte overhead of
    /// (k+m)/k. With this on, `loss_ppm` applies per *shard*.
    pub fec: Option<(u8, u8)>,
    /// Hard cap on dispatched events (0 = unlimited). When a run exceeds
    /// the cap, [`World::run_until`] stops dispatching and the world is
    /// marked [`World::truncated`]. Campaign fleets use this as a safety
    /// valve so one pathological schedule (e.g. a message storm) cannot
    /// stall a worker thread; a truncated run is deterministic like any
    /// other, so the cap does not break reproducibility.
    pub max_events: u64,
    /// Which authenticator suite every node's `Signer` and the shared
    /// `KeyStore` use: HMAC-SHA-256 (default, the pinned baseline) or
    /// SipHash-2-4 128-bit tags (same unforgeability inside the
    /// simulation, a fraction of the CPU). Wire sizes are identical
    /// across suites, so two runs differing only in suite are
    /// bit-identical in everything but tag bytes.
    pub auth_suite: AuthSuite,
}

impl SimConfig {
    /// A config with sensible defaults for a 10 ms period system.
    pub fn new(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            period: Duration::from_millis(10),
            max_clock_skew: Duration(20),
            trace: false,
            loss_ppm: 0,
            fec: None,
            max_events: 0,
            auth_suite: AuthSuite::default(),
        }
    }
}

/// How a node treats traffic it is asked to relay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ForwardPolicy {
    /// Relay everything (correct behaviour).
    #[default]
    Forward,
    /// Relay nothing (crashed or maliciously silent).
    DropAll,
    /// Drop traffic destined to specific nodes (targeted omission).
    DropTo(BTreeSet<NodeId>),
}

impl ForwardPolicy {
    fn refuses(&self, dst: NodeId) -> bool {
        match self {
            ForwardPolicy::Forward => false,
            ForwardPolicy::DropAll => true,
            ForwardPolicy::DropTo(set) => set.contains(&dst),
        }
    }
}

/// Scheduled control-plane interventions (the fault injector's lever).
pub enum ControlAction {
    /// Fail-stop the node.
    Crash(NodeId),
    /// Change how the node relays traffic.
    SetForwardPolicy(NodeId, ForwardPolicy),
    /// Shift the node's local clock by a signed offset (timing faults).
    ShiftClock(NodeId, i64),
    /// Swap in a new behaviour (e.g. turn a correct node Byzantine).
    ReplaceBehavior(NodeId, Box<dyn NodeBehavior>),
}

impl std::fmt::Debug for ControlAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlAction::Crash(n) => write!(f, "Crash({n})"),
            ControlAction::SetForwardPolicy(n, p) => write!(f, "SetForwardPolicy({n}, {p:?})"),
            ControlAction::ShiftClock(n, d) => write!(f, "ShiftClock({n}, {d})"),
            ControlAction::ReplaceBehavior(n, _) => write!(f, "ReplaceBehavior({n}, ..)"),
        }
    }
}

/// One recorded sink actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Actuation {
    /// When the actuator fired.
    pub at: Time,
    /// The actuating node.
    pub node: NodeId,
    /// The sink task.
    pub task: TaskId,
    /// The release period the value belongs to.
    pub period: PeriodIdx,
    /// The emitted value.
    pub value: Value,
}

struct NodeSlot {
    behavior: Option<Box<dyn NodeBehavior>>,
    signer: Signer,
    crashed: bool,
    /// Local clock = global + offset (µs, may be negative).
    clock_offset: i64,
    forward: ForwardPolicy,
    /// Per-node RNG stream, seeded once from (seed, node).
    rng: SplitMix64,
}

/// Hot-path observability staging. Counters and latency samples
/// accumulate in these concrete fields — a branch plus an inlined
/// increment per fact when a recorder is installed, nothing when not —
/// and flush into the boxed recorder only when it is taken, keeping
/// virtual dispatch off the per-event path (it cost several percent of
/// hot-path wall time when every fact went through `dyn Recorder`).
/// Phase marks still go straight through: they are rare (a handful per
/// fault) and their observation order is worth keeping.
#[derive(Default)]
struct ObsScratch {
    counts: [u64; COUNTER_KINDS],
    delivery: Histogram,
    timer_lag: Histogram,
    /// Per-subsystem cost profile: event counts always (when a recorder
    /// is installed), wall nanoseconds only under
    /// [`World::set_wall_profiling`].
    profile: Profile,
    /// Per-node / per-link traffic attribution, sized once at
    /// [`World::set_recorder`] (the only allocation).
    traffic: TrafficMatrix,
}

/// The simulated world: platform, network, node behaviours, event queue.
pub struct World {
    topo: Topology,
    cfg: SimConfig,
    nics: Vec<Nic>,
    /// Precomputed all-pairs table below the scale threshold, demand-
    /// driven BFS row cache at or above it (see `btr_net::RouteBackend`).
    routing: RouteBackend,
    slots: Vec<NodeSlot>,
    queue: EventQueue,
    now: Time,
    seq: u64,
    /// Loss sampler: one PRNG stream per world, seeded from the seed
    /// digest.
    loss_rng: Xoshiro256StarStar,
    /// Reusable scratch for canonical signing bytes (send + verify paths).
    scratch: Vec<u8>,
    /// Reusable per-message hop staging buffer: (from, to, link).
    hop_buf: Vec<(NodeId, NodeId, LinkId)>,
    keystore: KeyStore,
    actuations: Vec<Actuation>,
    trace: Vec<TraceEvent>,
    metrics: SimMetrics,
    started: bool,
    truncated: bool,
    /// Out-of-band observability hook (`None` = off, the default).
    ///
    /// Strictly read-only with respect to the simulation: the recorder
    /// receives copies of facts and can never influence event order,
    /// RNG streams, or message bytes, so obs-on and obs-off runs are
    /// bit-identical (pinned by `tests/obs_inert.rs`).
    obs: Option<Box<dyn Recorder>>,
    /// Staged facts for the installed recorder (empty while `obs` is
    /// `None`; flushed and reset by [`World::take_recorder`]).
    obs_scratch: ObsScratch,
    /// Wall-sampling mode: scope the hot-path subsystems with
    /// `Instant::now()` and report the nanoseconds through the profile.
    /// Wall times are machine-dependent, so they are *never* part of the
    /// logical trace or any digest — reporting only. Requires a
    /// recorder; off by default (one predictable branch per scope).
    wall_prof: bool,
    /// Wall nanoseconds attributed to nested scopes inside the current
    /// enclosing scope (lets dispatch/control report *self* time so the
    /// per-subsystem walls stay disjoint and sum to ≤ end-to-end).
    wall_nested_ns: u64,
}

impl World {
    /// Build a world over a topology. All nodes start with the idle
    /// behaviour; install real ones with [`World::set_behavior`].
    pub fn new(topo: Topology, cfg: SimConfig) -> World {
        let n = topo.node_count();
        let keystore = KeyStore::derive_suite(cfg.seed, n, cfg.auth_suite);
        let nics = topo
            .links()
            .iter()
            .map(|l| Nic::new(l.clone(), cfg.period, &BTreeMap::new()))
            .collect();
        let routing = RouteBackend::auto(&topo);
        let slots = (0..n)
            .map(|i| {
                let id = i as u32;
                let span = 2 * cfg.max_clock_skew.as_micros() + 1;
                let skew = (digest64(&[b"btr-skew", &cfg.seed.to_be_bytes(), &id.to_be_bytes()])
                    % span) as i64
                    - cfg.max_clock_skew.as_micros() as i64;
                NodeSlot {
                    behavior: Some(Box::new(crate::IdleBehavior)),
                    signer: Signer::new(NodeKey::derive_suite(cfg.seed, id, cfg.auth_suite)),
                    crashed: false,
                    clock_offset: skew,
                    forward: ForwardPolicy::Forward,
                    rng: SplitMix64::from_parts(&[
                        b"btr-node-rng",
                        &cfg.seed.to_be_bytes(),
                        &id.to_be_bytes(),
                    ]),
                }
            })
            .collect();
        let loss_rng = Xoshiro256StarStar::from_parts(&[b"btr-loss", &cfg.seed.to_be_bytes()]);
        let queue = EventQueue::default();
        World {
            topo,
            cfg,
            nics,
            routing,
            slots,
            queue,
            now: Time::ZERO,
            seq: 0,
            loss_rng,
            scratch: Vec::new(),
            hop_buf: Vec::new(),
            keystore,
            actuations: Vec::new(),
            trace: Vec::new(),
            metrics: SimMetrics::default(),
            started: false,
            truncated: false,
            obs: None,
            obs_scratch: ObsScratch::default(),
            wall_prof: false,
            wall_nested_ns: 0,
        }
    }

    /// Install an out-of-band recorder (histograms, counters, phase
    /// marks). Observation can never flow back into protocol state —
    /// see the field docs — so this is safe to enable on any run.
    pub fn set_recorder(&mut self, r: Box<dyn Recorder>) {
        // Flush staged facts into any outgoing recorder first so a swap
        // never leaks one observation window's counts into the next.
        let _ = self.take_recorder();
        self.obs = Some(r);
        // Size the traffic matrix once, here — every hot-path record
        // after this is an indexed increment, no allocation.
        self.obs_scratch.traffic =
            TrafficMatrix::new(self.topo.node_count(), self.topo.links().len());
    }

    /// Enable or disable wall-clock sampling of the hot-path subsystem
    /// scopes (routing, sign, verify, audit, dispatch, control). Wall
    /// times land in the profile's nanosecond ledger and are reported
    /// only — they never enter the logical trace or any digest, because
    /// they are machine- and load-dependent. Count profiles are always
    /// collected when a recorder is installed; this switch adds timing.
    pub fn set_wall_profiling(&mut self, on: bool) {
        self.wall_prof = on;
    }

    /// Start a wall-sampling scope (None unless wall profiling is on
    /// and a recorder is installed).
    #[inline]
    fn wall_start(&self) -> Option<std::time::Instant> {
        if self.wall_prof && self.obs.is_some() {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Close a leaf wall-sampling scope: charge the subsystem and add
    /// the span to the enclosing scope's nested ledger.
    #[inline]
    fn wall_end(&mut self, s: Subsystem, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.obs_scratch.profile.add_wall(s, ns);
            self.wall_nested_ns = self.wall_nested_ns.saturating_add(ns);
        }
    }

    /// Close an *enclosing* wall-sampling scope (dispatch, control):
    /// charge only the self time — elapsed minus whatever nested leaf
    /// scopes already claimed — so subsystem walls stay disjoint.
    #[inline]
    fn wall_end_exclusive(&mut self, s: Subsystem, t0: Option<std::time::Instant>, nested0: u64) {
        if let Some(t0) = t0 {
            let total = t0.elapsed().as_nanos() as u64;
            let nested = self.wall_nested_ns.saturating_sub(nested0);
            self.obs_scratch
                .profile
                .add_wall(s, total.saturating_sub(nested));
        }
    }

    /// Count one subsystem invocation (no-op without a recorder).
    #[inline]
    fn prof(&mut self, s: Subsystem) {
        if self.obs.is_some() {
            self.obs_scratch.profile.bump(s);
        }
    }

    /// Remove and return the installed recorder (to read its contents
    /// after a run). Staged hot-path facts are flushed into it here.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        let mut r = self.obs.take()?;
        let s = std::mem::take(&mut self.obs_scratch);
        for c in Counter::all() {
            let n = s.counts[c as usize];
            if n > 0 {
                r.count(c, n);
            }
        }
        if s.delivery.count() > 0 {
            r.latencies(Lat::Delivery, &s.delivery);
        }
        if s.timer_lag.count() > 0 {
            r.latencies(Lat::TimerLag, &s.timer_lag);
        }
        if !s.profile.is_empty() {
            r.profile(&s.profile);
        }
        if !s.traffic.is_empty() {
            r.traffic(&s.traffic);
        }
        Some(r)
    }

    /// Install a node's behaviour (before or after start).
    pub fn set_behavior(&mut self, node: NodeId, behavior: Box<dyn NodeBehavior>) {
        self.slots[node.index()].behavior = Some(behavior);
    }

    /// The platform topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shared verification keystore.
    pub fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    /// The authenticator suite this world's signers and keystore use.
    pub fn auth_suite(&self) -> AuthSuite {
        self.cfg.auth_suite
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The system period.
    pub fn period(&self) -> Duration {
        self.cfg.period
    }

    /// Recorded actuations so far.
    pub fn actuations(&self) -> &[Actuation] {
        &self.actuations
    }

    /// The run's canonical logical trace (the cross-substrate
    /// equivalence oracle; see [`crate::trace::LogicalTrace`]).
    pub fn logical_trace(&self) -> crate::trace::LogicalTrace {
        crate::trace::LogicalTrace::from_actuations(&self.actuations)
    }

    /// Aggregate metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// The trace (empty unless `cfg.trace`).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// True if the node has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.slots[node.index()].crashed
    }

    /// True if a run hit the `max_events` cap and stopped dispatching.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Heap bytes resident for routing state — O(n² · diameter) for the
    /// precomputed table, near-linear for the demand-driven row cache.
    /// The scale harness gates this sub-quadratic at n = 1000.
    pub fn routing_resident_bytes(&self) -> usize {
        self.routing.resident_bytes()
    }

    /// The selected routing backend ("precomputed" or "demand").
    pub fn routing_kind(&self) -> &'static str {
        self.routing.kind()
    }

    /// Events currently queued (diagnostics).
    pub fn queued_events(&self) -> usize {
        self.queue.len()
    }

    /// Envelopes parked in the event arena awaiting delivery. Must
    /// track the queued `Deliver` count exactly — a nonzero value after
    /// the queue drains would be an arena leak.
    pub fn envelopes_in_flight(&self) -> usize {
        self.queue.envelopes_in_flight()
    }

    /// Pre-materialise routing state toward the given destinations (the
    /// plan-derived traffic matrix; see `PlanView::route_demand`). A
    /// no-op for the precomputed backend, which is always warm; purely a
    /// latency optimisation for the demand backend — rows are built
    /// deterministically on first use either way.
    pub fn warm_routes<I: IntoIterator<Item = NodeId>>(&mut self, dsts: I) {
        self.routing.warm(dsts);
    }

    /// Borrow a node's behaviour for inspection (None while dispatching).
    pub fn behavior(&self, node: NodeId) -> Option<&dyn crate::NodeBehavior> {
        self.slots[node.index()].behavior.as_deref()
    }

    /// Total guardian-denied bytes for a node across all links.
    pub fn guardian_drops(&self, node: NodeId) -> u64 {
        self.nics.iter().map(|n| n.guardian_drops(node)).sum()
    }

    /// Schedule a control action at an absolute time.
    pub fn schedule_control(&mut self, at: Time, action: ControlAction) {
        self.push(at, Event::Control(action));
    }

    /// Call `on_start` on every behaviour (in node-id order) and mark the
    /// world runnable.
    pub fn start(&mut self) {
        assert!(!self.started, "world already started");
        self.started = true;
        for i in 0..self.slots.len() {
            self.dispatch_start(NodeId(i as u32));
        }
    }

    /// Run until the queue is empty or `t` is reached; time advances to `t`.
    ///
    /// If `cfg.max_events` is set and the run reaches it, dispatching
    /// stops immediately and [`World::truncated`] turns true (the cap is
    /// checked per event, so runs are still bit-deterministic).
    pub fn run_until(&mut self, t: Time) {
        assert!(self.started, "call start() first");
        loop {
            let due = matches!(self.queue.next_at(), Some(at) if at <= t);
            if !due {
                break;
            }
            // Check the cap only when another event would dispatch: a run
            // that *finishes* with exactly `max_events` events was not
            // cut short and must not be flagged.
            if self.cfg.max_events > 0 && self.metrics.events >= self.cfg.max_events {
                self.truncated = true;
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked");
            self.now = at;
            self.metrics.events += 1;
            if self.obs.is_some() {
                self.obs_scratch.counts[Counter::Events as usize] += 1;
                self.obs_scratch.profile.bump(Subsystem::Queue);
            }
            match event {
                Event::Deliver { dst, env } => self.dispatch_message(dst, env),
                Event::Timer { node, timer } => self.dispatch_timer(node, timer),
                Event::Control(action) => self.apply_control(action),
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Run for a span from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now + d;
        self.run_until(t);
    }

    fn push(&mut self, at: Time, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        if self.obs.is_some() {
            self.obs_scratch.profile.bump(Subsystem::Queue);
        }
        self.queue.push(at, seq, event);
    }

    fn apply_control(&mut self, action: ControlAction) {
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Controls as usize] += 1;
            self.obs_scratch.profile.bump(Subsystem::ModeSwitch);
        }
        let t0 = self.wall_start();
        let nested0 = self.wall_nested_ns;
        self.apply_control_inner(action);
        self.wall_end_exclusive(Subsystem::ModeSwitch, t0, nested0);
    }

    fn apply_control_inner(&mut self, action: ControlAction) {
        match action {
            ControlAction::Crash(n) => {
                let slot = &mut self.slots[n.index()];
                if !slot.crashed {
                    slot.crashed = true;
                    slot.forward = ForwardPolicy::DropAll;
                    if self.cfg.trace {
                        self.trace.push(TraceEvent::Crashed {
                            at: self.now,
                            node: n,
                        });
                    }
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.mark(PhaseMark {
                            observer: n,
                            subject: n,
                            phase: Phase::FaultActive,
                            at: self.now,
                        });
                    }
                    self.heal_routes();
                }
            }
            ControlAction::SetForwardPolicy(n, p) => {
                self.slots[n.index()].forward = p;
            }
            ControlAction::ShiftClock(n, d) => {
                self.slots[n.index()].clock_offset += d;
            }
            ControlAction::ReplaceBehavior(n, b) => {
                self.slots[n.index()].behavior = Some(b);
                // A fresh behaviour gets a start callback so it can set
                // up timers.
                self.dispatch_start(n);
            }
        }
    }

    fn dispatch_start(&mut self, node: NodeId) {
        if self.slots[node.index()].crashed {
            return;
        }
        let mut behavior = match self.slots[node.index()].behavior.take() {
            Some(b) => b,
            None => return,
        };
        let mut ctx = NodeCtx::new(self, node);
        behavior.on_start(&mut ctx);
        self.slots[node.index()].behavior.get_or_insert(behavior);
    }

    fn dispatch_message(&mut self, dst: NodeId, env: Envelope) {
        if self.slots[dst.index()].crashed {
            self.metrics.drops_other += 1;
            if self.obs.is_some() {
                // Attribute the drop to the (real, in-range) receiver;
                // env.src is a claim a Byzantine sender controls.
                self.obs_scratch.traffic.record_drop(dst.index());
            }
            if self.cfg.trace {
                self.trace.push(TraceEvent::Dropped {
                    at: self.now,
                    src: env.src,
                    dst,
                    reason: DropReason::ReceiverCrashed,
                });
            }
            return;
        }
        self.metrics.msgs_delivered += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Delivers as usize] += 1;
            self.obs_scratch.profile.bump(Subsystem::Dispatch);
            self.obs_scratch.traffic.record_rx(dst.index());
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Delivered {
                at: self.now,
                src: env.src,
                dst,
                label: env.payload.label(),
            });
        }
        let mut behavior = match self.slots[dst.index()].behavior.take() {
            Some(b) => b,
            None => return,
        };
        let t0 = self.wall_start();
        let nested0 = self.wall_nested_ns;
        let mut ctx = NodeCtx::new(self, dst);
        behavior.on_message(&mut ctx, env);
        self.wall_end_exclusive(Subsystem::Dispatch, t0, nested0);
        self.slots[dst.index()].behavior.get_or_insert(behavior);
    }

    fn dispatch_timer(&mut self, node: NodeId, timer: TimerId) {
        if self.slots[node.index()].crashed {
            return;
        }
        self.metrics.timers += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Timers as usize] += 1;
            self.obs_scratch.profile.bump(Subsystem::Dispatch);
            // Sim timers fire exactly when armed; the lag histogram
            // exists for symmetry with the live substrate, where it
            // measures scheduling-induced dispatch lateness.
            self.obs_scratch.timer_lag.record(0);
        }
        let mut behavior = match self.slots[node.index()].behavior.take() {
            Some(b) => b,
            None => return,
        };
        let t0 = self.wall_start();
        let nested0 = self.wall_nested_ns;
        let mut ctx = NodeCtx::new(self, node);
        behavior.on_timer(&mut ctx, timer);
        self.wall_end_exclusive(Subsystem::Dispatch, t0, nested0);
        self.slots[node.index()].behavior.get_or_insert(behavior);
    }

    /// One transmission-loss roll in `0..1_000_000`, deterministic per
    /// seed: a draw from a xoshiro256** stream seeded once from the seed
    /// digest.
    #[inline]
    fn loss_roll(&mut self) -> u32 {
        self.loss_rng.next_below(1_000_000) as u32
    }

    /// Route and transmit an envelope from `src`. Returns the delivery
    /// time on success (mainly for tests; behaviours ignore it).
    ///
    /// This is the simulator's hottest function: one call per message. It
    /// performs no heap allocation — the route is a
    /// borrow of the routing cache staged into a reusable hop buffer, and
    /// loss sampling is a few arithmetic ops per roll.
    fn transmit(&mut self, src: NodeId, env: Envelope) -> Option<Time> {
        let bytes = env.wire_size();
        let dst = env.dst;
        // The signed/unsigned lane split for the traffic matrix: signed
        // traffic is the expensive lane (sign at the source, verify at
        // sinks), so the shard analyzer wants to see where it flows.
        let signed = env.sig.is_some();
        if self.slots[src.index()].crashed {
            self.record_drop(src, dst, DropReason::SenderCrashed);
            return None;
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Sent {
                at: self.now,
                src,
                dst,
                label: env.payload.label(),
                bytes,
            });
        }
        if src == dst {
            // Loopback: deliver immediately (no network traversal).
            self.metrics.msgs_sent += 1;
            if self.obs.is_some() {
                self.obs_scratch.counts[Counter::Sends as usize] += 1;
                self.obs_scratch.traffic.record_tx(src.index());
            }
            let at = self.now;
            self.push(at, Event::Deliver { dst, env });
            return Some(at);
        }

        // Resolve the route into the reusable hop buffer.
        self.prof(Subsystem::Routing);
        let route_t0 = self.wall_start();
        let mut hops = std::mem::take(&mut self.hop_buf);
        hops.clear();
        match self.routing.path_and_links(src, dst) {
            None => {
                self.hop_buf = hops;
                self.wall_end(Subsystem::Routing, route_t0);
                self.record_drop(src, dst, DropReason::NoRoute);
                return None;
            }
            Some((nodes, links)) => {
                for (i, &link) in links.iter().enumerate() {
                    hops.push((nodes[i], nodes[i + 1], link));
                }
            }
        }

        self.wall_end(Subsystem::Routing, route_t0);

        let delivery = self.transmit_over(&hops, src, dst, bytes, signed);
        self.hop_buf = hops;
        let t = delivery?;
        self.metrics.msgs_sent += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Sends as usize] += 1;
            self.obs_scratch.delivery.record((t - self.now).as_micros());
            self.obs_scratch.traffic.record_tx(src.index());
        }
        self.push(t, Event::Deliver { dst, env });
        Some(t)
    }

    /// Loss-sample and drive a message across its staged hops. Returns
    /// the delivery time, or `None` (with the drop recorded) if any stage
    /// rejects it.
    fn transmit_over(
        &mut self,
        hops: &[(NodeId, NodeId, LinkId)],
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        signed: bool,
    ) -> Option<Time> {
        // Transmission loss, deterministic per seed. With FEC enabled the
        // message is sharded: it survives up to m shard losses and pays a
        // (k+m)/k wire overhead; without FEC a single roll decides.
        let mut bytes = bytes;
        if self.cfg.loss_ppm > 0 {
            match self.cfg.fec {
                None => {
                    if self.loss_roll() < self.cfg.loss_ppm {
                        self.record_drop(src, dst, DropReason::TransmissionLoss);
                        return None;
                    }
                }
                Some((k, m)) => {
                    let k = k.max(1);
                    let mut lost = 0u8;
                    for _ in 0..(k + m) {
                        if self.loss_roll() < self.cfg.loss_ppm {
                            lost += 1;
                        }
                    }
                    if lost > m {
                        self.record_drop(src, dst, DropReason::TransmissionLoss);
                        return None;
                    }
                    bytes = bytes.saturating_mul((k + m) as u32) / k as u32;
                }
            }
        }
        let mut t = self.now;
        for &(a, _b, link) in hops {
            // Relay policy applies to intermediate hops only.
            if a != src {
                let slot = &self.slots[a.index()];
                if slot.crashed || slot.forward.refuses(dst) {
                    self.metrics.drops_forward += 1;
                    if self.obs.is_some() {
                        self.obs_scratch.traffic.record_drop(src.index());
                    }
                    if self.cfg.trace {
                        self.trace.push(TraceEvent::Dropped {
                            at: t,
                            src,
                            dst,
                            reason: DropReason::ForwardRefused(a),
                        });
                    }
                    return None;
                }
            }
            match self.nics[link.index()].send(t, a, bytes) {
                Ok(arrival) => t = arrival,
                Err(SendError::AllocationExhausted) => {
                    self.metrics.drops_guardian += 1;
                    if self.obs.is_some() {
                        self.obs_scratch.traffic.record_drop(src.index());
                    }
                    if self.cfg.trace {
                        self.trace.push(TraceEvent::Dropped {
                            at: t,
                            src,
                            dst,
                            reason: DropReason::GuardianDenied,
                        });
                    }
                    return None;
                }
                Err(SendError::NotAttached) => {
                    unreachable!("path hop not attached to its link")
                }
            }
            self.metrics.bytes_sent += bytes as u64;
            if self.obs.is_some() {
                self.obs_scratch
                    .traffic
                    .record_link(link.index(), bytes as u64, signed);
            }
        }
        Some(t)
    }

    /// Recompute routes around every crashed node. A dead node on a
    /// point-to-point link loses carrier, so its neighbours deterministically
    /// stop relaying through it; traffic *addressed* to it still routes and
    /// is dropped at the receiver (same attribution as before). On a bus
    /// (single shared link) this is a no-op, so crash-free runs and
    /// single-hop platforms are bit-identical to the pre-heal behaviour.
    ///
    /// Cost is backend-dependent: the precomputed table rebuilds all
    /// pairs (O(n² · diameter)); the demand backend just installs the new
    /// avoid set and drops its cached rows, re-materialising on demand.
    fn heal_routes(&mut self) {
        let crashed: BTreeSet<NodeId> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.crashed)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        self.routing.recompute(&self.topo, &crashed, true);
    }

    fn record_drop(&mut self, src: NodeId, dst: NodeId, reason: DropReason) {
        match reason {
            DropReason::GuardianDenied => self.metrics.drops_guardian += 1,
            DropReason::ForwardRefused(_) => self.metrics.drops_forward += 1,
            _ => self.metrics.drops_other += 1,
        }
        if self.obs.is_some() {
            self.obs_scratch.traffic.record_drop(src.index());
        }
        if self.cfg.trace {
            self.trace.push(TraceEvent::Dropped {
                at: self.now,
                src,
                dst,
                reason,
            });
        }
    }
}

/// The substrate a [`NodeCtx`] acts on.
///
/// Node behaviours never touch this trait directly — they see the
/// concrete `NodeCtx` wrapper, whose API is identical whether the
/// backend is the discrete-event [`World`] or a live thread-per-node
/// actor (`btr-node`). That is what makes the simulator usable as a
/// trace oracle for the live runtime: the *same* protocol code runs on
/// both substrates, and only the event transport underneath differs.
///
/// Methods take the acting node explicitly; the backend enforces key
/// secrecy by construction because `signer(node)` is only ever called
/// with the id the dispatcher bound into the `NodeCtx`.
pub trait CtxBackend {
    /// Global time (simulation time, or the live runtime's logical clock).
    fn now(&self) -> Time;
    /// The node's local clock reading (global time + bounded skew).
    fn local_now(&self, node: NodeId) -> Time;
    /// The system period.
    fn period(&self) -> Duration;
    /// The node's own signer.
    fn signer(&self, node: NodeId) -> &Signer;
    /// The shared verification keystore.
    fn keystore(&self) -> &KeyStore;
    /// Sign a payload as `src` and transmit it to `dst`.
    fn send(&mut self, src: NodeId, dst: NodeId, payload: Payload);
    /// Transmit a pre-built envelope, charging `src`'s allocation.
    fn send_env(&mut self, src: NodeId, env: Envelope);
    /// Verify an envelope signature (scratch-buffer reuse inside).
    fn verify_env(&mut self, env: &Envelope) -> Result<(), SigError>;
    /// Verify a signed task output (scratch-buffer reuse inside).
    fn verify_output(&mut self, output: &SignedOutput) -> Result<(), EvidenceFlaw>;
    /// Arm a timer for `node` at an absolute global time.
    fn set_timer_at(&mut self, node: NodeId, at: Time, timer: TimerId);
    /// Record a sink actuation by `node`.
    fn actuate(&mut self, node: NodeId, task: TaskId, period: PeriodIdx, value: Value);
    /// Fail-stop `node` immediately.
    fn crash_self(&mut self, node: NodeId);
    /// Advance `node`'s deterministic pseudo-random stream.
    fn rng_u64(&mut self, node: NodeId) -> u64;
    /// Observe a recovery-phase boundary (out-of-band).
    ///
    /// Defaults to a no-op so backends without an observability layer
    /// pay nothing. Implementations must treat the mark as write-only
    /// telemetry: nothing about it may flow back into protocol state,
    /// timing, or RNG streams — that is what keeps obs-on and obs-off
    /// runs bit-identical.
    fn observe(&mut self, _mark: PhaseMark) {}
}

impl CtxBackend for World {
    fn now(&self) -> Time {
        self.now
    }

    fn local_now(&self, node: NodeId) -> Time {
        let t = self.now.as_micros() as i64 + self.slots[node.index()].clock_offset;
        Time(t.max(0) as u64)
    }

    fn period(&self) -> Duration {
        self.cfg.period
    }

    fn signer(&self, node: NodeId) -> &Signer {
        &self.slots[node.index()].signer
    }

    fn keystore(&self) -> &KeyStore {
        &self.keystore
    }

    fn send(&mut self, src: NodeId, dst: NodeId, payload: Payload) {
        self.prof(Subsystem::CryptoSign);
        let t0 = self.wall_start();
        let env = Envelope::new(src, dst, self.local_now(src), payload);
        // Write the canonical signing bytes into the world's scratch
        // buffer; steady-state sends perform no heap allocation.
        let mut scratch = std::mem::take(&mut self.scratch);
        let env = env.signed_with(&self.slots[src.index()].signer, &mut scratch);
        self.scratch = scratch;
        self.wall_end(Subsystem::CryptoSign, t0);
        self.transmit(src, env);
    }

    fn send_env(&mut self, src: NodeId, env: Envelope) {
        self.transmit(src, env);
    }

    fn verify_env(&mut self, env: &Envelope) -> Result<(), SigError> {
        self.prof(Subsystem::CryptoVerify);
        let t0 = self.wall_start();
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = env.verify_with(&self.keystore, &mut scratch);
        self.scratch = scratch;
        self.wall_end(Subsystem::CryptoVerify, t0);
        r
    }

    fn verify_output(&mut self, output: &SignedOutput) -> Result<(), EvidenceFlaw> {
        self.prof(Subsystem::Audit);
        let t0 = self.wall_start();
        let mut scratch = std::mem::take(&mut self.scratch);
        let r = output.verify_with(&self.keystore, &mut scratch);
        self.scratch = scratch;
        self.wall_end(Subsystem::Audit, t0);
        r
    }

    fn set_timer_at(&mut self, node: NodeId, at: Time, timer: TimerId) {
        let at = at.max(self.now);
        self.push(at, Event::Timer { node, timer });
    }

    fn actuate(&mut self, node: NodeId, task: TaskId, period: PeriodIdx, value: Value) {
        self.metrics.actuations += 1;
        if self.obs.is_some() {
            self.obs_scratch.counts[Counter::Actuations as usize] += 1;
        }
        let a = Actuation {
            at: self.now,
            node,
            task,
            period,
            value,
        };
        self.actuations.push(a);
        if self.cfg.trace {
            self.trace.push(TraceEvent::Actuated {
                at: a.at,
                node: a.node,
                task: a.task,
                period: a.period,
                value: a.value,
            });
        }
    }

    fn crash_self(&mut self, node: NodeId) {
        self.prof(Subsystem::ModeSwitch);
        let t0 = self.wall_start();
        let slot = &mut self.slots[node.index()];
        slot.crashed = true;
        slot.forward = ForwardPolicy::DropAll;
        if self.cfg.trace {
            self.trace.push(TraceEvent::Crashed { at: self.now, node });
        }
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.mark(PhaseMark {
                observer: node,
                subject: node,
                phase: Phase::FaultActive,
                at: self.now,
            });
        }
        self.heal_routes();
        self.wall_end(Subsystem::ModeSwitch, t0);
    }

    fn observe(&mut self, mark: PhaseMark) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.mark(mark);
        }
    }

    fn rng_u64(&mut self, node: NodeId) -> u64 {
        self.slots[node.index()].rng.next_u64()
    }
}

/// The API a node behaviour uses to act on the world.
///
/// A thin, substrate-agnostic view over a [`CtxBackend`]: the simulator
/// and the live runtime construct one per dispatch, and behaviours are
/// oblivious to which is underneath.
pub struct NodeCtx<'w> {
    backend: &'w mut dyn CtxBackend,
    node: NodeId,
}

impl<'w> NodeCtx<'w> {
    /// Bind a context for `node` over a backend (used by dispatchers,
    /// not behaviours).
    pub fn new(backend: &'w mut dyn CtxBackend, node: NodeId) -> NodeCtx<'w> {
        NodeCtx { backend, node }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Global simulation time. (The paper assumes synchronised clocks;
    /// use [`NodeCtx::local_now`] for the node's skewed local view.)
    pub fn now(&self) -> Time {
        self.backend.now()
    }

    /// The node's local clock reading (global time + bounded skew).
    pub fn local_now(&self) -> Time {
        self.backend.local_now(self.node)
    }

    /// The system period.
    pub fn period(&self) -> Duration {
        self.backend.period()
    }

    /// This node's signer. Only the owning node can reach its signer —
    /// the simulator-enforced key secrecy that makes evidence sound.
    pub fn signer(&self) -> &Signer {
        self.backend.signer(self.node)
    }

    /// The shared verification keystore.
    pub fn keystore(&self) -> &KeyStore {
        self.backend.keystore()
    }

    /// Sign and send a payload to `dst`.
    pub fn send(&mut self, dst: NodeId, payload: Payload) {
        self.backend.send(self.node, dst, payload);
    }

    /// Verify an envelope signature using the backend's reusable scratch
    /// buffer (equivalent to `env.verify(ctx.keystore())`, without the
    /// per-call allocation).
    pub fn verify_env(&mut self, env: &Envelope) -> Result<(), SigError> {
        self.backend.verify_env(env)
    }

    /// Verify a signed task output using the backend's reusable scratch
    /// buffer (equivalent to `output.verify(ctx.keystore())`).
    pub fn verify_output(&mut self, output: &SignedOutput) -> Result<(), EvidenceFlaw> {
        self.backend.verify_output(output)
    }

    /// Send an arbitrary envelope (Byzantine behaviours use this to spoof
    /// headers or send unsigned traffic). The network still charges the
    /// *actual* sender's bandwidth allocation.
    pub fn send_env(&mut self, env: Envelope) {
        self.backend.send_env(self.node, env);
    }

    /// Set a timer to fire after `delay` (global time base).
    pub fn set_timer(&mut self, delay: Duration, timer: TimerId) {
        let at = self.backend.now() + delay;
        self.backend.set_timer_at(self.node, at, timer);
    }

    /// Set a timer to fire at an absolute global time (clamped to now).
    pub fn set_timer_at(&mut self, at: Time, timer: TimerId) {
        self.backend.set_timer_at(self.node, at, timer);
    }

    /// Record a sink actuation (an output to the physical world).
    pub fn actuate(&mut self, task: TaskId, period: PeriodIdx, value: Value) {
        self.backend.actuate(self.node, task, period, value);
    }

    /// Fail-stop this node immediately.
    pub fn crash_self(&mut self) {
        self.backend.crash_self(self.node);
    }

    /// A deterministic per-node pseudo-random stream.
    ///
    /// Distinct per node and per seed: a SplitMix64 stream seeded once
    /// per node.
    pub fn rng_u64(&mut self) -> u64 {
        self.backend.rng_u64(self.node)
    }

    /// Observe a recovery-phase boundary concerning `subject`, as seen
    /// by this node at the current global time. Write-only telemetry:
    /// a no-op unless the backend has a recorder installed, and inert
    /// with respect to protocol state either way.
    pub fn observe(&mut self, phase: Phase, subject: NodeId) {
        let at = self.backend.now();
        self.backend.observe(PhaseMark {
            observer: self.node,
            subject,
            phase,
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_model::Payload;

    /// Echoes every control message back to its (claimed) source.
    struct Echo;
    impl NodeBehavior for Echo {
        fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            if let Payload::Control(tag) = env.payload {
                if tag < 10 {
                    ctx.send(env.src, Payload::Control(tag + 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _t: TimerId) {}
    }

    /// Sends one message to node 1 at start, records deliveries.
    struct Starter {
        sent: bool,
    }
    impl NodeBehavior for Starter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if !self.sent {
                ctx.send(NodeId(1), Payload::Control(0));
                self.sent = true;
            }
        }
        fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
            if let Payload::Control(tag) = env.payload {
                if tag < 10 {
                    ctx.send(env.src, Payload::Control(tag + 1));
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _t: TimerId) {}
    }

    fn world(n: usize) -> World {
        let topo = Topology::bus(n, 10_000, Duration(10));
        let mut cfg = SimConfig::new(1);
        cfg.trace = true;
        World::new(topo, cfg)
    }

    #[test]
    fn ping_pong_until_ttl() {
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Echo));
        w.start();
        w.run_until(Time::from_millis(100));
        // Tags 0..=10 = 11 messages.
        assert_eq!(w.metrics().msgs_sent, 11);
        assert_eq!(w.metrics().msgs_delivered, 11);
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            let mut w = world(4);
            w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
            w.set_behavior(NodeId(1), Box::new(Echo));
            w.start();
            w.run_until(Time::from_millis(50));
            (*w.metrics(), w.trace().to_vec())
        };
        let (m1, t1) = run();
        let (m2, t2) = run();
        assert_eq!(m1, m2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn crash_stops_node() {
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Echo));
        w.schedule_control(Time(0), ControlAction::Crash(NodeId(1)));
        w.start();
        w.run_until(Time::from_millis(10));
        // The starter's message is dropped at the crashed receiver.
        assert_eq!(w.metrics().msgs_delivered, 0);
        assert!(w.is_crashed(NodeId(1)));
        assert!(w.trace().iter().any(|e| matches!(
            e,
            TraceEvent::Dropped {
                reason: DropReason::ReceiverCrashed,
                ..
            }
        )));
    }

    #[test]
    fn relay_refusal_drops_multihop() {
        // Line topology 0-1-2: node 1 refuses to forward.
        let mut b = btr_model::TopologyBuilder::new();
        let n0 = b.full_node();
        let n1 = b.full_node();
        let n2 = b.full_node();
        b.link(&[n0, n1], 10_000, Duration(5));
        b.link(&[n1, n2], 10_000, Duration(5));
        let mut cfg = SimConfig::new(2);
        cfg.trace = true;
        let mut w = World::new(b.build().unwrap(), cfg);

        struct SendTo2;
        impl NodeBehavior for SendTo2 {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.send(NodeId(2), Payload::Control(0));
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        w.set_behavior(NodeId(0), Box::new(SendTo2));
        w.schedule_control(
            Time(0),
            ControlAction::SetForwardPolicy(NodeId(1), ForwardPolicy::DropAll),
        );
        w.start();
        // Control action at t=0 runs before... actually start() dispatches
        // on_start synchronously first, so the first message may pass.
        w.run_until(Time::from_millis(20));
        // Send again after the policy change.
        struct Again;
        impl NodeBehavior for Again {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.send(NodeId(2), Payload::Control(1));
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        w.schedule_control(
            Time::from_millis(21),
            ControlAction::ReplaceBehavior(NodeId(0), Box::new(Again)),
        );
        w.run_until(Time::from_millis(40));
        assert!(w.metrics().drops_forward >= 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerChain {
            fired: Vec<TimerId>,
        }
        impl NodeBehavior for TimerChain {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration(300), 3);
                ctx.set_timer(Duration(100), 1);
                ctx.set_timer(Duration(200), 2);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, t: TimerId) {
                self.fired.push(t);
                if t == 1 {
                    ctx.actuate(TaskId(0), 0, t);
                }
            }
        }
        let mut w = world(1);
        w.set_behavior(NodeId(0), Box::new(TimerChain { fired: vec![] }));
        w.start();
        w.run_until(Time::from_millis(1));
        assert_eq!(w.metrics().timers, 3);
        assert_eq!(w.actuations().len(), 1);
        assert_eq!(w.actuations()[0].value, 1);
    }

    #[test]
    fn local_clock_skew_is_bounded() {
        let topo = Topology::bus(8, 10_000, Duration(10));
        let mut cfg = SimConfig::new(3);
        cfg.max_clock_skew = Duration(50);
        let w = World::new(topo, cfg);
        for i in 0..8 {
            let off = w.slots[i].clock_offset;
            assert!(off.abs() <= 50, "node {i} skew {off}");
        }
    }

    #[test]
    fn signed_send_verifies_at_receiver() {
        struct Verify {
            ok: bool,
        }
        impl NodeBehavior for Verify {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                self.ok = env.verify(ctx.keystore()).is_ok();
                ctx.actuate(TaskId(9), 0, self.ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let mut w = world(2);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Verify { ok: false }));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 1, "signature must verify");
    }

    #[test]
    fn siphash_suite_signs_and_verifies_end_to_end() {
        struct Verify;
        impl NodeBehavior for Verify {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                let ok = ctx.verify_env(&env).is_ok();
                ctx.actuate(TaskId(9), 0, ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let topo = Topology::bus(2, 10_000, Duration(10));
        let mut cfg = SimConfig::new(1);
        cfg.auth_suite = AuthSuite::SipHash24;
        let mut w = World::new(topo, cfg);
        assert_eq!(w.auth_suite(), AuthSuite::SipHash24);
        assert_eq!(w.keystore().suite(), AuthSuite::SipHash24);
        w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
        w.set_behavior(NodeId(1), Box::new(Verify));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 1, "sip tag must verify");
    }

    #[test]
    fn spoofed_envelope_fails_verification() {
        struct Spoof;
        impl NodeBehavior for Spoof {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                // Claim to be node 2 without node 2's key.
                let env = Envelope::new(NodeId(2), NodeId(1), ctx.now(), Payload::Control(9));
                ctx.send_env(env);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        struct Check;
        impl NodeBehavior for Check {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, env: Envelope) {
                let ok = env.verify(ctx.keystore()).is_ok();
                ctx.actuate(TaskId(0), 0, ok as u64);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let mut w = world(3);
        w.set_behavior(NodeId(0), Box::new(Spoof));
        w.set_behavior(NodeId(1), Box::new(Check));
        w.start();
        w.run_until(Time::from_millis(10));
        assert_eq!(w.actuations()[0].value, 0, "spoof must fail verification");
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut w = world(1);
        w.start();
        w.run_until(Time::from_millis(123));
        assert_eq!(w.now(), Time::from_millis(123));
        w.run_for(Duration::from_millis(7));
        assert_eq!(w.now(), Time::from_millis(130));
    }

    #[test]
    fn clock_shift_control_action() {
        struct ReadClock;
        impl NodeBehavior for ReadClock {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                let local = ctx.local_now();
                ctx.actuate(TaskId(0), 0, local.as_micros());
            }
        }
        let mut w = world(1);
        w.set_behavior(NodeId(0), Box::new(ReadClock));
        let base_off = w.slots[0].clock_offset;
        w.schedule_control(Time(0), ControlAction::ShiftClock(NodeId(0), 5_000));
        w.start();
        // Fire a timer at 10 ms to read the clock.
        struct Arm;
        impl NodeBehavior for Arm {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(10), 0);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.actuate(TaskId(0), 0, ctx.local_now().as_micros());
            }
        }
        w.schedule_control(
            Time(0),
            ControlAction::ReplaceBehavior(NodeId(0), Box::new(Arm)),
        );
        w.run_until(Time::from_millis(20));
        let v = w.actuations()[0].value as i64;
        assert_eq!(v, 10_000 + base_off + 5_000);
    }

    #[test]
    fn fec_masks_heavy_shard_loss() {
        // 5% per-shard loss: unprotected messages drop ~5%; FEC(4,2)
        // messages survive unless 3+ of 6 shards die (~0.2%).
        struct Blaster;
        impl NodeBehavior for Blaster {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..500u64 {
                    ctx.set_timer(Duration(i * 10), i);
                }
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.send(NodeId(1), Payload::Control(1));
            }
        }
        let run = |fec: Option<(u8, u8)>| -> (u64, u64) {
            let topo = Topology::bus(2, 1_000_000, Duration(1));
            let mut cfg = SimConfig::new(5);
            cfg.loss_ppm = 50_000;
            cfg.fec = fec;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(Blaster));
            w.start();
            w.run_until(Time::from_millis(50));
            (w.metrics().msgs_delivered, w.metrics().drops_other)
        };
        let (plain_ok, plain_drop) = run(None);
        let (fec_ok, fec_drop) = run(Some((4, 2)));
        assert!(plain_drop >= 10, "expected visible loss, got {plain_drop}");
        assert!(
            fec_drop * 5 < plain_drop,
            "FEC should mask most losses: {fec_drop} vs {plain_drop}"
        );
        assert!(fec_ok > plain_ok);
    }

    #[test]
    fn fec_charges_wire_overhead() {
        struct One;
        impl NodeBehavior for One {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.send(NodeId(1), Payload::Control(1));
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let bytes_with = |fec: Option<(u8, u8)>| -> u64 {
            let topo = Topology::bus(2, 1_000_000, Duration(1));
            let mut cfg = SimConfig::new(6);
            cfg.loss_ppm = 1; // Enable the loss path without real losses.
            cfg.fec = fec;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(One));
            w.start();
            w.run_until(Time::from_millis(5));
            w.metrics().bytes_sent
        };
        let plain = bytes_with(None);
        let fec = bytes_with(Some((4, 2)));
        // (4+2)/4 = 1.5x overhead.
        assert_eq!(fec, plain * 6 / 4);
    }

    #[test]
    fn max_events_cap_truncates_deterministically() {
        let run = |cap: u64| {
            let topo = Topology::bus(2, 10_000, Duration(10));
            let mut cfg = SimConfig::new(1);
            cfg.max_events = cap;
            let mut w = World::new(topo, cfg);
            w.set_behavior(NodeId(0), Box::new(Starter { sent: false }));
            w.set_behavior(NodeId(1), Box::new(Echo));
            w.start();
            w.run_until(Time::from_millis(100));
            (
                w.truncated(),
                w.metrics().events,
                w.metrics().msgs_delivered,
            )
        };
        let (full_trunc, full_events, full_msgs) = run(0);
        assert!(!full_trunc);
        assert_eq!(full_msgs, 11);
        let cap = full_events / 2;
        let (t1, e1, m1) = run(cap);
        let (t2, e2, m2) = run(cap);
        assert!(t1, "capped run must report truncation");
        assert_eq!(e1, cap);
        assert!(m1 < full_msgs);
        assert_eq!((t1, e1, m1), (t2, e2, m2), "truncation is deterministic");
        // A run that completes using exactly the cap was not cut short.
        let (t3, e3, m3) = run(full_events);
        assert!(!t3, "exact-cap completion must not be flagged");
        assert_eq!((e3, m3), (full_events, full_msgs));
    }

    #[test]
    fn crash_heals_multi_hop_routes() {
        // Ring of 4: 0 -> 2 normally relays through 1 (lowest-id tie
        // break). After 1 crashes, the route heals via 3 and deliveries
        // keep flowing; without healing the relay would drop everything.
        struct Periodic;
        impl NodeBehavior for Periodic {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(Duration::from_millis(1), 0);
            }
            fn on_message(&mut self, _c: &mut NodeCtx<'_>, _e: Envelope) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _t: TimerId) {
                ctx.send(NodeId(2), Payload::Control(1));
                ctx.set_timer(Duration::from_millis(1), 0);
            }
        }
        struct Count;
        impl NodeBehavior for Count {
            fn on_start(&mut self, _c: &mut NodeCtx<'_>) {}
            fn on_message(&mut self, ctx: &mut NodeCtx<'_>, _e: Envelope) {
                ctx.actuate(TaskId(0), 0, 1);
            }
            fn on_timer(&mut self, _c: &mut NodeCtx<'_>, _t: TimerId) {}
        }
        let topo = Topology::ring(4, 10_000, Duration(5));
        let mut w = World::new(topo, SimConfig::new(4));
        w.set_behavior(NodeId(0), Box::new(Periodic));
        w.set_behavior(NodeId(2), Box::new(Count));
        w.schedule_control(Time::from_millis(10), ControlAction::Crash(NodeId(1)));
        w.start();
        w.run_until(Time::from_millis(30));
        // ~29 sends, all delivered (loss-free): the post-crash sends heal
        // through node 3 instead of being refused by the dead relay.
        let delivered = w.actuations().len() as u64;
        assert!(delivered >= 28, "only {delivered} deliveries");
        assert_eq!(w.metrics().drops_forward, 0, "dead relay refused traffic");
    }

    #[test]
    fn rng_streams_are_deterministic_and_distinct() {
        let mut w = world(2);
        w.start();
        let mut ctx0 = NodeCtx::new(&mut w, NodeId(0));
        let a1 = ctx0.rng_u64();
        let a2 = ctx0.rng_u64();
        assert_ne!(a1, a2);
        let mut ctx1 = NodeCtx::new(&mut w, NodeId(1));
        let b1 = ctx1.rng_u64();
        assert_ne!(a1, b1);
    }
}
