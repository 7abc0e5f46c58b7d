//! `torus1000`: synthetic traffic on a 25×40 torus, no protocol on top.
//! Every period each node sends three unsigned envelopes (strides 7, 13
//! and n/2, the antipode) plus one signed heartbeat to its successor.
//! Shards are lost at 20 000 ppm under FEC(4,2); one relay crashes
//! mid-run and the link layer heals routes around it.

use crate::layers::{take_obs, Layers};
use crate::ledger::{self, LedgerInput};
use crate::report::{Outcome, Timings};
use crate::trace::Tracer;
use crate::{alloc_count, mix, Passes};
use btr_model::{Duration, Envelope, NodeId, Payload, Time};
use btr_obs::ObsRecorder;
use btr_sim::{ControlAction, NodeBehavior, NodeCtx, SimConfig, TimerId, World};
use std::time::Instant;

const ROWS: usize = 25;
const COLS: usize = 40;
const N: usize = ROWS * COLS;
/// Traffic periods per world (about a million deliveries).
const PERIODS: u64 = 250;
const LOSS_PPM: u32 = 20_000;
const FEC: (u8, u8) = (4, 2);
/// Link rate, bytes per ms (1 MB/ms).
const LINK_RATE: u32 = 1_000_000;
/// Routing residency ceiling (64 MiB): the demand backend must stay far
/// below the all-pairs table's quadratic size.
const ROUTING_BUDGET: usize = 64 << 20;
/// Untraced/traced world pairs in a traced run.
const TRACED_PAIRS: u32 = 3;

struct Traffic {
    period: Duration,
    fired: u64,
}

impl NodeBehavior for Traffic {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let n = N as u32;
        for stride in [7u32, 13, n / 2] {
            let env = Envelope::new(
                ctx.id(),
                NodeId((me + stride) % n),
                ctx.local_now(),
                Payload::Control((stride % 251) as u8),
            );
            ctx.send_env(env);
        }
        ctx.send(
            NodeId((me + 1) % n),
            Payload::Heartbeat { period: self.fired },
        );
        self.fired += 1;
        if self.fired < PERIODS {
            ctx.set_timer(self.period, 0);
        }
    }
}

fn topology() -> btr_model::Topology {
    btr_topo::torus(ROWS, COLS, LINK_RATE, Duration(5)).expect("25x40 is a valid torus")
}

/// Build the world (the set-up): the simulator seed and the crashed
/// relay come from the workload seed.
fn build(seed: u64) -> World {
    let mut cfg = SimConfig::new(mix(seed));
    cfg.loss_ppm = LOSS_PPM;
    cfg.fec = Some(FEC);
    let mut w = World::new(topology(), cfg);
    for i in 0..N as u32 {
        let period = w.period();
        w.set_behavior(NodeId(i), Box::new(Traffic { period, fired: 0 }));
    }
    let relay = NodeId((mix(seed ^ 1) % N as u64) as u32);
    let mid = Time(PERIODS / 2 * w.period().as_micros());
    w.schedule_control(mid, ControlAction::Crash(relay));
    w
}

fn horizon(w: &World) -> Time {
    Time(PERIODS * w.period().as_micros() + 1_000_000)
}

/// Per-world checks: no truncation, the queue drained, routes healed,
/// residency within budget.
fn world_ok(w: &World) -> (bool, String) {
    let m = w.metrics();
    let mut why = Vec::new();
    if w.truncated() {
        why.push("truncated".to_string());
    }
    if w.envelopes_in_flight() != 0 {
        why.push(format!("{} envelopes in flight", w.envelopes_in_flight()));
    }
    if m.drops_forward != 0 {
        why.push(format!("{} relay refusals", m.drops_forward));
    }
    if w.routing_resident_bytes() > ROUTING_BUDGET {
        why.push(format!("routing {} bytes", w.routing_resident_bytes()));
    }
    if m.msgs_delivered == 0 {
        why.push("nothing delivered".to_string());
    }
    (why.is_empty(), why.join(", "))
}

/// Timed runs, tracing off: the end-to-end metrics.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let mut first = None;
    let mut problems = Vec::new();
    let mut passes = Passes::new(seconds);
    while passes.more() {
        let t0 = Instant::now();
        let mut w = build(seed);
        t.setup_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        w.start();
        let end = horizon(&w);
        w.run_until(end);
        let wall = t0.elapsed().as_secs_f64();
        passes.done(wall);
        let m = *w.metrics();
        t.run(0, wall);
        t.round(1, wall, w.now().as_micros() as f64 / 1e6, m.msgs_delivered);
        let (ok, why) = world_ok(&w);
        if !ok {
            problems.push(why);
        }
        out.run(ok && *first.get_or_insert(m) == m);
    }
    t.report(&mut out);
    clean_check(&mut out, &problems);
    out
}

fn clean_check(out: &mut Outcome, problems: &[String]) {
    out.check(
        "worlds_clean",
        problems.is_empty(),
        if problems.is_empty() {
            "no truncation, queue drained, routes healed, residency <= 64 MiB".into()
        } else {
            problems.join("; ")
        },
    );
}

/// Untraced and traced worlds in pairs, one wall-profiled world and the
/// unit-cost ledger: the per-layer metrics.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // Alternating the two keeps slow drift on the machine out of the
    // tracing overhead.
    let mut problems = Vec::new();
    let mut first = None;
    for pair in 0..TRACED_PAIRS {
        let mut a = build(seed);
        let end = horizon(&a);
        let t0 = Instant::now();
        a.start();
        a.run_until(end);
        layers.untraced_s += t0.elapsed().as_secs_f64();
        let untraced = *a.metrics();
        drop(a);

        tracer.set_run(pair + 1);
        let allocs0 = alloc_count();
        let run = tracer.enter("torus.run");
        let mut b = tracer.span("sim.build_world", || build(seed));
        b.set_recorder(Box::new(ObsRecorder::new()));
        let t0 = Instant::now();
        tracer.span("sim.run", || {
            b.start();
            b.run_until(end);
        });
        layers.traced_s += t0.elapsed().as_secs_f64();
        tracer.exit(run);
        layers.allocs += alloc_count() - allocs0;
        layers.absorb_world(&take_obs(&mut b), b.metrics());
        layers.routing_resident_bytes = b.routing_resident_bytes();
        let (ok, why) = world_ok(&b);
        if !ok {
            problems.push(why);
        }
        let m = *b.metrics();
        out.run(ok && m == untraced && *first.get_or_insert(m) == m);
    }
    layers.absorb_spans(tracer);
    clean_check(&mut out, &problems);

    let mut c = build(seed);
    c.set_recorder(Box::new(ObsRecorder::new()));
    c.set_wall_profiling(true);
    let end = horizon(&c);
    let t0 = Instant::now();
    c.start();
    c.run_until(end);
    layers.wall_total_ns = t0.elapsed().as_nanos() as u64;
    layers.wall_profile = take_obs(&mut c).subsystem_profile().clone();
    drop(c);

    let n = N as u32;
    let pairs = (0..n)
        .flat_map(|i| {
            [7, 13, n / 2, 1]
                .into_iter()
                .map(move |s| (NodeId(i), NodeId((i + s) % n)))
        })
        .collect();
    layers.units = ledger::measure(&LedgerInput {
        msg_bytes: layers.mean_msg_bytes((FEC.0 + FEC.1) as f64 / FEC.0 as f64),
        routes: vec![(topology(), pairs)],
    });
    layers.report(&mut out);
    out
}
