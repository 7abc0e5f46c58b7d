//! `fleet`: the default nine-cell campaign grid, as a verification
//! engineer runs it. 9 cells × 6 schedules × 2 simulator seeds = 108
//! full-protocol runs per pass, one after another on one thread.
//!
//! The schedules are drawn at campaign seed 42, the seed of the committed
//! campaign report; the workload seed picks the simulator seeds. Drawing
//! the schedules from the workload seed too would change the run mix, and
//! with it runs per second, by more than this benchmark's bounds.

use crate::judged::{traced_run, wall_profiled_run};
use crate::layers::{Layers, Protocol};
use crate::ledger::{self, LedgerInput};
use crate::report::{Outcome, Timings};
use crate::trace::Tracer;
use crate::{alloc_count, Passes};
use btr_campaign::report::runs_digest;
use btr_campaign::runner::{self, PlannedCell};
use btr_campaign::{schedule, verdict, CampaignConfig, RunRecord};
use btr_core::RunReport;
use std::time::Instant;

/// Runs per pass (the campaign splits them evenly over the cells).
pub const RUNS: usize = 108;
/// Set-ups per benchmark run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Campaign seed the schedules are drawn at.
const SCHEDULE_SEED: u64 = 42;

/// The campaign configuration; its seed picks the simulator seeds.
fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed, RUNS, 1)
}

/// The run grid in the campaign's own order: (cell, schedule, seed slot).
fn grid(cfg: &CampaignConfig, cells: &[PlannedCell]) -> Vec<(u16, u32, u32)> {
    let mut specs = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        for s in 0..cell.schedules.len() as u32 {
            for k in 0..cfg.sim_seeds.max(1) {
                specs.push((c as u16, s, k));
            }
        }
    }
    specs
}

/// Score a report into the campaign's run record, field for field as
/// `runner::execute_run` builds it.
fn record(
    cfg: &CampaignConfig,
    cell: &PlannedCell,
    run_idx: u32,
    (c, s, k): (u16, u32, u32),
    report: &RunReport,
    violations: Vec<verdict::Violation>,
) -> RunRecord {
    let sched = &cell.schedules[s as usize];
    let recovery_us = report.recovery.bad_window().as_micros();
    let faults = &sched.scenario.faults;
    let budget_us = match (
        faults.iter().map(|f| f.at).min(),
        faults.iter().map(|f| f.at).max(),
    ) {
        (Some(first), Some(last)) => (last - first).as_micros() + cell.spec.r_bound.as_micros(),
        _ => cell.spec.r_bound.as_micros(),
    };
    let stats = || report.node_stats.iter();
    RunRecord {
        run_idx,
        cell_idx: c,
        schedule_id: s,
        sim_seed: runner::sim_seed(cfg.seed, k),
        label: sched.label(),
        n_faults: faults.len() as u8,
        admissible: sched.budget() <= cell.spec.f as usize,
        recovery_us,
        slack_us: budget_us as i64 - recovery_us as i64,
        bad_outputs: report.recovery.bad_outputs as u32,
        total_outputs: report.recovery.total_outputs as u32,
        converged: report.converged,
        near_misses: stats().map(|(_, s, _, _)| s.near_miss_accusations).sum(),
        suppressed: stats().map(|(_, s, _, _)| s.suppressed_declarations).sum(),
        convictions: stats().map(|(_, _, _, fs)| *fs as u32).max().unwrap_or(0),
        violations,
    }
}

/// A run fails on an admissible violation, truncation or divergence.
fn run_ok(r: &RunRecord) -> bool {
    (!r.admissible || r.violations.is_empty())
        && !r.violations.iter().any(|v| v.kind() == "truncated")
        && r.converged
}

fn add_protocol(p: &mut Protocol, r: &RunRecord) {
    p.add(
        r.n_faults > 0,
        r.recovery_us,
        r.slack_us,
        r.bad_outputs as u64,
        r.total_outputs as u64,
    );
}

/// Timed runs, tracing off: the end-to-end metrics.
pub fn timed(seed: u64, seconds: f64) -> Outcome {
    let cfg = config(seed);
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let mut cells = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        cells = runner::plan_cells(&config(SCHEDULE_SEED)).expect("the default grid plans");
        t.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let specs = grid(&cfg, &cells);

    let mut first: Vec<RunRecord> = Vec::new();
    let mut digests = Vec::new();
    let mut passes = Passes::new(seconds);
    while passes.more() {
        let t0 = Instant::now();
        let (mut delivered, mut sim_us) = (0u64, 0u64);
        let mut records = Vec::with_capacity(specs.len());
        for (i, &spec) in specs.iter().enumerate() {
            let (c, s, k) = spec;
            let cell = &cells[c as usize];
            let sched = &cell.schedules[s as usize];
            let r0 = Instant::now();
            let report =
                cell.system
                    .run(&sched.scenario, cell.horizon, runner::sim_seed(cfg.seed, k));
            let violations = verdict::score(&cell.system, sched, &report, cfg.slack);
            t.run(i, r0.elapsed().as_secs_f64());
            delivered += report.metrics.msgs_delivered;
            sim_us += (cell.horizon + cell.system.grace()).as_micros();
            records.push(record(&cfg, cell, i as u32, spec, &report, violations));
        }
        let wall = t0.elapsed().as_secs_f64();
        passes.done(wall);
        t.round(specs.len(), wall, sim_us as f64 / 1e6, delivered);
        for (i, r) in records.iter().enumerate() {
            out.run(run_ok(r) && first.get(i).is_none_or(|f| f == r));
        }
        digests.push(runs_digest(&records));
        if first.is_empty() {
            first = records;
        }
    }

    t.report(&mut out);
    let mut protocol = Protocol::default();
    first.iter().for_each(|r| add_protocol(&mut protocol, r));
    protocol.report(&mut out, false);
    fleet_checks(&mut out, &first, &digests);
    out
}

fn fleet_checks(out: &mut Outcome, records: &[RunRecord], digests: &[u64]) {
    let violations = records
        .iter()
        .filter(|r| r.admissible && !r.violations.is_empty())
        .count();
    let truncated = records
        .iter()
        .filter(|r| r.violations.iter().any(|v| v.kind() == "truncated"))
        .count();
    let diverged = records.iter().filter(|r| !r.converged).count();
    out.check(
        "admissible_violations",
        violations == 0,
        format!("{violations} of {}", records.len()),
    );
    out.check("truncated_runs", truncated == 0, format!("{truncated}"));
    out.check("diverged_runs", diverged == 0, format!("{diverged}"));
    out.check(
        "runs_digest_repeats",
        digests.windows(2).all(|w| w[0] == w[1]),
        digests
            .iter()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
}

/// Each run untraced through the campaign's own `execute_run` and then
/// traced, taken apart at the layer boundaries; a wall-profiling pass;
/// and the unit-cost ledger: the per-layer metrics.
pub fn traced(seed: u64, tracer: &mut Tracer) -> Outcome {
    let cfg = config(seed);
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // Set-up under spans: the planner, then the schedule generator, per
    // cell, exactly as `runner::plan_cells` does it.
    let per_cell = cfg.runs.div_ceil(cfg.cells.len() * cfg.sim_seeds as usize);
    tracer.set_run(0);
    let mut cells = Vec::new();
    for spec in &cfg.cells {
        let system = tracer
            .span("planner.plan", || spec.plan())
            .expect("the default grid plans")
            .with_max_events(cfg.max_events);
        layers.plans += system.strategy().plan_count() as u64;
        let period = system.workload().period;
        let deadline = system
            .workload()
            .sinks()
            .map(|s| s.deadline)
            .min()
            .unwrap_or(period);
        let params = spec.schedule_params(period, deadline, cfg.combos, cfg.over_budget);
        let schedules = tracer.span("campaign.schedule_gen", || {
            schedule::generate(&params, SCHEDULE_SEED, per_cell)
        });
        cells.push(PlannedCell {
            horizon: spec.horizon(period, cfg.combos, cfg.over_budget),
            spec: spec.clone(),
            system,
            schedules,
            max_events: cfg.max_events,
            params,
        });
    }
    let reference = runner::plan_cells(&config(SCHEDULE_SEED)).expect("the default grid plans");
    out.check(
        "setup_matches_plan_cells",
        reference
            .iter()
            .zip(&cells)
            .all(|(a, b)| a.schedules == b.schedules && a.horizon == b.horizon),
        format!("{} cells", cells.len()),
    );
    let specs = grid(&cfg, &cells);

    // Each run twice, back to back: untraced through the campaign
    // runner, then traced. Pairing the two keeps slow drift on the
    // machine out of the tracing overhead.
    let mut untraced = Vec::with_capacity(specs.len());
    let mut traced_records = Vec::with_capacity(specs.len());
    for (i, &spec) in specs.iter().enumerate() {
        let (c, s, k) = spec;
        let t0 = Instant::now();
        untraced.push(runner::execute_run(&cfg, &cells, i as u32, c, s, k));
        layers.untraced_s += t0.elapsed().as_secs_f64();

        let cell = &cells[c as usize];
        let sched = &cell.schedules[s as usize];
        let allocs0 = alloc_count();
        let t0 = Instant::now();
        tracer.set_run(i as u32 + 1);
        let run = tracer.enter("fleet.run");
        let report = traced_run(
            &cell.system,
            &sched.scenario,
            cell.horizon,
            runner::sim_seed(cfg.seed, k),
            tracer,
            &mut layers,
        );
        let violations = tracer.span("campaign.score", || {
            verdict::score(&cell.system, sched, &report, cfg.slack)
        });
        let r = record(&cfg, cell, i as u32, spec, &report, violations);
        tracer.exit(run);
        layers.traced_s += t0.elapsed().as_secs_f64();
        layers.allocs += alloc_count() - allocs0;
        layers.convictions += r.convictions as u64;
        add_protocol(&mut layers.protocol, &r);
        traced_records.push(r);
    }
    layers.absorb_spans(tracer);

    // Wall-clock shares, in a pass of their own.
    for &(c, s, k) in &specs {
        let cell = &cells[c as usize];
        wall_profiled_run(
            &cell.system,
            &cell.schedules[s as usize].scenario,
            cell.horizon,
            runner::sim_seed(cfg.seed, k),
            &mut layers,
        );
    }

    layers.units = ledger::measure(&LedgerInput {
        msg_bytes: layers.mean_msg_bytes(1.0),
        routes: cells
            .iter()
            .map(|c| (c.system.topology().clone(), ledger::plan_pairs(&c.system)))
            .collect(),
    });

    for (a, b) in untraced.iter().zip(&traced_records) {
        out.run(run_ok(a) && a == b);
    }
    out.check(
        "traced_matches_runner",
        untraced == traced_records,
        format!("{} records", untraced.len()),
    );
    layers.report(&mut out);
    fleet_checks(
        &mut out,
        &untraced,
        &[runs_digest(&untraced), runs_digest(&traced_records)],
    );
    out
}
