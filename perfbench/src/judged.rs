//! Full-protocol runs of a planned `BtrSystem`, taken apart at the layer
//! boundaries for the traced pass: `build_world` (core), `start` +
//! `run_until` (sim), `judge_actuations` (core). The pieces reassemble
//! into exactly the `RunReport` that `BtrSystem::run` returns; the
//! workloads check that record for record against an untraced pass.

use crate::layers::{take_obs, Layers};
use crate::trace::Tracer;
use btr_core::{BtrSystem, FaultScenario, RunReport};
use btr_model::{Duration, FaultSet, NodeId, PlanId, Time};
use btr_obs::ObsRecorder;
use btr_runtime::BtrNode;
use std::collections::BTreeSet;
use std::time::Instant;

/// Run one scenario under spans, with a recorder installed, folding its
/// counts into `layers`.
pub fn traced_run(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> RunReport {
    let mut world = tracer.span("core.build_world", || sys.build_world(scenario, seed));
    world.set_recorder(Box::new(ObsRecorder::new()));
    tracer.span("sim.run", || {
        world.start();
        world.run_until(Time::ZERO + horizon + sys.grace());
    });
    let rec = take_obs(&mut world);
    layers.absorb_world(&rec, world.metrics());
    layers.routing_resident_bytes = layers
        .routing_resident_bytes
        .max(world.routing_resident_bytes());
    let judgment = tracer.span("core.judge", || {
        sys.judge_actuations(scenario, horizon, world.actuations())
    });

    // The tail of `BtrSystem::run`: per-node stats of correct nodes and
    // convergence on one (fault set, plan).
    let compromised = scenario.compromised();
    let mut node_stats = Vec::new();
    let mut sets: BTreeSet<(Vec<NodeId>, PlanId)> = BTreeSet::new();
    for i in 0..sys.topology().node_count() as u32 {
        let node = NodeId(i);
        if compromised.contains(&node) || world.is_crashed(node) {
            continue;
        }
        if let Some(b) = world
            .behavior(node)
            .and_then(|b| b.as_any())
            .and_then(|a| a.downcast_ref::<BtrNode>())
        {
            let fs: &FaultSet = b.fault_set();
            layers.absorb_stats(&b.stats());
            node_stats.push((node, b.stats(), b.current_plan(), fs.len()));
            sets.insert((fs.iter().collect(), b.current_plan()));
        }
    }
    let guardian_drops = (0..sys.topology().node_count() as u32)
        .map(|i| world.guardian_drops(NodeId(i)))
        .sum();
    RunReport {
        verdicts: judgment.verdicts,
        recovery: judgment.recovery,
        survival: judgment.survival,
        metrics: *world.metrics(),
        node_stats,
        converged: sets.len() <= 1,
        periods: judgment.periods,
        guardian_drops,
        truncated: world.truncated(),
    }
}

/// Run one scenario with wall-clock profiling on, adding the
/// per-subsystem wall shares and the simulator wall time to `layers`.
pub fn wall_profiled_run(
    sys: &BtrSystem,
    scenario: &FaultScenario,
    horizon: Duration,
    seed: u64,
    layers: &mut Layers,
) {
    let mut world = sys.build_world(scenario, seed);
    world.set_recorder(Box::new(ObsRecorder::new()));
    world.set_wall_profiling(true);
    let t0 = Instant::now();
    world.start();
    world.run_until(Time::ZERO + horizon + sys.grace());
    layers.wall_total_ns += t0.elapsed().as_nanos() as u64;
    layers
        .wall_profile
        .merge(take_obs(&mut world).subsystem_profile());
}

/// FNV-1a digest of a value's `Debug` rendering: equal digests across
/// repetitions mean every verdict, counter and stat repeated exactly.
pub fn debug_digest<T: std::fmt::Debug>(v: &T) -> u64 {
    let s = format!("{v:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
