//! Property tests: the demand-driven routing backend is bit-identical
//! to the precomputed all-pairs table — same paths, same per-hop links,
//! same `avoiding` and `avoiding_transit` semantics — on every platform
//! family the experiments use, up to 32 nodes.
//!
//! This is the contract that lets `RouteBackend::auto` switch backends
//! by node count without changing a single simulation bit.

use btr_model::{Duration, NodeId, Topology};
use btr_net::{DemandRoutes, Routes, RoutingTable};
use btr_topo::{torus, torus_dims};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Build one of the four platform families at (roughly) `n` nodes.
fn family(which: u8, n: usize) -> Topology {
    match which % 4 {
        0 => Topology::bus(n.max(2), 100, Duration(3)),
        1 => Topology::ring(n.max(3), 100, Duration(3)),
        2 => {
            let rows = (n.max(4) as f64).sqrt() as usize;
            let cols = n.max(4).div_ceil(rows);
            Topology::mesh(rows, cols, 100, Duration(3))
        }
        _ => {
            let (rows, cols) = torus_dims(n.max(4));
            torus(rows, cols, 100, Duration(3)).expect("n >= 4 builds")
        }
    }
}

fn assert_equivalent(topo: &Topology, avoid: &BTreeSet<NodeId>, transit: bool, ctx: &str) {
    let table = if transit {
        RoutingTable::avoiding_transit(topo, avoid)
    } else {
        RoutingTable::avoiding(topo, avoid)
    };
    let mut demand = if transit {
        DemandRoutes::avoiding_transit(topo, avoid)
    } else {
        DemandRoutes::avoiding(topo, avoid)
    };
    let n = topo.node_count() as u32;
    for s in 0..n {
        for d in 0..n {
            let expect = table
                .path_and_links(NodeId(s), NodeId(d))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            let got = demand
                .path_and_links(NodeId(s), NodeId(d))
                .map(|(p, l)| (p.to_vec(), l.to_vec()));
            assert_eq!(expect, got, "{ctx}: pair {s}->{d}");
            // The table's next-hop walk (the pre-cache reference) must
            // agree with the demand backend too.
            assert_eq!(
                table.path_vec(NodeId(s), NodeId(d)),
                got.map(|(p, _)| p),
                "{ctx}: path_vec {s}->{d}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-topology routing: every pair's path and per-hop links agree
    /// on bus, ring, mesh, and torus platforms up to 32 nodes.
    #[test]
    fn prop_demand_matches_table(which in 0u8..4, n in 2usize..=32) {
        let topo = family(which, n);
        assert_equivalent(&topo, &BTreeSet::new(), false, &format!("fam{which} n{n}"));
    }

    /// `avoiding` (planner semantics: avoided nodes neither originate
    /// nor relay) agrees for arbitrary avoid sets.
    #[test]
    fn prop_demand_matches_table_avoiding(
        which in 0u8..4,
        n in 4usize..=32,
        avoid_raw in proptest::collection::btree_set(0u32..32, 0..4),
    ) {
        let topo = family(which, n);
        let n_nodes = topo.node_count() as u32;
        let avoid: BTreeSet<NodeId> =
            avoid_raw.iter().map(|&a| NodeId(a % n_nodes)).collect();
        assert_equivalent(&topo, &avoid, false, &format!("fam{which} n{n} avoid{avoid:?}"));
    }

    /// `avoiding_transit` (link-layer crash semantics: avoided nodes may
    /// originate/terminate but never relay) agrees for arbitrary avoid
    /// sets — the path the simulator's crash healing exercises.
    #[test]
    fn prop_demand_matches_table_avoiding_transit(
        which in 0u8..4,
        n in 4usize..=32,
        avoid_raw in proptest::collection::btree_set(0u32..32, 0..4),
    ) {
        let topo = family(which, n);
        let n_nodes = topo.node_count() as u32;
        let avoid: BTreeSet<NodeId> =
            avoid_raw.iter().map(|&a| NodeId(a % n_nodes)).collect();
        assert_equivalent(&topo, &avoid, true, &format!("fam{which} n{n} avoid{avoid:?}"));
    }

    /// Equivalence survives eviction churn: with a one-row budget every
    /// query rebuilds its row, and results still match the table.
    #[test]
    fn prop_equivalence_under_eviction(n in 4usize..=24, seed in 0u32..1000) {
        let (rows, cols) = torus_dims(n);
        let topo = torus(rows, cols, 100, Duration(3)).expect("n >= 4 builds");
        let table = RoutingTable::new(&topo);
        let n_nodes = topo.node_count() as u32;
        let mut demand = DemandRoutes::with_budget(&topo, n_nodes as usize * 4);
        // A seed-scrambled probe order (not all pairs in order) so the
        // LRU sees varied access patterns.
        let mut x = seed as u64 + 1;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = NodeId((x >> 33) as u32 % n_nodes);
            let d = NodeId((x >> 17) as u32 % n_nodes);
            let expect = table.path_and_links(s, d).map(|(p, l)| (p.to_vec(), l.to_vec()));
            let got = demand.path_and_links(s, d).map(|(p, l)| (p.to_vec(), l.to_vec()));
            prop_assert_eq!(expect, got);
        }
        prop_assert!(demand.cached_rows() <= 1);
    }
}

/// The dual-bus family has parallel links between the same endpoints;
/// lowest-link-id selection must agree (exhaustive, not property-based,
/// since the family has one shape).
#[test]
fn dual_bus_parallel_links_agree() {
    let topo = Topology::dual_bus(6, 100, Duration(2));
    assert_equivalent(&topo, &BTreeSet::new(), false, "dual-bus");
    let avoid = BTreeSet::from([NodeId(2)]);
    assert_equivalent(&topo, &avoid, true, "dual-bus avoid");
}
