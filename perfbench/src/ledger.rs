//! Unit-cost ledger: each layer op timed on its own, in interleaved
//! rounds, so that deterministic op counts times unit costs can be set
//! against a workload's measured simulator time.
//!
//! Every round times one batch of each op, rotating the op order from
//! round to round so slow drift on the machine spreads over all ops; the
//! reported cost is the median over rounds.

use crate::stats::median;
use btr_crypto::{KeyStore, NodeKey, SigBatch, Signer};
use btr_model::{NodeId, Topology};
use btr_net::{FecCodec, RouteBackend, Routes};
use std::hint::black_box;
use std::time::Instant;

/// Rounds per op.
pub const ROUNDS: usize = 15;

/// Per-op unit costs in nanoseconds (medians over rounds).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `Signer::sign` over one envelope-sized message.
    pub sign_ns: f64,
    /// `KeyStore::verify` over one envelope-sized message.
    pub verify_ns: f64,
    /// `KeyStore::verify_batch` over an output and three witnesses.
    pub verify_batch_ns: f64,
    /// Route lookup on the workload's backend, per hop of the path.
    pub route_ns_per_hop: f64,
    /// `FecCodec::encode` + `decode` at (4, 2) with two shards lost.
    pub fec_ns: f64,
}

/// What the ledger times: message size and the workload's own routes.
pub struct LedgerInput {
    /// Mean envelope size on the wire, bytes.
    pub msg_bytes: usize,
    /// Each platform the workload routes over, with the (src, dst)
    /// pairs its traffic uses.
    pub routes: Vec<(Topology, Vec<(NodeId, NodeId)>)>,
}

/// Time each op in `ROUNDS` interleaved rounds.
pub fn measure(input: &LedgerInput) -> UnitCosts {
    let msg: Vec<u8> = (0..input.msg_bytes.max(16))
        .map(|i| (i * 31 + 7) as u8)
        .collect();
    let signer = Signer::new(NodeKey::derive(0xB7E5, 1));
    let ks = KeyStore::derive(0xB7E5, 4);
    let sig = signer.sign(&msg);
    assert!(
        ks.verify(&sig, &msg).is_ok(),
        "ledger key material mismatch"
    );

    // An output plus three witnesses, each output-id sized.
    let item = &msg[..msg.len().min(btr_model::SignedOutput::CANONICAL_ID_LEN)];
    let item_sig = signer.sign(item);
    let mut batch = SigBatch::new();
    for _ in 0..4 {
        batch.push_with(&item_sig, |buf| buf.extend_from_slice(item));
    }
    let mut ok = Vec::with_capacity(4);

    let fec = FecCodec::new(4, 2).expect("(4, 2) is a valid code");

    let mut backends: Vec<(RouteBackend, &[(NodeId, NodeId)])> = input
        .routes
        .iter()
        .map(|(topo, pairs)| (RouteBackend::auto(topo), pairs.as_slice()))
        .collect();
    // Warm: the simulator builds demand rows before traffic flows, so
    // the steady-state lookup is what it pays per message.
    let mut hops_per_round = 0u64;
    for (b, pairs) in &mut backends {
        for &(s, d) in pairs.iter() {
            if let Some((_, links)) = b.path_and_links(s, d) {
                hops_per_round += links.len() as u64;
            }
        }
    }

    const N_SIGN: usize = 2_000;
    const N_BATCH: usize = 500;
    const N_FEC: usize = 1_000;
    let mut samples: [Vec<f64>; 5] = Default::default();
    for round in 0..ROUNDS {
        for k in 0..5 {
            let op = (k + round) % 5;
            let t0 = Instant::now();
            let per = match op {
                0 => {
                    for _ in 0..N_SIGN {
                        black_box(signer.sign(black_box(&msg)));
                    }
                    N_SIGN as f64
                }
                1 => {
                    for _ in 0..N_SIGN {
                        black_box(ks.verify(black_box(&sig), black_box(&msg)).is_ok());
                    }
                    N_SIGN as f64
                }
                2 => {
                    for _ in 0..N_BATCH {
                        ok.clear();
                        black_box(ks.verify_batch(black_box(&batch), &mut ok));
                    }
                    N_BATCH as f64
                }
                3 => {
                    for (b, pairs) in &mut backends {
                        for &(s, d) in pairs.iter() {
                            black_box(b.path_and_links(black_box(s), black_box(d)).is_some());
                        }
                    }
                    hops_per_round.max(1) as f64
                }
                _ => {
                    for _ in 0..N_FEC {
                        let mut shards: Vec<Option<Vec<u8>>> =
                            fec.encode(black_box(&msg)).into_iter().map(Some).collect();
                        shards[0] = None;
                        shards[2] = None;
                        black_box(fec.decode(&shards).expect("two losses are within m"));
                    }
                    N_FEC as f64
                }
            };
            samples[op].push(t0.elapsed().as_nanos() as f64 / per);
        }
    }
    UnitCosts {
        sign_ns: median(&samples[0]),
        verify_ns: median(&samples[1]),
        verify_batch_ns: median(&samples[2]),
        route_ns_per_hop: if hops_per_round == 0 {
            0.0
        } else {
            median(&samples[3])
        },
        fec_ns: median(&samples[4]),
    }
}

/// Deterministic op counts of one pass, as the layers report them.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    pub signs: u64,
    pub verifies: u64,
    pub audits: u64,
    pub hops: u64,
}

/// Predicted simulator seconds: Σ count × unit cost. An audit checks one
/// signed output, a quarter of the four-item batch. The simulator models
/// FEC as per-shard loss rolls and never calls the codec, so FEC adds
/// nothing here.
pub fn predicted_s(c: &OpCounts, u: &UnitCosts) -> f64 {
    (c.signs as f64 * u.sign_ns
        + c.verifies as f64 * u.verify_ns
        + c.audits as f64 * u.verify_batch_ns / 4.0
        + c.hops as f64 * u.route_ns_per_hop)
        / 1e9
}

/// The (src, dst) pairs a planned system's initial plan routes: each
/// node's plan-derived route demand.
pub fn plan_pairs(sys: &btr_core::BtrSystem) -> Vec<(NodeId, NodeId)> {
    let plan = sys.strategy().initial_plan();
    let mut out = Vec::new();
    for i in 0..sys.topology().node_count() as u32 {
        let me = NodeId(i);
        for dst in btr_runtime::derive_view(me, plan, sys.workload()).route_demand(me) {
            if dst != me {
                out.push((me, dst));
            }
        }
    }
    out
}
