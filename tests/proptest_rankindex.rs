//! Property-test oracle for the incremental rank index: across random
//! add / remove / grow / disconnect histories, on every embodiment
//! (in-memory, on-disk, sharded, for worker counts in {1, 3, 8}), the
//! session's incrementally maintained [`RankIndex`] must stay **bitwise
//! identical** to a from-scratch sort of the engine's maintained scores —
//! same ids in the same order from `top_k` (the `ranking::top_k` oracle,
//! ties toward smaller id), and the same score bits for every vertex.
//!
//! This is the acceptance oracle for the delta feed: any missed dirty
//! mark in the kernel, any drift between a sparse drain and the engine's
//! scores, or any tie-break divergence in the treap key order fails here.
//! A second property feeds multi-update batches and checks that each
//! batched delta leaves a tree structurally identical to a rebuild.
//!
//! The vendored proptest stub derives each test's RNG seed from the test
//! name, so CI runs are reproducible by construction.

use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use streaming_bc::core::rankindex::RankIndex;
use streaming_bc::core::ranking;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::{Backend, Session, Update};

/// One step of a random evolution history (same shape as the CSR oracle).
#[derive(Debug, Clone, Copy)]
enum HistOp {
    /// Toggle the edge between two picked vertices.
    Toggle { u_pick: usize, v_pick: usize },
    /// Attach a brand-new vertex to a picked existing one — the index
    /// must grow to cover the fresh id.
    Grow { u_pick: usize },
    /// Remove every edge of a picked vertex — scores collapse toward the
    /// all-ties-at-zero regime where the id tie-break does all the work.
    Disconnect { v_pick: usize },
}

fn hist_op() -> impl Strategy<Value = HistOp> {
    prop_oneof![
        6 => (0usize..1024, 0usize..1024).prop_map(|(u, v)| HistOp::Toggle {
            u_pick: u,
            v_pick: v,
        }),
        1 => (0usize..1024).prop_map(|u| HistOp::Grow { u_pick: u }),
        1 => (0usize..1024).prop_map(|v| HistOp::Disconnect { v_pick: v }),
    ]
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Worker counts the oracle sweeps.
const WORKERS: [usize; 3] = [1, 3, 8];

/// The index agrees with the sort-based oracle on one session, bit for
/// bit: every ranked read and the full score vector.
fn assert_index_matches_oracle(ctx: &str, seed: u64, session: &mut Session) {
    let vbc = session.scores().unwrap().scores.vbc;
    let n = vbc.len();

    // the index holds exactly the engine's scores, bitwise
    let indexed = session.rank_index().unwrap().to_scores();
    prop_assert_eq!(
        indexed.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        vbc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "{} seed={}: index scores diverged from engine scores",
        ctx,
        seed
    );

    // top_k agrees with the re-sort oracle at every cut, including the
    // tie-heavy boundaries
    for k in [0, 1, 3, n / 2, n, n + 7] {
        prop_assert_eq!(
            session.top_k(k).unwrap(),
            ranking::top_k(&vbc, k),
            "{} seed={}: top_{} diverged from the sort oracle",
            ctx,
            seed,
            k
        );
    }

    // rank_of is the 1-based position in the full ranking; percentile is
    // its complement mass
    let full = ranking::top_k(&vbc, n);
    for (pos, &v) in full.iter().enumerate() {
        prop_assert_eq!(
            session.rank_of(v).unwrap(),
            Some(pos + 1),
            "{} seed={}: rank_of({}) diverged",
            ctx,
            seed,
            v
        );
        let want = (n - pos) as f64 / n as f64;
        prop_assert_eq!(
            session.percentile(v).unwrap(),
            Some(want),
            "{} seed={}: percentile({}) diverged",
            ctx,
            seed,
            v
        );
    }
    prop_assert_eq!(session.rank_of(n as u32 + 9).unwrap(), None);
}

/// Translate one history step into the updates it stands for, applying
/// them to the mirror graph as it goes.
fn updates_for(op: HistOp, mirror: &mut Graph) -> Vec<Update> {
    let n = mirror.n();
    let updates = match op {
        HistOp::Toggle { u_pick, v_pick } => {
            let (u, v) = ((u_pick % n) as u32, (v_pick % n) as u32);
            if u == v {
                vec![]
            } else if mirror.has_edge(u, v) {
                vec![Update::remove(u, v)]
            } else {
                vec![Update::add(u, v)]
            }
        }
        HistOp::Grow { u_pick } => vec![Update::add((u_pick % n) as u32, n as u32)],
        HistOp::Disconnect { v_pick } => {
            let v = (v_pick % n) as u32;
            (0..n as u32)
                .filter(|&w| w != v && mirror.has_edge(v, w))
                .map(|w| Update::remove(v, w))
                .collect()
        }
    };
    for u in &updates {
        match u.op {
            streaming_bc::graph::EdgeOp::Add => {
                while (mirror.n() as u32) <= u.u.max(u.v) {
                    mirror.add_vertex();
                }
                mirror.add_edge(u.u, u.v).unwrap();
            }
            streaming_bc::graph::EdgeOp::Remove => {
                mirror.remove_edge(u.u, u.v).unwrap();
            }
        }
    }
    updates
}

/// `ix` is the tree a from-scratch build over `vbc` gives: same shape,
/// same score bits.
fn assert_is_rebuild(ctx: &str, seed: u64, ix: &RankIndex, vbc: &[f64]) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        ix.shape(),
        RankIndex::from_scores(vbc).shape(),
        "{} seed={}: tree shape diverged from a rebuild",
        ctx,
        seed
    );
    prop_assert_eq!(
        bits(&ix.to_scores()),
        bits(vbc),
        "{} seed={}: index scores diverged from engine scores",
        ctx,
        seed
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The headline acceptance property: for any random history, on every
    /// embodiment, ranked reads off the incremental index are bitwise
    /// identical to re-sorting the maintained scores from scratch.
    #[test]
    fn rank_index_matches_sort_oracle_bitwise(
        seed in 0u64..1_000,
        ops in collection::vec(hist_op(), 1..16),
    ) {
        let g = holme_kim(16, 2, 0.35, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "sbc_proptest_rank_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // a plain graph mirror drives the history (decides toggles,
        // tracks n) without touching any engine
        let mut mirror: Graph = g.clone();

        let mut sessions: Vec<(String, Session)> = vec![(
            "mem p=1".into(),
            Session::builder().backend(Backend::Memory).build(&g).unwrap(),
        )];
        for p in WORKERS {
            sessions.push((
                format!("shard p={p}"),
                Session::builder()
                    .backend(Backend::Sharded(dir.join(format!("s{p}"))))
                    .workers(p)
                    .build(&g)
                    .unwrap(),
            ));
        }
        sessions.push((
            "disk p=1".into(),
            Session::builder()
                .backend(Backend::Disk(dir.join("disk")))
                .build(&g)
                .unwrap(),
        ));

        let step = |update: Update,
                        mirror: &mut Graph,
                        sessions: &mut Vec<(String, Session)>| {
            match update.op {
                streaming_bc::graph::EdgeOp::Add => {
                    while (mirror.n() as u32) <= update.u.max(update.v) {
                        mirror.add_vertex();
                    }
                    mirror.add_edge(update.u, update.v).unwrap();
                }
                streaming_bc::graph::EdgeOp::Remove => {
                    mirror.remove_edge(update.u, update.v).unwrap();
                }
            }
            for (ctx, session) in sessions.iter_mut() {
                session.apply(update).unwrap_or_else(|e| {
                    panic!("{ctx} seed={seed}: apply({update:?}) failed: {e}")
                });
                // check after *every* update: a stale index hides behind
                // later updates if we only compare final states
                assert_index_matches_oracle(ctx, seed, session);
            }
        };

        for op in &ops {
            match *op {
                HistOp::Toggle { u_pick, v_pick } => {
                    let n = mirror.n();
                    let u = (u_pick % n) as u32;
                    let v = (v_pick % n) as u32;
                    if u == v {
                        continue;
                    }
                    let update = if mirror.has_edge(u, v) {
                        Update::remove(u, v)
                    } else {
                        Update::add(u, v)
                    };
                    step(update, &mut mirror, &mut sessions);
                }
                HistOp::Grow { u_pick } => {
                    let n = mirror.n();
                    let u = (u_pick % n) as u32;
                    step(Update::add(u, n as u32), &mut mirror, &mut sessions);
                }
                HistOp::Disconnect { v_pick } => {
                    let n = mirror.n();
                    let v = (v_pick % n) as u32;
                    let partners: Vec<u32> = (0..n as u32)
                        .filter(|&w| w != v && mirror.has_edge(v, w))
                        .collect();
                    for w in partners {
                        step(Update::remove(v, w), &mut mirror, &mut sessions);
                    }
                }
            }
        }

        drop(sessions); // release the disk stores before cleanup
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Multi-update batches on sharded p=3 sessions: each batch's drained
    /// delta moves many scores at once and is folded in as one batched
    /// treap write. Whether it feeds an external index (the serve
    /// writer's path) or the session's own lazy index, the result is
    /// structurally identical to a rebuild from the engine's scores.
    #[test]
    fn batched_deltas_leave_the_rebuild_tree(
        seed in 0u64..1_000,
        batches in collection::vec(collection::vec(hist_op(), 1..6), 1..8),
    ) {
        let g = holme_kim(16, 2, 0.35, seed);
        let case = CASE.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "sbc_proptest_rank_batch_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let sharded = |name: &str| {
            Session::builder()
                .backend(Backend::Sharded(dir.join(name)))
                .workers(3)
                .build(&g)
                .unwrap()
        };
        // `drained` hands every delta to an outside index; `lazy` keeps
        // its own index and folds the engine's delta on each ranked read
        let (mut drained, mut lazy) = (sharded("drained"), sharded("lazy"));
        let mut outside = RankIndex::new();
        let mut mirror: Graph = g.clone();

        for ops in &batches {
            let updates: Vec<Update> = ops
                .iter()
                .flat_map(|&op| updates_for(op, &mut mirror))
                .collect();
            drained.apply_stream(&updates).unwrap();
            lazy.apply_stream(&updates).unwrap();

            outside.apply(&drained.take_score_delta().unwrap());
            let vbc = drained.scores().unwrap().scores.vbc;
            assert_is_rebuild("outside index", seed, &outside, &vbc);
            // the drained session's own index was left stale and rebuilds
            assert_is_rebuild("stale session index", seed, drained.rank_index().unwrap(), &vbc);

            let vbc = lazy.scores().unwrap().scores.vbc;
            assert_is_rebuild("lazy session index", seed, lazy.rank_index().unwrap(), &vbc);
            assert_index_matches_oracle("lazy p=3", seed, &mut lazy);
        }

        drop((drained, lazy)); // release the shard stores before cleanup
        std::fs::remove_dir_all(&dir).ok();
    }
}
