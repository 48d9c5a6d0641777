//! Property-based oracle: after ANY sequence of edge additions/removals
//! (including component merges, disconnections, and new-vertex arrivals),
//! the incrementally maintained VBC/EBC must equal a fresh predecessor-free
//! Brandes recomputation on the final graph.
//!
//! This is the single most load-bearing test in the repository: it exercises
//! every case of the paper's Algorithms 1–10 under adversarial inputs.

use ebc_core::incremental::UpdateConfig;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::assert_matches_scratch;
use ebc_graph::Graph;
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// Deterministic scripted update: interpreted against the current graph, so
/// every generated script is valid (adds pick non-edges, removals pick
/// existing edges).
#[derive(Debug, Clone, Copy)]
enum Script {
    /// Add the k-th absent vertex pair (if any).
    Add(u64),
    /// Remove the k-th present edge (if any).
    Remove(u64),
    /// Attach a brand-new vertex to the k-th existing vertex.
    NewVertex(u64),
}

fn script_strategy() -> impl Strategy<Value = Script> {
    prop_oneof![
        3 => any::<u64>().prop_map(Script::Add),
        3 => any::<u64>().prop_map(Script::Remove),
        1 => any::<u64>().prop_map(Script::NewVertex),
    ]
}

/// Build a graph from a vertex count and an edge-selection seed list.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (
        2usize..12,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    )
        .prop_map(|(n, pairs)| {
            let mut g = Graph::with_vertices(n);
            for (a, b) in pairs {
                let u = a % n as u32;
                let v = b % n as u32;
                if u != v && !g.has_edge(u, v) {
                    g.add_edge(u, v).unwrap();
                }
            }
            g
        })
}

fn absent_pairs(g: &Graph) -> Vec<(u32, u32)> {
    let n = g.n() as u32;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                out.push((u, v));
            }
        }
    }
    out
}

fn run_script(g: Graph, script: &[Script], cfg: UpdateConfig) {
    let mut st = BetweennessState::new_with(g, cfg);
    for (step, s) in script.iter().enumerate() {
        let ctx = format!("step {step}: {s:?}");
        match *s {
            Script::Add(k) => {
                let cands = absent_pairs(st.graph());
                if cands.is_empty() {
                    continue;
                }
                let (u, v) = cands[(k % cands.len() as u64) as usize];
                st.apply(Update::add(u, v)).unwrap();
            }
            Script::Remove(k) => {
                let edges = st.graph().sorted_edges();
                if edges.is_empty() {
                    continue;
                }
                let (u, v) = edges[(k % edges.len() as u64) as usize];
                st.apply(Update::remove(u, v)).unwrap();
            }
            Script::NewVertex(k) => {
                let n = st.graph().n() as u32;
                let anchor = (k % n as u64) as u32;
                st.apply(Update::add(anchor, n)).unwrap();
            }
        }
        assert_matches_scratch(st.graph(), st.scores(), TOL, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn incremental_matches_recompute(
        g in graph_strategy(),
        script in proptest::collection::vec(script_strategy(), 1..25),
    ) {
        run_script(g, &script, UpdateConfig::default());
    }

    /// Adding then removing the same edge must restore the exact scores the
    /// graph had before (up to float tolerance).
    #[test]
    fn add_remove_restores(
        g in graph_strategy(),
        k in any::<u64>(),
    ) {
        let cands = absent_pairs(&g);
        prop_assume!(!cands.is_empty());
        let (u, v) = cands[(k % cands.len() as u64) as usize];
        let before = ebc_core::brandes(&g);
        let mut st = BetweennessState::new(&g);
        st.apply(Update::add(u, v)).unwrap();
        st.apply(Update::remove(u, v)).unwrap();
        prop_assert!(st.scores().max_vbc_diff(&before) < TOL);
        prop_assert!(st.scores().max_ebc_diff(&before, st.graph()) < TOL);
    }

    /// σ bookkeeping invariant: after arbitrary single update, per-source
    /// shortest-path counts in the store match a fresh BFS.
    #[test]
    fn store_arrays_match_fresh_iteration(
        g in graph_strategy(),
        k in any::<u64>(),
        add in any::<bool>(),
    ) {
        let mut st = BetweennessState::new(&g);
        if add {
            let cands = absent_pairs(st.graph());
            prop_assume!(!cands.is_empty());
            let (u, v) = cands[(k % cands.len() as u64) as usize];
            st.apply(Update::add(u, v)).unwrap();
        } else {
            let edges = st.graph().sorted_edges();
            prop_assume!(!edges.is_empty());
            let (u, v) = edges[(k % edges.len() as u64) as usize];
            st.apply(Update::remove(u, v)).unwrap();
        }
        // Re-bootstrap a second state from the final graph: VBC/EBC and the
        // records must agree (records checked indirectly through scores of a
        // subsequent update in other tests; here compare centralities).
        let fresh = BetweennessState::new(st.graph());
        prop_assert!(st.scores().max_vbc_diff(fresh.scores()) < TOL);
        prop_assert!(st.scores().max_ebc_diff(fresh.scores(), st.graph()) < TOL);
    }
}
