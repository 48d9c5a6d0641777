//! The seeded evolving update stream every workload and the oracle share.
//!
//! The generator tracks the graph as it evolves and mixes three kinds of
//! update in fixed proportions: additions of current non-edges (70%),
//! removals of current edges (25%), and arrivals of a new vertex attached
//! to an existing one (5%). Every update it emits is valid against the
//! graph at its position, so no apply fails.

use std::collections::HashMap;
use streaming_bc::graph::EdgeOp;
use streaming_bc::graph::Graph;
use streaming_bc::Update;

/// splitmix64: small, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0f0b_e4c4)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Percent of updates that add a non-edge; removals take the next
/// `REMOVE_PCT`, arrivals the rest.
const ADD_PCT: u64 = 70;
const REMOVE_PCT: u64 = 25;

/// `len` updates evolving `g`, a pure function of `(g, seed)`.
pub fn generate(g: &Graph, seed: u64, len: usize) -> Vec<Update> {
    let mut rng = Rng::new(seed);
    let mut n = g.n() as u32;
    let mut edges: Vec<(u32, u32)> = g.sorted_edges();
    let mut slot: HashMap<(u32, u32), usize> =
        edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let roll = rng.below(100);
        if roll < ADD_PCT {
            let (u, v) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
            let key = (u.min(v), u.max(v));
            if u == v || slot.contains_key(&key) {
                continue;
            }
            slot.insert(key, edges.len());
            edges.push(key);
            out.push(Update::add(u, v));
        } else if roll < ADD_PCT + REMOVE_PCT {
            if edges.is_empty() {
                continue;
            }
            let i = rng.below(edges.len() as u64) as usize;
            let (u, v) = edges.swap_remove(i);
            slot.remove(&(u, v));
            if let Some(&moved) = edges.get(i) {
                slot.insert(moved, i);
            }
            out.push(Update::remove(u, v));
        } else {
            let w = rng.below(n as u64) as u32;
            slot.insert((w, n), edges.len());
            edges.push((w, n));
            out.push(Update::add(w, n));
            n += 1;
        }
    }
    out
}

/// Apply one update to a plain graph: an arrival (an addition naming the
/// next vertex id) grows it first.
pub fn apply(g: &mut Graph, u: &Update) -> Result<(), String> {
    let hi = u.u.max(u.v) as usize;
    match u.op {
        EdgeOp::Add => {
            if hi == g.n() {
                g.add_vertex();
            } else if hi > g.n() {
                return Err(format!("vertex {hi} skips ids (n = {})", g.n()));
            }
            g.add_edge(u.u, u.v)
                .map(drop)
                .map_err(|e| format!("addition is not a non-edge: {e}"))
        }
        EdgeOp::Remove => g
            .remove_edge(u.u, u.v)
            .map(drop)
            .map_err(|e| format!("removal is not a live edge: {e}")),
    }
}

/// Check the generator's contract on one stream: every addition is a
/// non-edge, every removal a live edge, every arrival gets the next vertex
/// id at its position, and the same seed regenerates the same stream while
/// the next seed gives a different one.
pub fn self_test(g: &Graph, seed: u64, stream: &[Update]) -> Result<(), String> {
    let mut live = g.clone();
    for (i, u) in stream.iter().enumerate() {
        apply(&mut live, u).map_err(|e| format!("update {i}: {e}"))?;
    }
    if generate(g, seed, stream.len()) != stream {
        return Err("the same seed gave a different stream".into());
    }
    if generate(g, seed.wrapping_add(1), stream.len()) == stream {
        return Err("a different seed gave the same stream".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use streaming_bc::gen::models::holme_kim;

    #[test]
    fn streams_are_valid_and_seeded() {
        let g = holme_kim(120, 2, 0.3, 11);
        for seed in 0..4 {
            let s = generate(&g, seed, 3000);
            self_test(&g, seed, &s).unwrap();
            let mut n = g.n() as u32;
            let arrivals = s
                .iter()
                .filter(|u| {
                    let arrival = u.op == EdgeOp::Add && u.u.max(u.v) == n;
                    n += u32::from(arrival);
                    arrival
                })
                .count();
            let removals = s.iter().filter(|u| u.op == EdgeOp::Remove).count();
            // fixed proportions, within sampling noise
            assert!((100..200).contains(&arrivals), "arrivals {arrivals}");
            assert!((600..900).contains(&removals), "removals {removals}");
        }
    }

    #[test]
    fn a_broken_stream_is_caught() {
        let g = holme_kim(60, 2, 0.3, 11);
        let mut s = generate(&g, 7, 200);
        let (a, b) = g.sorted_edges()[0];
        s.insert(0, Update::add(a, b));
        assert!(self_test(&g, 7, &s).is_err());
    }
}
