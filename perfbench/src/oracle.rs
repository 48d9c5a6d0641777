//! The serial oracle and the correctness gate's comparisons.

use std::time::Instant;
use streaming_bc::core::scores::Scores;
use streaming_bc::core::BetweennessState;
use streaming_bc::graph::Graph;
use streaming_bc::ranking;
use streaming_bc::Update;

/// The history seq the replay metric reconstructs: a fixed count, not a
/// fraction of the final seq, so a faster writer does not read as a
/// slower replay, and a short one, so a run can take many samples. Runs
/// that acknowledge fewer updates replay them all.
pub const REPLAY_SEQ: u64 = 50;

pub struct Oracle {
    /// Exact scores at each requested seq and after the last update.
    at: Vec<(u64, Scores)>,
}

impl Oracle {
    /// Exact scores after update `seq` (one of those requested).
    pub fn at(&self, seq: u64) -> Result<&Scores, String> {
        self.at
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, sc)| sc)
            .ok_or_else(|| format!("the oracle did not stop at seq {seq}"))
    }
}

/// A single-machine `BetweennessState` over the same graph and updates,
/// stopping for exact scores at each of `seqs` and after the last update.
pub fn run(g: &Graph, updates: &[Update], seqs: &[u64]) -> Result<Oracle, String> {
    let mut state = BetweennessState::new(g);
    let mut at = Vec::new();
    for (i, &u) in updates.iter().enumerate() {
        if seqs.contains(&(i as u64)) {
            at.push((i as u64, exact(&mut state)?));
        }
        state
            .apply(u)
            .map_err(|e| format!("oracle apply {i} ({u:?}): {e}"))?;
    }
    at.push((updates.len() as u64, exact(&mut state)?));
    Ok(Oracle { at })
}

pub fn replay_seq(acked: usize) -> u64 {
    REPLAY_SEQ.min(acked as u64)
}

fn exact(state: &mut BetweennessState) -> Result<Scores, String> {
    state
        .exact_scores()
        .map_err(|e| format!("oracle exact scores: {e}"))
}

/// Reconstruct the scores at `seq` from the genesis graph without a
/// history on disk: bootstrap, apply the prefix, reduce exactly — what
/// `Session::replay_to` does after reading its history.
pub fn replay(g: &Graph, updates: &[Update], seq: u64) -> Result<(Scores, f64), String> {
    let t = Instant::now();
    let mut state = BetweennessState::new(g);
    for (i, &u) in updates[..seq as usize].iter().enumerate() {
        state
            .apply(u)
            .map_err(|e| format!("replay apply {i} ({u:?}): {e}"))?;
    }
    let s = exact(&mut state)?;
    Ok((s, t.elapsed().as_secs_f64()))
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bitwise equality of `(vbc, ebc)` with the oracle's scores.
pub fn check_exact(what: &str, vbc: &[f64], ebc: &[f64], want: &Scores) -> Result<(), String> {
    if same_bits(vbc, &want.vbc) && same_bits(ebc, &want.ebc) {
        Ok(())
    } else {
        Err(format!("{what} is not bitwise equal to the oracle"))
    }
}

/// The wire `top_k` against the sort oracle over the exact scores: the
/// same ids in the same order, each score equal to the exact one up to
/// the fast reduce's summation order.
pub fn check_top_k(top: &[(u32, f64)], vbc: &[f64]) -> Result<(), String> {
    let want = ranking::top_k(vbc, 10);
    let ids: Vec<u32> = top.iter().map(|&(v, _)| v).collect();
    if ids != want {
        return Err(format!(
            "top_k ids {ids:?} differ from the sort oracle {want:?}"
        ));
    }
    for &(v, s) in top {
        let x = vbc[v as usize];
        if (s - x).abs() > 1e-9 * x.abs().max(1.0) {
            return Err(format!("top_k score of {v}: {s} vs exact {x}"));
        }
    }
    Ok(())
}
