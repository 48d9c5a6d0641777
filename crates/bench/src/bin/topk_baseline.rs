//! **Top-k read-path baseline** — produces the committed
//! `BENCH_topk.json`: ranked-read latency of the incrementally maintained
//! [`RankIndex`] against a from-scratch `ranking::top_k` re-scan of the
//! score vector, as `n` grows.
//!
//! Three reads per cell, all answering the same question a serve client
//! asks:
//!
//! * `top_k(10)` — re-scan is `O(n + k log k)` selection over the full
//!   vector, the index walks its left spine in `O(k + log n)`;
//! * `rank_of(v)` — re-scan counts better-ranked vertices in `O(n)`, the
//!   index descends in `O(log n)`;
//! * one `set` — what the write path pays per changed vertex to keep the
//!   index current (the re-scan column pays nothing on writes; that is
//!   the trade being measured);
//! * one publish — a `ScoreDelta::Sparse` touching 1%, 10% and 66% of
//!   `n`, folded in as one batched treap write, against the same changes
//!   applied one `set` at a time.
//!
//! Scores are quantized so higher `n` rows carry real tie mass — the
//! regime where the tie-toward-smaller-id rule does the ordering work.
//! Every cell asserts the index agrees with the oracle before timing it,
//! and every publish asserts the batched result is structurally identical
//! to `RankIndex::from_scores` of the updated vector.
//!
//! ```sh
//! cargo run --release -p ebc-bench --bin topk_baseline [-- --smoke] [-- --out PATH]
//! ```
//!
//! `--smoke` shrinks the sweep to a seconds-long CI sanity pass.

use ebc_core::rankindex::{RankIndex, ScoreDelta};
use ebc_core::ranking;
use std::time::Instant;

const K: usize = 10;

/// Fractions of `n` one publish delta touches.
const PUBLISH_FRACTIONS: [f64; 3] = [0.01, 0.10, 0.66];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthetic score vector with deliberate tie mass: quantized draws so
/// collisions appear once `n` outgrows the value lattice.
fn scores(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| (splitmix64(&mut state) % 100_000) as f64 / 16.0)
        .collect()
}

/// Median-of-reps of the mean per-call wall time, in microseconds.
fn time_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64 * 1e6
        })
        .collect();
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// The re-scan answer to `rank_of`: count strictly-better vertices under
/// the ranking tie rule.
fn rescan_rank_of(vbc: &[f64], v: u32) -> usize {
    let sv = vbc[v as usize];
    1 + vbc
        .iter()
        .enumerate()
        .filter(|&(w, &sw)| sw.total_cmp(&sv).then(v.cmp(&(w as u32))).is_gt())
        .count()
}

/// A delta moving `k` distinct vertices to fresh scores.
fn publish_delta(n: usize, k: usize, seed: u64) -> Vec<(u32, f64)> {
    let mut state = seed;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    // partial Fisher-Yates: the first `k` ids are a uniform sample
    for i in 0..k {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids[..k]
        .iter()
        .map(|&v| (v, (splitmix64(&mut state) % 100_000) as f64 / 16.0))
        .collect()
}

/// Time one publish of a `frac * n` delta, batched and point by point, on
/// fresh clones of `index`; returns the JSON cell.
fn publish_cell(index: &RankIndex, vbc: &[f64], frac: f64, reps: usize, iters: usize) -> String {
    let n = vbc.len();
    let k = ((n as f64 * frac) as usize).max(1);
    let changes = publish_delta(n, k, 0xde17a ^ k as u64);
    let delta = ScoreDelta::Sparse(changes.clone());

    // the structural contract first, then the stopwatch
    let mut updated = vbc.to_vec();
    for &(v, x) in &changes {
        updated[v as usize] = x;
    }
    let mut batched = index.clone();
    batched.apply(&delta);
    assert_eq!(
        batched.shape(),
        RankIndex::from_scores(&updated).shape(),
        "n={n} k={k}: batched publish is not the rebuild tree"
    );

    // keep each timed cell near a fixed amount of work
    let iters = (20_000 / k).clamp(1, iters);
    let batch_us = time_per_call(reps, iters, || {
        let mut ix = index.clone();
        ix.apply(std::hint::black_box(&delta));
        std::hint::black_box(ix);
    });
    let pointwise_us = time_per_call(reps, iters, || {
        let mut ix = index.clone();
        for &(v, x) in std::hint::black_box(&changes) {
            ix.set(v, x);
        }
        std::hint::black_box(ix);
    });
    eprintln!(
        "n={n:>7}: publish k={k:>6}: {pointwise_us:.1}us point by point -> {batch_us:.1}us batched ({:.1}x)",
        pointwise_us / batch_us
    );
    format!(
        "{{\"frac\": {frac}, \"changed\": {k}, \"batch_us\": {batch_us:.2}, \
         \"pointwise_us\": {pointwise_us:.2}, \"speedup\": {:.2}}}",
        pointwise_us / batch_us
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path = String::from("BENCH_topk.json");
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args.get(i + 1).expect("--out requires a path").clone();
    }

    let (ns, reps, iters): (&[usize], _, _) = if smoke {
        (&[1_000, 8_000], 3, 50)
    } else {
        (&[1_000, 4_000, 16_000, 65_000, 260_000], 5, 200)
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    let mut rows = Vec::new();
    for &n in ns {
        let vbc = scores(n, 0x5eed ^ n as u64);
        let index = RankIndex::from_scores(&vbc);

        // the bitwise contract first, then the stopwatch
        let oracle: Vec<(u32, f64)> = ranking::top_k(&vbc, K)
            .into_iter()
            .map(|v| (v, vbc[v as usize]))
            .collect();
        assert_eq!(index.top_entries(K), oracle, "n={n}: index disagrees");
        let probe = oracle[K / 2].0;
        assert_eq!(
            index.rank_of(probe),
            Some(rescan_rank_of(&vbc, probe)),
            "n={n}: rank_of disagrees"
        );

        let rescan_topk = time_per_call(reps, iters, || {
            std::hint::black_box(ranking::top_k(std::hint::black_box(&vbc), K));
        });
        let indexed_topk = time_per_call(reps, iters, || {
            std::hint::black_box(std::hint::black_box(&index).top_k(K));
        });
        let rescan_rank = time_per_call(reps, iters, || {
            std::hint::black_box(rescan_rank_of(std::hint::black_box(&vbc), probe));
        });
        let indexed_rank = time_per_call(reps, iters, || {
            std::hint::black_box(std::hint::black_box(&index).rank_of(probe));
        });
        // maintenance cost: one write-path score change on a fresh clone
        let mut state = n as u64 | 1;
        let mut live = index.clone();
        let indexed_set = time_per_call(reps, iters, || {
            let r = splitmix64(&mut state);
            live.set((r % n as u64) as u32, (r >> 32) as f64 / 16.0);
        });

        let publish: Vec<String> = PUBLISH_FRACTIONS
            .iter()
            .map(|&frac| publish_cell(&index, &vbc, frac, reps, iters))
            .collect();

        eprintln!(
            "n={n:>7}: top_k {rescan_topk:.3}us -> {indexed_topk:.3}us ({:.1}x), \
             rank_of {rescan_rank:.3}us -> {indexed_rank:.3}us ({:.1}x), \
             set {indexed_set:.3}us",
            rescan_topk / indexed_topk,
            rescan_rank / indexed_rank,
        );
        rows.push(format!(
            "    {{\"n\": {n}, \"k\": {K}, \
             \"rescan_topk_us\": {rescan_topk:.4}, \"indexed_topk_us\": {indexed_topk:.4}, \
             \"topk_speedup\": {:.2}, \
             \"rescan_rank_of_us\": {rescan_rank:.4}, \"indexed_rank_of_us\": {indexed_rank:.4}, \
             \"rank_of_speedup\": {:.2}, \
             \"indexed_set_us\": {indexed_set:.4}, \"publish\": [{}]}}",
            rescan_topk / indexed_topk,
            rescan_rank / indexed_rank,
            publish.join(", "),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"topk\",\n  \"k\": {K},\n  \"repetitions\": {reps},\n  \
         \"iters_per_rep\": {iters},\n  \"host_cores\": {cores},\n  \
         \"metric\": \"per-call wall time (median of repetitions, mean over iters) for ranked reads on a quantized tie-heavy score vector: top_k(10) and rank_of via a full re-scan of the scores vs the incremental rank index; indexed_set_us is the write-path cost of keeping the index current for one changed vertex; publish is one sparse delta changing a fraction of n, folded in as one batched difference+union (batch_us) vs one set per changed vertex (pointwise_us), each on a fresh O(1) clone\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write baseline json");
    eprintln!("wrote {out_path}");
}
