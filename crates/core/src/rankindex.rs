//! Incrementally maintained ordered index over centrality scores.
//!
//! The paper's closing application (§7) is online detection of emerging
//! leaders: consumers read *rankings*, not raw scores, and they read them
//! far more often than the graph changes shape at the top. [`RankIndex`]
//! keeps the full score order materialized across updates so
//! [`RankIndex::top_k`] is `O(k + log n)` and [`RankIndex::rank_of`] /
//! [`RankIndex::percentile`] are `O(log n)`, instead of the `O(n log n)`
//! re-sort of [`crate::ranking::top_k`] (which stays as the oracle the
//! index is property-tested against, bit for bit).
//!
//! ## Structure
//!
//! The order is a **persistent treap** keyed by one `u128` per vertex:
//! the high 64 bits are the bitwise *complement* of the IEEE-754
//! total-order key of the score (so ascending key order is descending
//! score order, `f64::total_cmp` exactly), the low 32 bits are the vertex
//! id (so equal scores break toward the smaller id — the same tie rule as
//! `ranking::top_k`). Heap priorities are `splitmix64(vertex)`: the
//! finalizer is a bijection on `u64`, so priorities are distinct and the
//! tree shape is a deterministic function of the key set. Nodes are
//! `Arc`-shared and every write path-copies only the nodes it changes,
//! which makes cloning the whole index `O(1)` — the serve layer publishes
//! a clone inside each immutable snapshot without copying `n` scores.
//!
//! Scores themselves live in a chunked copy-on-write vector
//! (`ScoreVec`) so a snapshot clone shares unchanged chunks and a
//! sparse update copies only the chunks it touches.
//!
//! ## Delta maintenance
//!
//! Producers publish [`ScoreDelta`]s: `Unchanged` (nothing moved),
//! `Sparse` (the update kernel's dirty vertices with their new scores) or
//! `Dense` (a full re-publication, e.g. right after bootstrap).
//! [`RankIndex::apply`] folds a `Sparse` delta of `k` changes in as one
//! batch, in three steps:
//!
//! 1. resolve the entries with sequential semantics (the last entry for a
//!    vertex wins, a vertex whose new bits equal its old bits is a no-op,
//!    growth zero-fills id gaps) into sorted removed keys and sorted
//!    inserted `(key, priority, score)` items;
//! 2. one `difference` pass deletes the removed keys, recursing only into
//!    subtrees that hold one and joining the children of each hit node;
//! 3. one `union` with a treap built from the inserted items in `O(k)`
//!    (the right-spine Cartesian build that also backs
//!    [`RankIndex::from_scores`]): the higher-priority root leads, the
//!    other tree is split at its key, the halves recurse.
//!
//! These are the join-based bulk set operations of Blelloch, Ferizovic &
//! Sun ("Just Join for Parallel Ordered Sets", SPAA 2016); on a treap
//! both cost `O(k log(n/k + 1))` expected, against `O(k log n)` for `k`
//! point updates. [`RankIndex::set`] is the one-element batch, so the
//! index has a single write mechanism. Because the shape depends only on
//! the key set, the result is structurally identical to a rebuild of the
//! same scores ([`RankIndex::shape`] exposes it for the checks that pin
//! this). Over-approximate dirty sets are harmless: correctness only
//! needs the dirty set to *cover* every vertex whose score bits changed.

use std::sync::Arc;

/// Chunk size of the copy-on-write score vector. Small enough that a
/// sparse update copies little, large enough that the `Arc` directory
/// stays tiny (`n / 512` pointers).
const CHUNK: usize = 512;

/// What changed in the published score vector since the last drain.
#[derive(Clone, Debug, PartialEq)]
pub enum ScoreDelta {
    /// No score changed bits; the index is already current.
    Unchanged,
    /// Exactly these vertices changed (or appeared), with their new
    /// scores. May over-approximate: unchanged entries are no-ops.
    Sparse(Vec<(u32, f64)>),
    /// Full re-publication of every score (bootstrap, resume, or a
    /// producer that cannot track deltas).
    Dense(Vec<f64>),
}

impl ScoreDelta {
    /// True when applying the delta cannot change the index.
    pub fn is_empty(&self) -> bool {
        match self {
            ScoreDelta::Unchanged => true,
            ScoreDelta::Sparse(changes) => changes.is_empty(),
            ScoreDelta::Dense(_) => false,
        }
    }

    /// Diff a freshly computed dense vector against the previously
    /// published one (bitwise), remembering `next` for the next call.
    ///
    /// This is the delta producer for engines whose reduce step
    /// re-materializes the vector (the clustered embodiments): the values
    /// always come from the true reduce, so the index stays bitwise equal
    /// to what `scores()` would report, and unchanged entries fold to an
    /// empty delta.
    pub fn from_diff(prev: &mut Option<Vec<f64>>, next: Vec<f64>) -> ScoreDelta {
        let Some(old) = prev else {
            *prev = Some(next.clone());
            return ScoreDelta::Dense(next);
        };
        let mut changes: Vec<(u32, f64)> = Vec::new();
        for (v, &x) in next.iter().enumerate() {
            if old.get(v).map(|o| o.to_bits()) != Some(x.to_bits()) {
                changes.push((v as u32, x));
            }
        }
        if next.len() < old.len() {
            // vertices never disappear from the score vector; a shrink
            // means the producer restarted — fall back to dense
            *prev = Some(next.clone());
            return ScoreDelta::Dense(next);
        }
        *old = next;
        if changes.is_empty() {
            ScoreDelta::Unchanged
        } else {
            ScoreDelta::Sparse(changes)
        }
    }
}

/// Monotone map from `f64` to `u64` in `total_cmp` order: `a.total_cmp(&b)
/// == score_key(a).cmp(&score_key(b))` for all bit patterns, NaNs
/// included.
#[inline]
fn score_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The treap's BST key: ascending key order is (descending score by
/// `total_cmp`, ascending vertex id) — exactly the oracle's comparator.
#[inline]
fn rank_key(score: f64, v: u32) -> u128 {
    (((!score_key(score)) as u128) << 32) | v as u128
}

/// splitmix64 finalizer: a bijection on `u64`, so distinct vertices get
/// distinct heap priorities and the treap shape is deterministic.
#[inline]
fn priority(v: u32) -> u64 {
    let mut z = (v as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Debug)]
struct Node {
    key: u128,
    pri: u64,
    size: usize,
    score: f64,
    left: Link,
    right: Link,
}

type Link = Option<Arc<Node>>;

impl Node {
    #[inline]
    fn vertex(&self) -> u32 {
        (self.key & 0xFFFF_FFFF) as u32
    }

    #[inline]
    fn fix_size(&mut self) {
        self.size = size(&self.left) + size(&self.right) + 1;
    }
}

#[inline]
fn size(t: &Link) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

fn mk(key: u128, pri: u64, score: f64, left: Link, right: Link) -> Link {
    let size = size(&left) + size(&right) + 1;
    Some(Arc::new(Node {
        key,
        pri,
        size,
        score,
        left,
        right,
    }))
}

// The write primitives below take their trees by value and rewrite nodes
// through `Arc::make_mut`: a node only this write path references (built
// or copied earlier in the same batch) is updated in place, a node a
// snapshot still shares is path-copied. They descend only through nodes
// they own, so a child's reference count always tells whether it is shared.

fn merge(l: Link, r: Link) -> Link {
    match (l, r) {
        (None, t) | (t, None) => t,
        (Some(mut a), Some(mut b)) => {
            if a.pri >= b.pri {
                let n = Arc::make_mut(&mut a);
                n.right = merge(n.right.take(), Some(b));
                n.fix_size();
                Some(a)
            } else {
                let n = Arc::make_mut(&mut b);
                n.left = merge(Some(a), n.left.take());
                n.fix_size();
                Some(b)
            }
        }
    }
}

/// Split into (`keys < key`, `keys ≥ key`).
fn split(t: Link, key: u128) -> (Link, Link) {
    let Some(mut t) = t else {
        return (None, None);
    };
    let n = Arc::make_mut(&mut t);
    if n.key < key {
        let (a, b) = split(n.right.take(), key);
        n.right = a;
        n.fix_size();
        (Some(t), b)
    } else {
        let (a, b) = split(n.left.take(), key);
        n.left = b;
        n.fix_size();
        (a, Some(t))
    }
}

/// Remove every key of the ascending `keys` from `t`. Recurses only into
/// subtrees holding a removed key, so untouched subtrees stay shared; a
/// removed node's children are joined with [`merge`].
fn difference(t: Link, keys: &[u128]) -> Link {
    if keys.is_empty() {
        return t;
    }
    let mut t = t?;
    let i = keys.partition_point(|&k| k < t.key);
    if keys.get(i) == Some(&t.key) {
        let Node { left, right, .. } = Arc::unwrap_or_clone(t);
        return merge(
            difference(left, &keys[..i]),
            difference(right, &keys[i + 1..]),
        );
    }
    let n = Arc::make_mut(&mut t);
    n.left = difference(n.left.take(), &keys[..i]);
    n.right = difference(n.right.take(), &keys[i..]);
    n.fix_size();
    Some(t)
}

/// Union of two treaps over disjoint key sets: the higher-priority root
/// leads, the other tree is split at its key, and the halves recurse.
fn union(a: Link, b: Link) -> Link {
    match (a, b) {
        (None, t) | (t, None) => t,
        (Some(a), Some(b)) => {
            let (mut hi, lo) = if a.pri >= b.pri { (a, b) } else { (b, a) };
            let n = Arc::make_mut(&mut hi);
            let (l, r) = split(Some(lo), n.key);
            n.left = union(n.left.take(), l);
            n.right = union(n.right.take(), r);
            n.fix_size();
            Some(hi)
        }
    }
}

/// Build a treap from `(key, pri, score)` items in ascending key order in
/// `O(len)`: the right-spine Cartesian-tree construction. The spine is
/// the path from the root to the largest key so far; a node popped off it
/// never changes again, so it is frozen into an `Arc` node on the spot.
fn build_sorted(items: &[(u128, u64, f64)]) -> Link {
    // (item, frozen left subtree); each entry's right child is the next
    // entry up the stack
    let mut spine: Vec<(usize, Link)> = Vec::new();
    let freeze = |i: usize, left: Link, right: Link| {
        let (key, pri, score) = items[i];
        mk(key, pri, score, left, right)
    };
    for (id, &(_, pri, _)) in items.iter().enumerate() {
        let mut last: Link = None;
        while let Some(&(top, _)) = spine.last() {
            if items[top].1 >= pri {
                break;
            }
            let (_, left) = spine.pop().expect("spine is non-empty");
            last = freeze(top, left, last);
        }
        spine.push((id, last));
    }
    spine
        .into_iter()
        .rev()
        .fold(None, |right, (i, left)| freeze(i, left, right))
}

/// Chunked copy-on-write score vector: a clone shares every chunk, a
/// point write copies one `CHUNK`-sized chunk.
#[derive(Clone, Debug, Default)]
struct ScoreVec {
    chunks: Vec<Arc<Vec<f64>>>,
    len: usize,
}

impl ScoreVec {
    fn get(&self, i: usize) -> f64 {
        self.chunks[i / CHUNK][i % CHUNK]
    }

    fn set(&mut self, i: usize, x: f64) {
        Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK] = x;
    }

    fn push(&mut self, x: f64) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk exists")).push(x);
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }
}

/// The incrementally maintained score order (module docs for the
/// structure and the delta-maintenance rules).
#[derive(Clone, Debug, Default)]
pub struct RankIndex {
    root: Link,
    scores: ScoreVec,
}

impl RankIndex {
    /// An empty index; feed it with [`RankIndex::apply`] or
    /// [`RankIndex::set`].
    pub fn new() -> Self {
        RankIndex::default()
    }

    /// Bulk-build from a dense score vector in `O(n log n)`: sort by rank
    /// key, then `build_sorted` in `O(n)`.
    pub fn from_scores(scores: &[f64]) -> Self {
        let mut items: Vec<(u128, u64, f64)> = scores
            .iter()
            .enumerate()
            .map(|(v, &x)| (rank_key(x, v as u32), priority(v as u32), x))
            .collect();
        items.sort_unstable_by_key(|&(key, _, _)| key);
        let mut sv = ScoreVec::default();
        for &x in scores {
            sv.push(x);
        }
        RankIndex {
            root: build_sorted(&items),
            scores: sv,
        }
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.scores.len
    }

    /// True when no vertex is indexed.
    pub fn is_empty(&self) -> bool {
        self.scores.len == 0
    }

    /// The indexed score of `v`, if `v` is indexed.
    pub fn score(&self, v: u32) -> Option<f64> {
        ((v as usize) < self.scores.len).then(|| self.scores.get(v as usize))
    }

    /// Point update: move `v` to `score` (append when `v` is the next
    /// fresh id; intermediate ids are filled with `0.0`, the score every
    /// vertex is born with). `O(log n)`; a bitwise no-op change is free.
    /// A one-element [`ScoreDelta::Sparse`] batch.
    pub fn set(&mut self, v: u32, score: f64) {
        self.apply_sparse(&[(v, score)]);
    }

    /// Fold one published delta into the index.
    pub fn apply(&mut self, delta: &ScoreDelta) {
        match delta {
            ScoreDelta::Unchanged => {}
            ScoreDelta::Sparse(changes) => self.apply_sparse(changes),
            ScoreDelta::Dense(scores) => *self = RankIndex::from_scores(scores),
        }
    }

    /// The batched write path: resolve `changes` with sequential
    /// semantics (the last entry for a vertex wins, growth zero-fills
    /// gaps), then one `difference` of the old keys and one `union`
    /// with a treap built from the new ones — `O(k log(n/k + 1))` for `k`
    /// changed vertices.
    fn apply_sparse(&mut self, changes: &[(u32, f64)]) {
        let old_len = self.scores.len;
        // (vertex, score before the batch) for every write to an old vertex
        let mut touched: Vec<(u32, f64)> = Vec::new();
        for &(v, score) in changes {
            let vi = v as usize;
            while self.scores.len < vi {
                self.scores.push(0.0);
            }
            if vi == self.scores.len {
                self.scores.push(score);
                continue;
            }
            let old = self.scores.get(vi);
            if old.to_bits() == score.to_bits() {
                continue;
            }
            if vi < old_len {
                touched.push((v, old));
            }
            self.scores.set(vi, score);
        }
        // the first write of a vertex saw its pre-batch score
        touched.sort_by_key(|&(v, _)| v);
        touched.dedup_by_key(|&mut (v, _)| v);

        let mut removed: Vec<u128> = Vec::with_capacity(touched.len());
        let mut inserted: Vec<(u128, u64, f64)> =
            Vec::with_capacity(touched.len() + (self.scores.len - old_len));
        for &(v, old) in &touched {
            let new = self.scores.get(v as usize);
            if new.to_bits() != old.to_bits() {
                removed.push(rank_key(old, v));
                inserted.push((rank_key(new, v), priority(v), new));
            }
        }
        for vi in old_len..self.scores.len {
            let (v, x) = (vi as u32, self.scores.get(vi));
            inserted.push((rank_key(x, v), priority(v), x));
        }
        removed.sort_unstable();
        inserted.sort_unstable_by_key(|&(key, _, _)| key);

        let root = difference(self.root.take(), &removed);
        self.root = union(root, build_sorted(&inserted));
    }

    /// The top `k` vertex ids — bitwise the same list as
    /// `ranking::top_k(&scores, k)` on the indexed scores. `O(k + log n)`.
    pub fn top_k(&self, k: usize) -> Vec<u32> {
        self.top_entries(k).into_iter().map(|(v, _)| v).collect()
    }

    /// The top `k` as `(vertex, score)` pairs, rank order. `O(k + log n)`.
    pub fn top_entries(&self, k: usize) -> Vec<(u32, f64)> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        let mut stack: Vec<&Arc<Node>> = Vec::new();
        let mut cur = self.root.as_ref();
        while out.len() < k {
            while let Some(n) = cur {
                stack.push(n);
                cur = n.left.as_ref();
            }
            let Some(n) = stack.pop() else { break };
            out.push((n.vertex(), n.score));
            cur = n.right.as_ref();
        }
        out
    }

    /// 1-based rank of `v` (1 = most central, ties toward smaller id),
    /// `None` when `v` is not indexed. `O(log n)`.
    pub fn rank_of(&self, v: u32) -> Option<usize> {
        let score = self.score(v)?;
        let key = rank_key(score, v);
        let mut before = 0usize;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                std::cmp::Ordering::Less => cur = n.left.as_ref(),
                std::cmp::Ordering::Greater => {
                    before += size(&n.left) + 1;
                    cur = n.right.as_ref();
                }
                std::cmp::Ordering::Equal => return Some(before + size(&n.left) + 1),
            }
        }
        // the score vector and the tree are maintained in lockstep, so a
        // scored vertex is always in the tree
        None
    }

    /// Fraction of indexed vertices ranked at or below `v` — the top
    /// vertex answers `1.0`, the bottom `1/n`. `O(log n)`.
    pub fn percentile(&self, v: u32) -> Option<f64> {
        let rank = self.rank_of(v)?;
        let n = self.len();
        Some((n - (rank - 1)) as f64 / n as f64)
    }

    /// The entry at 1-based `rank`, `None` when out of range. `O(log n)`.
    pub fn nth(&self, rank: usize) -> Option<(u32, f64)> {
        if rank == 0 || rank > self.len() {
            return None;
        }
        let mut remaining = rank;
        let mut cur = self.root.as_ref();
        while let Some(n) = cur {
            let left = size(&n.left);
            if remaining <= left {
                cur = n.left.as_ref();
            } else if remaining == left + 1 {
                return Some((n.vertex(), n.score));
            } else {
                remaining -= left + 1;
                cur = n.right.as_ref();
            }
        }
        None
    }

    /// The indexed scores as a dense vector (vertex-id order).
    pub fn to_scores(&self) -> Vec<f64> {
        self.scores.iter().collect()
    }

    /// Iterate the indexed scores in vertex-id order.
    pub fn scores_iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.scores.iter()
    }

    /// The tree's shape as a preorder list of `(vertex, subtree size)`.
    /// Together with the scores it determines the tree, so two indexes
    /// are structurally identical exactly when their shapes and score bits
    /// agree — how tests and benches check that a delta-maintained index
    /// equals [`RankIndex::from_scores`] of the same vector.
    pub fn shape(&self) -> Vec<(u32, usize)> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<&Arc<Node>> = self.root.iter().collect();
        while let Some(n) = stack.pop() {
            out.push((n.vertex(), n.size));
            stack.extend(n.right.iter());
            stack.extend(n.left.iter());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Random scores with deliberate ties, zeros of both signs, infinities
    /// and NaNs — every class `total_cmp` distinguishes.
    fn adversarial_scores(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| match xorshift(&mut s) % 10 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => -f64::NAN,
                6 | 7 => (xorshift(&mut s) % 5) as f64, // ties
                _ => (xorshift(&mut s) % 1000) as f64 / 7.0,
            })
            .collect()
    }

    fn assert_matches_oracle(ix: &RankIndex, scores: &[f64]) {
        assert_eq!(ix.len(), scores.len());
        let full = ranking::top_k(scores, scores.len());
        assert_eq!(ix.top_k(scores.len()), full, "full order diverges");
        for k in [0, 1, 3, scores.len() / 2] {
            assert_eq!(ix.top_k(k), ranking::top_k(scores, k), "k={k}");
        }
        for (pos, &v) in full.iter().enumerate() {
            assert_eq!(ix.rank_of(v), Some(pos + 1), "rank of {v}");
            let (nv, ns) = ix.nth(pos + 1).expect("rank in range");
            assert_eq!(nv, v, "entry at rank {}", pos + 1);
            assert_eq!(ns.to_bits(), scores[v as usize].to_bits());
        }
        let got = ix.to_scores();
        assert_eq!(got.len(), scores.len());
        for (v, (&a, &b)) in got.iter().zip(scores).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "score bits of {v}");
        }
    }

    #[test]
    fn score_key_is_total_cmp() {
        let samples = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    score_key(a).cmp(&score_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn bulk_build_matches_oracle_on_adversarial_scores() {
        for seed in 1..6 {
            let scores = adversarial_scores(97, seed);
            assert_matches_oracle(&RankIndex::from_scores(&scores), &scores);
        }
    }

    #[test]
    fn incremental_sets_match_rebuild() {
        let mut s = 42u64;
        let mut scores = adversarial_scores(50, 7);
        let mut ix = RankIndex::from_scores(&scores);
        for step in 0..300 {
            let v = (xorshift(&mut s) % scores.len() as u64) as u32;
            let replacement = adversarial_scores(1, s ^ step)[0];
            scores[v as usize] = replacement;
            ix.set(v, replacement);
            if step % 37 == 0 {
                assert_matches_oracle(&ix, &scores);
            }
        }
        assert_matches_oracle(&ix, &scores);
    }

    /// Structural identity with a rebuild: same shape, same score bits.
    fn assert_same_tree(ix: &RankIndex, scores: &[f64], ctx: &str) {
        let rebuilt = RankIndex::from_scores(scores);
        assert_eq!(ix.shape(), rebuilt.shape(), "{ctx}: shape diverges");
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(ix.to_scores()), bits(rebuilt.to_scores()), "{ctx}");
    }

    #[test]
    fn batched_apply_is_structurally_identical_to_rebuild() {
        let mut s = 0x0ba7_c4ed_u64;
        let n0 = 40;
        let mut scores = adversarial_scores(n0, 11);
        let mut ix = RankIndex::from_scores(&scores);
        for step in 0..200u64 {
            let n = scores.len();
            let k = 1 + (xorshift(&mut s) % n as u64) as usize;
            let mut batch: Vec<(u32, f64)> = Vec::with_capacity(k + 2);
            for _ in 0..k {
                let v = (xorshift(&mut s) % n as u64) as u32;
                let x = match xorshift(&mut s) % 4 {
                    // a bit-equal no-op entry
                    0 => scores[v as usize],
                    _ => adversarial_scores(1, xorshift(&mut s))[0],
                };
                batch.push((v, x));
                // duplicates: a later entry for the same vertex wins
                if xorshift(&mut s).is_multiple_of(5) {
                    batch.push((v, adversarial_scores(1, xorshift(&mut s))[0]));
                }
            }
            // occasional out-of-order growth with a gap, then a write
            // into the gap
            if step.is_multiple_of(7) {
                let far = (n + 1 + (xorshift(&mut s) % 3) as usize) as u32;
                batch.insert(k / 2, (far, adversarial_scores(1, step)[0]));
                batch.push((far - 1, 5.0));
            }
            // the sequential reference semantics of `set`
            for &(v, x) in &batch {
                if v as usize >= scores.len() {
                    scores.resize(v as usize + 1, 0.0);
                }
                scores[v as usize] = x;
            }
            // a snapshot taken before the batch must not see it
            let (snap, snap_scores) = (ix.clone(), ix.to_scores());
            ix.apply(&ScoreDelta::Sparse(batch));
            assert_same_tree(&ix, &scores, &format!("step {step}"));
            assert_same_tree(&snap, &snap_scores, &format!("snapshot {step}"));
        }
        assert_matches_oracle(&ix, &scores);
    }

    #[test]
    fn whole_vector_batch_and_point_sets_agree() {
        let before = adversarial_scores(64, 5);
        let after = adversarial_scores(64, 6);
        let mut batched = RankIndex::from_scores(&before);
        batched.apply(&ScoreDelta::Sparse(
            after
                .iter()
                .enumerate()
                .map(|(v, &x)| (v as u32, x))
                .collect(),
        ));
        let mut pointwise = RankIndex::from_scores(&before);
        for (v, &x) in after.iter().enumerate().rev() {
            pointwise.set(v as u32, x);
        }
        assert_same_tree(&batched, &after, "batch");
        assert_same_tree(&pointwise, &after, "point sets");
    }

    #[test]
    fn growth_fills_gaps_with_zero() {
        let mut ix = RankIndex::new();
        ix.set(0, 3.0);
        ix.set(4, 1.0); // vertices 1..=3 are born at 0.0
        assert_eq!(ix.len(), 5);
        assert_matches_oracle(&ix, &[3.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn apply_delta_variants() {
        let base = [2.0, 9.0, 4.0];
        let mut ix = RankIndex::new();
        ix.apply(&ScoreDelta::Dense(base.to_vec()));
        assert_matches_oracle(&ix, &base);
        ix.apply(&ScoreDelta::Unchanged);
        assert_matches_oracle(&ix, &base);
        ix.apply(&ScoreDelta::Sparse(vec![(0, 10.0), (3, 1.0)]));
        assert_matches_oracle(&ix, &[10.0, 9.0, 4.0, 1.0]);
    }

    #[test]
    fn clone_is_a_stable_snapshot() {
        let scores = adversarial_scores(64, 3);
        let mut ix = RankIndex::from_scores(&scores);
        let snap = ix.clone();
        for v in 0..64u32 {
            ix.set(v, f64::from(v));
        }
        assert_matches_oracle(&snap, &scores);
        let now: Vec<f64> = (0..64).map(f64::from).collect();
        assert_matches_oracle(&ix, &now);
    }

    #[test]
    fn diff_produces_minimal_sparse_deltas() {
        let mut prev = None;
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 2.0]);
        assert_eq!(d, ScoreDelta::Dense(vec![1.0, 2.0]));
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 2.0]);
        assert!(d.is_empty());
        let d = ScoreDelta::from_diff(&mut prev, vec![1.0, 5.0, 7.0]);
        assert_eq!(d, ScoreDelta::Sparse(vec![(1, 5.0), (2, 7.0)]));
        // -0.0 vs 0.0 is a bitwise change even though they compare equal
        let d = ScoreDelta::from_diff(&mut prev, vec![-0.0, 5.0, 7.0]);
        assert_eq!(d, ScoreDelta::Sparse(vec![(0, -0.0)]));
    }

    #[test]
    fn percentile_ends() {
        let ix = RankIndex::from_scores(&[1.0, 9.0, 5.0, 0.0]);
        assert_eq!(ix.percentile(1), Some(1.0)); // leader
        assert_eq!(ix.percentile(3), Some(0.25)); // last of four
        assert_eq!(ix.percentile(9), None);
        assert_eq!(ix.rank_of(2), Some(2));
    }
}
