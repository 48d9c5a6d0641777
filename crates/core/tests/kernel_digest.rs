//! Bitwise pin of the incremental kernel.
//!
//! Each test drives a fixed update stream through a serial
//! [`BetweennessState`] and folds, every [`EVERY`] updates and at the end,
//! every source's `BD[s]` record (`d`, `σ`, `δ` bits) plus the running
//! `vbc`/`ebc` bits into one FNV-1a digest. The digests and the final work
//! counters must equal pinned constants, so any change to the summation
//! order, to which edge slots are written, or to which vertices are popped
//! shows up as a different number — not as a tolerance-level drift an oracle
//! would forgive.
//!
//! After an intended change of kernel output, the failure messages print the
//! new constants; justify them in the change log before pasting them in.

use ebc_core::bd::BdStore;
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::assert_matches_scratch;
use ebc_gen::models::{erdos_renyi_gnm, holme_kim};
use ebc_gen::streams::{addition_stream, removal_stream};
use ebc_graph::Graph;

/// Updates between two digests.
const EVERY: usize = 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
}

/// Digest of the whole state: every source's record, then the scores.
fn digest(st: &mut BetweennessState) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let store = st.store_mut();
    for s in store.sources() {
        h.word(u64::from(s));
        store
            .update_with(s, &mut |view| {
                view.d.iter().for_each(|&d| h.word(u64::from(d)));
                view.sigma.iter().for_each(|&sig| h.word(sig));
                view.delta.iter().for_each(|&del| h.word(del.to_bits()));
                false
            })
            .unwrap();
    }
    let scores = st.scores();
    scores.vbc.iter().for_each(|&x| h.word(x.to_bits()));
    scores.ebc.iter().for_each(|&x| h.word(x.to_bits()));
    h.0
}

/// One addition, one removal, repeating; if `arrival_every` is nonzero,
/// every `arrival_every`-th update attaches a new vertex to an existing one.
fn mixed_stream(g: &Graph, k: usize, seed: u64, arrival_every: usize) -> Vec<Update> {
    let adds = addition_stream(g, k, seed);
    let rems = removal_stream(g, k, seed + 1);
    let mut out = Vec::with_capacity(adds.len() + rems.len());
    let mut n = g.n() as u32;
    for i in 0..adds.len().max(rems.len()) {
        for next in [
            adds.get(i).map(|&(u, v)| Update::add(u, v)),
            rems.get(i).map(|&(u, v)| Update::remove(u, v)),
        ]
        .into_iter()
        .flatten()
        {
            if arrival_every != 0 && (out.len() + 1).is_multiple_of(arrival_every) {
                let anchor = (out.len() as u32).wrapping_mul(2_654_435_761) % n;
                out.push(Update::add(anchor, n));
                n += 1;
            }
            out.push(next);
        }
    }
    out
}

/// Run `stream` from `g` and check the digests (one per [`EVERY`] updates,
/// plus the final state if the stream does not end on one) and the final
/// `[processed, skipped, touched, popped]` counters against pinned values.
fn check(g: Graph, stream: &[Update], label: &str, want: &[u64], want_counts: [u64; 4]) {
    let mut st = BetweennessState::new(&g);
    let mut digests = Vec::new();
    for (i, &u) in stream.iter().enumerate() {
        st.apply(u).unwrap();
        if (i + 1).is_multiple_of(EVERY) {
            digests.push(digest(&mut st));
        }
    }
    if !stream.len().is_multiple_of(EVERY) {
        digests.push(digest(&mut st));
    }
    assert_matches_scratch(st.graph(), st.scores(), 1e-6, label);
    let s = st.stats();
    let counts = [s.sources_processed, s.sources_skipped, s.touched, s.popped];
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        digests,
        want,
        "{label}: digests are now [{}]",
        hex.join(", ")
    );
    assert_eq!(counts, want_counts, "{label}: work counters changed");
}

#[test]
fn social_graph_1000() {
    let g = holme_kim(1000, 3, 0.3, 5);
    let stream = mixed_stream(&g, 24, 17, 9);
    check(
        g,
        &stream,
        "holme-kim 1000",
        &[0x2a370543c1fad1bc, 0x11b4742f1b35e058, 0x8ad8b3a2a30cbb39],
        [33185, 19945, 161460, 923962],
    );
}

#[test]
fn social_graph_400() {
    let g = holme_kim(400, 2, 0.3, 11);
    let stream = mixed_stream(&g, 50, 29, 7);
    check(
        g,
        &stream,
        "holme-kim 400",
        &[
            0xc13ff008f0168f80,
            0xbaecc13e94285438,
            0x718487f6881b21b4,
            0x128b1959ddf5627a,
            0xcfaa4531e25670aa,
            0x7f4f1a5c397e6f61,
        ],
        [33984, 13320, 174346, 720120],
    );
}

#[test]
fn sparse_graph_that_disconnects_and_remerges() {
    // Sparse G(n, m): removals split components, additions merge them back,
    // so the d′ = ∞ paths of both phases are in the pin.
    let g = erdos_renyi_gnm(150, 170, 41);
    let stream = mixed_stream(&g, 40, 43, 0);
    check(
        g,
        &stream,
        "sparse ER 150",
        &[
            0x92f8bda0c98feb23,
            0x7139fd392a0a779f,
            0xbb074f695ba38fdb,
            0xa96edae07b50401a,
        ],
        [9128, 2872, 44796, 165637],
    );
}

#[test]
fn path_with_chords() {
    // Deep BFS levels: long ancestor walks and multi-level moves.
    let mut g = Graph::with_vertices(80);
    for i in 0..79u32 {
        g.add_edge(i, i + 1).unwrap();
    }
    for (u, v) in [(0, 40), (10, 60), (30, 79)] {
        g.add_edge(u, v).unwrap();
    }
    let mut stream = Vec::new();
    for k in 0..6u32 {
        let (a, b) = (3 + 7 * k, 45 + 5 * k);
        stream.push(Update::add(a, b));
        stream.push(Update::remove(20 + k, 21 + k));
        stream.push(Update::add(20 + k, 21 + k));
        stream.push(Update::remove(a, b));
        stream.push(Update::add(a + 1, b + 2));
    }
    stream.push(Update::remove(0, 40));
    stream.push(Update::remove(39, 40));
    stream.push(Update::add(79, 80));
    stream.push(Update::remove(10, 60));
    check(
        g,
        &stream,
        "path with chords",
        &[0xc7d064fffb150ead, 0x5bc1d9af04f41d69],
        [2656, 65, 38728, 124189],
    );
}
