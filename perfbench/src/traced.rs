//! The traced run: the per-layer ledger.
//!
//! Six passes over the same graph and the same first `N` updates, where
//! `N` is what an untraced wire pass acknowledges of one lap (see
//! `stack::Workload::lap`) within half the run time:
//!
//! 1. **untraced wire pass** — the timed runs' client traffic, no tracing;
//! 2. **traced wire pass** — the same traffic with client spans, against
//!    a server whose engine is wrapped in a [`TracedEngine`];
//! 3. **in-process pass** — the calls the server's writer task makes per
//!    batch (parse, apply, checkpoint, score delta, rank-index publish,
//!    `top_k`), each under its own span, with `Checkpoint::Manual` plus an
//!    explicit checkpoint per batch;
//! 4. **core shadow pass** — a `BetweennessState` over a [`TimedStore`]
//!    that forwards to the workload's store, splitting kernel from store;
//! 5. **engine shadow pass** — a `ClusterEngine` with `P` workers,
//!    reading its `ApplyReport`s;
//! 6. **cluster pass** — a replicated `P`-shard fleet over the sim
//!    transport, driven through `Coordinator::apply` per update and
//!    `Coordinator::reduce` per batch (the publish a served fleet makes).
//!
//! The core shadow pass is also the oracle: the wire, in-process and
//! cluster finals must be bitwise equal to its exact scores.

use crate::drive::{drive, Window};
use crate::oracle::{check_exact, check_top_k};
use crate::stack::{self, Kind, Workload, P};
use crate::trace::{self_times, Recorder, Span, TimedStore};
use crate::wire::apply_line;
use crate::{median, pct, Metric, Outcome};
use ebc_serve::{parse_request, Command, ServeEngine};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use streaming_bc::core::bd::{BdStore, MemoryBdStore};
use streaming_bc::core::rankindex::{RankIndex, ScoreDelta};
use streaming_bc::core::scores::Scores;
use streaming_bc::core::{BetweennessState, UpdateConfig, UpdateStats};
use streaming_bc::engine::ClusterEngine;
use streaming_bc::graph::Graph;
use streaming_bc::serve::ServedSession;
use streaming_bc::store::{CodecKind, DiskBdStore};
use streaming_bc::{Checkpoint, Update};

/// Per-layer self times must cover at least this share of the in-process
/// pass wall time.
const MIN_COVERAGE: f64 = 0.9;

/// Spans opened outside any per-update or per-batch work.
const NO_BATCH: u64 = u64::MAX;

pub fn run(w: &Workload, seed: u64, seconds: u64, work: &Path) -> Result<Outcome, String> {
    let (g, updates) = crate::inputs(w, seed)?;
    let rec = Recorder::new();
    Recorder::set_batch(NO_BATCH);

    // 1. untraced wire pass: fixes N
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let plain = stack::launch(w, &g, &work.join("wire0"), None)?;
    let w0 = drive(plain.addr, &updates, w.batch, half, None);
    plain.stop();
    window_ok("untraced wire pass", &w0)?;
    let stream = &updates[..w0.acked];

    // 2. traced wire pass over the same updates
    let traced = stack::launch(w, &g, &work.join("wire1"), Some(&rec))?;
    let w1 = drive(traced.addr, stream, w.batch, Duration::MAX, Some(&rec));
    let finals = crate::final_reads(traced.addr);
    traced.stop();
    window_ok("traced wire pass", &w1)?;
    let (wire_vbc, wire_ebc, wire_top) = finals?;

    // 3-6. in-process, shadow and cluster passes
    let inproc = in_process(w, &g, stream, &rec, &work.join("inproc"))?;
    let core = match w.kind {
        Kind::Disk => {
            let dir = work.join("core");
            std::fs::create_dir_all(&dir).map_err(|e| format!("core dir: {e}"))?;
            let store = DiskBdStore::create(dir.join("bd.ebc"), g.n(), CodecKind::Wide)
                .map_err(|e| format!("disk store: {e}"))?;
            shadow_core(&g, stream, store, &rec)?
        }
        Kind::Mem => shadow_core(&g, stream, MemoryBdStore::new(g.n()), &rec)?,
    };
    let engine = shadow_engine(&g, stream, &rec)?;
    let cluster = cluster_pass(&g, stream, w.batch, &rec)?;

    // the correctness gate
    check_exact("traced wire reduce_exact", &wire_vbc, &wire_ebc, &core.last)?;
    check_top_k(&wire_top, &core.last.vbc)?;
    let (vbc, ebc) = (&inproc.last.vbc, &inproc.last.ebc);
    check_exact("in-process reduce_exact", vbc, ebc, &core.last)?;
    let (vbc, ebc) = (&cluster.last.vbc, &cluster.last.ebc);
    check_exact("cluster reduce_exact", vbc, ebc, &core.last)?;

    let spans = rec.spans();
    rec.write_jsonl(
        &Path::new(".bench_work")
            .join("traces")
            .join(format!("{}-seed{seed}.jsonl", w.name)),
    )
    .map_err(|e| format!("write spans: {e}"))?;
    let metrics = ledger(&spans, &w0, &w1, &inproc, &core, &engine, cluster.failovers);
    let coverage = metrics
        .iter()
        .find(|m| m.0 == "trace.coverage")
        .map_or(0.0, |m| m.1);
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "per-layer self times cover {coverage:.3} of the in-process pass, below {MIN_COVERAGE}"
        ));
    }

    let attempted =
        w0.apply.attempted + w0.query.attempted + w1.apply.attempted + w1.query.attempted;
    let stamp = vec![
        ("host_cores", crate::host_cores().to_string()),
        ("workload", format!("\"{}\"", w.name)),
        ("seed", seed.to_string()),
        ("n", g.n().to_string()),
        ("m", g.m().to_string()),
        ("batch", w.batch.to_string()),
        ("updates", stream.len().to_string()),
        (
            "queries",
            (w0.query_lat.len() + w1.query_lat.len()).to_string(),
        ),
        ("spans", spans.len().to_string()),
    ];
    Ok(Outcome {
        error: None,
        attempted,
        failed: 0,
        metrics,
        stamp,
    })
}

fn window_ok(what: &str, win: &Window) -> Result<(), String> {
    match &win.error {
        Some(e) => Err(format!("{what}: {e}")),
        None if win.acked == 0 => Err(format!("{what}: no update was acknowledged")),
        None => Ok(()),
    }
}

/// Results of the in-process pass beyond its spans.
struct InProcess {
    last: Scores,
    delta_len: Vec<f64>,
    /// Durable sessions only: `(manifest, live WAL, sealed, segments)`
    /// bytes and counts after the pass, and `replay_to(N)` seconds.
    history: Option<([u64; 4], f64)>,
}

fn delta_len(d: &ScoreDelta) -> f64 {
    match d {
        ScoreDelta::Unchanged => 0.0,
        ScoreDelta::Sparse(v) => v.len() as f64,
        ScoreDelta::Dense(v) => v.len() as f64,
    }
}

fn in_process(
    w: &Workload,
    g: &Graph,
    stream: &[Update],
    rec: &Arc<Recorder>,
    dir: &Path,
) -> Result<InProcess, String> {
    let lines: Vec<String> = stream.chunks(w.batch).map(apply_line).collect();
    let session = stack::session(w.kind, g, dir, Checkpoint::Manual)?;
    let mut eng = ServedSession::new(session);
    let err = |e: ebc_serve::ServeError| e.to_string();
    let mut rank = RankIndex::new();
    rank.apply(&eng.take_score_delta().map_err(err)?);
    let mut lens = Vec::new();
    let root = rec.open("pass.inproc");
    for (b, line) in lines.iter().enumerate() {
        Recorder::set_batch(b as u64);
        let updates = match rec.span("serve.parse", || parse_request(line)) {
            Ok(req) => match req.cmd {
                Command::Apply { updates } => updates,
                other => return Err(format!("parsed {other:?}, not an apply")),
            },
            Err(e) => return Err(format!("parse: {e:?}")),
        };
        rec.span("session.apply", || eng.apply_batch(&updates))
            .map_err(err)?;
        rec.span("session.checkpoint", || eng.checkpoint())
            .map_err(err)?;
        // the publish the writer task runs after every batch
        let delta = rec
            .span("rankindex.delta", || eng.take_score_delta())
            .map_err(err)?;
        rec.span("rankindex.apply", || rank.apply(&delta));
        let snap = rec.span("rankindex.clone", || rank.clone());
        rec.span("rankindex.top_k", || snap.top_entries(10));
        lens.push(delta_len(&delta));
    }
    rec.close(root, 0);
    Recorder::set_batch(NO_BATCH);
    let (vbc, ebc, _) = eng.reduce_exact().map_err(err)?;
    let live = Scores { vbc, ebc };
    let session = eng.into_inner();
    let history = match (session.history_stats(), session.dir()) {
        (Some(h), Some(d)) => {
            let manifest = std::fs::metadata(d.join("session.manifest"))
                .map_err(|e| format!("manifest: {e}"))?
                .len();
            let t = std::time::Instant::now();
            let r = session
                .replay_to(stream.len() as u64)
                .map_err(|e| format!("replay_to: {e}"))?;
            let replay = t.elapsed().as_secs_f64();
            let (vbc, ebc) = (&r.scores.vbc, &r.scores.ebc);
            check_exact("in-process replay_to(N)", vbc, ebc, &live)?;
            Some((
                [manifest, h.live_wal_bytes, h.sealed_bytes, h.segments],
                replay,
            ))
        }
        _ => None,
    };
    Ok(InProcess {
        last: live,
        delta_len: lens,
        history,
    })
}

/// Results of the core shadow pass beyond its spans.
struct Core {
    last: Scores,
    stats: Vec<UpdateStats>,
    /// `(read, written)` bytes through the store's syscalls, per update.
    io: Vec<(u64, u64)>,
}

/// `(rchar, wchar)` of this process, and the bytes the read itself took.
fn proc_io() -> Result<(u64, u64, u64), String> {
    let s = std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    let field = |key: &str| {
        s.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("no {key} in /proc/self/io"))
    };
    Ok((field("rchar:")?, field("wchar:")?, s.len() as u64))
}

fn shadow_core<S: BdStore>(
    g: &Graph,
    stream: &[Update],
    store: S,
    rec: &Arc<Recorder>,
) -> Result<Core, String> {
    let root = rec.open("pass.core");
    let store = TimedStore::new(store, Arc::clone(rec));
    let mut state = rec
        .span("core.bootstrap", || {
            BetweennessState::new_into_store(g.clone(), store, UpdateConfig::default())
        })
        .map_err(|e| format!("core bootstrap: {e}"))?;
    let mut stats = Vec::with_capacity(stream.len());
    let mut io = Vec::with_capacity(stream.len());
    for (i, &u) in stream.iter().enumerate() {
        Recorder::set_batch(i as u64);
        let (r0, w0, own) = proc_io()?;
        state.reset_stats();
        rec.span("core.apply", || state.apply(u))
            .map_err(|e| format!("core apply {i}: {e}"))?;
        // what the session's checkpoint does to the store
        state
            .store_mut()
            .flush()
            .map_err(|e| format!("store flush: {e}"))?;
        let (r1, w1, _) = proc_io()?;
        stats.push(state.stats());
        io.push(((r1 - r0).saturating_sub(own), w1 - w0));
    }
    Recorder::set_batch(NO_BATCH);
    rec.close(root, 0);
    let last = state
        .exact_scores()
        .map_err(|e| format!("core exact scores: {e}"))?;
    Ok(Core { last, stats, io })
}

/// Per-update `ApplyReport` readings of the engine shadow pass.
struct Engine {
    map_wall: Vec<f64>,
    cumulative: Vec<f64>,
    imbalance: Vec<f64>,
}

fn shadow_engine(g: &Graph, stream: &[Update], rec: &Arc<Recorder>) -> Result<Engine, String> {
    let root = rec.open("pass.engine");
    let mut eng = rec
        .span("engine.bootstrap", || ClusterEngine::new(g, P))
        .map_err(|e| format!("engine bootstrap: {e}"))?;
    let mut out = Engine {
        map_wall: Vec::new(),
        cumulative: Vec::new(),
        imbalance: Vec::new(),
    };
    for (i, &u) in stream.iter().enumerate() {
        Recorder::set_batch(i as u64);
        let rep = rec
            .span("engine.apply", || eng.apply(u))
            .map_err(|e| format!("engine apply {i}: {e}"))?;
        rec.span("engine.reduce", || eng.reduce())
            .map_err(|e| format!("engine reduce {i}: {e}"))?;
        let busy: Vec<f64> = rep.per_worker.iter().map(Duration::as_secs_f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        out.map_wall.push(rep.map_wall.as_secs_f64());
        out.cumulative.push(rep.cumulative.as_secs_f64());
        out.imbalance
            .push(if mean > 0.0 { max / mean } else { 1.0 });
    }
    Recorder::set_batch(NO_BATCH);
    rec.close(root, 0);
    Ok(out)
}

/// Results of the cluster pass beyond its spans.
struct Cluster {
    last: Scores,
    failovers: u64,
}

fn cluster_pass(
    g: &Graph,
    stream: &[Update],
    batch: usize,
    rec: &Arc<Recorder>,
) -> Result<Cluster, String> {
    let (mut coord, nodes) = stack::fleet(g)?;
    let result = (|| {
        let root = rec.open("pass.cluster");
        for (b, chunk) in stream.chunks(batch).enumerate() {
            Recorder::set_batch(b as u64);
            for &u in chunk {
                rec.span("cluster.apply", || coord.apply(u))?;
            }
            rec.span("cluster.reduce", || coord.reduce())?;
        }
        Recorder::set_batch(NO_BATCH);
        rec.close(root, 0);
        Ok(Cluster {
            last: coord.reduce_exact()?,
            failovers: coord.failovers(),
        })
    })();
    coord.shutdown();
    nodes.join();
    result.map_err(|e: streaming_bc::cluster::ClusterError| format!("cluster pass: {e}"))
}

/// Durations (seconds) of every span named `name`, in recording order.
fn durs(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 * 1e-9)
        .collect()
}

/// Per batch id, the sum of `value` over spans matching `keep`.
fn per_batch(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
    value: impl Fn(usize, &Span) -> f64,
) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.batch != NO_BATCH && keep(s) {
            *out.entry(s.batch).or_insert(0.0) += value(i, s);
        }
    }
    out
}

fn values(m: &HashMap<u64, f64>) -> Vec<f64> {
    m.values().copied().collect()
}

fn ledger(
    spans: &[Span],
    w0: &Window,
    w1: &Window,
    inproc: &InProcess,
    core: &Core,
    engine: &Engine,
    failovers: u64,
) -> Vec<Metric> {
    let own = self_times(spans);
    let ms = 1e3;
    let us = 1e6;
    let self_s = |i: usize| own[i] as f64 * 1e-9;
    let p50 = |xs: &[f64]| median(xs);

    // core and store (core shadow pass)
    let core_self: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "core.apply")
        .map(|(i, _)| self_s(i))
        .collect();
    let is_store = |s: &Span| s.name.starts_with("store.");
    let store_busy = per_batch(spans, is_store, |i, _| self_s(i));
    let store_calls = per_batch(spans, is_store, |_, _| 1.0);
    let st = &core.stats;
    let stat =
        |f: fn(&UpdateStats) -> u64| -> Vec<f64> { st.iter().map(|s| f(s) as f64).collect() };
    let skipped: u64 = st.iter().map(|s| s.sources_skipped).sum();
    let processed: u64 = st.iter().map(|s| s.sources_processed).sum();

    // in-process pass
    let publish = per_batch(
        spans,
        |s| {
            matches!(
                s.name,
                "rankindex.delta" | "rankindex.apply" | "rankindex.clone"
            )
        },
        |_, s| s.dur() as f64 * 1e-9,
    );
    let root = spans.iter().position(|s| s.name == "pass.inproc");
    let coverage = root.map_or(0.0, |r| 1.0 - own[r] as f64 / spans[r].dur().max(1) as f64);
    let history = inproc
        .history
        .map_or([0.0; 4], |(h, _)| h.map(|x| x as f64));
    let replay_per_update = inproc
        .history
        .map_or(0.0, |(_, s)| s / core.stats.len().max(1) as f64);

    // serve: wire round trip minus the engine calls of the same batch
    let rtt = per_batch(
        spans,
        |s| s.name == "client.apply",
        |_, s| s.dur() as f64 * 1e-9,
    );
    let engine_calls = per_batch(
        spans,
        |s| matches!(s.name, "wire.engine.apply" | "wire.engine.delta"),
        |_, s| s.dur() as f64 * 1e-9,
    );
    let serve_self: Vec<f64> = rtt
        .iter()
        .map(|(b, r)| r - engine_calls.get(b).copied().unwrap_or(0.0))
        .collect();

    // cluster: a replicated apply minus the kernel work of the same update
    // (the kernel's self time, so the shadow pass's store does not count)
    let cluster_apply = durs(spans, "cluster.apply");
    let fanout: Vec<f64> = cluster_apply
        .iter()
        .zip(&core_self)
        .map(|(c, k)| c - k)
        .collect();

    let map_wall = &engine.map_wall;
    let dispatch: Vec<f64> = durs(spans, "engine.apply")
        .iter()
        .zip(map_wall)
        .map(|(wall, map)| wall - map)
        .collect();

    vec![
        ("core.apply_ms", p50(&core_self) * ms, "ms"),
        (
            "core.sources_processed",
            p50(&stat(|s| s.sources_processed)),
            "count",
        ),
        (
            "core.sources_skipped",
            p50(&stat(|s| s.sources_skipped)),
            "count",
        ),
        (
            "core.skip_ratio",
            skipped as f64 / (skipped + processed).max(1) as f64,
            "ratio",
        ),
        ("core.touched", p50(&stat(|s| s.touched)), "count"),
        ("core.popped", p50(&stat(|s| s.popped)), "count"),
        (
            "core.bootstrap_s",
            durs(spans, "core.bootstrap").iter().sum(),
            "s",
        ),
        ("engine.map_wall_ms", p50(map_wall) * ms, "ms"),
        ("engine.cumulative_ms", p50(&engine.cumulative) * ms, "ms"),
        ("engine.imbalance", p50(&engine.imbalance), "ratio"),
        ("engine.dispatch_ms", p50(&dispatch) * ms, "ms"),
        (
            "engine.reduce_ms",
            p50(&durs(spans, "engine.reduce")) * ms,
            "ms",
        ),
        ("rankindex.delta_len", p50(&inproc.delta_len), "count"),
        ("rankindex.publish_ms", p50(&values(&publish)) * ms, "ms"),
        (
            "rankindex.top_k_us",
            p50(&durs(spans, "rankindex.top_k")) * us,
            "us",
        ),
        ("store.busy_ms", p50(&values(&store_busy)) * ms, "ms"),
        ("store.calls", p50(&values(&store_calls)), "count"),
        (
            "store.read_bytes",
            p50(&core.io.iter().map(|&(r, _)| r as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        (
            "store.write_bytes",
            p50(&core.io.iter().map(|&(_, w)| w as f64).collect::<Vec<_>>()),
            "bytes",
        ),
        (
            "store.flush_ms",
            p50(&durs(spans, "store.flush")) * ms,
            "ms",
        ),
        (
            "session.apply_ms",
            p50(&durs(spans, "session.apply")) * ms,
            "ms",
        ),
        (
            "session.checkpoint_ms",
            p50(&durs(spans, "session.checkpoint")) * ms,
            "ms",
        ),
        (
            "session.checkpoint_p99_ms",
            pct(&durs(spans, "session.checkpoint"), 0.99) * ms,
            "ms",
        ),
        ("session.manifest_bytes", history[0], "bytes"),
        ("session.live_wal_bytes", history[1], "bytes"),
        ("session.sealed_bytes", history[2], "bytes"),
        ("session.segments", history[3], "count"),
        ("session.replay_ms_per_update", replay_per_update * ms, "ms"),
        (
            "serve.parse_us",
            p50(&durs(spans, "serve.parse")) * us,
            "us",
        ),
        ("serve.rtt_ms", p50(&values(&rtt)) * ms, "ms"),
        ("serve.self_ms", p50(&serve_self) * ms, "ms"),
        ("serve.query_rtt_us", p50(&w1.query_rtt) * us, "us"),
        ("cluster.apply_ms", p50(&cluster_apply) * ms, "ms"),
        ("cluster.fanout_ms", p50(&fanout) * ms, "ms"),
        (
            "cluster.reduce_ms",
            p50(&durs(spans, "cluster.reduce")) * ms,
            "ms",
        ),
        ("cluster.failovers", failovers as f64, "count"),
        ("client.apply_p99_ms", pct(&w0.apply_rtt, 0.99) * ms, "ms"),
        ("client.query_p99_ms", pct(&w0.query_lat, 0.99) * ms, "ms"),
        (
            "client.reader_lag_p99_ms",
            pct(&w1.lateness, 0.99) * ms,
            "ms",
        ),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead", w1.wall / w0.wall.max(1e-9) - 1.0, "ratio"),
    ]
}
