//! The span recorder and the two timing adapters the traced run wraps
//! around the program's layers: [`TimedStore`] (a `BdStore` that forwards
//! every call to the real store) and [`TracedEngine`] (a `ServeEngine`
//! that forwards every call to the served engine).
//!
//! Spans stay in memory and are written out once, when the run ends. A
//! span's self time is its duration minus its children's, where a child
//! hands back `give_back` nanoseconds it spent calling into its parent's
//! layer (the kernel runs inside the store's `update_batch` callback).

use ebc_serve::{EngineInfo, MoveReport, ServeEngine, ServeError};
use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streaming_bc::core::bd::{
    BatchSourceFn, BatchStats, BdResult, BdStore, ExportedRecord, SourceFn,
};
use streaming_bc::core::rankindex::ScoreDelta;
use streaming_bc::graph::VertexId;
use streaming_bc::Update;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
    /// Nanoseconds inside this span that belong to the parent's layer.
    pub give_back: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of the next.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// The batch id spans opened on this thread are tagged with.
    static BATCH: RefCell<u64> = const { RefCell::new(0) };
}

pub struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Tag spans later opened on this thread with `batch`.
    pub fn set_batch(batch: u64) {
        BATCH.with(|b| *b.borrow_mut() = batch);
    }

    /// Open a span as a child of this thread's innermost open span.
    pub fn open(&self, name: &'static str) -> usize {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let batch = BATCH.with(|b| *b.borrow());
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
            give_back: 0,
        });
        let id = spans.len() - 1;
        OPEN.with(|o| o.borrow_mut().push(id));
        id
    }

    pub fn close(&self, id: usize, give_back: u64) {
        let end_ns = self.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let pos = o.iter().rposition(|&x| x == id).expect("span is open");
            o.truncate(pos);
        });
        let mut spans = self.spans.lock().expect("span lock");
        spans[id].end_ns = end_ns;
        spans[id].give_back = give_back;
    }

    /// Time `f` as one span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id, 0);
        r
    }

    /// Record a span measured elsewhere (client round trips), with no
    /// parent.
    pub fn record(&self, name: &'static str, batch: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.lock().expect("span lock").push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            batch,
            give_back: 0,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{},\"give_back_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch, s.give_back
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<i128> = spans
        .iter()
        .map(|s| s.dur() as i128 - s.give_back as i128)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur() as i128 - s.give_back as i128;
        }
    }
    own.into_iter().map(|x| x.max(0) as u64).collect()
}

/// A `BdStore` that forwards every call to `inner` under a `store.*` span.
/// Time the store spends back in the kernel's callback is handed back to
/// the calling layer, so the span's self time is the store's own.
pub struct TimedStore<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S: BdStore> TimedStore<S> {
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        TimedStore { inner, rec }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> R) -> R {
        let id = self.rec.open(name);
        let r = f(&mut self.inner);
        self.rec.close(id, 0);
        r
    }
}

impl<S: BdStore> BdStore for TimedStore<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn sources(&self) -> Vec<VertexId> {
        self.inner.sources()
    }

    fn sources_into(&self, out: &mut Vec<VertexId>) {
        self.inner.sources_into(out)
    }

    fn num_sources(&self) -> usize {
        self.inner.num_sources()
    }

    fn peek_pair(&mut self, s: VertexId, a: VertexId, b: VertexId) -> BdResult<(u32, u32)> {
        self.timed("store.peek_pair", |st| st.peek_pair(s, a, b))
    }

    fn update_with(&mut self, s: VertexId, f: SourceFn<'_>) -> BdResult<bool> {
        let id = self.rec.open("store.update_with");
        let mut kernel_ns = 0u64;
        let r = self.inner.update_with(s, &mut |view| {
            let t = Instant::now();
            let dirty = f(view);
            kernel_ns += t.elapsed().as_nanos() as u64;
            dirty
        });
        self.rec.close(id, kernel_ns);
        r
    }

    fn update_batch(
        &mut self,
        sources: &[VertexId],
        u: VertexId,
        v: VertexId,
        f: BatchSourceFn<'_>,
    ) -> BdResult<BatchStats> {
        let id = self.rec.open("store.update_batch");
        let mut kernel_ns = 0u64;
        let r = self.inner.update_batch(sources, u, v, &mut |s, view| {
            let t = Instant::now();
            let dirty = f(s, view);
            kernel_ns += t.elapsed().as_nanos() as u64;
            dirty
        });
        self.rec.close(id, kernel_ns);
        r
    }

    fn grow_vertex(&mut self) -> BdResult<()> {
        self.timed("store.grow_vertex", |st| st.grow_vertex())
    }

    fn add_source(
        &mut self,
        s: VertexId,
        d: Vec<u32>,
        sigma: Vec<u64>,
        delta: Vec<f64>,
    ) -> BdResult<()> {
        self.timed("store.add_source", |st| st.add_source(s, d, sigma, delta))
    }

    fn remove_source(&mut self, s: VertexId) -> BdResult<()> {
        self.timed("store.remove_source", |st| st.remove_source(s))
    }

    fn export_source(&mut self, s: VertexId, tag: u64) -> BdResult<ExportedRecord> {
        self.timed("store.export_source", |st| st.export_source(s, tag))
    }

    fn retire_export(&mut self, s: VertexId) -> BdResult<()> {
        self.timed("store.retire_export", |st| st.retire_export(s))
    }

    fn flush(&mut self) -> BdResult<()> {
        self.timed("store.flush", |st| st.flush())
    }
}

/// A `ServeEngine` that forwards every call to the served engine under a
/// `wire.engine.*` span, tagged with the writer task's batch counter.
pub struct TracedEngine<E> {
    inner: E,
    rec: Arc<Recorder>,
    batch: u64,
}

impl<E: ServeEngine> TracedEngine<E> {
    pub fn new(inner: E, rec: Arc<Recorder>) -> Self {
        TracedEngine {
            inner,
            rec,
            batch: 0,
        }
    }
}

impl<E: ServeEngine> ServeEngine for TracedEngine<E> {
    fn apply_batch(&mut self, updates: &[Update]) -> Result<(), ServeError> {
        Recorder::set_batch(self.batch);
        self.batch += 1;
        self.rec
            .span("wire.engine.apply", || self.inner.apply_batch(updates))
    }

    fn scores_vbc(&mut self) -> Result<Vec<f64>, ServeError> {
        self.inner.scores_vbc()
    }

    fn take_score_delta(&mut self) -> Result<ScoreDelta, ServeError> {
        // the server's initial publish precedes every batch
        Recorder::set_batch(self.batch.checked_sub(1).unwrap_or(u64::MAX));
        self.rec
            .span("wire.engine.delta", || self.inner.take_score_delta())
    }

    fn reduce_exact(&mut self) -> Result<(Vec<f64>, Vec<f64>, std::time::Duration), ServeError> {
        self.inner.reduce_exact()
    }

    fn checkpoint(&mut self) -> Result<(), ServeError> {
        self.inner.checkpoint()
    }

    fn handoff(&mut self, source: u32, to: usize) -> Result<MoveReport, ServeError> {
        self.inner.handoff(source, to)
    }

    fn rebalance(&mut self, threshold: usize) -> Result<MoveReport, ServeError> {
        self.inner.rebalance(threshold)
    }

    fn info(&self) -> EngineInfo {
        self.inner.info()
    }
}
