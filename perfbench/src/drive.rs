//! The client traffic every workload shares: one closed-loop writer and
//! one open-loop reader, each on its own connection and thread.

use crate::trace::Recorder;
use crate::wire::{apply_line, Fail, Wire};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use streaming_bc::Update;

/// The reader sends `top_k` k=10 every `QUERY_PERIOD` (200 per second).
pub const QUERY_PERIOD: Duration = Duration::from_millis(5);

#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Counts {
    fn count(&mut self, fail: &Fail) {
        match fail {
            Fail::Refused(_) => self.refused += 1,
            Fail::Failed(_) => self.failed += 1,
        }
    }
}

#[derive(Debug, Default)]
pub struct Window {
    /// Updates offered to the writer.
    pub offered: usize,
    /// Updates acknowledged, in stream order from the first.
    pub acked: usize,
    /// From the window start to the last ack, seconds.
    pub wall: f64,
    /// Apply round trips, seconds, one per batch.
    pub apply_rtt: Vec<f64>,
    /// `top_k` latency from when each query was due, seconds.
    pub query_lat: Vec<f64>,
    /// `top_k` round trip from when each query was sent, seconds.
    pub query_rtt: Vec<f64>,
    /// How late the reader sent each query, seconds.
    pub lateness: Vec<f64>,
    pub apply: Counts,
    pub query: Counts,
    /// The first failure, if any.
    pub error: Option<String>,
}

/// Stream `updates` in batches of `batch` until they run out or
/// `deadline` passes, while the reader queries on its schedule. With
/// `rec`, every round trip is also recorded as a client span.
pub fn drive(
    addr: SocketAddr,
    updates: &[Update],
    batch: usize,
    deadline: Duration,
    rec: Option<&Arc<Recorder>>,
) -> Window {
    let done = AtomicBool::new(false);
    let start = Barrier::new(2);
    let mut win = Window {
        offered: updates.len(),
        ..Window::default()
    };
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(addr, &start, &done, rec));
        let writer = write_loop(addr, updates, batch, deadline, &start, rec, &mut win);
        done.store(true, Ordering::SeqCst);
        if let Err(e) = writer {
            win.error.get_or_insert(e);
        }
        match reader.join() {
            Ok((lat, rtt, late, counts, err)) => {
                win.query_lat = lat;
                win.query_rtt = rtt;
                win.lateness = late;
                win.query = counts;
                if let Some(e) = err {
                    win.error.get_or_insert(e);
                }
            }
            Err(_) => {
                win.error.get_or_insert("reader thread panicked".into());
            }
        }
    });
    win
}

/// Connect and make one round trip, so the server has accepted the
/// connection before the window opens.
fn connect(addr: SocketAddr) -> Result<Wire, Fail> {
    let mut wire = Wire::connect(addr)?;
    wire.request(r#"{"cmd":"ping"}"#)?;
    Ok(wire)
}

fn write_loop(
    addr: SocketAddr,
    updates: &[Update],
    batch: usize,
    deadline: Duration,
    start: &Barrier,
    rec: Option<&Arc<Recorder>>,
    win: &mut Window,
) -> Result<(), String> {
    let wire = connect(addr);
    start.wait();
    let mut wire = wire.map_err(|e| format!("writer {e}"))?;
    let t0 = Instant::now();
    for (b, chunk) in updates.chunks(batch).enumerate() {
        if t0.elapsed() >= deadline {
            break;
        }
        let line = apply_line(chunk);
        win.apply.attempted += 1;
        let sent = Instant::now();
        let reply = wire.request(&line);
        let acked = Instant::now();
        let want = (win.acked + chunk.len()) as u64;
        match reply.map(|v| v.get("seq_last").and_then(|s| s.as_u64())) {
            Ok(Some(seq)) if seq == want => {}
            Ok(seq) => {
                win.apply.failed += 1;
                return Err(format!("apply acked seq {seq:?}, expected {want}"));
            }
            Err(fail) => {
                win.apply.count(&fail);
                return Err(format!("apply {fail}"));
            }
        }
        if let Some(rec) = rec {
            rec.record("client.apply", b as u64, sent, acked);
        }
        win.acked += chunk.len();
        win.apply_rtt.push((acked - sent).as_secs_f64());
        win.wall = (acked - t0).as_secs_f64();
    }
    Ok(())
}

type ReadResult = (Vec<f64>, Vec<f64>, Vec<f64>, Counts, Option<String>);

fn read_loop(
    addr: SocketAddr,
    start: &Barrier,
    done: &AtomicBool,
    rec: Option<&Arc<Recorder>>,
) -> ReadResult {
    let (mut lat, mut rtt, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let wire = connect(addr);
    start.wait();
    let mut wire = match wire {
        Ok(w) => w,
        Err(e) => return (lat, rtt, late, counts, Some(format!("reader {e}"))),
    };
    let t0 = Instant::now();
    for i in 0u32.. {
        let due = t0 + QUERY_PERIOD * i;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if done.load(Ordering::SeqCst) {
            break;
        }
        counts.attempted += 1;
        let sent = Instant::now();
        let reply = wire.top_k();
        let end = Instant::now();
        match reply {
            Ok(top) if top.len() == 10 => {}
            Ok(top) => {
                counts.failed += 1;
                return (
                    lat,
                    rtt,
                    late,
                    counts,
                    Some(format!("top_k gave {} entries", top.len())),
                );
            }
            Err(fail) => {
                counts.count(&fail);
                return (lat, rtt, late, counts, Some(format!("top_k {fail}")));
            }
        }
        if let Some(rec) = rec {
            rec.record("client.query", i as u64, sent, end);
        }
        late.push((sent - due).as_secs_f64());
        lat.push((end - due).as_secs_f64());
        rtt.push((end - sent).as_secs_f64());
    }
    (lat, rtt, late, counts, None)
}
