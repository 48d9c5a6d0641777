//! The online-update benchmark.
//!
//! One seeded evolving update stream is served end to end over loopback
//! TCP to an in-process server, on one of two stacks (see
//! `stack::WORKLOADS`). A closed-loop writer applies batches while an
//! open-loop reader queries `top_k` on a schedule. Every run ends with a
//! correctness gate against a serial oracle, outside the timed window.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload online-mem --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` runs the traced passes instead and prints the per-layer
//! metrics. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod drive;
mod oracle;
mod stack;
mod stream;
mod trace;
mod traced;
mod wire;

use stack::{Kind, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use streaming_bc::core::scores::Scores;
use streaming_bc::gen::models::holme_kim;
use streaming_bc::graph::Graph;
use streaming_bc::{Session, Update};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Restarts after each lap; `reopen_s` is the fastest of the run. On a
/// shared host, identical work varies by a third as other tenants come
/// and go, in spells of seconds; the fastest of many short samples spread
/// over the run is steady.
const REOPENS_PER_LAP: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = *stack::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: num("--trace")? != 0,
    })
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints.
pub struct Outcome {
    /// Why the correctness gate failed; no metrics are written then.
    pub error: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run stamp: printed on its own line before the result.
    pub stamp: Vec<(&'static str, String)>,
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn pct(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 0.5)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The graph, one lap of the stream, and the stream's self-test.
pub fn inputs(w: &Workload, seed: u64) -> Result<(Graph, Vec<Update>), String> {
    let g = holme_kim(w.n, w.m_per, 0.3, stack::GRAPH_SEED);
    let updates = stream::generate(&g, seed, w.lap);
    stream::self_test(&g, seed, &updates).map_err(|e| format!("stream self-test: {e}"))?;
    Ok((g, updates))
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// One lap: a fresh stack serving the first `lap` updates.
struct Lap {
    win: drive::Window,
    finals: Result<Finals, String>,
    /// `(reopen_s, replay_s, scores at the replay seq)` after the drain.
    restart: Option<Result<(f64, f64, Scores), String>>,
}

impl Lap {
    /// Whether the writer got through every update before the budget ran
    /// out. Only the last lap can fall short, so a run without a full lap
    /// has exactly one lap.
    fn full(&self) -> bool {
        self.win.acked == self.win.offered
    }

    fn rate(&self) -> f64 {
        self.win.acked as f64 / self.win.wall.max(1e-9)
    }
}

/// An untraced run: laps of the first `lap` updates, each on a freshly
/// set-up stack, until `seconds` of write window are used; then the
/// correctness gate. Every lap applies the same updates to the same
/// graph, so a faster stack does not meet a denser graph.
fn timed(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = &args.workload;
    let (g, updates) = inputs(w, args.seed)?;
    let budget = Duration::from_secs(args.seconds);

    let mut setups = Vec::new();
    let mut laps: Vec<Lap> = Vec::new();
    let mut used = Duration::ZERO;
    let mut peak = None;
    while used < budget {
        let dir = work.join(format!("lap{}", laps.len()));
        let t = Instant::now();
        let running = stack::launch(w, &g, &dir, None)?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let win = drive::drive(running.addr, &updates, w.batch, budget - used, None);
        used += t.elapsed();
        if peak.is_none() {
            // one stack has existed so far: later laps would add whatever
            // the allocator kept from earlier ones
            peak = Some(peak_rss_mb());
        }
        let finals = final_reads(running.addr);
        running.stop();
        // restart samples are spread over the run, lap by lap, so they do
        // not all fall into one slow spell of the shared host
        let restart = match (&win.error, &finals) {
            (None, Ok(live)) => Some(restart(w, &dir, &g, &updates[..win.acked], live)),
            _ => None,
        };
        let _ = std::fs::remove_dir_all(&dir);
        let failed = win.error.is_some();
        laps.push(Lap {
            win,
            finals,
            restart,
        });
        if failed {
            break;
        }
    }
    while setups.len() < SETUP_REPS {
        let extra = work.join("setup");
        let t = Instant::now();
        let running = stack::launch(w, &g, &extra, None)?;
        setups.push(t.elapsed().as_secs_f64());
        running.stop();
        let _ = std::fs::remove_dir_all(&extra);
    }

    let sum = |f: fn(&drive::Window) -> u64| -> u64 { laps.iter().map(|l| f(&l.win)).sum() };
    let apply = drive::Counts {
        attempted: sum(|w| w.apply.attempted),
        failed: sum(|w| w.apply.failed),
        refused: sum(|w| w.apply.refused),
    };
    let query = drive::Counts {
        attempted: sum(|w| w.query.attempted),
        failed: sum(|w| w.query.failed),
        refused: sum(|w| w.query.refused),
    };
    let attempted = apply.attempted + query.attempted;
    let failed = apply.failed + apply.refused + query.failed + query.refused;

    // figures come from the full laps, or from the only lap there is
    let counts = |l: &Lap| l.full() || laps.len() == 1;
    let full: Vec<&Lap> = laps.iter().filter(|l| counts(l)).collect();
    let pooled = |f: fn(&drive::Window) -> &Vec<f64>| -> Vec<f64> {
        full.iter()
            .flat_map(|l| f(&l.win).iter().copied())
            .collect()
    };
    let (apply_rtt, query_lat, lateness) = (
        pooled(|w| &w.apply_rtt),
        pooled(|w| &w.query_lat),
        pooled(|w| &w.lateness),
    );
    let rates: Vec<f64> = full.iter().map(|l| l.rate()).collect();

    // the correctness gate, outside the timed windows
    let check = (|| -> Result<(f64, f64), String> {
        let mut seqs: Vec<u64> = laps.iter().map(|l| l.win.acked as u64).collect();
        seqs.extend(laps.iter().map(|l| oracle::replay_seq(l.win.acked)));
        let oracle = oracle::run(&g, &updates, &seqs)?;
        let (mut opens, mut replays) = (Vec::new(), Vec::new());
        for (i, lap) in laps.iter().enumerate() {
            if let Some(e) = &lap.win.error {
                return Err(format!("lap {i}: {e}"));
            }
            let (vbc, ebc, top) = lap.finals.as_ref().map_err(|e| format!("lap {i}: {e}"))?;
            let want = oracle.at(lap.win.acked as u64)?;
            oracle::check_exact(&format!("lap {i} wire reduce_exact"), vbc, ebc, want)?;
            oracle::check_top_k(top, &want.vbc)?;
            let restart = lap.restart.as_ref().ok_or("no restart sample")?;
            let (reopen, replay, at) = restart.as_ref().map_err(|e| format!("lap {i}: {e}"))?;
            let want = oracle.at(oracle::replay_seq(lap.win.acked))?;
            oracle::check_exact(&format!("lap {i} replay"), &at.vbc, &at.ebc, want)?;
            if counts(lap) {
                opens.push(*reopen);
                replays.push(*replay);
            }
        }
        let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        Ok((fastest(&opens), fastest(&replays)))
    })();
    let (reopen_s, replay_s) = match check {
        Ok(r) => r,
        Err(e) => {
            return Ok(Outcome {
                error: Some(e),
                attempted,
                failed,
                metrics: Vec::new(),
                stamp: Vec::new(),
            })
        }
    };

    let ms = |xs: &[f64], q: f64| pct(xs, q) * 1e3;
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("updates_per_s", median(&rates), "1/s"),
        ("apply_p50_ms", ms(&apply_rtt, 0.5), "ms"),
        ("query_p50_ms", ms(&query_lat, 0.5), "ms"),
        ("peak_rss_mb", peak.expect("at least one lap")?, "MiB"),
        ("reopen_s", reopen_s, "s"),
    ];
    let stamp = vec![
        ("host_cores", host_cores().to_string()),
        ("workload", format!("\"{}\"", w.name)),
        ("seed", args.seed.to_string()),
        ("n", g.n().to_string()),
        ("m", g.m().to_string()),
        ("batch", w.batch.to_string()),
        ("lap_updates", w.lap.to_string()),
        ("laps", laps.len().to_string()),
        ("full_laps", full.len().to_string()),
        ("updates", sum(|w| w.acked as u64).to_string()),
        ("window_s", used.as_secs_f64().to_string()),
        ("apply_attempted", apply.attempted.to_string()),
        ("apply_failed", apply.failed.to_string()),
        ("apply_refused", apply.refused.to_string()),
        ("query_attempted", query.attempted.to_string()),
        ("query_failed", query.failed.to_string()),
        ("query_refused", query.refused.to_string()),
        ("queries", query_lat.len().to_string()),
        ("apply_p99_ms", ms(&apply_rtt, 0.99).to_string()),
        ("query_p99_ms", ms(&query_lat, 0.99).to_string()),
        ("reader_late_p50_ms", ms(&lateness, 0.5).to_string()),
        ("reader_late_p99_ms", ms(&lateness, 0.99).to_string()),
        ("replay_s", replay_s.to_string()),
    ];
    Ok(Outcome {
        error: None,
        attempted,
        failed,
        metrics,
        stamp,
    })
}

/// The final `reduce_exact` and `top_k` over the wire.
type Finals = (Vec<f64>, Vec<f64>, Vec<(u32, f64)>);

fn final_reads(addr: std::net::SocketAddr) -> Result<Finals, String> {
    let mut wire = wire::Wire::connect(addr).map_err(|e| e.to_string())?;
    let (vbc, ebc) = wire.reduce_exact().map_err(|e| e.to_string())?;
    let top = wire.top_k().map_err(|e| e.to_string())?;
    Ok((vbc, ebc, top))
}

/// The restarts of a drained lap: `(reopen_s, replay_s, scores at the
/// replay seq)`. On the disk stack: `Session::open` of the lap's
/// directory, whose `reduce_exact` must equal the live final, and
/// `Session::replay_to` of the fixed seq (plus, untimed, of the final seq,
/// which must equal the live final too). The memory stack keeps nothing
/// durable, so there a restart is a bootstrap of the final graph and a
/// replay reconstructs the scores from the genesis graph and the retained
/// stream.
fn restart(
    w: &Workload,
    dir: &Path,
    g: &Graph,
    applied: &[Update],
    live: &Finals,
) -> Result<(f64, f64, Scores), String> {
    let seq = oracle::replay_seq(applied.len());
    let (vbc, ebc, _) = live;
    let live = Scores {
        vbc: vbc.clone(),
        ebc: ebc.clone(),
    };
    let mut reopen = f64::INFINITY;
    if w.kind == Kind::Disk {
        let mut session = None;
        for _ in 0..REOPENS_PER_LAP {
            drop(session.take());
            let t = Instant::now();
            session = Some(Session::open(dir).map_err(|e| format!("reopen: {e}"))?);
            reopen = reopen.min(t.elapsed().as_secs_f64());
        }
        let mut s = session.expect("at least one reopen");
        let r = s
            .reduce_exact()
            .map_err(|e| format!("reopened reduce: {e}"))?;
        oracle::check_exact("reopened reduce_exact", &r.scores.vbc, &r.scores.ebc, &live)?;
        let t = Instant::now();
        let at = s
            .replay_to(seq)
            .map_err(|e| format!("replay_to({seq}): {e}"))?;
        let replay = t.elapsed().as_secs_f64();
        let end = applied.len() as u64;
        let r = s
            .replay_to(end)
            .map_err(|e| format!("replay_to({end}): {e}"))?;
        oracle::check_exact("replay_to(final)", &r.scores.vbc, &r.scores.ebc, &live)?;
        return Ok((reopen, replay, at.scores));
    }
    let mut last = g.clone();
    for u in applied {
        stream::apply(&mut last, u)?;
    }
    for _ in 0..REOPENS_PER_LAP {
        let t = Instant::now();
        drop(stack::session(Kind::Mem, &last, dir, Default::default())?);
        reopen = reopen.min(t.elapsed().as_secs_f64());
    }
    let (at, replay) = oracle::replay(g, applied, seq)?;
    Ok((reopen, replay, at))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <online-mem|online-disk> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // scratch state of the durable stacks lives inside the checkout
    let work: PathBuf = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds, &work)
    } else {
        timed(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    // gone unless traces were written there
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(o) if o.error.is_some() => {
            eprintln!("perfbench: {}", o.error.unwrap_or_default());
            print_result(false, o.attempted, o.failed, &[]);
            std::process::exit(1);
        }
        Ok(o) => {
            let stamp: Vec<String> = o
                .stamp
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            println!("{{\"stamp\": {{{}}}}}", stamp.join(", "));
            for (name, value, _) in &o.metrics {
                if !value.is_finite() {
                    eprintln!("perfbench: metric {name} is not finite");
                    print_result(false, o.attempted, o.failed, &[]);
                    std::process::exit(1);
                }
            }
            print_result(true, o.attempted, o.failed, &o.metrics);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            print_result(false, 1, 1, &[]);
            std::process::exit(1);
        }
    }
}
