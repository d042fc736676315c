//! Set-up and the timed phase: an in-process server over loopback,
//! closed-loop ingest connections and one open-loop query connection.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sqs_core::codec::WireCodec;
use sqs_core::MergeableSummary;
use sqs_service::server::{spawn, DurabilityConfig, ServerConfig, ServerHandle, WindowOptions};
use sqs_service::Client;
use sqs_store::FsyncPolicy;
use sqs_util::clock::{Clock, ManualClock};
use sqs_window::{LatePolicy, WindowConfig};

use crate::frames::{frame, Pool, FRAME_ROWS, PREFILL_CONN, SHARDS};
use crate::timed::{now_ns, ReqSpan};
use crate::workload::{
    window_specs, Query, Workload, BUCKET_NANOS, PROBE_PHIS, RETENTION_BUCKETS, ROLLUP_FACTOR,
};

/// Set-up is repeated this many times per run; `setup_s` is the
/// median, and the last round's server is the one the timed phase
/// drives.
pub const SETUP_ROUNDS: usize = 9;

/// Restarts per set-up round of a durable workload; `recovery_s` is
/// the median over all of them.
pub const RESTARTS: usize = 5;

const TIMEOUT: Duration = Duration::from_secs(30);

/// The open-loop sender spins for the last stretch before a due time.
const SPIN_NS: u64 = 100_000;

/// Anything a shard summary must be to be served.
pub trait Served: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static {}
impl<S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static> Served for S {}

/// Builds the shard summary of `(tenant, shard)`.
pub trait Factory<S>: Fn(u64, usize) -> S + Clone + Send + Sync + 'static {}
impl<S, F: Fn(u64, usize) -> S + Clone + Send + Sync + 'static> Factory<S> for F {}

/// The server configuration of a workload. `data_dir` is set on
/// durable workloads; the window clock is shared with the generator.
pub fn server_config(wl: &Workload, data_dir: Option<&Path>, clock: &ManualClock) -> ServerConfig {
    let mut cfg = ServerConfig {
        shards: SHARDS,
        value_bound: wl.value_bound(),
        ..ServerConfig::default()
    };
    if let Some(dir) = data_dir {
        let mut d = DurabilityConfig::new(dir);
        d.fsync = FsyncPolicy::Always;
        cfg.durability = Some(d);
    }
    if wl.windowed {
        let window = WindowConfig {
            bucket_nanos: BUCKET_NANOS,
            retention_buckets: RETENTION_BUCKETS,
            rollup_factor: ROLLUP_FACTOR,
            late_policy: LatePolicy::Drop,
        };
        let clock: Arc<dyn Clock> = Arc::new(clock.clone());
        cfg.window = Some(WindowOptions::with_clock(window, clock));
    }
    cfg
}

pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    Client::connect(addr, TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))
}

/// A server ready for the timed phase.
pub struct Ready<S> {
    pub handle: ServerHandle<S>,
    pub clock: ManualClock,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
}

/// Runs [`SETUP_ROUNDS`] set-up rounds and keeps the last server.
///
/// One round: spawn and prefill every tenant. A durable server is then
/// shut down and reopened on the same data dir [`RESTARTS`] times, so
/// each reopen replays the same WAL; `recovery_s` runs from that
/// `spawn` until the first query is answered. Window rings are then
/// materialized, so no tenant is created lazily in the timed phase.
pub fn setup<S: Served, F: Factory<S>>(
    wl: &Workload,
    seed: u64,
    factory: &F,
    data_root: &Path,
) -> Result<Ready<S>, String> {
    let mut setup_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut last = None;
    for round in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let clock = ManualClock::new();
        let dir: Option<PathBuf> = wl.durable.then(|| data_root.join(format!("setup-{round}")));
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
        }
        let cfg = server_config(wl, dir.as_deref(), &clock);
        let mut server = spawn(cfg.clone(), factory.clone()).map_err(|e| format!("spawn: {e}"))?;
        let mut c = connect(server.addr())?;
        let mut xs = Vec::with_capacity(FRAME_ROWS);
        for idx in 0..wl.prefill_frames {
            frame(seed, wl.dist, PREFILL_CONN, idx, &mut xs);
            let tenant = wl.tenant_of(idx);
            let acked = if wl.windowed {
                c.window_insert(tenant, clock.now_nanos(), &xs)
            } else {
                c.insert_batch(tenant, &xs)
            };
            acked.map_err(|e| format!("prefill frame {idx}: {e}"))?;
        }
        if wl.durable {
            for _ in 0..RESTARTS {
                drop(c);
                server.shutdown();
                server.join();
                let t_rec = Instant::now();
                server =
                    spawn(cfg.clone(), factory.clone()).map_err(|e| format!("respawn: {e}"))?;
                c = connect(server.addr())?;
                first_query(&mut c)?;
                recovery_s.push(t_rec.elapsed().as_secs_f64());
            }
        }
        if wl.windowed {
            clock.set(BUCKET_NANOS);
            for tenant in 1..=wl.tenants {
                c.window_stats(tenant)
                    .map_err(|e| format!("materialize ring {tenant}: {e}"))?;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((server, clock));
    }
    let (handle, clock) = last.ok_or("no set-up round ran")?;
    Ok(Ready {
        handle,
        clock,
        setup_s,
        recovery_s,
    })
}

/// The first query after a restart: tenant 1 must answer its median.
pub fn first_query(c: &mut Client) -> Result<(), String> {
    let (answer, _) = c
        .query_many(1, &[0.5], &[])
        .map_err(|e| format!("first query after restart: {e}"))?;
    match answer.first() {
        Some(Some(_)) => Ok(()),
        _ => Err("first query after restart found an empty tenant".to_owned()),
    }
}

/// What one closed-loop ingest connection did.
#[derive(Debug, Default)]
pub struct Writer {
    pub reqs: Vec<ReqSpan>,
    /// Indices of acknowledged frames (the oracle regenerates these).
    pub acked: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent generating frames, and the rows generated.
    pub gen_ns: u64,
    pub gen_rows: u64,
}

/// What the open-loop query connection did.
#[derive(Debug, Default)]
pub struct Querier {
    pub reqs: Vec<ReqSpan>,
    /// Completion minus due time, per query.
    pub latency_ns: Vec<u64>,
    /// Send time minus due time, per query.
    pub lag_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub bad_answers: Vec<String>,
}

pub struct Phase {
    pub writers: Vec<Writer>,
    pub querier: Querier,
    pub start_ns: u64,
    /// When the phase's senders stopped starting new requests.
    pub deadline_ns: u64,
    /// The window clock's bucket when the phase ended.
    pub final_bucket: u64,
}

fn ingest_loop(
    wl: &Workload,
    seed: u64,
    conn: u64,
    addr: std::net::SocketAddr,
    clock: &ManualClock,
    start: &Barrier,
    deadline_ns: &std::sync::OnceLock<u64>,
) -> Result<Writer, String> {
    let pool = Pool::new(seed, wl.dist, conn);
    let mut c = connect(addr)?;
    let mut w = Writer::default();
    start.wait();
    let deadline = wait_set(deadline_ns);
    let mut idx = 0u64;
    while now_ns() < deadline {
        let g0 = now_ns();
        let xs = pool.get(idx);
        let t0 = now_ns();
        w.gen_ns += t0 - g0;
        w.gen_rows += xs.len() as u64;
        let tenant = wl.tenant_of(idx);
        let reply = if wl.windowed {
            let ts = wl.bucket_of(idx) * BUCKET_NANOS;
            clock.set(ts);
            c.window_insert(tenant, ts, xs)
        } else {
            c.insert_batch(tenant, xs)
        };
        let t1 = now_ns();
        w.attempted += 1;
        match reply {
            Ok(_) => {
                w.reqs.push(ReqSpan {
                    start: t0,
                    end: t1,
                    rows: xs.len() as u64,
                });
                w.acked.push(idx);
            }
            Err(e) => {
                eprintln!("ingest conn {conn} frame {idx}: {e}");
                w.failed += 1;
                c = connect(addr)?;
            }
        }
        idx += 1;
    }
    Ok(w)
}

/// Spins until the coordinating thread publishes `cell`.
fn wait_set(cell: &std::sync::OnceLock<u64>) -> u64 {
    loop {
        if let Some(v) = cell.get() {
            return *v;
        }
        std::hint::spin_loop();
    }
}

/// Checks the shape of a timed-phase answer (the exact check runs
/// after the phase): a non-empty tenant answers every φ, in order.
fn monotone(answers: &[Option<u64>]) -> bool {
    answers.iter().all(Option::is_some) && answers.windows(2).all(|p| p[0] <= p[1])
}

fn query_loop(
    wl: &Workload,
    addr: std::net::SocketAddr,
    start: &Barrier,
    deadline_ns: &std::sync::OnceLock<u64>,
    start_ns: &std::sync::OnceLock<u64>,
    closed_loop: bool,
) -> Result<Querier, String> {
    let mut c = connect(addr)?;
    let mut q = Querier::default();
    let interval = (1e9 / wl.query_rate) as u64;
    let specs = window_specs();
    start.wait();
    let deadline = wait_set(deadline_ns);
    let t_start = wait_set(start_ns);
    let mut k = 0u64;
    loop {
        let due = if closed_loop {
            now_ns()
        } else {
            t_start + k * interval
        };
        if due >= deadline {
            break;
        }
        // Sleep until shortly before the due time, then spin: a plain
        // sleep overshoots by the timer slack, which would be timed as
        // query latency. The short spin takes little CPU from the server.
        let now = now_ns();
        if now + SPIN_NS < due {
            std::thread::sleep(Duration::from_nanos(due - SPIN_NS - now));
        }
        while now_ns() < due {
            std::hint::spin_loop();
        }
        let sent = now_ns();
        let tenant = wl.tenant_of(k);
        let bad = match &wl.query {
            Query::Many { phis, xs } => match c.query_many(tenant, phis, xs) {
                Ok((quantiles, ranks)) => (!(monotone(&quantiles) && ranks.len() == xs.len()))
                    .then(|| format!("query_many tenant {tenant}: malformed answer")),
                Err(e) => Some(format!("query_many tenant {tenant}: {e}")),
            },
            Query::Window => {
                let spec = specs[((k / wl.tenants) % 3) as usize];
                match c.window_query(tenant, spec, &PROBE_PHIS) {
                    Ok(a) => (a.start_nanos > a.end_nanos || (a.n > 0 && !monotone(&a.answers)))
                        .then(|| format!("window_query tenant {tenant}: malformed answer")),
                    Err(e) => Some(format!("window_query tenant {tenant}: {e}")),
                }
            }
        };
        let done = now_ns();
        q.attempted += 1;
        q.reqs.push(ReqSpan {
            start: sent,
            end: done,
            rows: 0,
        });
        q.lag_ns.push(sent - due);
        q.latency_ns.push(done - due);
        if let Some(msg) = bad {
            q.failed += 1;
            q.bad_answers.push(msg);
            c = connect(addr)?;
        }
        k += 1;
    }
    Ok(q)
}

/// The timed phase: `wl.writers` closed-loop ingest connections plus
/// one open-loop query connection (closed-loop with `closed_loop`, for
/// calibrating the query rate), for `seconds`.
pub fn timed_phase<S: Served>(
    wl: &Workload,
    seed: u64,
    ready: &Ready<S>,
    seconds: f64,
    closed_loop: bool,
) -> Result<Phase, String> {
    let addr = ready.handle.addr();
    let barrier = Barrier::new(wl.writers as usize + 2);
    let deadline = std::sync::OnceLock::new();
    let start_at = std::sync::OnceLock::new();
    let (writers, querier, start_ns) = std::thread::scope(|s| {
        let ws: Vec<_> = (0..wl.writers)
            .map(|conn| {
                let (barrier, deadline, clock) = (&barrier, &deadline, &ready.clock);
                s.spawn(move || ingest_loop(wl, seed, conn, addr, clock, barrier, deadline))
            })
            .collect();
        let qh = {
            let (barrier, deadline, start_at) = (&barrier, &deadline, &start_at);
            s.spawn(move || query_loop(wl, addr, barrier, deadline, start_at, closed_loop))
        };
        // Every connection is open before the clock starts.
        barrier.wait();
        let t = now_ns();
        let _ = start_at.set(t);
        let _ = deadline.set(t + (seconds * 1e9) as u64);
        let writers: Result<Vec<Writer>, String> = ws
            .into_iter()
            .map(|h| h.join().map_err(|_| "ingest thread panicked".to_owned())?)
            .collect();
        let querier = qh
            .join()
            .map_err(|_| "query thread panicked".to_owned())
            .and_then(|r| r);
        (writers, querier, t)
    });
    let writers = writers?;
    let querier = querier?;
    Ok(Phase {
        writers,
        querier,
        start_ns,
        deadline_ns: start_ns + (seconds * 1e9) as u64,
        final_bucket: ready.clock.now_nanos() / BUCKET_NANOS,
    })
}
