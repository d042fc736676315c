//! Traced runs replay the workload's generated frames straight into
//! the public functions a summary wrapper cannot see: the wire codec,
//! `ShardedEngine`, `DurableStore` and `WindowedEngine`. Each replay is
//! a fixed amount of work, the same in every run of a workload.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sqs_engine::ShardedEngine;
use sqs_service::proto;
use sqs_service::server::spawn;
use sqs_store::{DurableStore, FsyncPolicy, StoreConfig};
use sqs_util::clock::{Clock, ManualClock};
use sqs_window::{LatePolicy, WindowConfig, WindowedEngine};

use crate::drive::{connect, first_query, server_config, Factory, Served, RESTARTS};
use crate::frames::SHARDS;
use crate::report::{median, ratio};
use crate::timed::{drain, Kind, Span};
use crate::workload::{
    window_specs, Workload, BUCKET_NANOS, PROBE_PHIS, RETENTION_BUCKETS, ROLLUP_FACTOR,
};

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn sum_ns(spans: &[Span], kind: Kind) -> (f64, u64, u64) {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0.0, 0, 0), |(ns, n, rows), s| {
            (ns + s.nanos() as f64, n + 1, rows + s.rows)
        })
}

/// Wire codec cost per row: `(encode, decode)` in ns.
pub fn proto_costs(frames: &[Vec<u64>]) -> (f64, f64) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        for xs in frames {
            let t = Instant::now();
            let payload = black_box(proto::encode_u64s(black_box(xs)));
            enc.push(elapsed_ns(t) / xs.len() as f64);
            let t = Instant::now();
            let back = proto::decode_u64s(black_box(&payload));
            dec.push(elapsed_ns(t) / xs.len() as f64);
            assert_eq!(
                back.as_deref().ok(),
                Some(xs.as_slice()),
                "codec round trip"
            );
        }
    }
    (median(&enc), median(&dec))
}

/// What a summary cost inside a directly driven `ShardedEngine`.
pub struct EngineCosts {
    pub ingest_batch_us: f64,
    /// Summary `insert_batch` time ÷ `ingest_batch` time.
    pub fold_share: f64,
    pub snapshot_us: f64,
    pub insert_ns_per_row: f64,
    pub merge_from_us: f64,
    /// Summary query time per `query_many` call.
    pub query_us: f64,
}

/// Ingests each frame into a fresh 4-shard engine; after each one,
/// takes a snapshot (a rebuild: the ingest moved the epoch) and answers
/// a `query_many` from it. `S` is a `Timed` summary, so the summary's
/// own spans come out of the same calls.
pub fn engine_costs<S: Served, F: Factory<S>>(
    frames: &[Vec<u64>],
    phis: &[f64],
    xs: &[u64],
    factory: &F,
) -> EngineCosts {
    let engine = ShardedEngine::<u64, S>::new_with(SHARDS, 1024, |shard| factory(1, shard));
    drain();
    let (mut ingest, mut snapshot) = (Vec::new(), Vec::new());
    let (mut ingest_total, mut insert_total, mut rows) = (0.0, 0.0, 0u64);
    let (mut merge_ns, mut merges, mut query_ns, mut queries) = (0.0, 0u64, 0.0, 0u64);
    for f in frames {
        let t = Instant::now();
        engine.ingest_batch(f);
        let ns = elapsed_ns(t);
        ingest.push(ns / 1e3);
        ingest_total += ns;
        let (ins, _, r) = sum_ns(&drain(), Kind::Insert);
        insert_total += ins;
        rows += r;

        let t = Instant::now();
        black_box(engine.snapshot());
        snapshot.push(elapsed_ns(t) / 1e3);
        let spans = drain();
        let (m, k, _) = sum_ns(&spans, Kind::Merge);
        merge_ns += m;
        merges += k;

        black_box(engine.query_many(phis, xs));
        let spans = drain();
        query_ns += sum_ns(&spans, Kind::Query).0 + sum_ns(&spans, Kind::Rank).0;
        queries += 1;
    }
    EngineCosts {
        ingest_batch_us: median(&ingest),
        fold_share: ratio(insert_total, ingest_total),
        snapshot_us: median(&snapshot),
        insert_ns_per_row: ratio(insert_total, rows as f64),
        merge_from_us: ratio(merge_ns, merges as f64) / 1e3,
        query_us: ratio(query_ns, queries as f64) / 1e3,
    }
}

pub struct StoreCosts {
    pub append_batch_us: f64,
    pub fsync_share: f64,
    pub bytes_per_row: f64,
    pub fsyncs_per_frame: f64,
    pub open_replay_s: f64,
}

fn append_all(
    dir: &Path,
    fsync: FsyncPolicy,
    frames: &[Vec<u64>],
    tenants: u64,
) -> Result<(Vec<f64>, sqs_store::StoreStats), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = StoreConfig {
        fsync,
        ..StoreConfig::new(dir)
    };
    let (store, _) = DurableStore::open(&cfg).map_err(|e| format!("store open: {e}"))?;
    let mut us = Vec::new();
    for (i, xs) in frames.iter().enumerate() {
        let t = Instant::now();
        store
            .append_batch(1 + i as u64 % tenants, xs)
            .map_err(|e| format!("store append: {e}"))?;
        us.push(elapsed_ns(t) / 1e3);
    }
    Ok((us, store.stats()))
}

/// `DurableStore::append_batch` under `Always` and under `Never`, then
/// `DurableStore::open` replaying the `Always` log.
pub fn store_costs(frames: &[Vec<u64>], tenants: u64, root: &Path) -> Result<StoreCosts, String> {
    let always_dir = root.join("replay-always");
    let (always, stats) = append_all(&always_dir, FsyncPolicy::Always, frames, tenants)?;
    let (never, _) = append_all(
        &root.join("replay-never"),
        FsyncPolicy::Never,
        frames,
        tenants,
    )?;
    let t = Instant::now();
    let (store, recovery) = DurableStore::open(&StoreConfig::new(&always_dir))
        .map_err(|e| format!("store reopen: {e}"))?;
    let open_replay_s = t.elapsed().as_secs_f64();
    if recovery.records.len() != frames.len() {
        return Err(format!(
            "store replay found {} records, {} were appended",
            recovery.records.len(),
            frames.len()
        ));
    }
    drop(store);
    let (a, n) = (median(&always), median(&never));
    Ok(StoreCosts {
        append_batch_us: a,
        fsync_share: ratio(a - n, a),
        bytes_per_row: ratio(stats.bytes_appended as f64, stats.items_appended as f64),
        fsyncs_per_frame: ratio(stats.fsyncs as f64, stats.records_appended as f64),
        open_replay_s,
    })
}

/// Restart time of a durable server built with the workload's own
/// configuration and factory, for workloads that serve from memory:
/// the frames go to tenant 1 under `Always`, then the server is
/// reopened [`RESTARTS`] times on that data dir, each timed from
/// `spawn` until the first query is answered. The median, in seconds.
pub fn recovery_s<S: Served, F: Factory<S>>(
    wl: &Workload,
    frames: &[Vec<u64>],
    factory: &F,
    root: &Path,
) -> Result<f64, String> {
    let dir = root.join("replay-recovery");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = server_config(wl, Some(&dir), &ManualClock::new());
    let server = spawn(cfg.clone(), factory.clone()).map_err(|e| format!("spawn: {e}"))?;
    let mut c = connect(server.addr())?;
    for xs in frames {
        c.insert_batch(1, xs)
            .map_err(|e| format!("recovery prefill: {e}"))?;
    }
    drop(c);
    let mut server = server;
    let mut times = Vec::new();
    for _ in 0..RESTARTS {
        server.shutdown();
        server.join();
        let t = Instant::now();
        server = spawn(cfg.clone(), factory.clone()).map_err(|e| format!("respawn: {e}"))?;
        first_query(&mut connect(server.addr())?)?;
        times.push(t.elapsed().as_secs_f64());
    }
    server.shutdown();
    server.join();
    Ok(median(&times))
}

pub struct WindowCosts {
    pub ingest_us: f64,
    pub query_us: f64,
    /// Rollup reuses ÷ rollup lookups.
    pub rollup_hit_ratio: f64,
    pub buckets_rotated: f64,
}

/// Frames go into a window ring on a manual clock that moves one
/// bucket every two frames; after every second frame one of the
/// workload window specs is queried.
pub fn window_costs<S: Served, F: Factory<S>>(frames: &[Vec<u64>], factory: &F) -> WindowCosts {
    let engine = Arc::new(ShardedEngine::<u64, S>::new_with(SHARDS, 1024, |shard| {
        factory(1, shard)
    }));
    let clock = ManualClock::at(BUCKET_NANOS);
    let cfg = WindowConfig {
        bucket_nanos: BUCKET_NANOS,
        retention_buckets: RETENTION_BUCKETS,
        rollup_factor: ROLLUP_FACTOR,
        late_policy: LatePolicy::Drop,
    };
    let make = factory.clone();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let w = WindowedEngine::new(engine, cfg, shared, move |b| {
        make(1, (1 << 20) + (b % 1021) as usize)
    });
    let specs = window_specs();
    let (mut ingest, mut query) = (Vec::new(), Vec::new());
    for (i, xs) in frames.iter().cycle().take(64).enumerate() {
        let ts = BUCKET_NANOS * (1 + i as u64 / 2);
        clock.set(ts);
        let t = Instant::now();
        black_box(w.ingest_window_only(ts, xs));
        ingest.push(elapsed_ns(t) / 1e3);
        if i % 2 == 1 {
            let t = Instant::now();
            let answer = w.query(specs[(i / 2) % 3], &PROBE_PHIS);
            query.push(elapsed_ns(t) / 1e3);
            black_box(answer.ok());
        }
    }
    drain();
    let stats = w.stats();
    WindowCosts {
        ingest_us: median(&ingest),
        query_us: median(&query),
        rollup_hit_ratio: ratio(
            stats.rollup_hits.saturating_sub(stats.rollups_built) as f64,
            stats.rollup_hits as f64,
        ),
        buckets_rotated: stats.buckets_rotated as f64,
    }
}
