//! `perfbench` — the service benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-random --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (see `workload.rs` and `README.md`) against an
//! in-process `sqs_service::server::spawn` over loopback: set-up, a
//! timed phase, then the exact-answer and snapshot round-trip checks.
//! The last stdout line is the result object; the line before it holds
//! the reproducibility metadata. With `--trace 1` the result carries
//! the per-layer metrics instead of the end-to-end ones. Exits non-zero
//! if any answer is wrong or any op failed.
//!
//! Flags: `--workload NAME`, `--seed N` (stream seed), `--seconds N`,
//! `--trace 0|1`, `--summary-seed N` (seeds the randomized summaries;
//! default 42, the `sqs-serve` default), `--calibrate 1` (send queries
//! back-to-back and report the rate served, to size `query_rate`).

mod drive;
mod frames;
mod oracle;
mod replay;
mod report;
mod timed;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_sketch::CountSketch;
use sqs_turnstile::TurnstileSummary;

use drive::{Factory, Served};
use frames::{derive_seed, frame, EPS, LOG_U, REPLAY_CONN};
use report::{block_quantile, json_str, median, metric, micros, quantile, ratio, Metric, Stats};
use timed::{attach, ReqSpan, Timed};
use workload::{Backend, Query, Workload, PROBE_PHIS};

struct Args {
    wl: Workload,
    seed: u64,
    summary_seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut wl, mut seed, mut summary_seed, mut seconds, mut trace, mut calibrate) =
        (None, None, 42u64, None, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                wl = Some(workload::find(val).ok_or_else(|| {
                    let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
                    format!("unknown workload {val:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(num(val)?),
            "--summary-seed" => summary_seed = num(val)?,
            "--seconds" => seconds = Some(num(val)? as f64),
            "--trace" => trace = num(val)? == 1,
            "--calibrate" => calibrate = num(val)? == 1,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        wl: wl.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        summary_seed,
        seconds,
        trace,
        calibrate,
    })
}

fn random_factory(base: u64) -> impl Factory<RandomSketch<u64>> {
    move |tenant, shard| RandomSketch::new(EPS, derive_seed(base, tenant, shard))
}

fn qdigest_factory() -> impl Factory<QDigest> {
    |_, _| QDigest::new(EPS, LOG_U)
}

/// One seed per tenant, shared by its shards: the dyadic Count-Sketch
/// is linear, so same-draw shards merge counter-wise (as in `sqs-serve`).
fn dcs_factory(base: u64) -> impl Factory<TurnstileSummary<CountSketch>> {
    move |tenant, _| TurnstileSummary::dcs(EPS, LOG_U, derive_seed(base, tenant, 0))
}

fn timed<S: Served, F: Factory<S>>(f: F) -> impl Factory<Timed<S>> {
    move |tenant, shard| Timed(f(tenant, shard))
}

/// Per-sample `(start_ns, µs)`.
type Samples = Vec<(u64, f64)>;

/// The samples of the ingest frames and of the queries of a timed phase.
fn samples(phase: &drive::Phase) -> (Samples, Samples) {
    let ingest = phase
        .writers
        .iter()
        .flat_map(|w| w.reqs.iter())
        .map(|r| (r.start, (r.end - r.start) as f64 / 1e3))
        .collect();
    let query = phase
        .querier
        .reqs
        .iter()
        .zip(&phase.querier.latency_ns)
        .map(|(r, &ns)| (r.start, ns as f64 / 1e3))
        .collect();
    (ingest, query)
}

fn values(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// The end-to-end metrics of one timed phase. Throughput and the
/// medians are over every sample of the phase; the tails are
/// [`block_quantile`]s, with the whole-phase tails in `meta`.
fn end_to_end(
    setup: &[f64],
    phase: &drive::Phase,
    (ingest, query): &(Samples, Samples),
    rss: f64,
) -> Vec<Metric> {
    let reqs = || phase.writers.iter().flat_map(|w| w.reqs.iter());
    let rows: u64 = reqs().map(|r| r.rows).sum();
    let last_ack = reqs().map(|r| r.end).max().unwrap_or(phase.start_ns);
    let tail = |s: &[(u64, f64)], q| block_quantile(s, phase.start_ns, phase.deadline_ns, q);
    vec![
        metric("setup_s", median(setup), "s"),
        // Acknowledged rows ÷ the time from the start to the last ack,
        // so a stall anywhere in the phase (such as durable-window's
        // checkpoint pass) counts in full.
        metric(
            "ingest_rows_per_s",
            ratio(rows as f64, (last_ack - phase.start_ns) as f64 / 1e9),
            "rows/s",
        ),
        metric("ingest_p50_us", median(&values(ingest)), "us"),
        metric("ingest_p99_us", tail(ingest, 0.99), "us"),
        metric("query_p50_us", median(&values(query)), "us"),
        metric("query_p99_us", tail(query, 0.99), "us"),
        metric("peak_rss_mb", rss, "MiB"),
    ]
}

fn backend_prefix(b: Backend) -> &'static str {
    match b {
        Backend::Random => "core.random",
        Backend::QDigest => "core.qdigest",
        Backend::Dcs => "turnstile.dcs",
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer<S: Served, F: Factory<S>>(
    args: &Args,
    factory: &F,
    phase: &drive::Phase,
    spans: &[timed::Span],
    stats: &Stats,
    summary_bytes: f64,
    wire_us: f64,
    recovery_s: &[f64],
    e2e: Vec<Metric>,
    data_root: &Path,
) -> Result<Vec<Metric>, String> {
    let wl = &args.wl;
    let mut m = Vec::new();
    let conns: Vec<Vec<ReqSpan>> = phase
        .writers
        .iter()
        .map(|w| w.reqs.clone())
        .chain(std::iter::once(phase.querier.reqs.clone()))
        .collect();
    let work = attach(&conns, spans);
    let (ingest_work, query_work) = work.split_at(phase.writers.len());
    // Per ingest request: client round trip minus the summary time the
    // server spent inside it, minus the bare wire cost.
    let outside_summary: Vec<f64> = conns[..phase.writers.len()]
        .iter()
        .flatten()
        .zip(ingest_work.iter().flatten())
        .map(|(r, w)| (r.end - r.start).saturating_sub(w.total_ns()) as f64 / 1e3)
        .collect();
    m.push(metric("service.wire_us", wire_us, "us"));

    let mut frames_buf = Vec::new();
    for i in 0..16 {
        let mut xs = Vec::new();
        frame(args.seed, wl.dist, REPLAY_CONN, i, &mut xs);
        frames_buf.push(xs);
    }
    let (enc, dec) = replay::proto_costs(&frames_buf);
    m.push(metric("service.proto_decode_ns_per_row", dec, "ns"));
    m.push(metric("service.proto_encode_ns_per_row", enc, "ns"));
    m.push(metric(
        "service.dispatch_other_us",
        median(&outside_summary) - wire_us,
        "us",
    ));
    m.push(metric(
        "service.busy_sheds",
        stats.num("busy_shed"),
        "count",
    ));
    m.push(metric(
        "service.proto_errors",
        stats.num("proto_errors"),
        "count",
    ));

    // Durable workloads restart in set-up; the others restart a durable
    // server with their own factory on the replay frames.
    let recovery = if wl.durable {
        median(recovery_s)
    } else {
        replay::recovery_s(wl, &frames_buf, factory, data_root)?
    };
    m.push(metric("service.recovery_s", recovery, "s"));

    let (phis, xs) = match &wl.query {
        Query::Many { phis, xs } => (phis.clone(), xs.clone()),
        Query::Window => (PROBE_PHIS.to_vec(), wl.check_xs()),
    };
    let costs = [
        (
            Backend::Random,
            replay::engine_costs(
                &frames_buf,
                &phis,
                &xs,
                &timed(random_factory(args.summary_seed)),
            ),
        ),
        (
            Backend::QDigest,
            replay::engine_costs(&frames_buf, &phis, &xs, &timed(qdigest_factory())),
        ),
        (
            Backend::Dcs,
            replay::engine_costs(
                &frames_buf,
                &phis,
                &xs,
                &timed(dcs_factory(args.summary_seed)),
            ),
        ),
    ];
    let served = &costs
        .iter()
        .find(|(b, _)| *b == wl.backend)
        .expect("every backend is replayed")
        .1;
    m.push(metric(
        "engine.ingest_batch_us",
        served.ingest_batch_us,
        "us",
    ));
    m.push(metric("engine.fold_share", served.fold_share, "ratio"));
    m.push(metric("engine.snapshot_us", served.snapshot_us, "us"));
    let queries = query_work.iter().flatten().count() as f64;
    let merges: u64 = query_work.iter().flatten().map(|w| w.merges).sum();
    m.push(metric(
        "engine.merges_per_query",
        ratio(merges as f64, queries),
        "count",
    ));
    let (hits, rebuilds) = (stats.num("snapshot_cache_hits"), stats.num("snapshots"));
    m.push(metric(
        "engine.snapshot_cache_hit_ratio",
        ratio(hits, hits + rebuilds),
        "ratio",
    ));

    let (ins_ns, ins_rows) = spans
        .iter()
        .filter(|s| s.kind == timed::Kind::Insert)
        .fold((0.0, 0u64), |(ns, r), s| {
            (ns + s.nanos() as f64, r + s.rows)
        });
    let merge_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == timed::Kind::Merge)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    // Summary costs seen inside the real server during the timed phase:
    // insert ns per row, mean merge µs, summary query µs per request.
    let in_server = (
        ratio(ins_ns, ins_rows as f64),
        ratio(merge_spans.iter().sum(), merge_spans.len() as f64),
        ratio(
            query_work
                .iter()
                .flatten()
                .map(|w| w.query_ns as f64 / 1e3)
                .sum(),
            queries,
        ),
    );
    for (b, c) in &costs {
        let (ins, merge, query) = if *b == wl.backend {
            in_server
        } else {
            (c.insert_ns_per_row, c.merge_from_us, c.query_us)
        };
        let p = backend_prefix(*b);
        m.push(metric(format!("{p}.insert_batch_ns_per_row"), ins, "ns"));
        match b {
            Backend::Random => {}
            Backend::QDigest => {
                m.push(metric(format!("{p}.merge_from_us"), merge, "us"));
                m.push(metric(format!("{p}.query_us"), query, "us"));
            }
            Backend::Dcs => {
                m.push(metric(format!("{p}.merge_from_us"), merge, "us"));
                m.push(metric(format!("{p}.query_many_us"), query, "us"));
            }
        }
    }
    m.push(metric("core.summary_bytes", summary_bytes, "bytes"));

    let store = replay::store_costs(&frames_buf, wl.tenants, data_root)?;
    m.push(metric("store.append_batch_us", store.append_batch_us, "us"));
    m.push(metric("store.fsync_share", store.fsync_share, "ratio"));
    m.push(metric("store.bytes_per_row", store.bytes_per_row, "bytes"));
    m.push(metric(
        "store.fsyncs_per_frame",
        store.fsyncs_per_frame,
        "count",
    ));
    m.push(metric("store.open_replay_s", store.open_replay_s, "s"));

    let window = replay::window_costs(&frames_buf, factory);
    m.push(metric("window.ingest_us", window.ingest_us, "us"));
    m.push(metric("window.query_us", window.query_us, "us"));
    let (hit_ratio, rotated) = if wl.windowed {
        let (hits, built) = (stats.num("rollup_hits"), stats.num("rollups_built"));
        (ratio(hits - built, hits), stats.num("buckets_rotated"))
    } else {
        (window.rollup_hit_ratio, window.buckets_rotated)
    };
    m.push(metric("window.rollup_hit_ratio", hit_ratio, "ratio"));
    m.push(metric("window.buckets_rotated", rotated, "count"));

    let (lag, gen) = generator_costs(phase);
    m.push(metric("loadgen.query_lag_us", lag, "us"));
    m.push(metric("loadgen.gen_ns_per_row", gen, "ns"));
    for e in e2e {
        m.push(metric(format!("traced.{}", e.name), e.value, e.unit));
    }
    Ok(m)
}

/// Median round trip of a request the server answers without summary
/// work (`QUERY_MANY` with no φ and no probes) on the now idle server:
/// framing, loopback, decode and dispatch.
fn bare_round_trip_us(addr: std::net::SocketAddr) -> Result<f64, String> {
    let mut c = sqs_service::Client::connect(addr, std::time::Duration::from_secs(30))
        .map_err(|e| format!("wire probe: {e}"))?;
    let mut rtt = Vec::new();
    for _ in 0..500 {
        let t = std::time::Instant::now();
        c.query_many(1, &[], &[])
            .map_err(|e| format!("wire probe: {e}"))?;
        rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&rtt))
}

/// p99 of how late the open-loop sender ran, and the ingest
/// generator's cost per row.
fn generator_costs(phase: &drive::Phase) -> (f64, f64) {
    let lag = quantile(&micros(&phase.querier.lag_ns), 0.99);
    let (ns, rows) = phase
        .writers
        .iter()
        .fold((0u64, 0u64), |(n, r), w| (n + w.gen_ns, r + w.gen_rows));
    (lag, ratio(ns as f64, rows as f64))
}

fn run<S: Served, F: Factory<S>>(
    args: &Args,
    factory: F,
    data_root: &Path,
) -> Result<bool, String> {
    let wl = &args.wl;
    let ready = drive::setup::<S, F>(wl, args.seed, &factory, data_root)?;
    timed::drain();
    let phase = drive::timed_phase(wl, args.seed, &ready, args.seconds, args.calibrate)?;
    let rss = report::peak_rss_mib();
    let spans = if args.trace {
        timed::drain()
    } else {
        Vec::new()
    };
    if args.calibrate {
        let served = phase.querier.attempted as f64 / args.seconds;
        eprintln!(
            "calibrate {}: {served:.1} queries/s back-to-back; a quarter is {:.1}/s",
            wl.name,
            served / 4.0
        );
        return Ok(true);
    }
    let addr = ready.handle.addr();
    let stats = sqs_service::Client::connect(addr, std::time::Duration::from_secs(30))
        .and_then(|mut c| c.stats())
        .map(Stats)
        .map_err(|e| format!("STATS: {e}"))?;
    let verdict = oracle::verify::<S, F>(wl, args.seed, addr, &factory, &phase)?;
    let wire_us = if args.trace {
        bare_round_trip_us(addr)?
    } else {
        0.0
    };
    let drive::Ready {
        handle,
        setup_s,
        recovery_s,
        ..
    } = ready;
    handle.shutdown();
    handle.join();

    let mut problems: Vec<String> = phase.querier.bad_answers.clone();
    problems.extend(verdict.violations.iter().cloned());
    let attempted = phase.writers.iter().map(|w| w.attempted).sum::<u64>()
        + phase.querier.attempted
        + verdict.attempted
        + 1;
    let failed = phase.writers.iter().map(|w| w.failed).sum::<u64>()
        + phase.querier.failed
        + verdict.failed
        + verdict.violations.len() as u64;
    let correct = failed == 0;

    let latencies = samples(&phase);
    let e2e = end_to_end(&setup_s, &phase, &latencies, rss);
    let (lag, gen) = generator_costs(&phase);
    let interval_us = 1e6 / wl.query_rate;
    let generator_valid = lag <= interval_us;
    if !generator_valid {
        eprintln!(
            "warning: the open-loop query sender ran {lag:.0} us late at p99, more than one \
             inter-arrival interval ({interval_us:.0} us): the query numbers of this run measure \
             the generator, not the server"
        );
    }
    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }

    let (ingest, query) = &latencies;
    let ingest_samples = ingest.len();
    let rates: Vec<String> = workload::all()
        .iter()
        .map(|w| format!("{}: {}", json_str(w.name), w.query_rate))
        .collect();
    let meta = report::metadata(
        &[
            ("workload", json_str(wl.name)),
            ("seed", args.seed.to_string()),
            ("summary_seed", args.summary_seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("backend", json_str(&format!("{:?}", wl.backend))),
            ("distribution", json_str(&wl.dist.label())),
            (
                "fsync_policy",
                json_str(if wl.durable {
                    "always"
                } else {
                    "none (in-memory)"
                }),
            ),
            ("query_rates_per_s", format!("{{{}}}", rates.join(", "))),
            ("ingest_samples", ingest_samples.to_string()),
            ("query_samples", phase.querier.latency_ns.len().to_string()),
            (
                "whole_phase_ingest_p99_us",
                quantile(&values(ingest), 0.99).to_string(),
            ),
            (
                "whole_phase_query_p99_us",
                quantile(&values(query), 0.99).to_string(),
            ),
            ("setup_rounds", format!("{setup_s:?}")),
            ("recovery_rounds", format!("{recovery_s:?}")),
            (
                "ops_failed_ratio",
                ratio(failed as f64, attempted as f64).to_string(),
            ),
            ("loadgen.query_lag_us", lag.to_string()),
            (
                "loadgen.query_lag_p50_us",
                median(&micros(&phase.querier.lag_ns)).to_string(),
            ),
            ("loadgen.gen_ns_per_row", gen.to_string()),
            ("generator_valid", generator_valid.to_string()),
        ],
        data_root,
    );
    println!("{{\"meta\": {meta}}}");

    let metrics = if args.trace {
        per_layer::<S, F>(
            args,
            &factory,
            &phase,
            &spans,
            &stats,
            verdict.summary_bytes,
            wire_us,
            &recovery_s,
            e2e,
            data_root,
        )?
    } else {
        e2e
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn dispatch(args: &Args, data_root: &Path) -> Result<bool, String> {
    let seed = args.summary_seed;
    match (args.wl.backend, args.trace) {
        (Backend::Random, false) => run(args, random_factory(seed), data_root),
        (Backend::Random, true) => run(args, timed(random_factory(seed)), data_root),
        (Backend::Dcs, false) => run(args, dcs_factory(seed), data_root),
        (Backend::Dcs, true) => run(args, timed(dcs_factory(seed)), data_root),
        (Backend::QDigest, _) => Err("no workload serves q-digest".to_owned()),
    }
}

fn main() -> ExitCode {
    timed::now_ns();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Durable state lives inside the checkout, under a per-process dir
    // that is removed when the run ends.
    let data_root =
        PathBuf::from(".bench_data").join(format!("{}-{}", args.wl.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_root) {
        eprintln!("cannot create {}: {e}", data_root.display());
        return ExitCode::FAILURE;
    }
    let outcome = dispatch(&args, &data_root);
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(".bench_data");
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
