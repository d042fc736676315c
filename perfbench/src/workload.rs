//! The three traffic mixes. Why each one exists, and which layers it
//! exercises or bypasses, is written down in `perfbench/README.md`.

use sqs_window::WindowSpec;

use crate::frames::{Dist, LOG_U};

/// The summary type every shard of every tenant uses. No workload
/// serves `QDigest`; the traced run measures it by replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Random,
    QDigest,
    Dcs,
}

/// What the open-loop query connection sends.
#[derive(Debug, Clone)]
pub enum Query {
    /// `QUERY_MANY`: a φ-sweep plus rank probes from one snapshot.
    Many { phis: Vec<f64>, xs: Vec<u64> },
    /// `WINDOW_QUERY`, cycling through [`window_specs`] with [`PROBE_PHIS`].
    Window,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub dist: Dist,
    pub tenants: u64,
    /// Closed-loop ingest connections.
    pub writers: u64,
    /// `--data-dir` with `FsyncPolicy::Always`.
    pub durable: bool,
    /// Window rings on a manual clock; ingest is `WINDOW_INSERT`.
    pub windowed: bool,
    pub query: Query,
    /// Open-loop queries per second, fixed at a quarter or less of what
    /// the query connection serves back-to-back beside the workload's
    /// ingest (see `--calibrate` and `README.md`).
    pub query_rate: f64,
    /// Frames ingested in set-up, round-robin over the tenants.
    pub prefill_frames: u64,
}

/// The φ probes of the dashboard-style queries.
pub const PROBE_PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];

/// Window bucket width: one second.
pub const BUCKET_NANOS: u64 = 1_000_000_000;
pub const RETENTION_BUCKETS: u64 = 120;
pub const ROLLUP_FACTOR: u64 = 8;

/// Sliding 10 and 60 buckets, tumbling 10 buckets.
pub fn window_specs() -> [WindowSpec; 3] {
    [
        WindowSpec::sliding(10 * BUCKET_NANOS),
        WindowSpec::sliding(60 * BUCKET_NANOS),
        WindowSpec::tumbling(10 * BUCKET_NANOS),
    ]
}

/// `k` rank probes spread evenly over `[lo, hi]`.
fn probes(lo: u64, hi: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| lo + (hi - lo) * i / (k - 1)).collect()
}

pub fn all() -> Vec<Workload> {
    let half = 1u64 << (LOG_U - 1);
    let u = (1u64 << LOG_U) as f64;
    let dcs_spread = (3.0 * 0.05 * u) as u64;
    vec![
        Workload {
            name: "ingest-random",
            backend: Backend::Random,
            dist: Dist::Uniform,
            tenants: 1,
            // One writer: two closed-loop writers kept both vCPUs of a
            // two-core box busy, and their latencies then moved about
            // twice as much as the box's speed did from run to run.
            writers: 1,
            durable: false,
            windowed: false,
            query: Query::Many {
                phis: PROBE_PHIS.to_vec(),
                xs: vec![half / 2, half, half + half / 2],
            },
            query_rate: 250.0,
            prefill_frames: 64,
        },
        Workload {
            name: "durable-window",
            backend: Backend::Random,
            dist: Dist::Uniform,
            tenants: 64,
            writers: 1,
            durable: true,
            windowed: true,
            query: Query::Window,
            query_rate: 400.0,
            prefill_frames: 128,
        },
        Workload {
            name: "turnstile-dcs",
            backend: Backend::Dcs,
            dist: Dist::Normal(0.05),
            tenants: 8,
            writers: 1,
            durable: false,
            windowed: false,
            query: Query::Many {
                phis: (1..100).map(|i| f64::from(i) / 100.0).collect(),
                xs: probes(half - dcs_spread, half + dcs_spread, 16),
            },
            query_rate: 250.0,
            prefill_frames: 64,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Tenant of frame `idx` on any ingest connection.
    pub fn tenant_of(&self, idx: u64) -> u64 {
        1 + idx % self.tenants
    }

    /// Window bucket of timed frame `idx`: the clock moves one bucket
    /// every `tenants` frames, so each tenant gets one frame per bucket
    /// and rotation, rollup and eviction repeat exactly per frame.
    pub fn bucket_of(&self, idx: u64) -> u64 {
        1 + idx / self.tenants
    }

    /// Rank probes the oracle checks on every tenant's all-time stream.
    pub fn check_xs(&self) -> Vec<u64> {
        match &self.query {
            Query::Many { xs, .. } => xs.clone(),
            Query::Window => {
                let half = 1u64 << (LOG_U - 1);
                vec![half / 2, half, half + half / 2]
            }
        }
    }

    /// The value bound the server enforces: DCS has a fixed universe,
    /// Random takes any `u64`.
    pub fn value_bound(&self) -> Option<u64> {
        (self.backend == Backend::Dcs).then_some(1u64 << LOG_U)
    }
}
