//! Deterministic inputs: every ingest frame is a pure function of
//! (seed, connection, frame index), so the oracle can regenerate any
//! frame after the run instead of keeping the stream in memory.

use sqs_data::{Normal, Uniform};
use sqs_util::rng::SplitMix64;

/// Values per ingest frame.
pub const FRAME_ROWS: usize = 4096;
/// Values lie in `[0, 2^LOG_U)`.
pub const LOG_U: u32 = 24;
/// Accuracy parameter of every served summary.
pub const EPS: f64 = 0.01;
/// Engine shards per tenant.
pub const SHARDS: usize = 4;

/// Connection id of the set-up prefill stream.
pub const PREFILL_CONN: u64 = 1_000;
/// Connection id of the frames replayed into single layers.
pub const REPLAY_CONN: u64 = 2_000;

/// Value distribution of a workload's stream.
#[derive(Debug, Clone, Copy)]
pub enum Dist {
    Uniform,
    /// Normal around `2^LOG_U / 2` with relative standard deviation σ.
    Normal(f64),
}

impl Dist {
    pub fn label(self) -> String {
        match self {
            Dist::Uniform => "uniform".to_owned(),
            Dist::Normal(s) => format!("normal(sigma={s})"),
        }
    }
}

/// Fills `out` with frame `idx` of connection `conn`.
pub fn frame(seed: u64, dist: Dist, conn: u64, idx: u64, out: &mut Vec<u64>) {
    let mut sm = SplitMix64::new(
        seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    let s = sm.next_u64();
    out.clear();
    match dist {
        Dist::Uniform => out.extend(Uniform::new(LOG_U, s).take(FRAME_ROWS)),
        Dist::Normal(sigma) => out.extend(Normal::new(LOG_U, sigma, s).take(FRAME_ROWS)),
    }
}

/// Frames in each ingest connection's pool. Timed frame `idx` of a
/// connection is frame `idx % POOL` of that connection, so the
/// generator costs nothing per request and the oracle counts each pool
/// frame once, weighted by how often it was acknowledged. Prime, so
/// round-robin tenants cycle through every pool frame.
pub const POOL: u64 = 251;

/// One connection's pre-generated frames.
pub struct Pool(Vec<Vec<u64>>);

impl Pool {
    pub fn new(seed: u64, dist: Dist, conn: u64) -> Self {
        Pool(
            (0..POOL)
                .map(|slot| {
                    let mut xs = Vec::with_capacity(FRAME_ROWS);
                    frame(seed, dist, conn, slot, &mut xs);
                    xs
                })
                .collect(),
        )
    }

    /// Timed frame `idx` of this connection.
    pub fn get(&self, idx: u64) -> &[u64] {
        &self.0[(idx % POOL) as usize]
    }
}

/// Per-(tenant, shard) summary seed, derived the way `sqs-serve` does.
pub fn derive_seed(base: u64, tenant: u64, shard: usize) -> u64 {
    let mut sm = SplitMix64::new(
        base ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (shard as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    sm.next_u64()
}
