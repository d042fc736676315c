//! The correctness checks that run after the timed phase: every
//! answer is held to its backend's rank bound against the exact stream
//! (regenerated frame by frame, never materialized), every window's
//! mass must match exactly, and a snapshot must round-trip into a
//! second server built with the workload's own factory.

use std::net::SocketAddr;
use std::time::Duration;

use sqs_service::server::spawn;
use sqs_service::{Client, ClientError};
use sqs_turnstile::default_level_cutoff;
use sqs_util::clock::ManualClock;
use sqs_window::{WindowAnswer, WindowKind};

use crate::drive::{server_config, Factory, Phase, Served};
use crate::frames::{frame, Pool, EPS, FRAME_ROWS, LOG_U, POOL, PREFILL_CONN};
use crate::workload::{window_specs, Backend, Workload, BUCKET_NANOS};

/// The φ grid of the verification queries: 0.01, 0.02, …, 0.99.
fn grid() -> Vec<f64> {
    (1..100).map(|i| f64::from(i) / 100.0).collect()
}

/// Exact counts of one tenant's stream (or one window of it) below a
/// set of thresholds, accumulated frame by frame.
struct Counter {
    tenant: u64,
    /// Inclusive bucket range for a window; `None` is the all-time stream.
    buckets: Option<(u64, u64)>,
    thresholds: Vec<u64>,
    /// `cells[c]` counts values with exactly `c` thresholds `<=` them;
    /// turned into prefix sums once counting ends.
    cells: Vec<u64>,
    n: u64,
    quantiles: Vec<(f64, Option<u64>)>,
    ranks: Vec<(u64, u64)>,
    reported_n: Option<u64>,
    label: String,
}

impl Counter {
    fn new(tenant: u64, buckets: Option<(u64, u64)>, label: String) -> Self {
        Self {
            tenant,
            buckets,
            thresholds: Vec::new(),
            cells: Vec::new(),
            n: 0,
            quantiles: Vec::new(),
            ranks: Vec::new(),
            reported_n: None,
            label,
        }
    }

    fn covers(&self, tenant: u64, bucket: Option<u64>) -> bool {
        self.tenant == tenant
            && match (self.buckets, bucket) {
                (None, _) => true,
                (Some((lo, hi)), Some(b)) => lo <= b && b <= hi,
                (Some(_), None) => false,
            }
    }

    /// Counts `xs` as if it arrived `times` times.
    fn count(&mut self, xs: &[u64], times: u64) {
        for &x in xs {
            let c = self.thresholds.partition_point(|&t| t <= x);
            self.cells[c] += times;
        }
        self.n += xs.len() as u64 * times;
    }

    /// Exact number of values `< v`; `v` must be a registered threshold.
    fn lt(&self, v: u64) -> u64 {
        let k = self
            .thresholds
            .binary_search(&v)
            .expect("every looked-up value was registered as a threshold");
        self.cells[k]
    }
}

/// The rank bound each backend's own tests assert against
/// `sqs_util::exact`.
#[derive(Clone, Copy)]
enum Bound {
    /// ε·n on the answer's rank interval (Random, q-digest).
    Eps,
    /// The grain-cell straddle bound of truncated DCS: the answer's
    /// `grain`-wide cell must straddle the target rank within ε·n.
    Straddle { grain: u64 },
}

impl Bound {
    fn of(backend: Backend) -> Self {
        match backend {
            Backend::Random | Backend::QDigest => Bound::Eps,
            Backend::Dcs => Bound::Straddle {
                grain: 1u64 << default_level_cutoff(EPS, LOG_U),
            },
        }
    }

    /// The two exact ranks a check on value `v` needs.
    fn probes(self, v: u64) -> [u64; 2] {
        match self {
            Bound::Eps => [v, v.saturating_add(1)],
            Bound::Straddle { grain } => {
                let c = v & !(grain - 1);
                [c, c.saturating_add(grain)]
            }
        }
    }

    fn check_quantile(self, c: &Counter, phi: f64, q: Option<u64>) -> Result<(), String> {
        let n = c.n;
        let Some(q) = q else {
            return if n == 0 {
                Ok(())
            } else {
                Err(format!("φ={phi}: no answer over {n} values"))
            };
        };
        let slack = EPS * n as f64;
        let t = (phi * n as f64).floor();
        let [a, b] = self.probes(q);
        let (lo, hi) = (c.lt(a) as f64, c.lt(b) as f64);
        let ok = match self {
            // The rank interval of q is [lt(q), le(q) − 1] when q is
            // present, else just lt(q).
            Bound::Eps => {
                let top = (hi - 1.0).max(lo);
                t + slack >= lo && t <= top + slack
            }
            Bound::Straddle { .. } => lo <= t + slack && hi > t - slack,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "φ={phi}: answer {q} has exact ranks [{lo}, {hi}) against target {t} ± {slack:.0}"
            ))
        }
    }

    fn check_rank(self, c: &Counter, x: u64, est: u64) -> Result<(), String> {
        let slack = EPS * c.n as f64;
        let [a, b] = self.probes(x);
        let (lo, hi) = (c.lt(a) as f64, c.lt(b) as f64);
        let est = est as f64;
        if est + slack >= lo && est <= hi + slack {
            Ok(())
        } else {
            Err(format!(
                "rank({x}) = {est} outside exact [{lo}, {hi}] ± {slack:.0}"
            ))
        }
    }
}

/// What verification found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Verification ops sent, and how many the server refused.
    pub attempted: u64,
    pub failed: u64,
    /// Answers that broke a check (each one fails the run).
    pub violations: Vec<String>,
    /// Mean `SNAPSHOT` frame length per tenant.
    pub summary_bytes: f64,
}

impl Verdict {
    fn op<T>(&mut self, what: &str, r: Result<T, ClientError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.violations.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The inclusive bucket range a window spec covers when the clock sits
/// in bucket `cur`, or `None` while no tumbling window has completed.
fn window_range(kind: WindowKind, m: u64, cur: u64) -> Option<(u64, u64)> {
    match kind {
        WindowKind::Sliding => Some(((cur + 1).saturating_sub(m), cur)),
        WindowKind::Tumbling => {
            let g = cur / m;
            (g > 0).then(|| ((g - 1) * m, g * m - 1))
        }
    }
}

/// Queries every tenant (and every window) once more, checks each
/// answer against the exact stream, and round-trips one snapshot.
pub fn verify<S: Served, F: Factory<S>>(
    wl: &Workload,
    seed: u64,
    addr: SocketAddr,
    factory: &F,
    phase: &Phase,
) -> Result<Verdict, String> {
    let mut v = Verdict::default();
    let mut c =
        Client::connect(addr, Duration::from_secs(30)).map_err(|e| format!("verify: {e}"))?;
    let phis = grid();
    let xs = wl.check_xs();
    let bound = Bound::of(wl.backend);
    let mut counters: Vec<Counter> = Vec::new();
    let mut snapshots = Vec::new();
    for tenant in 1..=wl.tenants {
        let mut all = Counter::new(tenant, None, format!("tenant {tenant}"));
        if let Some((qs, ranks)) = v.op("verify query_many", c.query_many(tenant, &phis, &xs)) {
            all.quantiles = phis.iter().copied().zip(qs).collect();
            all.ranks = xs.iter().copied().zip(ranks).collect();
        }
        if let Some(frame) = v.op("verify snapshot", c.snapshot(tenant)) {
            snapshots.push((tenant, frame));
        }
        counters.push(all);
        if wl.windowed {
            for spec in window_specs() {
                let m = spec.len_nanos / BUCKET_NANOS;
                let range = window_range(spec.kind, m, phase.final_bucket);
                let label = format!("tenant {tenant} {:?} {m}", spec.kind);
                let Some(a) = v.op("verify window_query", c.window_query(tenant, spec, &phis))
                else {
                    continue;
                };
                let WindowAnswer {
                    start_nanos,
                    end_nanos,
                    n,
                    answers,
                } = a;
                let expect = range.map_or((0, 0), |(lo, hi)| {
                    (lo * BUCKET_NANOS, (hi + 1) * BUCKET_NANOS)
                });
                if (start_nanos, end_nanos) != expect {
                    v.violations.push(format!(
                        "{label}: covers [{start_nanos}, {end_nanos}) but should cover {expect:?}"
                    ));
                }
                // An empty range (no completed tumbling window yet) is
                // checked as a window over no buckets.
                let mut w = Counter::new(tenant, Some(range.unwrap_or((1, 0))), label);
                w.reported_n = Some(n);
                w.quantiles = phis.iter().copied().zip(answers).collect();
                counters.push(w);
            }
        }
    }

    // Register the thresholds every check needs.
    for k in &mut counters {
        let mut t = Vec::new();
        for &(_, q) in &k.quantiles {
            if let Some(q) = q {
                t.extend(bound.probes(q));
            }
        }
        for &(x, _) in &k.ranks {
            t.extend(bound.probes(x));
        }
        t.sort_unstable();
        t.dedup();
        k.cells = vec![0; t.len() + 1];
        k.thresholds = t;
    }

    // Count every acknowledged frame into every counter that covers
    // it. Timed frames repeat with the connection's pool, so each pool
    // frame is regenerated once and counted with the number of times
    // it was acknowledged into the counter's tenant and window.
    let mut by_tenant: Vec<Vec<usize>> = vec![Vec::new(); wl.tenants as usize + 1];
    for (i, k) in counters.iter().enumerate() {
        by_tenant[k.tenant as usize].push(i);
    }
    let mut xs_buf = Vec::with_capacity(FRAME_ROWS);
    for idx in 0..wl.prefill_frames {
        frame(seed, wl.dist, PREFILL_CONN, idx, &mut xs_buf);
        for &i in &by_tenant[wl.tenant_of(idx) as usize] {
            if counters[i].covers(wl.tenant_of(idx), None) {
                counters[i].count(&xs_buf, 1);
            }
        }
    }
    for (conn, w) in phase.writers.iter().enumerate() {
        let mut weights = vec![vec![0u64; POOL as usize]; counters.len()];
        for &idx in &w.acked {
            let tenant = wl.tenant_of(idx);
            let bucket = wl.windowed.then(|| wl.bucket_of(idx));
            for &i in &by_tenant[tenant as usize] {
                if counters[i].covers(tenant, bucket) {
                    weights[i][(idx % POOL) as usize] += 1;
                }
            }
        }
        let pool = Pool::new(seed, wl.dist, conn as u64);
        for (k, w) in counters.iter_mut().zip(&weights) {
            for (slot, &times) in w.iter().enumerate() {
                if times > 0 {
                    k.count(pool.get(slot as u64), times);
                }
            }
        }
    }
    for k in &mut counters {
        let mut sum = 0;
        for cell in &mut k.cells {
            sum += *cell;
            *cell = sum;
        }
    }

    for k in &counters {
        if let Some(n) = k.reported_n {
            if n != k.n {
                v.violations.push(format!(
                    "{}: window reports {n} values but holds {} exactly",
                    k.label, k.n
                ));
            }
        }
        for &(phi, q) in &k.quantiles {
            if let Err(e) = bound.check_quantile(k, phi, q) {
                v.violations.push(format!("{}: {e}", k.label));
            }
        }
        for &(x, est) in &k.ranks {
            if let Err(e) = bound.check_rank(k, x, est) {
                v.violations.push(format!("{}: {e}", k.label));
            }
        }
    }

    // Every snapshot decodes, and carries exactly the tenant's mass.
    let mut bytes = 0usize;
    for (tenant, frame) in &snapshots {
        bytes += frame.len();
        let exact = counters
            .iter()
            .find(|k| k.tenant == *tenant && k.buckets.is_none())
            .map_or(0, |k| k.n);
        match S::from_bytes(frame) {
            Ok(s) if s.n() == exact => {}
            Ok(s) => v.violations.push(format!(
                "tenant {tenant}: snapshot holds {} values, exactly {exact} were acknowledged",
                s.n()
            )),
            Err(e) => v
                .violations
                .push(format!("tenant {tenant}: snapshot does not decode: {e}")),
        }
    }
    v.summary_bytes = bytes as f64 / snapshots.len().max(1) as f64;

    // Snapshot round trip into a second server built with the
    // workload's own factory: both must answer identically.
    if let Some((tenant, frame)) = snapshots.into_iter().next() {
        let dest_cfg = server_config(
            &Workload {
                durable: false,
                windowed: false,
                ..wl.clone()
            },
            None,
            &ManualClock::new(),
        );
        let dest = spawn(dest_cfg, factory.clone()).map_err(|e| format!("spawn dest: {e}"))?;
        let mut d = Client::connect(dest.addr(), Duration::from_secs(30))
            .map_err(|e| format!("connect dest: {e}"))?;
        // The counting above can outlast the server's idle cut-off, so
        // the source is asked again on a fresh connection.
        let mut c = Client::connect(addr, Duration::from_secs(30))
            .map_err(|e| format!("reconnect source: {e}"))?;
        if v.op("round-trip merge_snapshot", d.merge_snapshot(tenant, frame))
            .is_some()
        {
            let src = v.op("round-trip source query", c.query_many(tenant, &phis, &xs));
            let dst = v.op("round-trip dest query", d.query_many(tenant, &phis, &xs));
            if let (Some(src), Some(dst)) = (src, dst) {
                if src != dst {
                    v.violations.push(format!(
                        "tenant {tenant}: snapshot-merged server answers differ from the source"
                    ));
                }
            }
        }
        drop(d);
        dest.shutdown();
        dest.join();
    }
    Ok(v)
}
