//! Tracing from outside the program: a summary wrapper that records a
//! span around every summary call the server, engine and window ring
//! make, plus the client-side request spans those calls are attached
//! to.
//!
//! Spans go to a per-thread buffer (one uncontended lock per span) and
//! stay in memory until [`drain`] collects them.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sqs_core::codec::{CodecError, WireCodec};
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::SpaceUsage;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process: the one time base
/// shared by client request spans and summary spans.
pub fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Which summary call a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `insert_batch` / `insert_batches`.
    Insert,
    /// `merge_from`.
    Merge,
    /// `quantile` / `quantiles`.
    Query,
    /// `rank_estimate`.
    Rank,
    /// `to_bytes`.
    ToBytes,
}

/// One recorded summary call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Small per-thread id (not the OS id).
    pub tid: u32,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    /// Rows folded (insert spans only).
    pub rows: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static REGISTRY: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LOCAL: (u32, Buffer) = {
        let buf: Buffer = Arc::new(Mutex::new(Vec::with_capacity(4096)));
        REGISTRY
            .lock()
            .expect("span registry lock is never held across a panic")
            .push(Arc::clone(&buf));
        (NEXT_TID.fetch_add(1, Ordering::Relaxed), buf)
    };
}

fn record<R>(kind: Kind, rows: u64, f: impl FnOnce() -> R) -> R {
    let start = now_ns();
    let out = f();
    let end = now_ns();
    LOCAL.with(|(tid, buf)| {
        buf.lock()
            .expect("span buffer lock is never held across a panic")
            .push(Span {
                tid: *tid,
                kind,
                start,
                end,
                rows,
            });
    });
    out
}

/// Takes every span recorded so far, on every thread.
pub fn drain() -> Vec<Span> {
    let bufs: Vec<Buffer> = REGISTRY
        .lock()
        .expect("span registry lock is never held across a panic")
        .clone();
    let mut out = Vec::new();
    for buf in bufs {
        out.append(
            &mut buf
                .lock()
                .expect("span buffer lock is never held across a panic"),
        );
    }
    out
}

/// A summary that behaves exactly like `S` (same answers, same wire
/// frames, same `WIRE_KIND`) and records a span around each summary
/// call. The server is spawned with a factory returning `Timed<S>`, so
/// spans come from inside the real request path.
#[derive(Debug, Clone)]
pub struct Timed<S>(pub S);

impl<S: SpaceUsage> SpaceUsage for Timed<S> {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl<S: CheckInvariants> CheckInvariants for Timed<S> {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.0.check_invariants()
    }
}

impl<S: QuantileSummary<u64> + WireCodec> QuantileSummary<u64> for Timed<S> {
    fn insert(&mut self, x: u64) {
        self.0.insert(x);
    }

    fn n(&self) -> u64 {
        self.0.n()
    }

    fn rank_estimate(&mut self, x: u64) -> u64 {
        record(Kind::Rank, 0, || self.0.rank_estimate(x))
    }

    fn quantile(&mut self, phi: f64) -> Option<u64> {
        record(Kind::Query, 0, || self.0.quantile(phi))
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn extend_from_slice(&mut self, xs: &[u64]) {
        self.0.extend_from_slice(xs);
    }

    fn insert_batch(&mut self, xs: &[u64]) {
        record(Kind::Insert, xs.len() as u64, || {
            self.0.insert_batch(xs);
        });
    }

    fn insert_batches(&mut self, batches: &[&[u64]]) {
        let rows = batches.iter().map(|b| b.len() as u64).sum();
        record(Kind::Insert, rows, || {
            self.0.insert_batches(batches);
        });
    }

    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<u64>> {
        record(Kind::Query, 0, || self.0.quantiles(phis))
    }
}

impl<S: MergeableSummary<u64> + WireCodec> MergeableSummary<u64> for Timed<S> {
    fn merge_from(&mut self, other: Self) {
        record(Kind::Merge, 0, || self.0.merge_from(other.0));
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.0.merge_compatible(&other.0)
    }
}

impl<S: WireCodec> WireCodec for Timed<S> {
    const WIRE_KIND: u8 = S::WIRE_KIND;

    fn encode_body(&mut self, out: &mut Vec<u8>) {
        self.0.encode_body(out);
    }

    fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        S::decode_body(body).map(Timed)
    }

    fn to_bytes(&mut self) -> Vec<u8> {
        record(Kind::ToBytes, 0, || self.0.to_bytes())
    }
}

/// One client request as the benchmark saw it: which connection sent
/// it, and when it was written and answered. Its index in the
/// connection's list is its request id.
#[derive(Debug, Clone, Copy)]
pub struct ReqSpan {
    pub start: u64,
    pub end: u64,
    pub rows: u64,
}

/// Summary time spent inside one client request.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReqWork {
    pub insert_ns: u64,
    pub merge_ns: u64,
    pub merges: u64,
    pub query_ns: u64,
    pub other_ns: u64,
}

impl ReqWork {
    pub fn total_ns(&self) -> u64 {
        self.insert_ns + self.merge_ns + self.query_ns + self.other_ns
    }
}

fn containing(reqs: &[ReqSpan], s: &Span) -> Option<usize> {
    let i = reqs.partition_point(|r| r.start <= s.start);
    let i = i.checked_sub(1)?;
    (reqs.get(i)?.end >= s.end).then_some(i)
}

/// Attaches each summary span to the client request whose interval
/// contains it on that connection's worker thread. A server worker
/// serves one connection for the connection's life, so each thread is
/// first mapped to the connection whose requests contain most of its
/// spans; spans are then attached only within that connection. Spans
/// outside every request (there are none in a clean run) are dropped.
pub fn attach(conns: &[Vec<ReqSpan>], spans: &[Span]) -> Vec<Vec<ReqWork>> {
    let max_tid = spans.iter().map(|s| s.tid as usize + 1).max().unwrap_or(0);
    let mut votes = vec![vec![0u64; conns.len()]; max_tid];
    for s in spans {
        for (c, reqs) in conns.iter().enumerate() {
            if containing(reqs, s).is_some() {
                votes[s.tid as usize][c] += 1;
            }
        }
    }
    let owner: Vec<Option<usize>> = votes
        .iter()
        .map(|v| {
            v.iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .max_by_key(|(_, &n)| n)
                .map(|(c, _)| c)
        })
        .collect();
    let mut work: Vec<Vec<ReqWork>> = conns
        .iter()
        .map(|r| vec![ReqWork::default(); r.len()])
        .collect();
    for s in spans {
        let Some(c) = owner[s.tid as usize] else {
            continue;
        };
        let Some(i) = containing(&conns[c], s) else {
            continue;
        };
        let w = &mut work[c][i];
        match s.kind {
            Kind::Insert => w.insert_ns += s.nanos(),
            Kind::Merge => {
                w.merge_ns += s.nanos();
                w.merges += 1;
            }
            Kind::Query | Kind::Rank => w.query_ns += s.nanos(),
            Kind::ToBytes => w.other_ns += s.nanos(),
        }
    }
    work
}
