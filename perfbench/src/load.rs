//! Closed-loop `Client` connections and the open-loop writer.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tks_client::Client;
use tks_server::wire::WireQueryResponse;

use crate::gen::{Shape, Q};
use crate::stats::{us, Timeline};
use crate::trace::Tracer;

/// Every `SAMPLE_EVERY`-th response of a connection is kept for the
/// oracle, up to `MAX_SAMPLES` per connection.
const SAMPLE_EVERY: u64 = 7;
const MAX_SAMPLES: usize = 400;

/// What one connection observed.
#[derive(Debug)]
pub struct ClientRun {
    /// `Client::query` + `verify_digest` latency of each successful query, µs.
    pub lat_us: Vec<f64>,
    /// When each of those queries completed.
    pub done: Vec<Instant>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `blocks_read` of the first `prefix` responses (the deterministic
    /// counter's fixed window).
    pub prefix_blocks: Vec<u64>,
    pub blocks_read: u64,
    pub blocks_skipped: u64,
    pub conj_blocks: Vec<u64>,
    /// (query index, response) pairs kept for the oracle.
    pub samples: Vec<(usize, WireQueryResponse)>,
    pub tracer: Tracer,
}

/// Options of one closed-loop connection.
#[derive(Clone, Copy)]
pub struct ClientPlan<'a> {
    pub addr: SocketAddr,
    pub queries: &'a [Q],
    /// This connection sends `queries[(j * stride + offset) % len]`.
    pub offset: usize,
    pub stride: usize,
    pub until: Instant,
    /// Send at least this many queries, even past `until`.
    pub min_queries: u64,
    pub prefix: usize,
    /// Refresh before each query and require the refreshed view to cover
    /// every commit acknowledged before the refresh was sent.
    pub acked: Option<&'a AtomicU64>,
    pub epoch: Instant,
    pub trace: bool,
}

fn fail(run: &mut ClientRun, msg: String) {
    run.failed += 1;
    if run.errors.len() < 8 {
        run.errors.push(msg);
    }
}

/// Run one connection's closed loop.  Failed operations are counted,
/// never retried.
pub fn run_client(plan: ClientPlan<'_>) -> ClientRun {
    let mut run = ClientRun {
        lat_us: Vec::new(),
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        prefix_blocks: Vec::new(),
        blocks_read: 0,
        blocks_skipped: 0,
        conj_blocks: Vec::new(),
        samples: Vec::new(),
        tracer: Tracer::new(plan.epoch, plan.trace),
    };
    let mut client = match Client::connect(plan.addr) {
        Ok(c) => c,
        Err(e) => {
            run.attempted += 1;
            fail(&mut run, format!("connect: {e}"));
            return run;
        }
    };
    let n = plan.queries.len();
    let mut j: u64 = 0;
    while j < plan.min_queries || Instant::now() < plan.until {
        let idx = (j as usize * plan.stride + plan.offset) % n;
        let q = &plan.queries[idx];
        let req = j;
        j += 1;
        if let Some(acked) = plan.acked {
            let must_see = acked.load(Ordering::Acquire);
            run.attempted += 1;
            let (refreshed, _) = run
                .tracer
                .span("client.refresh", req, None, || client.refresh());
            match refreshed {
                Ok(wm) => {
                    let visible: u64 = wm.iter().sum();
                    if visible < must_see {
                        fail(
                            &mut run,
                            format!("refresh sees {visible} docs, {must_see} were acknowledged"),
                        );
                    }
                }
                Err(e) => {
                    fail(&mut run, format!("refresh: {e}"));
                    continue;
                }
            }
        }
        run.attempted += 1;
        let t0 = Instant::now();
        let resp = client.query(q.wire.clone());
        let t1 = Instant::now();
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                fail(&mut run, format!("query {:?}: {e}", q.wire));
                continue;
            }
        };
        let verified = resp.verify_digest();
        let t2 = Instant::now();
        if let Some(parent) = run
            .tracer
            .record("client.query_verified", req, None, t0, t2)
        {
            run.tracer.record("client.query", req, Some(parent), t0, t1);
            run.tracer
                .record("client.verify", req, Some(parent), t1, t2);
        }
        if let Err(e) = verified {
            fail(&mut run, format!("digest: {e}"));
            continue;
        }
        if !resp.trusted {
            fail(&mut run, format!("untrusted response to {:?}", q.wire));
            continue;
        }
        run.lat_us.push(us(t2 - t0));
        run.done.push(t2);
        if run.prefix_blocks.len() < plan.prefix {
            run.prefix_blocks.push(resp.blocks_read);
        }
        run.blocks_read += resp.blocks_read;
        run.blocks_skipped += resp.blocks_skipped;
        if matches!(q.shape, Shape::Conj | Shape::ConjRange) {
            run.conj_blocks.push(resp.blocks_read);
        }
        if req.is_multiple_of(SAMPLE_EVERY) && run.samples.len() < MAX_SAMPLES {
            run.samples.push((idx, resp));
        }
    }
    run
}

/// The open-loop writer busy-waits this long before each due time.
const SPIN_MARGIN: Duration = Duration::from_micros(200);

/// How the writer paces its commits.
#[derive(Clone, Copy)]
pub enum Pace<'a> {
    /// Send each commit as soon as the previous one is acknowledged.
    Closed,
    /// Commit `i` is due `i / rate` seconds after the start; stop at
    /// `until` or `stop`, and count acknowledgements in `acked`.
    Open {
        rate: f64,
        until: Instant,
        stop: &'a AtomicBool,
        acked: &'a AtomicU64,
    },
}

/// What a writer observed.
#[derive(Debug, Default)]
pub struct WriterRun {
    /// Commit latency by completion time: from when each commit was
    /// due in an open loop, from when it was sent in a closed one.
    pub commits: Timeline,
    /// How late each commit was sent: against its schedule in an open
    /// loop, after the previous acknowledgement in a closed one, µs.
    pub late_us: Vec<f64>,
    pub ids: Vec<tks_postings::DocId>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Write I/Os and WORM bytes across the first `prefix` commits.
    pub prefix_counters: Option<(u64, u64)>,
}

/// Commit `docs` in order through one writer, paced by `pace`, with a
/// `shard.writer.commit` span around each commit.  Stops at the first
/// failed commit; failures are counted, never retried.
pub fn commit_stream(
    writer: &mut tks_shard::ShardedWriter,
    docs: &[crate::gen::Doc],
    pace: Pace<'_>,
    prefix: usize,
    tracer: &mut Tracer,
) -> WriterRun {
    let mut run = WriterRun::default();
    let start = Instant::now();
    let before = crate::archive::write_counters(writer);
    let mut acked_at = start;
    for (i, d) in docs.iter().enumerate() {
        let due = match pace {
            Pace::Closed => acked_at,
            Pace::Open {
                rate, until, stop, ..
            } => {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                if due >= until || stop.load(Ordering::Acquire) {
                    break;
                }
                // Sleep to within the spin margin, then spin: a thread
                // woken from a sleep can start late, and that lateness
                // is the generator's, not the archive's.
                let now = Instant::now();
                if due > now + SPIN_MARGIN {
                    std::thread::sleep(due - now - SPIN_MARGIN);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                due
            }
        };
        let sent = Instant::now();
        run.late_us.push(us(sent.saturating_duration_since(due)));
        run.attempted += 1;
        let (res, _) = tracer.span("shard.writer.commit", i as u64, None, || {
            writer.commit(&d.text, tks_postings::Timestamp(d.ts))
        });
        acked_at = Instant::now();
        match res {
            Ok(id) => {
                let from = match pace {
                    Pace::Closed => sent,
                    Pace::Open { acked, .. } => {
                        acked.fetch_add(1, Ordering::Release);
                        due
                    }
                };
                run.commits.record(start, acked_at, us(acked_at - from));
                run.ids.push(id);
            }
            Err(e) => {
                run.failed += 1;
                run.errors.push(format!("commit {i}: {e}"));
                break;
            }
        }
        if run.ids.len() == prefix {
            let after = crate::archive::write_counters(writer);
            run.prefix_counters = Some((after.0 - before.0, after.1 - before.1));
        }
    }
    run.commits.seconds = (acked_at - start).as_secs_f64();
    run
}
