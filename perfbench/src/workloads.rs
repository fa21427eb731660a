//! The three workloads (`BENCHMARK.json` lists `ingest` and
//! `investigate-spill`).  Each renders its inputs, then repeats rounds
//! over the given seconds, each setting up a fresh archive and measuring
//! on it (one round in the traced run), checks what it measured, and
//! reports either the end-to-end metrics or, in the traced run, the
//! per-layer ones.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tks_core::engine::{EngineConfig, SearchEngine};
use tks_postings::{DecodedCacheStats, DocId};
use tks_server::server::{ArchiveServer, ServerConfig, ServerHandle};
use tks_shard::{ShardedSearcher, ShardedWriter};

use crate::archive::{self, Live, SHARDS};
use crate::gen::{self, CorpusShape, Doc, Ranked, Q};
use crate::ladder;
use crate::load::{self, ClientPlan, ClientRun, Pace, WriterRun};
use crate::oracle::Oracle;
use crate::stats::{fast_time, median, summarize, Metrics, Timeline};
use crate::trace::Tracer;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    InvestigateSpill,
    Mixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "investigate-spill" => Some(Workload::InvestigateSpill),
            "mixed" => Some(Workload::Mixed),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The counters that repeat exactly under one seed (where the workload
/// defines them as deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub write_ios_per_doc: f64,
    pub blocks_read_per_query: f64,
    pub stored_bytes_per_user_byte: f64,
}

/// What one run produced.
pub struct Outcome {
    pub counters: Counters,
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations, failed checks and broken workload guards.
    pub errors: Vec<String>,
    pub spans: Tracer,
}

/// `ingest`: the text corpus committed by one closed-loop writer.
pub const INGEST_SHAPE: CorpusShape = CorpusShape {
    vocab: 20_000,
    terms_per_doc: 40,
    head: 200,
    query_vocab: 3_000,
};
/// Documents committed during set-up, before the measured stream.
pub const INGEST_BASE: u64 = 1_000;
/// The run repeats this many rounds, each into a fresh archive: set up,
/// commit the stream, tear down, recover, investigate.  The host's
/// memory-bound speed switches between states lasting seconds, so every
/// phase recurs throughout the run and each timing can be read in the
/// run's fast stretches (see `stats::fast_time`).  The traced run does
/// one round.
pub const INGEST_ROUNDS: usize = 10;
/// The measured stream commits this many documents per second of the
/// run over all rounds: a stated input size, so the recovered archive
/// and the queries over it are the same size on every run (about half
/// of `seconds` of commits on the reference machine).
pub const INGEST_DOCS_PER_S: u64 = 3_000;
/// The deterministic counters cover the first this-many measured commits.
pub const INGEST_PREFIX: usize = 1_000;
/// Distinct queries of the post-recovery investigation, which runs for
/// half the run's seconds over all rounds (and, in the first round,
/// sends each query once).
pub const INGEST_QUERIES: u64 = 5_000;
/// Closed-loop connections of each investigation, as on
/// `investigate-spill`.  With one, the server's executor sleeps between
/// requests and every request waits for a vCPU to wake, which on the
/// reference machine spread the query median 0.26 over ten
/// `investigate-spill` runs, against 0.08 with two connections keeping
/// both vCPUs busy.
pub const INGEST_CLIENTS: usize = 2;

/// `investigate-spill`: `at_scale`'s reduced corpus shape and layout, on
/// fewer documents (8 000 instead of 12 000) so that six builds fit a
/// run.
pub const SPILL_SHAPE: CorpusShape = CorpusShape {
    vocab: 36_000,
    terms_per_doc: 60,
    head: 500,
    query_vocab: 6_500,
};
pub const SPILL_TAIL_LISTS: u32 = 768;
pub const SPILL_DOCS: u64 = 8_000;
pub const SPILL_CLIENTS: usize = 2;
/// Distinct queries of the investigation; each connection sends every
/// `SPILL_CLIENTS`-th one, in order, and cycles.
pub const SPILL_QUERIES: usize = 8_000;
/// Rounds of an untraced run: each builds the archive (one set-up) and
/// investigates it for its share of the run's seconds.
pub const SPILL_ROUNDS: usize = 6;
/// `blocks_read_per_query` covers each connection's first this-many
/// responses in the first round: every distinct query once.
pub const SPILL_PREFIX: usize = SPILL_QUERIES / SPILL_CLIENTS;
/// The workload is meant to miss the decoded-block cache: a hit rate
/// above this ceiling means the working set now fits.  It measures about
/// 0.31, and the cache-resident `mixed` warm-up about 0.96.
pub const SPILL_HIT_CEILING: f64 = 0.5;

/// `mixed`: a cache-resident archive under an open-loop writer.  The
/// ranked queries draw on the 200 most query-popular terms: the largest
/// of 200, 400 and 800 whose writer-free warm-up clears the decoded hit
/// rate floor (about 0.96, 0.93 and 0.86 on the reference machine).
pub const MIXED_SHAPE: CorpusShape = CorpusShape {
    query_vocab: 200,
    terms_per_doc: 10,
    ..INGEST_SHAPE
};
pub const MIXED_BASE: u64 = 3_000;
/// The writer's rate, docs/s.  Assumed, not taken from a source: the
/// paper gives no arrival rate.  It is a small share (about 4%) of the
/// closed-loop capacity for these short documents on the reference
/// machine, so the open loop stays far from saturation and its backlog
/// guard tests the archive, not the generator; and against the roughly
/// 2 000 queries/s one connection completes, it commits once every 5 to
/// 6 queries, so tail invalidations and watermark changes run
/// continually through the investigation.
pub const MIXED_RATE: f64 = 400.0;
/// The run repeats this many rounds, each on a freshly built archive,
/// and splits its seconds between them (one round in the traced run).
pub const MIXED_ROUNDS: usize = 8;
/// The investigation keeps returning to this many records (its case
/// file), so its working set stays in the decoded-block cache.  The
/// hit rate hardly depends on it (about 0.963 at 64 records, 0.957 at
/// 128 and 0.954 at 1 024); 128 keeps a margin above the floor.
pub const MIXED_ANCHORS: usize = 128;
pub const MIXED_PREFIX: usize = 200;
/// The open loop is invalid when its median lateness over the last tenth
/// of the run exceeds this (µs).
pub const MIXED_BACKLOG_US: f64 = 50_000.0;
/// Queries of the writer-free warm-up whose decoded hit rate must reach
/// `MIXED_HIT_FLOOR`.
pub const MIXED_WARMUP: usize = 2_000;
pub const MIXED_HIT_FLOOR: f64 = 0.95;

/// Set-ups per round of an untraced run, keeping the last; `setup_s` is
/// their median over the run (one set-up in the traced run; one per
/// round on `investigate-spill`).  The cheap set-ups repeat often
/// enough that one slow set-up moves only a minority of them.
pub const INGEST_SETUPS: usize = 2;
pub const MIXED_SETUPS: usize = 2;
/// Documents through the traced commit ladder.
const LADDER_DOCS: u64 = 600;
/// Minimum requests through the traced query ladder.
const LADDER_QUERIES: usize = 400;

struct E2e {
    setup_s: Vec<f64>,
    query: Timeline,
    commit: Timeline,
    /// Each replicated recovery's seconds, spread over the run.
    recover_s: Vec<f64>,
    write_ios_per_doc: f64,
    blocks_read_per_query: f64,
    stored_bytes_per_user_byte: f64,
    /// The writer's lateness against its schedule, µs.
    late_us: Vec<f64>,
    /// Resident set size once every input is rendered, MB.
    rss_inputs_mb: f64,
}

impl E2e {
    fn new() -> E2e {
        E2e {
            setup_s: Vec::new(),
            query: Timeline::default(),
            commit: Timeline::default(),
            recover_s: Vec::new(),
            write_ios_per_doc: f64::NAN,
            blocks_read_per_query: f64::NAN,
            stored_bytes_per_user_byte: f64::NAN,
            late_us: Vec::new(),
            rss_inputs_mb: rss_after_inputs_mb(),
        }
    }

    fn report(&self, m: &mut Metrics) {
        m.put("setup_s", median(&self.setup_s), "s", self.setup_s.len());
        let q = self.query.sliced();
        eprintln!(
            "[perfbench] untraced query p50 {:.4} us (n = {}), for the tracing overhead",
            q.p50, q.n
        );
        m.put(
            "write_ios_per_doc",
            self.write_ios_per_doc,
            "ios/doc",
            1,
        );
        m.put(
            "blocks_read_per_query",
            self.blocks_read_per_query,
            "blocks/query",
            1,
        );
        m.put(
            "stored_bytes_per_user_byte",
            self.stored_bytes_per_user_byte,
            "bytes/byte",
            1,
        );
        m.put(
            "peak_rss_mb",
            status_mb("VmHWM:") - self.rss_inputs_mb,
            "MB",
            1,
        );
    }
}

/// A `/proc/self/status` size field, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Called once every input is rendered: reset the process's peak
/// resident set size (VmHWM) to the current one and return that, so
/// `peak_rss_mb` (VmHWM minus this) covers what the archive and the
/// measurement add, not the rendered inputs or their temporaries.
fn rss_after_inputs_mb() -> f64 {
    // Writing 5 to clear_refs resets VmHWM to VmRSS (Linux >= 4.0).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("VmRSS:")
}

/// Collects failures without stopping the run (the command exits
/// nonzero if any was recorded).
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 32 {
            self.errors.push(msg.into());
        }
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(msg());
        }
    }

    fn absorb(&mut self, run: &mut ClientRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.errors.append(&mut run.errors);
    }

    fn absorb_writer(&mut self, run: &mut WriterRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.errors.append(&mut run.errors);
    }
}

fn serve(searcher: &ShardedSearcher) -> Result<ServerHandle, String> {
    ArchiveServer::bind("127.0.0.1:0", searcher.clone(), ServerConfig::default())
        .map_err(|e| e.to_string())
}

/// The measured phase's query latencies, by completion time.
fn query_timeline(runs: &[ClientRun], start: Instant) -> Timeline {
    let mut t = Timeline::default();
    for r in runs {
        for (&done, &lat) in r.done.iter().zip(&r.lat_us) {
            t.record(start, done, lat);
        }
    }
    t.seconds = start.elapsed().as_secs_f64();
    t
}

fn cache_delta(before: DecodedCacheStats, after: DecodedCacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.invalidations - before.invalidations,
    )
}

/// `blocks_read` per response over the connections' fixed windows,
/// which must hold `want` responses between them.
fn prefix_blocks_per_query(checks: &mut Checks, runs: &[ClientRun], want: usize) -> f64 {
    let blocks: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.prefix_blocks.iter().copied())
        .collect();
    checks.check(blocks.len() == want, || {
        format!(
            "only {} of the {want} fixed-window responses arrived",
            blocks.len()
        )
    });
    blocks.iter().sum::<u64>() as f64 / blocks.len().max(1) as f64
}

/// Check every kept response against the oracle.
fn check_samples(
    checks: &mut Checks,
    runs: &[ClientRun],
    queries: &[Q],
    oracle: &Oracle<'_>,
    read_only: Option<&ShardedSearcher>,
) {
    for run in runs {
        for (idx, resp) in &run.samples {
            let res = oracle.check(&queries[*idx], resp, read_only);
            checks.check(res.is_ok(), || res.err().unwrap_or_default());
        }
    }
}

/// Run `clients` closed-loop connections of `plan`, connection `c`
/// sending every `clients`-th query from the `c`-th.
fn run_clients(plan: ClientPlan<'_>, clients: usize) -> Vec<ClientRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    load::run_client(ClientPlan {
                        offset: c,
                        stride: clients,
                        ..plan
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Shared per-layer reporting of a traced run: query counters from the
/// measured phase, then both ladders and one shard's recovery.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    m: &mut Metrics,
    spans: &mut Tracer,
    runs: Vec<ClientRun>,
    cache: (u64, u64, u64),
    searcher: ShardedSearcher,
    server: ServerHandle,
    writer: ShardedWriter,
    queries: &[Q],
    config: &EngineConfig,
    head: u32,
    ladder_docs: &[Doc],
    seconds: u64,
    checks: &mut Checks,
) {
    let served: usize = runs.iter().map(|r| r.lat_us.len()).sum();
    let read: u64 = runs.iter().map(|r| r.blocks_read).sum();
    let skipped: u64 = runs.iter().map(|r| r.blocks_skipped).sum();
    let conj: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.conj_blocks.iter().copied())
        .collect();
    let n = served.max(1) as f64;
    m.put(
        "postings.blocks_skipped_per_query",
        skipped as f64 / n,
        "blocks/query",
        served,
    );
    m.put(
        "postings.skip_ratio",
        skipped as f64 / (read + skipped).max(1) as f64,
        "ratio",
        served,
    );
    let (hits, misses, inval) = cache;
    m.put(
        "postings.decoded_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    m.put(
        "postings.decoded_invalidations_per_query",
        inval as f64 / n,
        "count/query",
        served,
    );
    m.put(
        "jump.conj_blocks_per_query",
        conj.iter().sum::<u64>() as f64 / conj.len().max(1) as f64,
        "blocks/query",
        conj.len(),
    );
    for run in runs {
        spans.absorb(run.tracer);
    }
    // The measured phase's query median from the spans: against the
    // untraced run's query median (on its standard error) this is the
    // tracing overhead.
    let traced = summarize(&spans.durations("client.query_verified"));
    m.put("bench.traced_query_p50_us", traced.p50, "us", traced.n);

    let mut qspans = Tracer::new(spans.epoch(), true);
    let budget = Duration::from_secs(seconds.clamp(1, 10));
    match ladder::run_query_ladder(
        &searcher,
        server.addr(),
        queries,
        budget,
        LADDER_QUERIES,
        &mut qspans,
    ) {
        Ok(frames) => ladder::query_metrics(&qspans, queries, &frames, m),
        Err(e) => checks.fail(format!("query ladder: {e}")),
    }
    spans.absorb(qspans);
    let mut cspans = Tracer::new(spans.epoch(), true);
    if let Err(e) = ladder::commit_ladder(config, head, ladder_docs, &mut cspans, m) {
        checks.fail(format!("commit ladder: {e}"));
    }
    spans.absorb(cspans);

    server.shutdown();
    drop(searcher);
    match writer.try_into_engines() {
        Ok(mut engines) => {
            let parts = engines.swap_remove(0).map(SearchEngine::into_parts);
            if let Some(parts) = parts {
                let t0 = Instant::now();
                let rec = SearchEngine::recover(parts, config.clone());
                m.put(
                    "core.recover_s_per_shard",
                    t0.elapsed().as_secs_f64(),
                    "s",
                    1,
                );
                checks.check(rec.is_ok(), || format!("shard recovery: {:?}", rec.err()));
            }
        }
        Err(_) => checks.fail("a searcher handle outlived the archive"),
    }
}

/// The traced run's remaining figures, which are not end-to-end metrics:
/// the timings and rates of the measured phases, which on the reference
/// machine follow the host's speed more than the program (see README.md);
/// the writer's lateness and the failure share.
fn finish(m: &mut Metrics, e2e: &E2e, checks: &Checks) {
    let q = e2e.query.sliced();
    m.put("bench.query_p50_us", q.p50, "us", q.n);
    m.put("bench.query_qps", q.rate, "queries/s", q.n);
    m.put("bench.query_p90_us", q.p90, "us", q.n);
    m.put("bench.query_p99_us", q.p99, "us", q.n);
    let c = e2e.commit.sliced();
    m.put("bench.commit_p50_us", c.p50, "us", c.n);
    m.put("bench.commit_p90_us", c.p90, "us", c.n);
    m.put("bench.commit_p99_us", c.p99, "us", c.n);
    m.put("bench.ingest_docs_per_s", c.rate, "docs/s", c.n);
    m.put(
        "bench.recover_s",
        fast_time(&e2e.recover_s),
        "s",
        e2e.recover_s.len(),
    );
    let late = summarize(&e2e.late_us);
    m.put("bench.writer_late_p99_ms", late.p99 / 1e3, "ms", late.n);
    m.put(
        "bench.failed_frac",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
        checks.attempted as usize,
    );
}

pub fn run(args: Args) -> Outcome {
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let mut m = Metrics::default();
    let mut spans = Tracer::new(Instant::now(), args.trace);
    let res = match args.workload {
        Workload::Ingest => ingest(args, &mut m, &mut spans, &mut checks),
        Workload::InvestigateSpill => spill(args, &mut m, &mut spans, &mut checks),
        Workload::Mixed => mixed(args, &mut m, &mut spans, &mut checks),
    };
    let mut counters = Counters::default();
    match res {
        Ok(e2e) => {
            if args.trace {
                finish(&mut m, &e2e, &checks);
            } else {
                e2e.report(&mut m);
            }
            counters = Counters {
                write_ios_per_doc: e2e.write_ios_per_doc,
                blocks_read_per_query: e2e.blocks_read_per_query,
                stored_bytes_per_user_byte: e2e.stored_bytes_per_user_byte,
            };
        }
        Err(e) => checks.fail(e),
    }
    Outcome {
        counters,
        metrics: m,
        attempted: checks.attempted,
        failed: checks.failed,
        errors: checks.errors,
        spans,
    }
}

fn text_bytes(docs: &[Doc]) -> u64 {
    docs.iter().map(|d| d.text.len() as u64).sum()
}

fn ingest(
    args: Args,
    m: &mut Metrics,
    spans: &mut Tracer,
    checks: &mut Checks,
) -> Result<E2e, String> {
    let shape = INGEST_SHAPE;
    let config = archive::deployed_config();
    let stream_len =
        (INGEST_DOCS_PER_S * args.seconds / INGEST_ROUNDS as u64).max(INGEST_PREFIX as u64);
    let stream_end = INGEST_BASE + stream_len;
    let gen = gen::corpus(shape, args.seed, stream_end + LADDER_DOCS);
    // The base documents, then the measured stream.
    let docs = gen::render(&gen, 0..stream_end);
    let ladder_docs = gen::render(&gen, stream_end..stream_end + LADDER_DOCS);
    let (base, pool) = docs.split_at(INGEST_BASE as usize);
    let queries = gen::investigator_mix(
        &docs[..base.len() + INGEST_PREFIX],
        shape,
        args.seed,
        INGEST_QUERIES as usize,
        None,
        Ranked::Anchored,
    );
    let mut e2e = E2e::new();
    let (rounds, setups) = if args.trace {
        (1, 1)
    } else {
        (INGEST_ROUNDS, INGEST_SETUPS)
    };
    // The investigation takes half the run's seconds, split over rounds.
    let investigate = Duration::from_secs_f64(args.seconds as f64 / 2.0 / rounds as f64);
    for round in 0..rounds {
        // Set-up: a fresh two-shard archive with one inline replica per
        // shard, loaded with the base documents.
        let mut live: Option<(Live, Vec<DocId>)> = None;
        for _ in 0..setups {
            drop(live.take());
            let t0 = Instant::now();
            let mut l = archive::create(&config, 1, 0);
            let loaded = archive::commit_all(&mut l.writer, base)?;
            e2e.setup_s.push(t0.elapsed().as_secs_f64());
            live = Some((l, loaded.ids));
        }
        let (mut live, mut ids) = live.ok_or("no set-up ran")?;

        // Measured: the stream, committed closed loop.
        let mut run =
            load::commit_stream(&mut live.writer, pool, Pace::Closed, INGEST_PREFIX, spans);
        checks.absorb_writer(&mut run);
        ids.extend_from_slice(&run.ids);
        e2e.commit.then(&run.commits);
        e2e.late_us.append(&mut run.late_us);
        match run.prefix_counters {
            Some((ios, bytes)) if round == 0 => {
                e2e.write_ios_per_doc = ios as f64 / INGEST_PREFIX as f64;
                e2e.stored_bytes_per_user_byte =
                    bytes as f64 / text_bytes(&pool[..INGEST_PREFIX]) as f64;
            }
            Some(_) => {}
            None => checks.fail(format!(
                "the writer committed fewer than {INGEST_PREFIX} docs"
            )),
        }

        // Guard: inline replicas are level with their primaries.
        let (lag, quarantined) = ladder::replica_lag(&mut live);
        checks.check(lag == 0 && quarantined == 0, || {
            format!("guard: replicas lag {lag} docs with {quarantined} quarantined")
        });

        // Drop the service and reopen through replicated recovery.
        let heads = archive::chain_heads(&mut live.writer);
        let acked = ids.len() as u64;
        let (arc, recovered, took) = archive::recover(archive::teardown(live)?, &config)?;
        e2e.recover_s.push(took.as_secs_f64());
        for r in &recovered {
            let head = r.report.as_ref().map(|rep| rep.chain_head);
            checks.check(heads.get(r.shard as usize) == Some(&head), || {
                format!("shard {} chain head changed across recovery", r.shard)
            });
        }
        checks.check(arc.standby_counts() == vec![1; SHARDS as usize], || {
            format!("standbys after recovery: {:?}", arc.standby_counts())
        });
        checks.check(arc.num_docs() == acked, || {
            format!("{} docs recovered, {acked} acknowledged", arc.num_docs())
        });
        let (writer, searcher) = arc.into_service();
        let server = serve(&searcher)?;

        // Every acknowledged document is visible: the count, plus a
        // commit-time point query for a sample spread over the stream.
        let all_docs = &docs[..ids.len()];
        let mut client =
            tks_client::Client::connect(server.addr()).map_err(|e| e.to_string())?;
        let status = client.status().map_err(|e| e.to_string())?;
        checks.check(status.visible_docs == acked, || {
            format!(
                "status shows {} docs, {acked} acknowledged",
                status.visible_docs
            )
        });
        let step = (all_docs.len() / 200).max(1);
        for i in (0..all_docs.len())
            .step_by(step)
            .chain([all_docs.len() - 1])
        {
            let ts = all_docs[i].ts;
            let resp = client.query(tks_server::wire::WireQuery::TimeRange { from: ts, to: ts });
            let ok = resp.as_ref().is_ok_and(|r| {
                r.hits.len() == 1 && r.hits[0].doc == ids[i].0 && r.verify_digest().is_ok()
            });
            checks.check(ok, || {
                format!("acknowledged doc {i} not visible after recovery")
            });
        }
        drop(client);

        // The investigation that follows ingest.  The first round sends
        // every distinct query once for the fixed window; later rounds
        // start the list again.
        let first = round == 0;
        let cache0 = searcher.decoded_cache_stats();
        let t0 = Instant::now();
        let plan = ClientPlan {
            addr: server.addr(),
            queries: &queries,
            offset: 0,
            stride: 1,
            until: t0 + investigate,
            min_queries: if first { INGEST_QUERIES / INGEST_CLIENTS as u64 } else { 0 },
            prefix: if first { INGEST_QUERIES as usize / INGEST_CLIENTS } else { 0 },
            acked: None,
            epoch: spans.epoch(),
            trace: args.trace,
        };
        let mut runs = run_clients(plan, INGEST_CLIENTS);
        e2e.query.then(&query_timeline(&runs, t0));
        let cache = cache_delta(cache0, searcher.decoded_cache_stats());
        for r in &mut runs {
            checks.absorb(r);
        }
        if first {
            e2e.blocks_read_per_query =
                prefix_blocks_per_query(checks, &runs, INGEST_QUERIES as usize);
        }
        let oracle = Oracle {
            docs: all_docs,
            ids: &ids,
        };
        check_samples(checks, &runs, &queries, &oracle, Some(&searcher));

        if args.trace {
            traced_layers(
                m,
                spans,
                runs,
                cache,
                searcher,
                server,
                writer,
                &queries,
                &config,
                0,
                &ladder_docs,
                args.seconds,
                checks,
            );
        } else {
            server.shutdown();
        }
    }
    Ok(e2e)
}

/// A replicated archive of `docs`, built, torn down and reopened
/// through replicated recovery: the service, the build's closed-loop
/// commits (ids, latencies, lateness, write counters) and the recovery
/// seconds.
struct Built {
    writer: ShardedWriter,
    searcher: ShardedSearcher,
    load: WriterRun,
    recover_s: f64,
}

fn build(config: &EngineConfig, replicas: usize, head: u32, docs: &[Doc]) -> Result<Built, String> {
    let mut live = archive::create(config, replicas, head);
    let load = archive::commit_all(&mut live.writer, docs)?;
    let (arc, _, took) = archive::recover(archive::teardown(live)?, config)?;
    if arc.standby_counts() != vec![replicas; SHARDS as usize] {
        return Err(format!(
            "standbys after recovery: {:?}",
            arc.standby_counts()
        ));
    }
    let (writer, searcher) = arc.into_service();
    Ok(Built {
        writer,
        searcher,
        load,
        recover_s: took.as_secs_f64(),
    })
}

fn spill(
    args: Args,
    m: &mut Metrics,
    spans: &mut Tracer,
    checks: &mut Checks,
) -> Result<E2e, String> {
    let shape = SPILL_SHAPE;
    let config = archive::spill_config(shape.head, SPILL_TAIL_LISTS, shape.vocab);
    let gen = gen::corpus(shape, args.seed, SPILL_DOCS + LADDER_DOCS);
    let docs = gen::render(&gen, 0..SPILL_DOCS);
    let ladder_docs = gen::render(&gen, SPILL_DOCS..SPILL_DOCS + LADDER_DOCS);
    let queries = gen::investigator_mix(
        &docs,
        shape,
        args.seed,
        SPILL_QUERIES,
        None,
        Ranked::QueryLog,
    );
    let mut e2e = E2e::new();

    // Each round builds the archive afresh (the set-up), then
    // investigates it for its share of the run, so builds, recoveries and
    // queries all recur throughout the run.
    let rounds = if args.trace { 1 } else { SPILL_ROUNDS };
    let investigate = Duration::from_secs_f64(args.seconds as f64 / rounds as f64);
    let (mut hits, mut misses, mut skipped) = (0, 0, 0);
    for round in 0..rounds {
        let t0 = Instant::now();
        let mut b = build(&config, 1, shape.head, &docs)?;
        let server = serve(&b.searcher)?;
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
        e2e.recover_s.push(b.recover_s);
        e2e.commit.then(&b.load.commits);
        e2e.late_us.append(&mut b.load.late_us);
        let first = round == 0;
        if first {
            let (ios, bytes) = b.load.prefix_counters.unwrap_or_default();
            e2e.write_ios_per_doc = ios as f64 / SPILL_DOCS as f64;
            e2e.stored_bytes_per_user_byte = bytes as f64 / text_bytes(&docs) as f64;
        }
        for s in 0..SHARDS {
            checks.check(b.searcher.eligible_replicas(s) == 1, || {
                format!(
                    "guard: shard {s} has {} eligible standbys, want 1",
                    b.searcher.eligible_replicas(s)
                )
            });
        }

        // Measured: the closed-loop investigator.  The first round sends
        // every distinct query once for the fixed window.
        let cache0 = b.searcher.decoded_cache_stats();
        let t0 = Instant::now();
        let plan = ClientPlan {
            addr: server.addr(),
            queries: &queries,
            offset: 0,
            stride: 1,
            until: t0 + investigate,
            min_queries: if first { SPILL_PREFIX as u64 } else { 0 },
            prefix: if first { SPILL_PREFIX } else { 0 },
            acked: None,
            epoch: spans.epoch(),
            trace: args.trace,
        };
        let mut runs = run_clients(plan, SPILL_CLIENTS);
        e2e.query.then(&query_timeline(&runs, t0));
        let cache = cache_delta(cache0, b.searcher.decoded_cache_stats());
        hits += cache.0;
        misses += cache.1;
        for r in &mut runs {
            checks.absorb(r);
            skipped += r.blocks_skipped;
        }
        if first {
            e2e.blocks_read_per_query =
                prefix_blocks_per_query(checks, &runs, SPILL_PREFIX * SPILL_CLIENTS);
        }
        let oracle = Oracle {
            docs: &docs,
            ids: &b.load.ids,
        };
        check_samples(checks, &runs, &queries, &oracle, Some(&b.searcher));

        if args.trace {
            traced_layers(
                m,
                spans,
                runs,
                cache,
                b.searcher,
                server,
                b.writer,
                &queries,
                &config,
                shape.head,
                &ladder_docs,
                args.seconds,
                checks,
            );
        } else {
            server.shutdown();
        }
    }

    // Guards: the caches miss and block-max skips.
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    checks.check(hit_rate < SPILL_HIT_CEILING, || {
        format!("guard: decoded hit rate {hit_rate:.3} ≥ ceiling {SPILL_HIT_CEILING}")
    });
    checks.check(skipped > 0, || {
        "guard: block-max skipped no blocks".to_string()
    });
    Ok(e2e)
}

fn mixed(
    args: Args,
    m: &mut Metrics,
    spans: &mut Tracer,
    checks: &mut Checks,
) -> Result<E2e, String> {
    let shape = MIXED_SHAPE;
    let config = archive::deployed_config();
    let round_len = Duration::from_secs_f64((args.seconds as f64 / MIXED_ROUNDS as f64).max(1.0));
    let pool_len = (MIXED_RATE * round_len.as_secs_f64()) as u64 + MIXED_PREFIX as u64;
    let stream_end = MIXED_BASE + pool_len;
    let gen = gen::corpus(shape, args.seed, stream_end + LADDER_DOCS);
    // The base documents, then the writer's stream.
    let docs = gen::render(&gen, 0..stream_end);
    let ladder_docs = gen::render(&gen, stream_end..stream_end + LADDER_DOCS);
    let (base, pool) = docs.split_at(MIXED_BASE as usize);
    let queries = gen::investigator_mix(
        base,
        shape,
        args.seed,
        4_000,
        Some(MIXED_ANCHORS),
        Ranked::QueryLog,
    );
    let mut e2e = E2e::new();

    let (rounds, setups) = if args.trace {
        (1, 1)
    } else {
        (MIXED_ROUNDS, MIXED_SETUPS)
    };
    let mut last = None;
    for round in 0..rounds {
        drop(last.take()); // free the previous round first
        let mut built = None;
        for _ in 0..setups {
            drop(built.take()); // free the previous set-up first
            let t0 = Instant::now();
            let b = build(&config, 0, 0, base)?;
            let server = serve(&b.searcher)?;
            e2e.setup_s.push(t0.elapsed().as_secs_f64());
            e2e.recover_s.push(b.recover_s);
            built = Some((b, server));
        }
        let (mut b, server) = built.ok_or("no set-up ran")?;

        // Warm-up with the writer idle: the investigation's working set
        // must fit the decoded-block cache (the workload's claim), and the
        // measured phase starts with it resident.
        let warm0 = b.searcher.decoded_cache_stats();
        let plan = ClientPlan {
            addr: server.addr(),
            queries: &queries,
            offset: 0,
            stride: 1,
            until: Instant::now(),
            min_queries: MIXED_WARMUP as u64,
            prefix: 0,
            acked: None,
            epoch: spans.epoch(),
            trace: false,
        };
        let mut warm = run_clients(plan, 1);
        let (hits, misses, _) = cache_delta(warm0, b.searcher.decoded_cache_stats());
        for r in &mut warm {
            checks.absorb(r);
        }
        // Before the writer starts the archive is fixed, so the warm-up's
        // blocks read per query repeat exactly under a seed.
        if round == 0 {
            let warm_served: usize = warm.iter().map(|r| r.lat_us.len()).sum();
            e2e.blocks_read_per_query =
                warm.iter().map(|r| r.blocks_read).sum::<u64>() as f64 / warm_served.max(1) as f64;
        }
        let resident = hits as f64 / (hits + misses).max(1) as f64;
        checks.check(resident >= MIXED_HIT_FLOOR, || {
            format!(
                "guard: decoded hit rate {resident:.3} over the warm-up, below {MIXED_HIT_FLOOR}"
            )
        });

        // Measured: an open-loop writer beside one refreshing investigator.
        let acked = AtomicU64::new(MIXED_BASE);
        let stop = AtomicBool::new(false);
        let cache0 = b.searcher.decoded_cache_stats();
        let t0 = Instant::now();
        let until = t0 + round_len;
        let addr = server.addr();
        let epoch = spans.epoch();
        let (mut wrun, mut crun) = std::thread::scope(|scope| {
            let writer = &mut b.writer;
            let pace = Pace::Open {
                rate: MIXED_RATE,
                until,
                stop: &stop,
                acked: &acked,
            };
            let w = scope.spawn(move || {
                let mut untraced = Tracer::new(epoch, false);
                load::commit_stream(writer, pool, pace, MIXED_PREFIX, &mut untraced)
            });
            let c = load::run_client(ClientPlan {
                addr,
                queries: &queries,
                offset: 0,
                stride: 1,
                until,
                min_queries: 0,
                prefix: 0,
                acked: Some(&acked),
                epoch,
                trace: args.trace,
            });
            stop.store(true, Ordering::Release);
            (w.join().expect("writer thread panicked"), c)
        });
        e2e.query
            .then(&query_timeline(std::slice::from_ref(&crun), t0));
        let cache = cache_delta(cache0, b.searcher.decoded_cache_stats());
        checks.absorb(&mut crun);
        checks.absorb_writer(&mut wrun);
        e2e.commit.then(&wrun.commits);
        match wrun.prefix_counters {
            Some((ios, bytes)) if round == 0 => {
                e2e.write_ios_per_doc = ios as f64 / MIXED_PREFIX as f64;
                e2e.stored_bytes_per_user_byte =
                    bytes as f64 / text_bytes(&pool[..MIXED_PREFIX]) as f64;
            }
            Some(_) => {}
            None => checks.fail(format!(
                "the writer committed fewer than {MIXED_PREFIX} docs"
            )),
        }

        // Guard: the open loop kept its schedule.  A backlog that grows
        // shows as lateness that stays high to the end, not as one stall,
        // so the run is invalid when the median lateness over its last
        // tenth exceeds the limit.
        let tail = median(&wrun.late_us[wrun.late_us.len() * 9 / 10..]);
        e2e.late_us.append(&mut wrun.late_us);
        checks.check(tail < MIXED_BACKLOG_US, || {
            format!(
                "guard: writer backlog grew ({:.1} ms late over the last tenth)",
                tail / 1e3
            )
        });

        let mut ids = std::mem::take(&mut b.load.ids);
        ids.extend_from_slice(&wrun.ids);
        let oracle = Oracle {
            docs: &docs[..ids.len()],
            ids: &ids,
        };
        check_samples(checks, std::slice::from_ref(&crun), &queries, &oracle, None);
        last = Some((b, server, crun, cache));
    }
    let (b, server, crun, cache) = last.ok_or("no round ran")?;

    if args.trace {
        traced_layers(
            m,
            spans,
            vec![crun],
            cache,
            b.searcher,
            server,
            b.writer,
            &queries,
            &config,
            0,
            &ladder_docs,
            args.seconds,
            checks,
        );
    } else {
        server.shutdown();
    }
    Ok(e2e)
}
