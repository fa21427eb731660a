//! The traced per-layer ladders.
//!
//! The same seeded input is called into each rung of a ladder of public
//! entry points, one layer apart; a layer's self time is the difference
//! between adjacent rungs on the same request.  Rungs run in rotated
//! order per request, alternately forward and backward, so no rung
//! always inherits caches its neighbour just warmed.
//!
//! Query ladder (per request):
//!   `Searcher::engine().execute` per shard  → `core.eval`
//!   `Searcher::execute` per shard           → `core.searcher` = this − eval
//!   `ShardedSearcher::execute`              → `shard.scatter` = this − slowest shard
//!   `QuerySession::execute`                 → `shard.session` = this − sharded
//!   `Client::query`, then `verify_digest`   → `server.wire` = query − session
//!
//! Commit ladder (per document), each rung committing into its own
//! target of the same configuration:
//!   `tokenizer::term_positions`, `tks_worm::sha256` over the text
//!   `SearchEngine::add_document` on a standalone engine   → `core.commit`
//!   `IndexWriter::commit` on a standalone service         → `core.writer` = this − commit
//!   `ShardedWriter::commit`, no replicas                  → `shard.commit` = this − writer
//!   `ShardedWriter::commit`, one inline replica per shard → `replica.apply` = this − sharded

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tks_client::Client;
use tks_core::engine::{EngineConfig, SearchEngine};
use tks_core::Query;
use tks_postings::Timestamp;
use tks_server::wire::{self, WireResponse};
use tks_shard::{QuerySession, ShardedSearcher};

use crate::archive::{self, engine_bytes, intern_head, SHARDS};
use crate::gen::{Doc, Q};
use crate::stats::Metrics;
use crate::trace::{Span, Tracer};

const Q_RUNGS: usize = 5;

/// The order rungs run in for request `i`: a rotation whose start moves
/// every second request, forward on even requests and backward on odd
/// ones, so each rung runs directly after each neighbour equally often.
fn rung_order(i: usize, rungs: usize) -> impl Iterator<Item = usize> {
    let start = (i / 2) % rungs;
    (0..rungs).map(move |r| {
        if i.is_multiple_of(2) {
            (start + r) % rungs
        } else {
            (start + rungs - r) % rungs
        }
    })
}

fn spans_by_req<'a>(tracer: &'a Tracer, names: &[&str]) -> BTreeMap<u64, Vec<&'a Span>> {
    let mut by: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &tracer.spans {
        if names.contains(&s.name) {
            by.entry(s.req).or_default().push(s);
        }
    }
    by
}

fn named<'a>(spans: &[&'a Span], name: &str) -> Vec<&'a Span> {
    spans.iter().copied().filter(|s| s.name == name).collect()
}

/// Run the query ladder over `queries` until `budget` is spent (at least
/// `min_requests` requests).  Spans go to `tracer` under request ids
/// `0..n`; returns each request's response frame size in bytes, or
/// `Err` on the first failed call.
pub fn run_query_ladder(
    searcher: &ShardedSearcher,
    addr: SocketAddr,
    queries: &[Q],
    budget: Duration,
    min_requests: usize,
    tracer: &mut Tracer,
) -> Result<Vec<usize>, String> {
    let mut frame_bytes = Vec::new();
    let session = QuerySession::open(searcher);
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let until = Instant::now() + budget;
    let mut i = 0usize;
    while i < min_requests || Instant::now() < until {
        let q = &queries[i % queries.len()];
        let query: Query = q.wire.to_query();
        let req = i as u64;
        for rung in rung_order(i, Q_RUNGS) {
            match rung {
                0 => {
                    let parent = tracer.open("rung.eval", req, None);
                    for s in 0..SHARDS {
                        let shard = searcher.shard(s).ok_or("degraded shard")?;
                        let engine = shard.engine();
                        let (out, _) =
                            tracer.span("core.eval.shard", req, parent, || engine.execute(&query));
                        out.map_err(|e| e.to_string())?;
                    }
                    tracer.close(parent);
                }
                1 => {
                    let parent = tracer.open("rung.searcher", req, None);
                    for s in 0..SHARDS {
                        let shard = searcher.shard(s).ok_or("degraded shard")?;
                        let (out, _) = tracer.span("core.searcher.shard", req, parent, || {
                            shard.execute(query.clone())
                        });
                        out.map_err(|e| e.to_string())?;
                    }
                    tracer.close(parent);
                }
                2 => {
                    let (out, _) = tracer.span("rung.sharded", req, None, || {
                        searcher.execute(query.clone())
                    });
                    out.map_err(|e| e.to_string())?;
                }
                3 => {
                    let (out, _) =
                        tracer.span("rung.session", req, None, || session.execute(query.clone()));
                    out.map_err(|e| e.to_string())?;
                }
                _ => {
                    let (resp, _) =
                        tracer.span("rung.client", req, None, || client.query(q.wire.clone()));
                    let resp = resp.map_err(|e| e.to_string())?;
                    let (ok, _) = tracer.span("client.verify", req, None, || resp.verify_digest());
                    ok.map_err(|e| e.to_string())?;
                    if !resp.trusted {
                        return Err("untrusted ladder response".into());
                    }
                    let mut frame = Vec::new();
                    wire::write_response(&mut frame, &WireResponse::Query(resp))
                        .map_err(|e| e.to_string())?;
                    frame_bytes.push(frame.len());
                }
            }
        }
        i += 1;
    }
    Ok(frame_bytes)
}

/// Per-layer query metrics from the ladder's spans.
pub fn query_metrics(tracer: &Tracer, queries: &[Q], frame_bytes: &[usize], m: &mut Metrics) {
    let names = [
        "core.eval.shard",
        "core.searcher.shard",
        "rung.sharded",
        "rung.session",
        "rung.client",
        "client.verify",
    ];
    let mut eval = Vec::new();
    let mut per_shape: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut searcher = Vec::new();
    let mut scatter = Vec::new();
    let mut session = Vec::new();
    let mut wire_us = Vec::new();
    let mut verify = Vec::new();
    let mut top = Vec::new();
    for (req, spans) in spans_by_req(tracer, &names) {
        let shape = queries[req as usize % queries.len()].shape;
        let ev = named(&spans, "core.eval.shard");
        let se = named(&spans, "core.searcher.shard");
        for (e, s) in ev.iter().zip(&se) {
            eval.push(e.us());
            per_shape
                .entry(shape.eval_metric())
                .or_default()
                .push(e.us());
            searcher.push(s.us() - e.us());
        }
        let slowest = se.iter().map(|s| s.us()).fold(0.0, f64::max);
        let one = |name: &str| named(&spans, name).first().map(|s| s.us());
        if let (Some(sh), Some(ss), Some(cl), Some(v)) = (
            one("rung.sharded"),
            one("rung.session"),
            one("rung.client"),
            one("client.verify"),
        ) {
            scatter.push(sh - slowest);
            session.push(ss - sh);
            wire_us.push(cl - ss);
            verify.push(v);
            top.push(cl);
        }
    }
    m.put_pcts("core.eval_us", &eval, "us");
    for shape in [
        "core.eval_ranked_us",
        "core.eval_conj_us",
        "core.eval_phrase_us",
        "core.eval_range_us",
    ] {
        m.put_pcts(
            shape,
            per_shape.get(shape).map_or(&[][..], |v| &v[..]),
            "us",
        );
    }
    m.put_pcts("core.searcher_us", &searcher, "us");
    m.put_pcts("shard.scatter_us", &scatter, "us");
    m.put_pcts("shard.session_us", &session, "us");
    m.put_pcts("server.wire_us", &wire_us, "us");
    m.put_pcts("client.verify_us", &verify, "us");
    m.put_pcts("client.query_us", &top, "us");
    let mean_bytes = frame_bytes.iter().sum::<usize>() as f64 / frame_bytes.len().max(1) as f64;
    m.put(
        "server.response_bytes",
        mean_bytes,
        "bytes",
        frame_bytes.len(),
    );
}

/// Run the commit ladder over `docs` and report its per-layer metrics.
pub fn commit_ladder(
    config: &EngineConfig,
    head: u32,
    docs: &[Doc],
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut engine = SearchEngine::new(config.clone()).map_err(|e| e.to_string())?;
    intern_head(&mut engine, head);
    let (mut iw, _searcher) = {
        let mut e = SearchEngine::new(config.clone()).map_err(|e| e.to_string())?;
        intern_head(&mut e, head);
        tks_core::service(e)
    };
    let mut plain = archive::create(config, 0, head);
    let mut replicated = archive::create(config, 1, head);
    const RUNGS: usize = 6;
    for (j, d) in docs.iter().enumerate() {
        let req = j as u64;
        let ts = Timestamp(d.ts);
        for rung in rung_order(j, RUNGS) {
            match rung {
                0 => {
                    let (v, _) = tracer.span("core.tokenize", req, None, || {
                        tks_core::tokenizer::term_positions(std::hint::black_box(&d.text))
                    });
                    std::hint::black_box(v);
                }
                1 => {
                    let (v, _) = tracer.span("worm.sha256", req, None, || {
                        tks_worm::sha256(std::hint::black_box(d.text.as_bytes()))
                    });
                    std::hint::black_box(v);
                }
                2 => {
                    let (v, _) = tracer.span("core.commit", req, None, || {
                        engine.add_document(&d.text, ts)
                    });
                    v.map_err(|e| e.to_string())?;
                }
                3 => {
                    let (v, _) = tracer.span("core.writer", req, None, || iw.commit(&d.text, ts));
                    v.map_err(|e| e.to_string())?;
                }
                4 => {
                    let (v, _) = tracer.span("shard.commit", req, None, || {
                        plain.writer.commit(&d.text, ts)
                    });
                    v.map_err(|e| e.to_string())?;
                }
                _ => {
                    let (v, _) = tracer.span("replica.commit", req, None, || {
                        replicated.writer.commit(&d.text, ts)
                    });
                    v.map_err(|e| e.to_string())?;
                }
            }
        }
    }
    let by = spans_by_req(
        tracer,
        &[
            "core.tokenize",
            "worm.sha256",
            "core.commit",
            "core.writer",
            "shard.commit",
            "replica.commit",
        ],
    );
    let (mut tok, mut sha, mut commit, mut writer, mut shard, mut apply) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut sha_total_us = 0.0;
    for spans in by.values() {
        let one = |name: &str| named(spans, name).first().map(|s| s.us());
        if let (Some(t), Some(h), Some(c), Some(w), Some(s), Some(r)) = (
            one("core.tokenize"),
            one("worm.sha256"),
            one("core.commit"),
            one("core.writer"),
            one("shard.commit"),
            one("replica.commit"),
        ) {
            tok.push(t);
            sha.push(h);
            sha_total_us += h;
            commit.push(c);
            writer.push(w - c);
            shard.push(s - w);
            apply.push(r - s);
        }
    }
    let text_bytes: usize = docs.iter().map(|d| d.text.len()).sum();
    m.put_pcts("core.tokenize_us", &tok, "us");
    m.put_pcts("worm.sha256_us", &sha, "us");
    m.put(
        "worm.sha256_mb_per_s",
        text_bytes as f64 / sha_total_us.max(1e-9),
        "MB/s",
        sha.len(),
    );
    m.put_pcts("core.commit_us", &commit, "us");
    m.put_pcts("core.writer_us", &writer, "us");
    m.put_pcts("shard.commit_us", &shard, "us");
    m.put_pcts("replica.apply_us", &apply, "us");
    let n = docs.len().max(1) as f64;
    let (index, doc, pos) = engine_bytes(&engine);
    m.put(
        "worm.index_bytes_per_doc",
        index as f64 / n,
        "bytes",
        docs.len(),
    );
    m.put(
        "worm.doc_bytes_per_doc",
        doc as f64 / n,
        "bytes",
        docs.len(),
    );
    m.put(
        "worm.positions_bytes_per_doc",
        pos as f64 / n,
        "bytes",
        docs.len(),
    );
    let (lag, quarantined) = replica_lag(&mut replicated);
    m.put("replica.lag_docs", lag as f64, "docs", 1);
    m.put("replica.quarantined", quarantined as f64, "count", 1);
    if lag == 0 && quarantined == 0 {
        Ok(())
    } else {
        Err(format!(
            "ladder replicas: lag {lag} docs, {quarantined} quarantined"
        ))
    }
}

/// Replica lag (documents behind their primary, summed over replicas)
/// and the number of quarantined replicas.
pub fn replica_lag(live: &mut archive::Live) -> (u64, u64) {
    let wm = live.writer.watermarks();
    let mut lag = 0;
    let mut quarantined = 0;
    for (sid, set) in live.sets.iter().enumerate() {
        if let Some(set) = set {
            for st in set.statuses() {
                lag += wm[sid].saturating_sub(st.verified_watermark);
                quarantined += u64::from(st.quarantined.is_some());
            }
        }
    }
    (lag, quarantined)
}
