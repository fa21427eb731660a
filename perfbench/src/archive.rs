//! Building, tearing down and recovering the archives the workloads run
//! on, through the crates' public entry points.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::load::{commit_stream, Pace, WriterRun};
use crate::trace::Tracer;

use tks_core::engine::{EngineConfig, SearchEngine};
use tks_core::merge::MergeAssignment;
use tks_jump::JumpConfig;
use tks_postings::TermId;
use tks_replica::{attach, detach, fresh_images, ApplyMode, ReplicaSet};
use tks_shard::{ReplicatedShardParts, ShardRecovery, ShardedArchive, ShardedWriter};

/// Shards in every workload (the deployed archive shape).
pub const SHARDS: u32 = 2;

/// The CLI's deployed engine shape: `tks archive init` defaults (1024
/// uniform lists, 8 KiB blocks, jump indexes at B = 32) with positional
/// indexing on and document text stored.
pub fn deployed_config() -> EngineConfig {
    config(8192, MergeAssignment::uniform(1024))
}

/// The deployed shape with `at_scale`'s popular-terms-unmerged list
/// layout: the `head` document-popular terms keep private lists, the
/// tail hashes into `tail_lists` merged lists, on 256-byte blocks.
pub fn spill_config(head: u32, tail_lists: u32, vocab: u32) -> EngineConfig {
    let ranked: Vec<TermId> = (0..head).map(TermId).collect();
    let assignment =
        MergeAssignment::popular_unmerged(&ranked, head as usize, head + tail_lists, vocab);
    config(256, assignment)
}

fn config(block: usize, assignment: MergeAssignment) -> EngineConfig {
    EngineConfig::builder()
        .block_size(block)
        .assignment(assignment)
        .positional(true)
        .store_documents(true)
        .jump(JumpConfig {
            block_size: block.max(2048),
            branching: 32,
            max_key: 1 << 32,
        })
        .build()
        .expect("the deployed configuration is valid")
}

/// Give the `head` generator terms the engine term ids equal to their
/// generator ids, so a layout keyed on generator ranks applies to text
/// commits.
pub fn intern_head(engine: &mut SearchEngine, head: u32) {
    for t in 0..head {
        engine
            .intern(&format!("kw{t}"))
            .expect("interning a short token");
    }
}

/// A live archive: its writer and the inline replica set attached to
/// each shard (if any).
pub struct Live {
    pub writer: ShardedWriter,
    pub sets: Vec<Option<Arc<ReplicaSet>>>,
}

/// A fresh `SHARDS`-shard archive with `replicas` inline replicas per
/// shard.
pub fn create(config: &EngineConfig, replicas: usize, head: u32) -> Live {
    let (mut writer, _) = ShardedArchive::create(config.clone(), SHARDS)
        .expect("fresh archive")
        .into_service();
    let sets = (0..SHARDS)
        .map(|sid| {
            writer
                .with_engine(sid, |engine| {
                    intern_head(engine, head);
                    (replicas > 0).then(|| {
                        let set = Arc::new(ReplicaSet::new(
                            fresh_images(engine, replicas),
                            ApplyMode::Inline,
                        ));
                        attach(engine, &set);
                        set
                    })
                })
                .expect("fresh shard is live")
        })
        .collect();
    Live { writer, sets }
}

/// Shut a live archive down to its devices: primaries plus replica
/// images.  Every searcher handle must be gone.
pub fn teardown(live: Live) -> Result<Vec<ReplicatedShardParts>, String> {
    let Live { mut writer, sets } = live;
    for sid in 0..SHARDS {
        writer.with_engine(sid, detach).map_err(|e| e.to_string())?;
    }
    let engines = writer
        .try_into_engines()
        .map_err(|_| "a searcher handle outlived the archive".to_string())?;
    let mut out = Vec::new();
    for (engine, set) in engines.into_iter().zip(sets) {
        let engine = engine.ok_or("a shard degraded during the run")?;
        let replicas = match set {
            Some(set) => ReplicaSet::reclaim(set)
                .map_err(|_| "replica taps still attached".to_string())?
                .into_iter()
                .map(|(parts, fault)| match fault {
                    None => Ok(parts),
                    Some(f) => Err(f.to_string()),
                })
                .collect(),
            None => Vec::new(),
        };
        out.push(ReplicatedShardParts {
            primary: Ok(engine.into_parts()),
            replicas,
        });
    }
    Ok(out)
}

/// Replicated recovery, timed.  Fails unless every shard recovered clean
/// from its own primary with every replica verified and identical.
pub fn recover(
    parts: Vec<ReplicatedShardParts>,
    config: &EngineConfig,
) -> Result<(ShardedArchive, Vec<ShardRecovery>, Duration), String> {
    let t0 = Instant::now();
    let (archive, recoveries) =
        ShardedArchive::recover_replicated(parts, config.clone()).map_err(|e| e.to_string())?;
    let took = t0.elapsed();
    for r in &recoveries {
        if !r.is_clean() || r.promoted_from.is_some() {
            return Err(format!("shard {} did not recover clean: {r:?}", r.shard));
        }
        let head = r.report.as_ref().map(|rep| rep.chain_head);
        for v in &r.replicas {
            if !v.verified || v.quarantined_bytes != 0 || v.chain_head != head {
                return Err(format!(
                    "shard {} replica {} diverged: {v:?}",
                    r.shard, v.replica
                ));
            }
        }
    }
    Ok((archive, recoveries, took))
}

/// Bytes committed to all of one engine's WORM devices.
pub fn engine_bytes(e: &SearchEngine) -> (u64, u64, u64) {
    (
        e.list_store().fs().device().bytes_committed(),
        e.doc_fs().device().bytes_committed(),
        e.positions_fs()
            .map_or(0, |fs| fs.device().bytes_committed()),
    )
}

/// Storage-cache write I/Os and WORM bytes committed, summed over the
/// primaries.
pub fn write_counters(writer: &mut ShardedWriter) -> (u64, u64) {
    let mut ios = 0;
    let mut bytes = 0;
    for sid in 0..SHARDS {
        let (w, b) = writer
            .with_engine(sid, |e| {
                let (i, d, p) = engine_bytes(e);
                (e.io_stats().write_ios, i + d + p)
            })
            .unwrap_or((0, 0));
        ios += w;
        bytes += b;
    }
    (ios, bytes)
}

/// Each shard's chain head, read through the writer.
pub fn chain_heads(writer: &mut ShardedWriter) -> Vec<Option<tks_worm::ChainHead>> {
    (0..SHARDS)
        .map(|sid| writer.with_engine(sid, |e| e.chain_head()).ok())
        .collect()
}

/// Commit `docs` closed loop, untraced, with the write counters over
/// all of them.  Fails at the first failed commit.
pub fn commit_all(
    writer: &mut ShardedWriter,
    docs: &[crate::gen::Doc],
) -> Result<WriterRun, String> {
    let mut untraced = Tracer::new(Instant::now(), false);
    let run = commit_stream(writer, docs, Pace::Closed, docs.len(), &mut untraced);
    match run.errors.first() {
        Some(e) => Err(e.clone()),
        None => Ok(run),
    }
}
