//! End-to-end and per-layer benchmark of the trustworthy-search archive.
//!
//! The load comes from outside the archive, through public entry points
//! only: the wire `Client` (which reaches the server, `QuerySession`,
//! `ShardedSearcher`, `Searcher` and the engine), `ShardedWriter::commit`
//! with inline `ReplicaSet`s attached, and
//! `ShardedArchive::recover_replicated`.  See `README.md` for the
//! workloads, the metrics, and which layer metric should move which
//! end-to-end metric.

#![forbid(unsafe_code)]

pub mod archive;
pub mod gen;
pub mod ladder;
pub mod load;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workloads;
