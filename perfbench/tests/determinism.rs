//! The counters the benchmark calls deterministic repeat exactly under
//! one seed and change under another, on `ingest` and
//! `investigate-spill`: write I/Os per document and stored bytes per user
//! byte (over `ingest`'s fixed first commits and `investigate-spill`'s
//! build), and blocks read per query (over each connection's fixed first
//! responses: every distinct query once, on a read-only archive).
//!
//! Slow in a debug build; run with `cargo test --release`.

use tks_perfbench::workloads::{run, Args, Counters, Workload};

fn counters(workload: Workload, seed: u64) -> Counters {
    let out = run(Args {
        workload,
        seed,
        seconds: 1,
        trace: true,
    });
    assert!(
        out.errors.is_empty(),
        "{workload:?} seed {seed}: {:?}",
        out.errors
    );
    out.counters
}

/// A counter's name and how to read it.
type Field = (&'static str, fn(&Counters) -> f64);

fn check(workload: Workload, fields: &[Field]) {
    let a = counters(workload, 11);
    let again = counters(workload, 11);
    let other = counters(workload, 12);
    for (name, get) in fields {
        assert!(get(&a) > 0.0, "{workload:?} {name} is zero");
        assert_eq!(
            get(&a).to_bits(),
            get(&again).to_bits(),
            "{workload:?} {name} did not repeat"
        );
        assert_ne!(
            get(&a).to_bits(),
            get(&other).to_bits(),
            "{workload:?} {name} ignored the seed"
        );
    }
}

#[test]
fn ingest_counters_repeat_per_seed() {
    check(
        Workload::Ingest,
        &[
            ("write_ios_per_doc", |c| c.write_ios_per_doc),
            ("blocks_read_per_query", |c| c.blocks_read_per_query),
            ("stored_bytes_per_user_byte", |c| {
                c.stored_bytes_per_user_byte
            }),
        ],
    );
}

#[test]
fn spill_counters_repeat_per_seed() {
    check(
        Workload::InvestigateSpill,
        &[
            ("write_ios_per_doc", |c| c.write_ios_per_doc),
            ("blocks_read_per_query", |c| c.blocks_read_per_query),
            ("stored_bytes_per_user_byte", |c| {
                c.stored_bytes_per_user_byte
            }),
        ],
    );
}
