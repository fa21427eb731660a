//! Seeded inputs: rendered documents and the investigator query mix.
//!
//! Everything here runs before any clock starts.  The archive sees only
//! the rendered text and wire queries; the generator's own term ids and
//! timestamps stay on the benchmark side, where the oracle uses them.

use tks_corpus::{CorpusConfig, DocumentGenerator, QueryConfig, QueryGenerator};
use tks_server::wire::{WireQuery, WireTerms};

/// Hits per ranked query (an investigator's first result page).
pub const TOP_K: u64 = 10;

/// SplitMix64: a small seeded generator for the query mix.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One rendered document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Whitespace-separated `kw<N>` tokens, as committed.
    pub text: String,
    /// Commit timestamp (strictly increasing along the stream).
    pub ts: u64,
    /// Distinct generator term ids, ascending.
    pub terms: Vec<u32>,
}

/// Corpus shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct CorpusShape {
    pub vocab: u32,
    pub terms_per_doc: u32,
    /// Terms with ids below this are the document-popular head.
    pub head: u32,
    /// Ranked queries draw from the this-many most popular terms.
    pub query_vocab: u32,
}

pub const TS_BASE: u64 = 1_100_000_000;
pub const TS_STEP: u64 = 60;

pub fn corpus(shape: CorpusShape, seed: u64, docs: u64) -> DocumentGenerator {
    DocumentGenerator::new(CorpusConfig {
        num_docs: docs.max(1),
        vocab_size: shape.vocab,
        mean_distinct_terms: shape.terms_per_doc,
        seed,
        base_timestamp: TS_BASE,
        timestamp_step: TS_STEP,
        ..CorpusConfig::default()
    })
}

/// Render documents `range` of a corpus.
pub fn render(gen: &DocumentGenerator, range: std::ops::Range<u64>) -> Vec<Doc> {
    gen.docs(range)
        .map(|d| Doc {
            text: d.text(),
            ts: d.timestamp.0,
            terms: d.terms.iter().map(|&(t, _)| t.0).collect(),
        })
        .collect()
}

/// The query shapes of the investigator mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Ranked,
    Conj,
    ConjRange,
    Phrase,
    Range,
}

impl Shape {
    /// Name of the per-shape evaluator metric.
    pub fn eval_metric(self) -> &'static str {
        match self {
            Shape::Ranked => "core.eval_ranked_us",
            Shape::Conj | Shape::ConjRange => "core.eval_conj_us",
            Shape::Phrase => "core.eval_phrase_us",
            Shape::Range => "core.eval_range_us",
        }
    }
}

/// One rendered query plus what the oracle needs to check it.
#[derive(Debug, Clone)]
pub struct Q {
    pub shape: Shape,
    pub wire: WireQuery,
    /// Generator term ids (ranked and conjunctive shapes).
    pub terms: Vec<u32>,
    /// Commit-time bounds (range shapes).
    pub range: Option<(u64, u64)>,
    /// The phrase, as committed text (phrase shape).
    pub phrase: Option<String>,
}

fn kw(terms: &[u32]) -> String {
    terms
        .iter()
        .map(|t| format!("kw{t}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Weights of ranked, conjunctive, conjunctive-in-range, phrase and
/// time-range queries: mostly ranked top-10, the rest evenly split.
/// These are assumed, not measured: no query log behind the benchmark
/// records shapes.  Ranked queries are the majority because the paper's
/// query log is of ranked keyword queries; an even split of the rest
/// gives each other shape about 1 in 10 queries, enough samples for its
/// per-shape evaluator timing and oracle checks in every run.
const MIX: [(Shape, u64); 5] = [
    (Shape::Ranked, 60),
    (Shape::Conj, 10),
    (Shape::ConjRange, 10),
    (Shape::Phrase, 10),
    (Shape::Range, 10),
];

/// Where ranked queries take their terms from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ranked {
    /// The paper's query-log model over the popular vocabulary.
    QueryLog,
    /// Two or three rarer terms of the anchor document: a lookup of a
    /// specific record.
    Anchored,
}

/// `n` investigator queries over `docs` (the documents the archive will
/// hold when the queries run).  Ranked queries come from the paper's
/// query-log model over the head of the vocabulary, weighted toward
/// multi-keyword queries; the other shapes are anchored on a document,
/// so each has at least one answer.  Anchors are drawn from `anchors`
/// seeded documents (`None`: any document), which sets how much of the
/// archive the investigation revisits.  Only documents with a term
/// outside the head can anchor: a document of head terms only would
/// give a conjunctive or phrase query over the most popular lists
/// alone, which a small case file may or may not draw, seed by seed.
pub fn investigator_mix(
    docs: &[Doc],
    shape: CorpusShape,
    seed: u64,
    n: usize,
    anchors: Option<usize>,
    ranked: Ranked,
) -> Vec<Q> {
    let mut rng = Rng::new(seed ^ 0x51AB_0C0D);
    let selective: Vec<usize> = (0..docs.len())
        .filter(|&i| docs[i].terms.iter().any(|&t| t >= shape.head))
        .collect();
    let anchor_set: Vec<usize> = match anchors {
        Some(k) => (0..k)
            .map(|_| selective[rng.below(selective.len() as u64) as usize])
            .collect(),
        None => selective,
    };
    // The query-log model (its term popularity) is the same for every
    // seed; the seed picks which queries of the log are sent.
    let qgen = QueryGenerator::new(QueryConfig {
        num_queries: n.max(1) as u64,
        query_vocab: shape.query_vocab.max(1),
        len_weights: vec![0.01, 0.07, 0.12, 0.17, 0.21, 0.22, 0.20],
        ..QueryConfig::default()
    });
    let first_query = seed.wrapping_mul(1 << 24);
    let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut pick = rng.below(total);
        let mut kind = Shape::Ranked;
        for &(s, w) in &MIX {
            if pick < w {
                kind = s;
                break;
            }
            pick -= w;
        }
        let d = &docs[anchor_set[rng.below(anchor_set.len() as u64) as usize]];
        let q = match kind {
            Shape::Ranked => {
                let terms: Vec<u32> = match ranked {
                    Ranked::QueryLog => qgen
                        .query(first_query.wrapping_add(i as u64))
                        .terms
                        .iter()
                        .map(|t| t.0)
                        .collect(),
                    Ranked::Anchored => {
                        let tail: Vec<u32> = d
                            .terms
                            .iter()
                            .copied()
                            .filter(|&t| t >= shape.head)
                            .collect();
                        let pool = if tail.is_empty() { &d.terms } else { &tail };
                        let mut terms: Vec<u32> = (0..2 + rng.below(2))
                            .map(|_| pool[rng.below(pool.len() as u64) as usize])
                            .collect();
                        terms.sort_unstable();
                        terms.dedup();
                        terms
                    }
                };
                Q {
                    shape: kind,
                    wire: WireQuery::Disjunctive {
                        terms: WireTerms::Text(kw(&terms)),
                        top_k: TOP_K,
                    },
                    terms,
                    range: None,
                    phrase: None,
                }
            }
            Shape::Conj | Shape::ConjRange => {
                // One document-popular term plus one or two rarer ones:
                // the jump index zigzags a long list against short ones.
                let head: Vec<u32> = d
                    .terms
                    .iter()
                    .copied()
                    .filter(|&t| t < shape.head)
                    .collect();
                let tail: Vec<u32> = d
                    .terms
                    .iter()
                    .copied()
                    .filter(|&t| t >= shape.head)
                    .collect();
                let mut terms = Vec::new();
                if !head.is_empty() {
                    terms.push(head[rng.below(head.len() as u64) as usize]);
                }
                for _ in 0..(1 + rng.below(2)) {
                    if !tail.is_empty() {
                        terms.push(tail[rng.below(tail.len() as u64) as usize]);
                    }
                }
                if terms.is_empty() {
                    terms.push(d.terms[0]);
                }
                terms.sort_unstable();
                terms.dedup();
                let range = (kind == Shape::ConjRange).then(|| {
                    let w = TS_STEP * (50 + rng.below(2000));
                    (d.ts.saturating_sub(w), d.ts + w)
                });
                Q {
                    shape: kind,
                    wire: WireQuery::Conjunctive {
                        terms: WireTerms::Text(kw(&terms)),
                        from: range.map(|r| r.0),
                        to: range.map(|r| r.1),
                    },
                    terms,
                    range,
                    phrase: None,
                }
            }
            Shape::Phrase => {
                // Two adjacent tokens of the document, at least one from
                // outside the head, so the phrase is selective the way
                // the conjunctive queries are.
                let toks: Vec<&str> = d.text.split_whitespace().collect();
                let id = |t: &str| t[2..].parse::<u32>().unwrap_or(0);
                let selective: Vec<usize> = (0..toks.len().saturating_sub(1))
                    .filter(|&p| id(toks[p]).max(id(toks[p + 1])) >= shape.head)
                    .collect();
                let p = if selective.is_empty() {
                    rng.below(toks.len().saturating_sub(1).max(1) as u64) as usize
                } else {
                    selective[rng.below(selective.len() as u64) as usize]
                };
                let phrase = toks[p..(p + 2).min(toks.len())].join(" ");
                Q {
                    shape: kind,
                    wire: WireQuery::Phrase {
                        text: phrase.clone(),
                    },
                    terms: Vec::new(),
                    range: None,
                    phrase: Some(phrase),
                }
            }
            Shape::Range => {
                let from = d.ts;
                let to = from + TS_STEP * (20 + rng.below(180));
                Q {
                    shape: kind,
                    wire: WireQuery::TimeRange { from, to },
                    terms: Vec::new(),
                    range: Some((from, to)),
                    phrase: None,
                }
            }
        };
        out.push(q);
    }
    out
}
