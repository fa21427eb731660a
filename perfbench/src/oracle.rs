//! Correctness checks on sampled responses.
//!
//! Boolean shapes (conjunctive, time range, phrase) are checked against a
//! brute-force scan of the generator's own documents: their term sets,
//! timestamps and rendered text.  Ranked responses are checked bit for
//! bit against each shard's exhaustive evaluator at the response's pinned
//! watermarks, merged the way the archive merges shards.

use crate::gen::{Doc, Shape, Q};
use tks_postings::{DocId, TermId};
use tks_server::wire::WireQueryResponse;
use tks_shard::{local_of, shard_of, ShardedSearcher};

/// The committed documents, with the global id each was acknowledged
/// under.
pub struct Oracle<'a> {
    pub docs: &'a [Doc],
    pub ids: &'a [DocId],
}

fn phrase_in(text: &str, phrase: &str) -> bool {
    // Rendered text is `tok tok … tok ` — every token ends in a space.
    let needle = format!("{phrase} ");
    text.starts_with(&needle) || text.contains(&format!(" {needle}"))
}

impl Oracle<'_> {
    /// Expected global ids (ascending) of a boolean query at per-shard
    /// watermarks `wm`.
    pub fn expected(&self, q: &Q, wm: &[u64]) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .docs
            .iter()
            .zip(self.ids)
            .filter(|(_, id)| {
                let s = shard_of(**id) as usize;
                wm.get(s).is_some_and(|&w| local_of(**id).0 < w)
            })
            .filter(|(d, _)| match q.shape {
                Shape::Ranked => false,
                Shape::Conj | Shape::ConjRange => {
                    q.terms.iter().all(|t| d.terms.binary_search(t).is_ok())
                        && q.range.is_none_or(|(a, b)| a <= d.ts && d.ts <= b)
                }
                Shape::Range => q.range.is_some_and(|(a, b)| a <= d.ts && d.ts <= b),
                Shape::Phrase => q.phrase.as_deref().is_some_and(|p| phrase_in(&d.text, p)),
            })
            .map(|(_, id)| id.0)
            .collect();
        out.sort_unstable();
        out
    }

    /// Check one response; `Err` describes the first disagreement.
    /// `searcher` is needed for ranked queries only, and only when the
    /// archive is read-only (ranking statistics follow the live
    /// collection, so a ranked answer cannot be recomputed after later
    /// commits).
    pub fn check(
        &self,
        q: &Q,
        resp: &WireQueryResponse,
        searcher: Option<&ShardedSearcher>,
    ) -> Result<(), String> {
        let wm: Vec<u64> = resp.shards.iter().map(|s| s.visible_docs).collect();
        if q.shape == Shape::Ranked {
            let Some(searcher) = searcher else {
                return Ok(());
            };
            let want = ranked_exhaustive(searcher, q, &wm)?;
            let got: Vec<(u64, u64)> = resp
                .hits
                .iter()
                .map(|h| (h.doc, h.score.to_bits()))
                .collect();
            return if got == want {
                Ok(())
            } else {
                Err(format!(
                    "ranked {:?}: got {got:?}, exhaustive {want:?}",
                    q.wire
                ))
            };
        }
        let want = self.expected(q, &wm);
        let got: Vec<u64> = resp.hits.iter().map(|h| h.doc).collect();
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{:?}: {} hits, oracle {} (first got {:?}, first want {:?})",
                q.wire,
                got.len(),
                want.len(),
                got.first(),
                want.first()
            ))
        }
    }
}

/// Merge each shard's exhaustive top-k at watermark `wm[s]` into the
/// archive's global ranking: score descending, then global id.
fn ranked_exhaustive(
    searcher: &ShardedSearcher,
    q: &Q,
    wm: &[u64],
) -> Result<Vec<(u64, u64)>, String> {
    let k = crate::gen::TOP_K as usize;
    let mut merged: Vec<(u64, f64)> = Vec::new();
    for s in 0..searcher.shards() {
        let shard = searcher
            .shard(s)
            .ok_or_else(|| format!("shard {s} is degraded"))?;
        let engine = shard.engine();
        let mut ids: Vec<TermId> = q
            .terms
            .iter()
            .filter_map(|t| engine.term_of(&format!("kw{t}")))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let visible = wm.get(s as usize).copied().unwrap_or(0);
        let (hits, _) = engine.disjunctive_ranked_exhaustive(&ids, k, visible);
        for h in hits {
            let g = searcher
                .router()
                .global_id(s, h.doc)
                .map_err(|e| e.to_string())?;
            merged.push((g.0, h.score));
        }
    }
    merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    merged.truncate(k);
    Ok(merged.into_iter().map(|(d, s)| (d, s.to_bits())).collect())
}
