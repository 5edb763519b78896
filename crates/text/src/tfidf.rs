//! TF-IDF document vectors and cosine similarity.
//!
//! The study applies TF-IDF in two places:
//!
//! * §4.1 — measuring the similarity of privacy policies and of the HTML
//!   `<head>` element across pairs of pornographic websites to discover
//!   clusters owned by the same organization;
//! * §7.3 — computing pairwise policy similarity over ~1.2 M policy pairs
//!   (76 % of pairs score ≥ 0.5).
//!
//! Terms are interned into `u32` ids so pairwise similarity over thousands of
//! documents stays cheap; vectors are stored sparse and L2-normalized.

use std::collections::HashMap;

use crate::tokenize;

/// A sparse, L2-normalized TF-IDF vector: `(term id, weight)` pairs sorted by
/// term id.
#[derive(Debug, Clone, PartialEq)]
pub struct TfIdfVector {
    entries: Vec<(u32, f64)>,
}

impl TfIdfVector {
    /// Number of non-zero terms.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

/// Cosine similarity between two L2-normalized sparse vectors, in `[0, 1]`
/// (weights are non-negative, so the result is never negative in practice).
fn cosine_similarity(a: &TfIdfVector, b: &TfIdfVector) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut dot = 0.0;
    while i < a.entries.len() && j < b.entries.len() {
        let (ta, wa) = a.entries[i];
        let (tb, wb) = b.entries[j];
        match ta.cmp(&tb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += wa * wb;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// The L2-normalized vector of one document's `(term id, count)` pairs,
/// which must be sorted by term id: each weight is `count × idf`, and the
/// norm sums the squared weights in id order.
fn weigh(counts: Vec<(u32, u32)>, idf: &[f64]) -> TfIdfVector {
    let mut entries: Vec<(u32, f64)> = counts
        .into_iter()
        .map(|(id, tf)| (id, tf as f64 * idf[id as usize]))
        .collect();
    let norm = entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if norm > 0.0 {
        for e in &mut entries {
            e.1 /= norm;
        }
    }
    TfIdfVector { entries }
}

/// A fitted TF-IDF model over a document corpus.
///
/// Build with [`TfIdfModel::fit`], then compare fitted documents with
/// [`TfIdfModel::similarity`] or read their vectors with
/// [`TfIdfModel::vector`].
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    vectors: Vec<TfIdfVector>,
}

impl TfIdfModel {
    /// Fits the model on `documents`, tokenizing each with
    /// `tokenize::for_each_word`. Term ids follow first appearance across
    /// the documents in order. IDF uses the smoothed form
    /// `ln((1 + N) / (1 + df)) + 1`, so terms present in every document still
    /// carry a small positive weight.
    pub fn fit<S: AsRef<str>>(documents: &[S]) -> Self {
        let n_docs = documents.len();
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut doc_freq: Vec<u32> = Vec::new();

        // First pass: vocabulary, document frequencies and each document's
        // `(term id, count)` pairs in id order. `tf` is indexed by term id
        // and zeroed again after each document; `seen` lists the ids the
        // current document touched.
        let mut term_counts: Vec<Vec<(u32, u32)>> = Vec::with_capacity(n_docs);
        let mut tf: Vec<u32> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let mut token = String::new();
        for doc in documents {
            tokenize::for_each_word(doc.as_ref(), &mut token, |term| {
                let id = match vocab.get(term) {
                    Some(&id) => id,
                    None => {
                        let id = vocab.len() as u32;
                        vocab.insert(term.to_owned(), id);
                        doc_freq.push(0);
                        tf.push(0);
                        id
                    }
                };
                if tf[id as usize] == 0 {
                    seen.push(id);
                }
                tf[id as usize] += 1;
            });
            seen.sort_unstable();
            let counts = seen
                .drain(..)
                .map(|id| {
                    doc_freq[id as usize] += 1;
                    (id, std::mem::take(&mut tf[id as usize]))
                })
                .collect();
            term_counts.push(counts);
        }

        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| ((1.0 + n_docs as f64) / (1.0 + df as f64)).ln() + 1.0)
            .collect();

        // Second pass: weighted, normalized vectors.
        let vectors = term_counts
            .into_iter()
            .map(|counts| weigh(counts, &idf))
            .collect();

        Self { vectors }
    }

    /// Number of documents the model was fitted on.
    pub fn n_documents(&self) -> usize {
        self.vectors.len()
    }

    /// The fitted vector for document `idx` (fit order).
    pub fn vector(&self, idx: usize) -> &TfIdfVector {
        &self.vectors[idx]
    }

    /// Similarity between fitted documents `i` and `j`.
    pub fn similarity(&self, i: usize, j: usize) -> f64 {
        cosine_similarity(&self.vectors[i], &self.vectors[j])
    }

    /// Greedy single-link clustering: documents `i`, `j` end up in one
    /// cluster when some chain of pairwise similarities ≥ `threshold`
    /// connects them. Returns cluster ids aligned with document indices.
    ///
    /// This mirrors the study's owner-discovery step (§4.1): pairs of privacy
    /// policies / `<head>` elements with high TF-IDF similarity are merged
    /// into candidate same-owner clusters.
    pub fn cluster(&self, threshold: f64) -> Vec<usize> {
        let n = self.vectors.len();
        let mut parent: Vec<usize> = (0..n).collect();

        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        for i in 0..n {
            for j in (i + 1)..n {
                if self.similarity(i, j) >= threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        // Compact roots to dense cluster ids.
        let mut label: HashMap<usize, usize> = HashMap::new();
        (0..n)
            .map(|i| {
                let root = find(&mut parent, i);
                let next = label.len();
                *label.entry(root).or_insert(next)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The tokenizer the fit used before it tokenized into a reused buffer:
    /// one owned `String` per token, kept if it has at least two chars after
    /// lowercasing.
    fn owned_words(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lc in ch.to_lowercase() {
                    cur.push(lc);
                }
            } else if !cur.is_empty() {
                if cur.chars().count() >= 2 {
                    out.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
        }
        if cur.chars().count() >= 2 {
            out.push(cur);
        }
        out
    }

    /// The fit over owned, pre-tokenized documents that [`TfIdfModel::fit`]
    /// must match bit for bit: one count map per document, ids assigned
    /// through `vocab.entry` on a cloned token.
    fn fit_tokenized(documents: &[Vec<String>]) -> TfIdfModel {
        let n_docs = documents.len();
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut doc_freq: Vec<u32> = Vec::new();
        let mut term_counts: Vec<HashMap<u32, u32>> = Vec::with_capacity(n_docs);
        for doc in documents {
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for term in doc {
                let next_id = vocab.len() as u32;
                let id = *vocab.entry(term.clone()).or_insert(next_id);
                if id as usize == doc_freq.len() {
                    doc_freq.push(0);
                }
                *counts.entry(id).or_insert(0) += 1;
            }
            for &id in counts.keys() {
                doc_freq[id as usize] += 1;
            }
            term_counts.push(counts);
        }
        let idf: Vec<f64> = doc_freq
            .iter()
            .map(|&df| ((1.0 + n_docs as f64) / (1.0 + df as f64)).ln() + 1.0)
            .collect();
        let vectors = term_counts
            .into_iter()
            .map(|counts| {
                let mut entries: Vec<(u32, f64)> = counts
                    .into_iter()
                    .map(|(id, tf)| (id, tf as f64 * idf[id as usize]))
                    .collect();
                entries.sort_unstable_by_key(|&(id, _)| id);
                let norm = entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for e in &mut entries {
                        e.1 /= norm;
                    }
                }
                TfIdfVector { entries }
            })
            .collect();
        TfIdfModel { vectors }
    }

    /// A model's vectors with every weight as its bits.
    fn bits(m: &TfIdfModel) -> Vec<Vec<(u32, u64)>> {
        m.vectors
            .iter()
            .map(|v| v.entries.iter().map(|&(id, w)| (id, w.to_bits())).collect())
            .collect()
    }

    proptest! {
        /// Mixed case, digits, `İ` (two chars once lowercased), `ß`,
        /// single-char tokens, punctuation runs and empty documents, over a
        /// small alphabet so terms recur within and across documents.
        #[test]
        fn fit_matches_owned_token_fit(docs in vec("[abAB01İß ,.!-]{0,40}", 0..8)) {
            let fitted = TfIdfModel::fit(&docs);
            let tokenized: Vec<Vec<String>> = docs.iter().map(|d| owned_words(d)).collect();
            let oracle = fit_tokenized(&tokenized);
            prop_assert_eq!(bits(&fitted), bits(&oracle));
        }
    }

    #[test]
    fn identical_documents_have_similarity_one() {
        let m = TfIdfModel::fit(&["we value your privacy", "we value your privacy"]);
        assert!((m.similarity(0, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_documents_have_similarity_zero() {
        let m = TfIdfModel::fit(&["alpha beta gamma", "delta epsilon zeta"]);
        assert_eq!(m.similarity(0, 1), 0.0);
    }

    #[test]
    fn similar_documents_score_between_zero_and_one() {
        let m = TfIdfModel::fit(&[
            "this privacy policy describes cookies and data collection",
            "this privacy policy describes advertising partners and data collection",
            "completely unrelated cooking recipe with tomatoes",
        ]);
        let s01 = m.similarity(0, 1);
        let s02 = m.similarity(0, 2);
        assert!(s01 > 0.3, "related policies should correlate: {s01}");
        assert!(s02 < s01, "unrelated doc must be less similar");
    }

    #[test]
    fn vectors_are_l2_normalized() {
        let m = TfIdfModel::fit(&["one two three two three three"]);
        let norm: f64 = m
            .vector(0)
            .entries
            .iter()
            .map(|(_, w)| w * w)
            .sum::<f64>()
            .sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clustering_groups_templated_policies() {
        let template_a = "this privacy policy explains how acme collects cookies analytics data";
        let template_a2 = "this privacy policy explains how acme collects cookies advertising data";
        let other = "welcome to our video portal enjoy streaming content daily updates";
        let m = TfIdfModel::fit(&[template_a, template_a2, other]);
        let clusters = m.cluster(0.5);
        assert_eq!(clusters[0], clusters[1]);
        assert_ne!(clusters[0], clusters[2]);
    }

    #[test]
    fn empty_document_is_all_zero_and_harmless() {
        let m = TfIdfModel::fit(&["", "some words"]);
        assert_eq!(m.vector(0).nnz(), 0);
        assert_eq!(m.similarity(0, 1), 0.0);
    }
}
