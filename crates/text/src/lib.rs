//! # redlight-text
//!
//! Text algorithms used across the measurement platform:
//!
//! * [`levenshtein`] — edit distance and the normalized similarity used by the
//!   study to attribute related fully-qualified domain names to one entity
//!   (similarity ≥ 0.7 ⇒ same entity, §4.2 of the paper).
//! * [`tfidf`] — term-frequency / inverse-document-frequency vectors with
//!   cosine similarity, used to cluster privacy policies and `<head>`
//!   elements when discovering website owners (§4.1, §7.3).
//! * [`tokenize`] — lightweight word and character tokenizers.
//! * [`lang`] — the eight-language keyword dictionaries the Selenium-style
//!   crawler searches for (consent buttons, privacy-policy links, §3.1).
//! * [`stats`] — the percentage helper the analysis crates share.

#![warn(missing_docs)]

pub mod lang;
pub mod levenshtein;
pub mod stats;
pub mod tfidf;
pub mod tokenize;

pub use lang::{Language, LanguagePack};
pub use levenshtein::{distance, similarity};
pub use tfidf::{TfIdfModel, TfIdfVector};
