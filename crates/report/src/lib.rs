//! # redlight-report
//!
//! Rendering of study results: ASCII tables matching the paper's layout,
//! textual figure series, and paper-vs-measured comparison rows as a
//! markdown table (for EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod figure;
pub mod paper;
pub mod table;

pub use table::Table;
