//! # redlight-blocklist
//!
//! An Adblock-Plus-syntax filter-list engine plus a Disconnect-style
//! domain→entity list.
//!
//! The study classifies third-party domains as advertising & tracking
//! services (ATS) by matching the **full request URL** against EasyList and
//! EasyPrivacy (§4.2(2)) — rules consider the whole URL (`bbc.co.uk` is not
//! blacklisted but `bbc.co.uk/analytics` is) — and then *relaxes* matching to
//! the base FQDN to count ATS organizations. Parent-company attribution
//! starts from Disconnect's (incomplete) entity list (§4.2(3)).
//!
//! [`filter`] implements the rule syntax (domain anchors `||…^`, start/end
//! anchors, wildcards, separators, `@@` exceptions, `$` options including
//! `third-party`, resource types and `domain=`), [`matcher`] the
//! token-indexed engine (with [`tokens`] providing the safe-substring
//! extraction), [`linear`] the retained pre-index reference matcher used by
//! the equivalence tests and benchmarks, and [`disconnect`] the entity list.

#![warn(missing_docs)]

pub mod disconnect;
pub mod filter;
pub mod linear;
pub mod matcher;
pub mod tokens;

pub use disconnect::EntityList;
pub use filter::{Filter, FilterParseError, RequestContext};
pub use linear::LinearFilterSet;
pub use matcher::{FilterSet, MatchResult};
