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
//! `third-party`, resource types and `domain=`), [`matcher`] the rule set
//! (domain buckets for anchored rules, one scan for the rest, one exception
//! list), and [`disconnect`] the entity list.

#![warn(missing_docs)]

pub mod disconnect;
pub mod filter;
pub mod matcher;

pub use disconnect::EntityList;
pub use filter::{Filter, FilterParseError, RequestContext};
pub use matcher::{FilterSet, MatchResult};
