//! WebRTC usage as a potential tracking vector (§5.1.4).
//!
//! WebRTC APIs expose local/public addresses; combined with other tracking
//! they enable NAT-level cross-device tracking and VPN detection. The paper
//! found 27 scripts across 177 porn sites from 13 services, two of them
//! EasyList-indexed.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::ats::AtsClassifier;
use crate::fingerprint::ScriptId;
use crate::util::{reg, same_site};
use redlight_crawler::store::CrawlSlice;

/// Aggregated WebRTC findings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WebRtcReport {
    /// Distinct scripts invoking WebRTC APIs.
    pub scripts: BTreeSet<ScriptId>,
    /// Sites where WebRTC was used.
    pub sites: BTreeSet<String>,
    /// Third-party services (registrable domains) using WebRTC.
    pub services: BTreeSet<String>,
    /// Services that the blocklists classify as ATS.
    pub ats_services: BTreeSet<String>,
    /// Sites where WebRTC co-occurs with another tracking mechanism
    /// (cookies or canvas fingerprinting by the same script's service).
    pub sites_with_other_tracking: usize,
}

/// One shard's partial WebRTC tallies.
#[derive(Debug, Clone, Default)]
pub struct WebRtcScan {
    scripts: BTreeSet<ScriptId>,
    sites: BTreeSet<String>,
    services: BTreeSet<String>,
    with_other: usize,
}

/// The reduce side: set unions plus the co-occurrence sum.
pub fn merge(parts: impl IntoIterator<Item = WebRtcScan>) -> WebRtcScan {
    let mut out = WebRtcScan::default();
    for part in parts {
        out.scripts.extend(part.scripts);
        out.sites.extend(part.sites);
        out.services.extend(part.services);
        out.with_other += part.with_other;
    }
    out
}

/// Classifies the (merged) services against the blocklists and assembles
/// the report.
pub fn finalize(scan: WebRtcScan, ats: &AtsClassifier) -> WebRtcReport {
    let ats_services: BTreeSet<String> = scan
        .services
        .iter()
        .filter(|d| ats.is_ats_fqdn(d))
        .cloned()
        .collect();
    WebRtcReport {
        scripts: scan.scripts,
        sites: scan.sites,
        services: scan.services,
        ats_services,
        sites_with_other_tracking: scan.with_other,
    }
}

/// The map side: scans one shard.
pub fn scan(slice: CrawlSlice<'_>) -> WebRtcScan {
    let mut scripts: BTreeSet<ScriptId> = BTreeSet::new();
    let mut sites: BTreeSet<String> = BTreeSet::new();
    let mut services: BTreeSet<String> = BTreeSet::new();
    let mut with_other = 0usize;

    for record in slice.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let page_host = final_url.host().as_str();
        let mut used_here = false;
        for call in &record.visit.js_calls {
            if !call.api.starts_with("webrtc.") {
                continue;
            }
            used_here = true;
            let id = match &call.script_url {
                Some(u) => ScriptId {
                    host: u.host().as_str().to_string(),
                    path: u.path().to_string(),
                },
                None => ScriptId {
                    host: page_host.to_string(),
                    path: "<inline>".to_string(),
                },
            };
            if !same_site(&id.host, page_host) {
                services.insert(reg(&id.host).to_string());
            }
            scripts.insert(id);
        }
        if used_here {
            sites.insert(slice.name(record.domain).to_string());
            // "Other tracking mechanisms in conjunction": any cookie set or
            // canvas readback during the same visit.
            let other = !record.visit.cookies.is_empty()
                || record
                    .visit
                    .canvas
                    .iter()
                    .any(|(_, a)| a.to_data_url_calls > 0);
            if other {
                with_other += 1;
            }
        }
    }

    WebRtcScan {
        scripts,
        sites,
        services,
        with_other,
    }
}
