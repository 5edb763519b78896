//! Shared helpers for the analysis modules.

use redlight_net::psl;

/// Registrable domain (eTLD+1) of a hostname.
pub fn reg(host: &str) -> &str {
    psl::registrable_domain(host)
}

/// `true` when two hosts share a registrable domain.
pub(crate) fn same_site(a: &str, b: &str) -> bool {
    reg(a) == reg(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_site_collapses_subdomains() {
        assert!(same_site("www.pornhub.com", "cdn.pornhub.com"));
        assert!(!same_site("pornhub.com", "exoclick.com"));
    }
}
