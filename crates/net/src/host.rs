//! Fully-qualified domain names.
//!
//! The study reasons about *FQDNs* (e.g. `sync.exosrv.com`) and their
//! *registrable domains* / eTLD+1 (e.g. `exosrv.com`). [`Fqdn`] stores the
//! normalized (lowercase, no trailing dot) name in a shared buffer, so
//! cloning one never copies the text; registrable-domain extraction lives
//! in [`crate::psl`].

use std::fmt;
use std::sync::Arc;

use crate::error::NetError;

/// A validated, normalized fully-qualified domain name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fqdn(Arc<str>);

impl Fqdn {
    /// Parses and normalizes a hostname: lowercases, strips one trailing dot,
    /// validates label syntax (LDH rule, 1–63 chars per label, ≤ 253 total).
    pub(crate) fn parse(input: &str) -> Result<Fqdn, NetError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() || trimmed.len() > 253 {
            return Err(NetError::InvalidHost(input.to_string()));
        }
        // Every check below ignores ASCII case, so the input is validated
        // as given and lowercased only when it has an uppercase letter.
        for label in trimmed.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(NetError::InvalidHost(input.to_string()));
            }
            let bytes = label.as_bytes();
            if bytes[0] == b'-' || bytes[bytes.len() - 1] == b'-' {
                return Err(NetError::InvalidHost(input.to_string()));
            }
            if !bytes
                .iter()
                .all(|b| b.is_ascii_alphanumeric() || *b == b'-' || *b == b'_')
            {
                return Err(NetError::InvalidHost(input.to_string()));
            }
        }
        if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            Ok(Fqdn(trimmed.to_ascii_lowercase().into()))
        } else {
            Ok(Fqdn(trimmed.into()))
        }
    }

    /// The normalized hostname.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Fqdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for Fqdn {
    type Err = NetError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fqdn::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let h = Fqdn::parse("WWW.Example.COM.").unwrap();
        assert_eq!(h.as_str(), "www.example.com");
    }

    #[test]
    fn rejects_invalid_hosts() {
        assert!(Fqdn::parse("").is_err());
        assert!(Fqdn::parse(".").is_err());
        assert!(Fqdn::parse("a..b").is_err());
        assert!(Fqdn::parse("-leading.com").is_err());
        assert!(Fqdn::parse("trailing-.com").is_err());
        assert!(Fqdn::parse("sp ace.com").is_err());
        assert!(Fqdn::parse(&"a".repeat(64)).is_err());
        assert!(Fqdn::parse(&format!("{}.com", "a.".repeat(130))).is_err());
    }

    #[test]
    fn accepts_underscore_labels() {
        // Seen in the wild for tracking beacons; browsers tolerate them.
        assert!(Fqdn::parse("_dmarc.example.com").is_ok());
    }
}
