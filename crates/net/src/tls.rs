//! Simplified X.509 certificate model.
//!
//! The study leverages certificate metadata twice:
//!
//! * §4.2(1) — comparing the certificate of a host website with the
//!   certificate of an embedded service to decide first- vs third-party;
//! * §4.2(3) — extracting the `Subject` **organization** to complement the
//!   Disconnect list for parent-company attribution (raising coverage from
//!   142 to 4,477 FQDNs). Certificates whose subject only repeats the domain
//!   name are deliberately *not* used for attribution (paper footnote 7).

/// A distinguished name: the fields the analyses read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DistinguishedName {
    /// Common Name (usually the domain, possibly wildcarded).
    pub common_name: String,
    /// Organization (`O=`), when the certificate carries one (OV/EV certs).
    pub organization: Option<String>,
    /// Country (`C=`).
    pub country: Option<String>,
}

impl DistinguishedName {
    /// A DV-style subject: only a common name.
    pub fn domain_only(cn: impl Into<String>) -> Self {
        DistinguishedName {
            common_name: cn.into(),
            organization: None,
            country: None,
        }
    }

    /// An OV/EV-style subject with an organization.
    pub fn with_org(cn: impl Into<String>, org: impl Into<String>) -> Self {
        DistinguishedName {
            common_name: cn.into(),
            organization: Some(org.into()),
            country: None,
        }
    }
}

/// A simplified X.509 certificate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// Subject.
    pub subject: DistinguishedName,
    /// Issuer.
    pub issuer: DistinguishedName,
    /// Subject Alternative Names (DNS entries, possibly wildcards).
    pub san: Vec<String>,
    /// Serial, for identity comparisons.
    pub serial: u64,
}

impl Certificate {
    /// Builds a leaf certificate for `cn` with optional organization, SAN
    /// list and serial.
    pub fn leaf(cn: &str, organization: Option<&str>, san: Vec<String>, serial: u64) -> Self {
        let subject = match organization {
            Some(org) => DistinguishedName::with_org(cn, org),
            None => DistinguishedName::domain_only(cn),
        };
        Certificate {
            subject,
            issuer: DistinguishedName::with_org("Redlight Root CA", "Redlight Trust Services"),
            san,
            serial,
        }
    }

    /// Whether `host` is covered by this certificate (CN or SAN, with
    /// single-label wildcard support: `*.example.com` matches
    /// `a.example.com` but not `a.b.example.com` nor `example.com`).
    pub fn covers(&self, host: &str) -> bool {
        std::iter::once(self.subject.common_name.as_str())
            .chain(self.san.iter().map(String::as_str))
            .any(|pat| wildcard_match(pat, host))
    }

    /// The attributable organization: the subject `O=` value, unless it is
    /// missing or merely repeats a domain name (paper footnote 7: such
    /// subjects are not taken into account).
    pub fn attributable_organization(&self) -> Option<&str> {
        let org = self.subject.organization.as_deref()?;
        let looks_like_domain = org.contains('.') && !org.contains(' ');
        if looks_like_domain || org.is_empty() {
            None
        } else {
            Some(org)
        }
    }

    /// `true` when both certificates belong to the same identity:
    /// same serial, or same attributable organization, or either covers the
    /// other's common name.
    pub fn same_identity(&self, other: &Certificate) -> bool {
        if self.serial == other.serial {
            return true;
        }
        if let (Some(a), Some(b)) = (
            self.attributable_organization(),
            other.attributable_organization(),
        ) {
            if a.eq_ignore_ascii_case(b) {
                return true;
            }
        }
        self.covers(&other.subject.common_name) || other.covers(&self.subject.common_name)
    }
}

fn wildcard_match(pattern: &str, host: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix("*.") {
        match host.split_once('.') {
            Some((first_label, rest)) => !first_label.is_empty() && rest == suffix,
            None => false,
        }
    } else {
        pattern.eq_ignore_ascii_case(host)
    }
}

/// A compact certificate digest stored in measurement records (the full
/// chain is too heavy to keep for every request at crawl scale).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CertSummary {
    /// Subject common name.
    pub cn: String,
    /// Attributable subject organization (post footnote-7 filtering).
    pub org: Option<String>,
    /// Serial.
    pub serial: u64,
}

impl From<&Certificate> for CertSummary {
    fn from(cert: &Certificate) -> Self {
        CertSummary {
            cn: cert.subject.common_name.clone(),
            org: cert.attributable_organization().map(str::to_string),
            serial: cert.serial,
        }
    }
}

impl CertSummary {
    /// Conservative same-identity check on digests: shared serial, shared
    /// attributable organization, or same registrable CN domain.
    pub fn same_identity(&self, other: &CertSummary) -> bool {
        if self.serial == other.serial {
            return true;
        }
        if let (Some(a), Some(b)) = (&self.org, &other.org) {
            if a.eq_ignore_ascii_case(b) {
                return true;
            }
        }
        let reg = |cn: &str| {
            let cn = cn.trim_start_matches("*.");
            crate::psl::registrable_domain(cn).to_string()
        };
        reg(&self.cn) == reg(&other.cn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_semantics() {
        let c = Certificate::leaf("*.exosrv.com", None, vec!["exosrv.com".into()], 1);
        assert!(c.covers("sync.exosrv.com"));
        assert!(c.covers("exosrv.com")); // via SAN
        assert!(!c.covers("a.b.exosrv.com"));
        assert!(!c.covers("otherdomain.com"));
    }

    #[test]
    fn organization_attribution_rules() {
        let ov = Certificate::leaf("addthis.com", Some("Oracle Corporation"), vec![], 2);
        assert_eq!(ov.attributable_organization(), Some("Oracle Corporation"));
        // Footnote 7: subject that just repeats a domain is not attributable.
        let dv_like = Certificate::leaf("shady.party", Some("shady.party"), vec![], 3);
        assert_eq!(dv_like.attributable_organization(), None);
        let dv = Certificate::leaf("plain.com", None, vec![], 4);
        assert_eq!(dv.attributable_organization(), None);
    }

    #[test]
    fn summary_same_identity() {
        let a = CertSummary::from(&Certificate::leaf(
            "hd100546b.com",
            Some("HProfits Group"),
            vec![],
            10,
        ));
        let b = CertSummary::from(&Certificate::leaf(
            "bd202457b.com",
            Some("HProfits Group"),
            vec![],
            11,
        ));
        assert!(a.same_identity(&b));
        let c = CertSummary::from(&Certificate::leaf("*.site.com", None, vec![], 30));
        let d = CertSummary::from(&Certificate::leaf("cdn.site.com", None, vec![], 31));
        assert!(c.same_identity(&d));
        let e = CertSummary::from(&Certificate::leaf("a.com", None, vec![], 1));
        let f = CertSummary::from(&Certificate::leaf("b.net", None, vec![], 2));
        assert!(!e.same_identity(&f));
    }

    #[test]
    fn same_identity_via_org_and_serial_and_coverage() {
        let a = Certificate::leaf("hd100546b.com", Some("HProfits Group"), vec![], 10);
        let b = Certificate::leaf("bd202457b.com", Some("HProfits Group"), vec![], 11);
        assert!(a.same_identity(&b));

        let c = Certificate::leaf("x.com", None, vec![], 20);
        let c2 = Certificate::leaf("y.com", None, vec![], 20);
        assert!(c.same_identity(&c2)); // same serial (shared cert)

        let wild = Certificate::leaf("*.site.com", None, vec![], 30);
        let sub = Certificate::leaf("cdn.site.com", None, vec![], 31);
        assert!(wild.same_identity(&sub));

        let unrelated = Certificate::leaf("a.com", None, vec![], 40);
        let unrelated2 = Certificate::leaf("b.net", None, vec![], 41);
        assert!(!unrelated.same_identity(&unrelated2));
    }
}
