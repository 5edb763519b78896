//! RFC 6265 cookies (the subset trackers exercise).
//!
//! A [`Cookie`] models one `Set-Cookie` header: name, value, and the
//! attributes the study's analyses care about — `Domain` (host-only vs
//! domain cookie), `Path`, `Expires`/`Max-Age` (session vs persistent, the
//! §5.1.1 ID-cookie filter discards session cookies), `Secure` and
//! `HttpOnly`.

use crate::error::NetError;

/// `SameSite` attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SameSite {
    /// `SameSite=Strict`.
    Strict,
    /// `SameSite=Lax`.
    Lax,
    /// `SameSite=None`.
    None,
}

/// A parsed cookie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// Name.
    pub name: String,
    /// Value.
    pub value: String,
    /// `Domain` attribute (without leading dot); `None` ⇒ host-only cookie.
    pub domain: Option<String>,
    /// `Path` attribute; `None` ⇒ default path of the request URL.
    pub path: Option<String>,
    /// Lifetime in seconds from `Max-Age` (or converted `Expires`);
    /// `None` ⇒ session cookie.
    pub max_age: Option<i64>,
    /// Secure.
    pub secure: bool,
    /// HTTP only.
    http_only: bool,
    /// Same site.
    pub same_site: Option<SameSite>,
}

impl Cookie {
    /// A session cookie with just a name and value.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Cookie {
        Cookie {
            name: name.into(),
            value: value.into(),
            domain: None,
            path: None,
            max_age: None,
            secure: false,
            http_only: false,
            same_site: None,
        }
    }

    /// Sets the `Domain` attribute (builder).
    pub fn with_domain(mut self, domain: impl Into<String>) -> Cookie {
        let d: String = domain.into();
        self.domain = Some(d.trim_start_matches('.').to_ascii_lowercase());
        self
    }

    /// Sets the `Path` attribute (builder).
    pub fn with_path(mut self, path: impl Into<String>) -> Cookie {
        self.path = Some(path.into());
        self
    }

    /// Sets `Max-Age` in seconds (builder); makes the cookie persistent.
    pub fn with_max_age(mut self, seconds: i64) -> Cookie {
        self.max_age = Some(seconds);
        self
    }

    /// Sets the `Secure` flag (builder).
    pub fn secure(mut self) -> Cookie {
        self.secure = true;
        self
    }

    /// `true` when the cookie has no expiry — a session cookie, discarded by
    /// the ID-cookie filter (§5.1.1).
    pub fn is_session(&self) -> bool {
        self.max_age.is_none()
    }

    /// Parses one `Set-Cookie` header value.
    ///
    /// Unknown attributes are ignored; `Expires` is accepted and treated as a
    /// persistent marker with a synthetic max-age when `Max-Age` is absent
    /// (the measurement pipeline only needs session vs persistent).
    pub fn parse_set_cookie(header: &str) -> Result<Cookie, NetError> {
        let mut parts = header.split(';');
        let first = parts
            .next()
            .ok_or_else(|| NetError::InvalidCookie(header.to_string()))?;
        let (name, value) = first
            .split_once('=')
            .ok_or_else(|| NetError::InvalidCookie(header.to_string()))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(NetError::InvalidCookie(header.to_string()));
        }
        let mut cookie = Cookie::new(name, value.trim());
        for attr in parts {
            let attr = attr.trim();
            let (key, val) = match attr.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (attr, ""),
            };
            // Attribute names are case-insensitive (RFC 6265 §5.2).
            let is = |name: &str| key.eq_ignore_ascii_case(name);
            if is("domain") {
                if !val.is_empty() {
                    cookie.domain = Some(val.trim_start_matches('.').to_ascii_lowercase());
                }
            } else if is("path") {
                if !val.is_empty() {
                    cookie.path = Some(val.to_string());
                }
            } else if is("max-age") {
                if let Ok(secs) = val.parse::<i64>() {
                    cookie.max_age = Some(secs);
                }
            } else if is("expires") {
                if cookie.max_age.is_none() && !val.is_empty() {
                    // Keep it simple: any parseable-looking Expires makes the
                    // cookie persistent for one synthetic year.
                    cookie.max_age = Some(365 * 24 * 3600);
                }
            } else if is("secure") {
                cookie.secure = true;
            } else if is("httponly") {
                cookie.http_only = true;
            } else if is("samesite") {
                cookie.same_site = [
                    ("strict", SameSite::Strict),
                    ("lax", SameSite::Lax),
                    ("none", SameSite::None),
                ]
                .into_iter()
                .find(|(v, _)| val.eq_ignore_ascii_case(v))
                .map(|(_, ss)| ss);
            }
        }
        Ok(cookie)
    }

    /// Serializes to a `Set-Cookie` header value.
    pub fn to_set_cookie(&self) -> String {
        let mut s = format!("{}={}", self.name, self.value);
        if let Some(d) = &self.domain {
            s.push_str("; Domain=");
            s.push_str(d);
        }
        if let Some(p) = &self.path {
            s.push_str("; Path=");
            s.push_str(p);
        }
        if let Some(age) = self.max_age {
            s.push_str(&format!("; Max-Age={age}"));
        }
        if self.secure {
            s.push_str("; Secure");
        }
        if self.http_only {
            s.push_str("; HttpOnly");
        }
        if let Some(ss) = self.same_site {
            s.push_str(match ss {
                SameSite::Strict => "; SameSite=Strict",
                SameSite::Lax => "; SameSite=Lax",
                SameSite::None => "; SameSite=None",
            });
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_cookie() {
        let c = Cookie::parse_set_cookie("sid=abc123").unwrap();
        assert_eq!(c.name, "sid");
        assert_eq!(c.value, "abc123");
        assert!(c.is_session());
        assert!(c.domain.is_none());
    }

    #[test]
    fn parses_full_attribute_set() {
        let c = Cookie::parse_set_cookie(
            "uid=x1y2; Domain=.exosrv.com; Path=/; Max-Age=31536000; Secure; HttpOnly; SameSite=None",
        )
        .unwrap();
        assert_eq!(c.domain.as_deref(), Some("exosrv.com"));
        assert_eq!(c.path.as_deref(), Some("/"));
        assert_eq!(c.max_age, Some(31536000));
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, Some(SameSite::None));
        assert!(!c.is_session());

        // Attribute names and the SameSite value are case-insensitive.
        let c = Cookie::parse_set_cookie(
            "uid=x1y2; DOMAIN=.ExoSrv.com; PATH=/; max-AGE=31536000; SECURE; httpONLY; samesite=LAX",
        )
        .unwrap();
        assert_eq!(c.domain.as_deref(), Some("exosrv.com"));
        assert_eq!(c.path.as_deref(), Some("/"));
        assert_eq!(c.max_age, Some(31536000));
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, Some(SameSite::Lax));
    }

    #[test]
    fn expires_makes_cookie_persistent() {
        let c = Cookie::parse_set_cookie("a=b; Expires=Wed, 21 Oct 2026 07:28:00 GMT").unwrap();
        assert!(!c.is_session());
    }

    #[test]
    fn max_age_wins_over_expires() {
        let c = Cookie::parse_set_cookie("a=b; Max-Age=60; Expires=Wed, 21 Oct 2026 07:28:00 GMT")
            .unwrap();
        assert_eq!(c.max_age, Some(60));
    }

    #[test]
    fn rejects_nameless() {
        assert!(Cookie::parse_set_cookie("").is_err());
        assert!(Cookie::parse_set_cookie("=value").is_err());
        assert!(Cookie::parse_set_cookie("novalue").is_err());
    }

    #[test]
    fn value_may_contain_equals() {
        let c = Cookie::parse_set_cookie("data=a=b=c").unwrap();
        assert_eq!(c.value, "a=b=c");
    }

    #[test]
    fn roundtrip() {
        let c = Cookie::new("uid", "42")
            .with_domain(".Tracker.COM")
            .with_path("/sync")
            .with_max_age(3600)
            .secure();
        let parsed = Cookie::parse_set_cookie(&c.to_set_cookie()).unwrap();
        assert_eq!(parsed, c);
        assert_eq!(parsed.domain.as_deref(), Some("tracker.com"));
    }

    #[test]
    fn unknown_attributes_are_ignored() {
        let c = Cookie::parse_set_cookie("a=b; Priority=High; Partitioned").unwrap();
        assert_eq!(c.name, "a");
    }
}
