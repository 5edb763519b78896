//! # redlight-net
//!
//! The network-object model underpinning the measurement platform: URLs,
//! hostnames and registrable domains (eTLD+1), HTTP messages, RFC 6265
//! cookies and a cookie jar, a simplified X.509 certificate model, WHOIS
//! records, wire codecs (base64, percent-encoding), a geo-IP table,
//! and the [`transport`] seam (the [`Transport`] trait plus its metering
//! and fault-injection decorators) every fetch flows through.
//!
//! Everything here is implemented from scratch — no external URL/HTTP/base64
//! crates — so the repository is a self-contained reproduction substrate.

#![warn(missing_docs)]

pub mod codec;
pub mod cookie;
pub mod error;
pub mod geoip;
pub mod host;
pub mod http;
pub mod jar;
pub mod psl;
pub mod tls;
pub mod transport;
pub mod url;
pub mod whois;

pub use cookie::{Cookie, SameSite};
pub use error::NetError;
pub use host::Fqdn;
pub use http::{HeaderMap, Method, Request, Response, Scheme, StatusCode};
pub use jar::CookieJar;
pub use tls::Certificate;
pub use transport::{
    BrowserKind, ClientContext, FetchOutcome, NetProfile, RetryPolicy, Transport, TransportMeter,
    TransportStats,
};
pub use url::{Authority, Url};
