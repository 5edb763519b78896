//! # redlight-browser
//!
//! The instrumented browser — this repository's OpenWPM analog.
//!
//! A [`Browser`] holds one long-lived session (cookie jar, device profile,
//! vantage point) against a [`redlight_net::transport::Transport`] stack —
//! by default the simulated [`redlight_websim::WebServer`], optionally
//! wrapped in metering/fault-injection decorators. A call to
//! [`Browser::visit`] loads a landing page exactly the way the paper's
//! crawler does: HTTPS first with HTTP downgrade, redirects followed,
//! subresources fetched with referrer and cookie headers, scripts executed
//! in an instrumented engine that records every host-API call (canvas, font
//! metrics, WebRTC, cookies), and every HTTP exchange logged — producing a
//! [`page::PageVisit`] record equivalent to OpenWPM's `http_requests`,
//! `javascript` and `cookies` tables for that visit.
//! [`Browser::load_document`] is the visit's first half: the document
//! chain, DOM and screenshot, without fetching or running anything the
//! document references.

#![warn(missing_docs)]

pub mod browser;
pub mod canvas;
pub mod device;
pub mod engine;
pub mod instrument;
pub mod page;

pub use browser::Browser;
pub use device::DeviceProfile;
pub use instrument::{CookieObservation, Initiator, JsCall, RequestRecord, SetVia};
pub use page::PageVisit;
