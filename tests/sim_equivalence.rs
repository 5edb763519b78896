//! The simulated clock is purely additive: every crawl runs on it, and the
//! profile's `SimSpec` decides only *when* things happen, never *what*. A
//! study renders the same summary under any service model, on a healthy
//! network and on one that injects faults and retries.

use std::time::Duration;

use redlight::net::transport::{NetProfile, SimSpec};
use redlight::{Study, StudyConfig};

/// A service model with every field moved off its default.
fn altered_spec() -> SimSpec {
    let altered = SimSpec {
        base_service: Duration::from_millis(9),
        per_kbyte: Duration::from_micros(75),
        connect_fail: Duration::from_millis(30),
        timeout: Duration::from_secs(120),
        jitter_pm: 400,
        conn_limit: 2,
        seed: 77,
    };
    // Destructured without `..`, so a new field fails to compile here
    // until this spec moves it too.
    let SimSpec {
        base_service,
        per_kbyte,
        connect_fail,
        timeout,
        jitter_pm,
        conn_limit,
        seed,
    } = SimSpec::default();
    assert_ne!(altered.base_service, base_service);
    assert_ne!(altered.per_kbyte, per_kbyte);
    assert_ne!(altered.connect_fail, connect_fail);
    assert_ne!(altered.timeout, timeout);
    assert_ne!(altered.jitter_pm, jitter_pm);
    assert_ne!(altered.conn_limit, conn_limit);
    assert_ne!(altered.seed, seed);
    altered
}

/// Renders a tiny study over the named profile, once under the default
/// service model and once under [`altered_spec`].
fn summaries(profile: &str) -> (String, String) {
    let net = NetProfile::named(profile).expect("profile registered");
    assert_eq!(net.sim, SimSpec::default());
    let render = |net: NetProfile| {
        let mut config = StudyConfig::tiny(2019);
        config.net = net;
        Study::run(config).render_summary()
    };
    (render(net.clone()), render(net.with_sim(altered_spec())))
}

#[test]
fn service_model_never_changes_the_default_study() {
    let (default_spec, altered) = summaries("default");
    assert_eq!(
        default_spec, altered,
        "the service model must not change any measured result"
    );
}

#[test]
fn service_model_never_changes_the_flaky_study() {
    let (default_spec, altered) = summaries("flaky");
    assert_eq!(
        default_spec, altered,
        "under faults and retries the service model must still only move time"
    );
}
