//! Property-based tests over the core data structures and parsers: nothing
//! crawled off the (simulated) web may ever panic the pipeline, and the
//! wire codecs must round-trip.

use proptest::prelude::*;

use redlight::net::codec;
use redlight::net::cookie::Cookie;
use redlight::net::psl;
use redlight::net::url::Url;
use redlight::text::{levenshtein, tfidf::TfIdfModel};

proptest! {
    #[test]
    fn base64_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let enc = codec::base64_encode(&data);
        prop_assert_eq!(codec::base64_decode(&enc).unwrap(), data.clone());
        let url_enc = codec::base64url_encode(&data);
        prop_assert_eq!(codec::base64url_decode(&url_enc).unwrap(), data);
    }

    #[test]
    fn base64_decoder_never_panics(s in ".{0,200}") {
        let _ = codec::base64_decode(&s);
        let _ = codec::base64url_decode(&s);
        let _ = codec::base64_decode_lossy_text(&s);
    }

    #[test]
    fn percent_roundtrips(s in "\\PC{0,200}") {
        let enc = codec::percent_encode(&s);
        prop_assert_eq!(codec::percent_decode(&enc), s);
    }

    #[test]
    fn percent_decoder_never_panics(s in ".{0,300}") {
        let _ = codec::percent_decode(&s);
    }

    #[test]
    fn url_display_reparses(
        host in "[a-z][a-z0-9]{0,10}(\\.[a-z][a-z0-9]{1,8}){1,3}",
        path in "(/[a-zA-Z0-9_.-]{0,12}){0,4}",
        key in "[a-z]{1,8}",
        value in "[a-zA-Z0-9]{0,16}",
    ) {
        let url_str = format!("https://{host}{}?{key}={value}", if path.is_empty() { "/".to_string() } else { path });
        let url = Url::parse(&url_str).unwrap();
        let reparsed = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(url.host().as_str(), reparsed.host().as_str());
        prop_assert_eq!(url.path(), reparsed.path());
        prop_assert_eq!(url.query(), reparsed.query());
        prop_assert_eq!(url.query_param(&key), Some(value));
    }

    #[test]
    fn url_parser_never_panics(s in ".{0,200}") {
        let _ = Url::parse(&s);
    }

    #[test]
    fn url_join_never_panics(
        base_path in "(/[a-z0-9]{0,8}){0,3}",
        reference in ".{0,100}",
    ) {
        let base = Url::parse(&format!("https://example.com{}", if base_path.is_empty() { "/".to_string() } else { base_path })).unwrap();
        let _ = base.join(&reference);
    }

    #[test]
    fn cookie_roundtrips(
        name in "[a-zA-Z_][a-zA-Z0-9_]{0,12}",
        value in "[a-zA-Z0-9%=.|-]{0,64}",
        max_age in 1i64..10_000_000,
        secure in any::<bool>(),
    ) {
        let mut c = Cookie::new(name, value).with_max_age(max_age).with_path("/");
        if secure {
            c = c.secure();
        }
        let parsed = Cookie::parse_set_cookie(&c.to_set_cookie()).unwrap();
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn set_cookie_parser_never_panics(s in ".{0,200}") {
        let _ = Cookie::parse_set_cookie(&s);
    }

    #[test]
    fn levenshtein_metric_properties(a in "[a-z.]{0,24}", b in "[a-z.]{0,24}", c in "[a-z.]{0,24}") {
        // Symmetry, identity, triangle inequality.
        prop_assert_eq!(levenshtein::distance(&a, &b), levenshtein::distance(&b, &a));
        prop_assert_eq!(levenshtein::distance(&a, &a), 0);
        let ab = levenshtein::distance(&a, &b);
        let bc = levenshtein::distance(&b, &c);
        let ac = levenshtein::distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle inequality: {ac} > {ab} + {bc}");
        // Similarity stays in [0, 1].
        let s = levenshtein::similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn registrable_domain_is_suffix_and_idempotent(host in "[a-z]{1,8}(\\.[a-z]{1,8}){0,4}") {
        let reg = psl::registrable_domain(&host);
        prop_assert!(host.ends_with(reg));
        prop_assert_eq!(psl::registrable_domain(reg), reg);
    }

    #[test]
    fn html_parser_never_panics(s in ".{0,500}") {
        let doc = redlight::html::parser::parse(&s);
        // Traversals over arbitrary trees must be safe too.
        for id in doc.descendants() {
            let _ = doc.text_content(id);
            let _ = doc.ancestors(id);
        }
        let _ = redlight::html::serialize::serialize(&doc);
    }

    #[test]
    fn html_roundtrip_preserves_element_count(
        tag in "[a-z]{1,6}",
        text in "[a-zA-Z0-9 ]{0,40}",
        attr in "[a-z]{1,6}",
        value in "[a-zA-Z0-9 ]{0,20}",
    ) {
        let html = format!("<{tag} {attr}=\"{value}\">{text}</{tag}>");
        let doc = redlight::html::parser::parse(&html);
        let out = redlight::html::serialize::serialize(&doc);
        let doc2 = redlight::html::parser::parse(&out);
        prop_assert_eq!(doc.len(), doc2.len());
    }

    #[test]
    fn script_engine_never_panics_and_respects_budget(s in ".{0,300}") {
        let mut host = redlight::script::CollectingHost::default();
        let _ = redlight::script::run_with_budget(&s, &mut host, 20_000);
    }

    #[test]
    fn filter_parser_never_panics(line in ".{0,160}") {
        let _ = redlight::blocklist::Filter::parse(&line);
    }

    #[test]
    fn filter_matching_never_panics(
        rule in "(\\|\\|)?[a-z0-9.*^/$,=~-]{1,60}",
        url_path in "[a-zA-Z0-9/._-]{0,60}",
    ) {
        if let Ok(filter) = redlight::blocklist::Filter::parse(&rule) {
            let ctx = redlight::blocklist::RequestContext::new(
                "page.example",
                "req.example",
                redlight::net::http::ResourceKind::Script,
            );
            let _ = filter.matches(&format!("https://req.example/{url_path}"), &ctx);
        }
    }

    #[test]
    fn tfidf_similarity_is_bounded_and_reflexive(
        docs in proptest::collection::vec("[a-z ]{0,80}", 2..6)
    ) {
        let model = TfIdfModel::fit(&docs);
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                let s = model.similarity(i, j);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "sim {s}");
            }
            // Reflexivity for non-empty documents.
            if model.vector(i).nnz() > 0 {
                prop_assert!((model.similarity(i, i) - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rank_histories_respect_pinned_best(best in 1u32..900_000, vol in 0.05f64..0.9, seed in any::<u64>()) {
        use redlight::rankings::trajectory::trajectory_with_best;
        use redlight::rankings::TrajectoryParams;
        let params = TrajectoryParams {
            persistence: 0.9,
            volatility: vol,
            days: 120,
        };
        let h = trajectory_with_best(&params, best, seed);
        prop_assert_eq!(h.best(), Some(best));
    }
}
