//! The lookups that decode and copy only what they must agree with the
//! references they replaced: `Url::query_param`, which decodes only an
//! escaped key and the matching value, with decoding every pair and then
//! searching, and
//! `HeaderMap::get` / `get_all` with comparing each stored name to a
//! lowercased copy of the one asked for.

use proptest::prelude::*;
use redlight_net::codec::percent_decode;
use redlight_net::{HeaderMap, Url};

/// Raw query keys: plain letters, `+`, valid escapes in both cases,
/// invalid and truncated escapes, an escape that decodes to a byte that is
/// not UTF-8, non-ASCII text, and U+FFFD, which lossy decoding also
/// produces.
const RAW_KEY: &str = "([ab]|\\+|%20|%2[bB]|%6[1A]|%FF|%C3%A9|%|%4|%G1|é|\u{FFFD}){0,4}";

/// Raw query values: the key alphabet plus `=`, which splits only the
/// first time it appears in a pair.
const RAW_VALUE: &str = "([ab=]|\\+|%20|%3D|%FF|%|é){0,5}";

/// The decode-every-pair lookup `query_param` replaced.
fn query_param_reference(url: &Url, key: &str) -> Option<String> {
    url.query_pairs()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The lowercased-copy lookups `HeaderMap::get` / `get_all` replaced.
fn header_reference<'a>(map: &'a HeaderMap, name: &str) -> Vec<&'a str> {
    let lower = name.to_ascii_lowercase();
    map.iter()
        .filter(|(n, _)| *n == lower)
        .map(|(_, v)| v)
        .collect()
}

proptest! {
    #[test]
    fn query_param_agrees_with_decoding_every_pair(
        keys in proptest::collection::vec(RAW_KEY, 0..7),
        values in proptest::collection::vec(RAW_VALUE, 7),
        shapes in proptest::collection::vec(0u8..4, 7),
        probe in RAW_KEY,
    ) {
        // Pair shapes: `k=v`, a bare `k`, an empty pair, and `k=`.
        let query = keys
            .iter()
            .zip(&values)
            .zip(&shapes)
            .map(|((k, v), shape)| match shape {
                0 => format!("{k}={v}"),
                1 => k.clone(),
                2 => String::new(),
                _ => format!("{k}="),
            })
            .collect::<Vec<_>>()
            .join("&");
        let url = Url::parse(&format!("https://h.example/p?{query}#k=frag")).unwrap();
        let mut wanted: Vec<String> = keys.iter().map(|k| percent_decode(k)).collect();
        wanted.push(percent_decode(&probe));
        wanted.push(probe);
        wanted.extend(["", "\u{FFFD}", "a b", "k"].map(String::from));
        for key in &wanted {
            prop_assert_eq!(
                url.query_param(key),
                query_param_reference(&url, key),
                "key {:?} in query {:?}",
                key,
                query
            );
        }
    }

    #[test]
    fn header_lookups_agree_with_a_lowercased_copy(
        names in proptest::collection::vec("[cC][oO][oO]?[kK]?|[sS]et-[cC]ookie|X-[aA]", 0..8),
        probe in "[cC][oO][oO]?[kK]?|[sS]et-[cC]ookie|X-[aA]|",
        setter in 0usize..8,
    ) {
        let mut map = HeaderMap::new();
        for (i, name) in names.iter().enumerate() {
            if i == setter {
                map.set(name.clone(), format!("set{i}"));
            } else {
                map.append(name.clone(), format!("v{i}"));
            }
        }
        let mut wanted = names.clone();
        wanted.push(probe);
        wanted.extend(names.iter().map(|n| n.to_ascii_uppercase()));
        for name in &wanted {
            let reference = header_reference(&map, name);
            prop_assert_eq!(map.get(name), reference.first().copied(), "{:?}", name);
            prop_assert_eq!(map.get_all(name).collect::<Vec<_>>(), reference, "{:?}", name);
        }
    }
}
