//! Wire codecs implemented from scratch: base64 (standard and URL-safe
//! alphabets, RFC 4648) and percent-encoding (RFC 3986).
//!
//! The cookie analysis (paper §5.1.1, “Encoded Information in HTTP Cookies”)
//! decodes cookie values with exactly these two encodings to surface IP
//! addresses and geolocation data smuggled inside tracking cookies.

use crate::error::NetError;

const STD_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
const URL_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

fn b64_encode_with(data: &[u8], alphabet: &[u8; 64], pad: bool) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(alphabet[(triple >> 18) as usize & 63] as char);
        out.push(alphabet[(triple >> 12) as usize & 63] as char);
        if chunk.len() > 1 {
            out.push(alphabet[(triple >> 6) as usize & 63] as char);
        } else if pad {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(alphabet[triple as usize & 63] as char);
        } else if pad {
            out.push('=');
        }
    }
    out
}

fn b64_decode_with(input: &str, alphabet: &[u8; 64]) -> Result<Vec<u8>, NetError> {
    let mut rev = [255u8; 256];
    for (i, &c) in alphabet.iter().enumerate() {
        rev[c as usize] = i as u8;
    }
    let bytes: Vec<u8> = input.bytes().filter(|&b| b != b'=').collect();
    if bytes.len() % 4 == 1 {
        return Err(NetError::Decode(format!(
            "base64 input has invalid length {}",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
    let mut buf: u32 = 0;
    let mut bits = 0u8;
    for &b in &bytes {
        let v = rev[b as usize];
        if v == 255 {
            return Err(NetError::Decode(format!(
                "invalid base64 character {:?}",
                b as char
            )));
        }
        buf = (buf << 6) | v as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((buf >> bits) as u8);
        }
    }
    Ok(out)
}

/// Encodes `data` as standard base64 with padding.
pub fn base64_encode(data: &[u8]) -> String {
    b64_encode_with(data, STD_ALPHABET, true)
}

/// Decodes standard base64 (padding optional).
pub fn base64_decode(input: &str) -> Result<Vec<u8>, NetError> {
    b64_decode_with(input, STD_ALPHABET)
}

/// Encodes `data` as URL-safe base64 without padding.
pub fn base64url_encode(data: &[u8]) -> String {
    b64_encode_with(data, URL_ALPHABET, false)
}

/// Decodes URL-safe base64 (padding optional).
pub fn base64url_decode(input: &str) -> Result<Vec<u8>, NetError> {
    b64_decode_with(input, URL_ALPHABET)
}

/// Attempts base64 decoding with either alphabet and returns the decoded
/// bytes as a UTF-8 string when the result is printable text.
///
/// This is the permissive decoder the cookie analysis uses: tracking cookies
/// mix alphabets and frequently omit padding.
pub fn base64_decode_lossy_text(input: &str) -> Option<String> {
    if input.len() < 4 {
        return None;
    }
    let decoded = base64_decode(input)
        .or_else(|_| base64url_decode(input))
        .ok()?;
    let text = String::from_utf8(decoded).ok()?;
    if !text.is_empty()
        && text
            .chars()
            .all(|c| !c.is_control() || c == '\n' || c == '\t')
    {
        Some(text)
    } else {
        None
    }
}

/// Characters that do not require percent-encoding inside a URL query
/// component (RFC 3986 unreserved characters).
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~')
}

/// Percent-encodes `input` so it can be embedded in a URL query component.
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for &b in input.as_bytes() {
        if is_unreserved(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(
                char::from_digit((b >> 4) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
            out.push(
                char::from_digit((b & 15) as u32, 16)
                    .unwrap()
                    .to_ascii_uppercase(),
            );
        }
    }
    out
}

/// Decodes percent-encoding; `+` is additionally decoded to a space, as in
/// `application/x-www-form-urlencoded` query strings. Invalid escapes are
/// passed through verbatim (browsers are lenient here and so must the
/// measurement pipeline be).
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1).zip(bytes.get(i + 2));
                if let Some((&h, &l)) = hex {
                    let hv = (h as char).to_digit(16);
                    let lv = (l as char).to_digit(16);
                    if let (Some(hv), Some(lv)) = (hv, lv) {
                        out.push((hv * 16 + lv) as u8);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(base64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn base64_roundtrip() {
        for data in [
            &b""[..],
            b"a",
            b"ab",
            b"abc",
            b"\x00\xff\x7f",
            b"192.168.1.1|uid=42",
        ] {
            assert_eq!(base64_decode(&base64_encode(data)).unwrap(), data);
        }
    }

    #[test]
    fn base64url_roundtrip_no_padding() {
        let data = b"\xfb\xff\xfe special?";
        let enc = base64url_encode(data);
        assert!(!enc.contains('='));
        assert!(!enc.contains('+'));
        assert!(!enc.contains('/'));
        assert_eq!(base64url_decode(&enc).unwrap(), data);
    }

    #[test]
    fn base64_rejects_garbage() {
        assert!(base64_decode("!!!!").is_err());
        assert!(base64_decode("abcde").is_err()); // len % 4 == 1
    }

    #[test]
    fn lossy_text_decoder_finds_embedded_ip() {
        let enc = base64_encode(b"ip=203.0.113.9;uid=abc123");
        let dec = base64_decode_lossy_text(&enc).unwrap();
        assert!(dec.contains("203.0.113.9"));
        // Binary payloads are rejected.
        assert_eq!(
            base64_decode_lossy_text(&base64_encode(&[0, 1, 2, 3])),
            None
        );
        // Too-short inputs are rejected.
        assert_eq!(base64_decode_lossy_text("ab"), None);
    }

    #[test]
    fn percent_roundtrip() {
        let raw = "id=42&loc=40.4168,-3.7038 city/Madrid";
        let enc = percent_encode(raw);
        assert!(!enc.contains(' '));
        assert!(!enc.contains(','));
        assert_eq!(percent_decode(&enc), raw);
    }

    #[test]
    fn percent_decode_is_lenient() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("a%zzb"), "a%zzb");
        assert_eq!(percent_decode("a+b"), "a b");
    }

    #[test]
    fn percent_encode_keeps_unreserved() {
        assert_eq!(percent_encode("AZaz09-_.~"), "AZaz09-_.~");
        assert_eq!(percent_encode("a b"), "a%20b");
        assert_eq!(percent_encode("100%"), "100%25");
    }
}
