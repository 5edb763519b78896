//! Device profiles: the entropy surface fingerprinting scripts read.

use std::net::Ipv4Addr;

/// A browser/device identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// User agent.
    pub user_agent: String,
    /// Platform.
    pub platform: String,
    /// Screen width.
    pub screen_width: u32,
    /// Screen height.
    pub screen_height: u32,
    /// Installed fonts (font fingerprinting measures these).
    pub fonts: Vec<String>,
    /// Private address exposed through WebRTC candidates.
    pub local_ip: Ipv4Addr,
    /// GPU/renderer quirk seed: two devices render the same canvas ops to
    /// different pixels.
    pub render_quirk: u64,
}

impl DeviceProfile {
    /// The OpenWPM profile the study used (Firefox 52).
    pub fn openwpm_firefox52() -> Self {
        DeviceProfile {
            user_agent: "Mozilla/5.0 (X11; Linux x86_64; rv:52.0) Gecko/20100101 Firefox/52.0"
                .to_string(),
            platform: "Linux x86_64".to_string(),
            screen_width: 1366,
            screen_height: 768,
            fonts: default_fonts(),
            local_ip: Ipv4Addr::new(10, 0, 2, 15),
            render_quirk: 0xF1_52F0,
        }
    }

    /// The Selenium Chrome profile of the interaction crawler.
    pub fn selenium_chrome() -> Self {
        DeviceProfile {
            user_agent: "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) \
                         Chrome/71.0.3578.98 Safari/537.36"
                .to_string(),
            platform: "Linux x86_64".to_string(),
            screen_width: 1920,
            screen_height: 1080,
            fonts: default_fonts(),
            local_ip: Ipv4Addr::new(10, 0, 2, 16),
            render_quirk: 0xC4_0713,
        }
    }

    /// Deterministic text-measurement width for a `(font, text)` pair on
    /// this device — the signal font fingerprinting integrates.
    pub fn measure_text(&self, font: &str, text: &str) -> i64 {
        let installed = self.fonts.iter().any(|f| f == font);
        let base = text.chars().count() as i64 * 7;
        if installed {
            base + (mix(hash(font), self.render_quirk) % 5) as i64
        } else {
            base // fallback font: default metrics
        }
    }
}

fn default_fonts() -> Vec<String> {
    [
        "DejaVu Sans",
        "DejaVu Serif",
        "Liberation Mono",
        "Liberation Sans",
        "Noto Sans",
        "probe-font-3",
        "probe-font-17",
        "probe-font-42",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

pub(crate) fn hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ() {
        let ff = DeviceProfile::openwpm_firefox52();
        let cr = DeviceProfile::selenium_chrome();
        assert!(ff.user_agent.contains("Firefox/52"));
        assert!(cr.user_agent.contains("Chrome"));
        assert_ne!(ff.render_quirk, cr.render_quirk);
    }

    #[test]
    fn measure_text_discriminates_installed_fonts() {
        let d = DeviceProfile::openwpm_firefox52();
        let installed = d.measure_text("probe-font-3", "mmmmmmmmmmlli");
        let missing = d.measure_text("probe-font-4", "mmmmmmmmmmlli");
        // Installed fonts perturb the default metric for at least one probe.
        let any_diff = d
            .fonts
            .iter()
            .any(|f| d.measure_text(f, "mmmmmmmmmmlli") != missing);
        assert!(any_diff);
        assert_eq!(installed, d.measure_text("probe-font-3", "mmmmmmmmmmlli"));
    }
}
