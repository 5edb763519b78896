//! The canvas model: records drawing operations per script execution so the
//! fingerprinting heuristics (§5.1.3) can be evaluated, and renders
//! device-dependent readback values.

use redlight_net::transport::fnv1a;

use crate::device::{mix, DeviceProfile};

/// Recorded canvas activity of **one script execution** (OpenWPM attributes
/// canvas calls to the calling script).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CanvasActivity {
    /// Width.
    pub width: u32,
    /// Height.
    pub height: u32,
    /// Distinct fill styles used.
    pub fill_styles: Vec<String>,
    /// Texts drawn with `fillText`.
    pub texts: Vec<String>,
    /// To data URL calls.
    pub to_data_url_calls: u32,
    /// `(w, h)` areas requested through `getImageData`.
    pub get_image_data: Vec<(u32, u32)>,
    /// Save calls.
    pub save_calls: u32,
    /// Restore calls.
    pub restore_calls: u32,
    /// Add event listener calls.
    pub add_event_listener_calls: u32,
    /// `(font, text)` pairs measured via `measureText`.
    pub measured: Vec<(String, String)>,
    /// Fonts set via the `font` property.
    pub fonts_set: u32,
}

impl CanvasActivity {
    /// Registers a fill style (deduplicated).
    pub fn fill_style(&mut self, style: &str) {
        if !self.fill_styles.iter().any(|s| s == style) {
            self.fill_styles.push(style.to_string());
        }
    }

    /// Device-dependent `toDataURL` readback: same ops + same device ⇒ same
    /// value; different device ⇒ different value. That is precisely what
    /// makes canvas output a fingerprint.
    pub(crate) fn render_data_url(&self, device: &DeviceProfile) -> String {
        let mut acc = mix(
            device.render_quirk,
            (self.width as u64) << 32 | self.height as u64,
        );
        for s in &self.fill_styles {
            acc = mix(acc, fnv1a(s.as_bytes()));
        }
        for t in &self.texts {
            acc = mix(acc, fnv1a(t.as_bytes()));
        }
        format!("data:image/png;base64,{acc:016x}")
    }

    /// Whether any text drawn uses more than 10 distinct characters (one of
    /// the Englehardt inclusion criteria).
    pub fn has_rich_text(&self) -> bool {
        self.texts
            .iter()
            .any(|t| redlight_text::tokenize::distinct_chars(t) > 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_url_is_device_dependent() {
        let mut a = CanvasActivity {
            width: 240,
            height: 60,
            ..Default::default()
        };
        a.fill_style("#f60");
        a.texts.push("Cwm fjordbank glyphs vext quiz".into());

        let ff = DeviceProfile::openwpm_firefox52();
        let cr = DeviceProfile::selenium_chrome();
        assert_eq!(a.render_data_url(&ff), a.render_data_url(&ff));
        assert_ne!(a.render_data_url(&ff), a.render_data_url(&cr));
    }

    #[test]
    fn data_url_depends_on_drawn_content() {
        let device = DeviceProfile::openwpm_firefox52();
        let mut a = CanvasActivity::default();
        a.texts.push("one".into());
        let mut b = CanvasActivity::default();
        b.texts.push("two".into());
        assert_ne!(a.render_data_url(&device), b.render_data_url(&device));
    }

    #[test]
    fn fill_styles_deduplicate() {
        let mut a = CanvasActivity::default();
        a.fill_style("#fff");
        a.fill_style("#fff");
        a.fill_style("#000");
        assert_eq!(a.fill_styles.len(), 2);
    }

    #[test]
    fn rich_text_threshold() {
        let mut a = CanvasActivity::default();
        a.texts.push("short".into());
        assert!(!a.has_rich_text());
        a.texts.push("Cwm fjordbank glyphs vext quiz".into());
        assert!(a.has_rich_text());
    }
}
