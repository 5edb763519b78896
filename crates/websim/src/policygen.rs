//! Privacy-policy generation.
//!
//! Calibrated against §7.3: 16 % of porn sites link a policy; 20 % of
//! policies mention the GDPR explicitly; lengths span 1,088 – 243,649
//! letters (mean ≈ 17,159); 76 % of policy pairs have TF-IDF similarity
//! ≥ 0.5 — the product of heavy legal boilerplate and template reuse —
//! while same-company sites share a near-identical template (similarity ≈ 1,
//! which is exactly the signal §4.1's owner discovery exploits).
//!
//! The ≥ 0.5 ceiling breaks across languages: a Russian policy shares no
//! vocabulary with an English one, so the sub-0.5 quartile is mostly
//! cross-language pairs (and broken/short policies).

use redlight_text::lang::Language;
use redlight_text::tokenize::letter_count;

/// Which text skeleton a policy uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTemplate {
    /// The owning company's shared template (index into
    /// `org::PUBLISHERS`).
    Company(u32),
    /// One of the dozen generic CMS templates circulating the ecosystem.
    Generic(u8),
    /// A bespoke policy.
    Unique(u32),
}

/// What the policy discloses (the Polisis-style §7.3 check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyDisclosures {
    /// Cookies.
    pub cookies: bool,
    /// Data types.
    pub(crate) data_types: bool,
    /// Third parties.
    pub third_parties: bool,
    /// Disclosures include the complete list of embedded third parties
    /// (exactly one site in the paper).
    pub(crate) full_third_party_list: bool,
}

/// A site's privacy policy, as ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Template.
    pub template: PolicyTemplate,
    /// Language.
    pub language: Language,
    /// Mentions GDPR.
    pub(crate) mentions_gdpr: bool,
    /// Target length in letters.
    pub(crate) target_letters: u32,
    /// Disclosures.
    pub(crate) disclosures: PolicyDisclosures,
    /// Link path on the site (language-dependent).
    pub path: String,
    /// The link exists but the server answers with an HTTP error — the §7.3
    /// sanitization found 44 such false positives.
    pub broken: bool,
}

/// The policy link path for a language.
pub(crate) fn policy_path(language: Language) -> &'static str {
    match language {
        Language::English => "/privacy-policy",
        Language::Spanish => "/politica-de-privacidad",
        Language::French => "/politique-de-confidentialite",
        Language::Portuguese => "/politica-de-privacidade",
        Language::Russian => "/policy-konfidencialnosti",
        Language::Italian => "/informativa-privacy",
        Language::German => "/datenschutz-richtlinie",
        Language::Romanian => "/politica-de-confidentialitate",
    }
}

/// The anchor text used for the policy link.
pub(crate) fn policy_link_text(language: Language) -> &'static str {
    match language {
        Language::English => "Privacy Policy",
        Language::Spanish => "Política de privacidad",
        Language::French => "Politique de confidentialité",
        Language::Portuguese => "Política de privacidade",
        Language::Russian => "Политика конфиденциальности",
        Language::Italian => "Informativa sulla privacy",
        Language::German => "Datenschutz-Richtlinie",
        Language::Romanian => "Politica de confidențialitate",
    }
}

/// Shared legal boilerplate per language (the TF-IDF mass that keeps
/// same-language pairs above 0.5).
fn boilerplate(language: Language) -> &'static str {
    match language {
        Language::English => {
            "This privacy policy describes how this website collects uses stores and shares \
             personal information about visitors. We process browsing data device identifiers \
             and usage statistics to operate the service improve content delivery and measure \
             audience engagement. Information may be retained for as long as necessary to \
             provide the service and comply with legal obligations. Visitors may contact the \
             operator to request access correction or deletion of personal information. \
             The website uses cookies and similar technologies to remember preferences \
             authenticate sessions and analyze traffic patterns. Continued use of the service \
             constitutes acceptance of the practices described in this policy. The operator \
             may update this policy from time to time and material changes will be posted on \
             this page. Personal information is protected using reasonable technical and \
             organizational security measures."
        }
        Language::Spanish => {
            "Esta política de privacidad describe cómo este sitio web recopila utiliza \
             almacena y comparte información personal sobre los visitantes. Procesamos datos \
             de navegación identificadores de dispositivos y estadísticas de uso para operar \
             el servicio. El sitio web utiliza cookies y tecnologías similares para recordar \
             preferencias autenticar sesiones y analizar el tráfico. El operador puede \
             actualizar esta política y los cambios se publicarán en esta página."
        }
        Language::Russian => {
            "Настоящая политика конфиденциальности описывает как данный веб сайт собирает \
             использует хранит и передает персональную информацию посетителей. Мы \
             обрабатываем данные просмотра идентификаторы устройств и статистику \
             использования для работы сервиса. Сайт использует файлы cookie и аналогичные \
             технологии для запоминания настроек аутентификации сессий и анализа трафика."
        }
        Language::French => {
            "Cette politique de confidentialité décrit comment ce site web collecte utilise \
             stocke et partage les informations personnelles des visiteurs. Nous traitons les \
             données de navigation les identifiants d'appareils et les statistiques \
             d'utilisation pour exploiter le service. Le site utilise des cookies et des \
             technologies similaires pour mémoriser les préférences et analyser le trafic."
        }
        Language::Portuguese => {
            "Esta política de privacidade descreve como este site coleta usa armazena e \
             compartilha informações pessoais sobre visitantes. Processamos dados de \
             navegação identificadores de dispositivos e estatísticas de uso para operar o \
             serviço. O site usa cookies e tecnologias semelhantes para lembrar preferências \
             e analisar o tráfego."
        }
        Language::Italian => {
            "La presente informativa sulla privacy descrive come questo sito web raccoglie \
             utilizza conserva e condivide le informazioni personali dei visitatori. \
             Trattiamo dati di navigazione identificatori dei dispositivi e statistiche di \
             utilizzo per gestire il servizio. Il sito utilizza cookie e tecnologie simili \
             per ricordare le preferenze e analizzare il traffico."
        }
        Language::German => {
            "Diese Datenschutzrichtlinie beschreibt wie diese Webseite personenbezogene \
             Informationen über Besucher erhebt verwendet speichert und weitergibt. Wir \
             verarbeiten Browserdaten Gerätekennungen und Nutzungsstatistiken um den Dienst \
             zu betreiben. Die Webseite verwendet Cookies und ähnliche Technologien um \
             Einstellungen zu speichern und den Verkehr zu analysieren."
        }
        Language::Romanian => {
            "Această politică de confidențialitate descrie modul în care acest site web \
             colectează utilizează stochează și partajează informații personale despre \
             vizitatori. Prelucrăm date de navigare identificatori de dispozitive și \
             statistici de utilizare pentru a opera serviciul. Site-ul folosește cookie-uri \
             și tehnologii similare pentru a reține preferințele și a analiza traficul."
        }
    }
}

/// Template-specific flavor sections (English templates only: the generic
/// CMS templates in the wild are English).
const GENERIC_SECTIONS: &[&str] = &[
    "Advertising partners may display interest based advertisements using pseudonymous \
     identifiers collected through embedded tags.",
    "Payment processing for premium memberships is handled by external billing providers \
     under separate terms.",
    "Video playback statistics buffering quality and player interactions are recorded to \
     optimize streaming performance.",
    "Community features including comments favorites and playlists store the content you \
     submit together with timestamps.",
    "Age verification records where required by applicable law are processed by specialized \
     compliance vendors.",
    "Newsletter subscriptions store your email address until you withdraw consent by using \
     the unsubscribe link.",
    "Affiliate programs attribute referred traffic using campaign parameters appended to \
     inbound links.",
    "Content delivery networks cache static assets in regional data centers to reduce \
     latency for distant visitors.",
    "Fraud prevention systems evaluate connection characteristics to detect automated \
     abuse and invalid advertising traffic.",
    "Live streaming interactions such as tips chat messages and private sessions are \
     processed by the broadcasting platform.",
    "Search queries entered on the website are aggregated to surface trending categories \
     and improve recommendations.",
    "Model verification documents are retained as required by record keeping regulations \
     applicable to adult content producers.",
];

/// The GDPR paragraph (the §7.3 string-match target).
const GDPR_PARAGRAPH: &str =
    "In accordance with the General Data Protection Regulation GDPR European visitors have \
     the right to access rectify erase restrict and object to the processing of their \
     personal data and the right to data portability. The legal bases for processing are \
     consent contract performance and legitimate interest under GDPR Article 6.";

/// Appends a policy's full text to `out` (a page being written around it;
/// only the appended text counts towards the target length).
///
/// `site_domain` individualizes the text slightly; `company` (when the
/// template is a company template) is embedded verbatim so same-company
/// policies are near-identical; `third_parties` feeds the disclosure
/// section.
pub(crate) fn write_policy(
    out: &mut String,
    spec: &PolicySpec,
    site_domain: &str,
    company: Option<&str>,
    third_parties: &[&str],
) {
    if spec.broken {
        return; // the server answers 410 Gone for these
    }
    let start = out.len();
    policy_body(out, spec, site_domain, company, third_parties);
    let boiler = boilerplate(spec.language);
    let target = spec.target_letters as usize;

    // Pad to the target length by cycling boilerplate paragraphs (legal
    // documents repeat themselves; this also preserves TF-IDF mass).
    // Non-English policies pad with their own boilerplate only, so
    // cross-language pairs stay dissimilar (§7.3's sub-0.5 quartile).
    // The letter count runs along: each step adds the letters of what it
    // appends (the separating spaces are not letters).
    let mut letters = letter_count(&out[start..]);
    let boiler_letters = letter_count(boiler);
    let mut cursor = 0usize;
    while letters < target {
        out.push(' ');
        out.push_str(boiler);
        letters += boiler_letters;
        if spec.language == Language::English {
            let section = GENERIC_SECTIONS[cursor % GENERIC_SECTIONS.len()];
            out.push(' ');
            out.push_str(section);
            letters += letter_count(section);
        }
        cursor += 1;
    }
    if letters > target {
        trim_to_letters(out, start, target);
    }
}

/// Appends the policy text before padding to `out`: the template's
/// sections, then the GDPR paragraph and the disclosures the spec carries.
fn policy_body(
    out: &mut String,
    spec: &PolicySpec,
    site_domain: &str,
    company: Option<&str>,
    third_parties: &[&str],
) {
    let boiler = boilerplate(spec.language);

    match spec.template {
        PolicyTemplate::Company(_) => {
            let co = company.unwrap_or("the operating company");
            out.push_str(&format!(
                "Privacy Policy. This website is operated by {co}. "
            ));
            out.push_str(boiler);
            out.push(' ');
            out.push_str(&format!(
                "All network properties of {co} share this unified privacy statement. \
                 Questions may be directed to the data protection office of {co}. "
            ));
            // Company templates embed two fixed flavor sections so the
            // whole cluster is mutually near-identical.
            out.push_str(GENERIC_SECTIONS[0]);
            out.push(' ');
            out.push_str(GENERIC_SECTIONS[7]);
        }
        PolicyTemplate::Generic(t) => {
            out.push_str("Privacy Policy. ");
            out.push_str(boiler);
            out.push(' ');
            // Each generic template mixes three fixed sections.
            let t = t as usize;
            for k in 0..3 {
                out.push_str(GENERIC_SECTIONS[(t + k * 4) % GENERIC_SECTIONS.len()]);
                out.push(' ');
            }
        }
        PolicyTemplate::Unique(u) => {
            out.push_str(&format!("Privacy statement for {site_domain}. "));
            out.push_str(boiler);
            out.push(' ');
            out.push_str(GENERIC_SECTIONS[(u as usize) % GENERIC_SECTIONS.len()]);
            out.push(' ');
            // Bespoke operational details: unique token salt keeps bespoke
            // policies from clustering with each other at 1.0.
            out.push_str(&format!(
                "Operational annex {u}: retention window {} days, registrar reference \
                 {site_domain}-{u}, escalation mailbox privacy-{u}. ",
                30 + (u % 300)
            ));
        }
    }

    if spec.mentions_gdpr {
        out.push(' ');
        out.push_str(GDPR_PARAGRAPH);
    }

    if spec.disclosures.cookies {
        out.push_str(
            " Cookies disclosure: this website stores first party cookies and permits \
             selected partners to store third party cookies for advertising measurement. ",
        );
    }
    if spec.disclosures.data_types {
        out.push_str(
            " Data categories collected include IP address approximate location browser \
             characteristics viewing history and interaction events. ",
        );
    }
    if spec.disclosures.third_parties {
        if spec.disclosures.full_third_party_list && !third_parties.is_empty() {
            out.push_str(" The complete list of embedded third party services is: ");
            out.push_str(&third_parties.join(", "));
            out.push_str(". ");
        } else {
            out.push_str(
                " Selected advertising and analytics partners receive pseudonymous usage \
                 data; the list of partners is available on request. ",
            );
        }
    }
}

/// Short targets: trims the text after byte `start` of `out` to whole
/// words holding `target` letters, so the corpus reaches the paper's
/// 1,088-letter minimum.
fn trim_to_letters(out: &mut String, start: usize, target: usize) {
    let mut acc = 0usize;
    let mut cut = out.len();
    for (idx, word) in out[start..].split_word_bound_indices() {
        acc += letter_count(word);
        if acc >= target {
            cut = start + idx + word.len();
            break;
        }
    }
    out.truncate(cut);
}

/// Poor man's word-boundary iterator (whitespace splits), yielding
/// `(byte offset, word)` like the unicode-segmentation API would.
trait SplitWords {
    fn split_word_bound_indices(&self) -> Vec<(usize, &str)>;
}

impl SplitWords for str {
    fn split_word_bound_indices(&self) -> Vec<(usize, &str)> {
        let mut out = Vec::new();
        let mut start = None;
        for (i, c) in self.char_indices() {
            if c.is_whitespace() {
                if let Some(s) = start.take() {
                    out.push((s, &self[s..i]));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            out.push((s, &self[s..]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_text::tfidf::TfIdfModel;
    use redlight_text::tokenize::letter_count;

    fn spec(template: PolicyTemplate, lang: Language, letters: u32) -> PolicySpec {
        PolicySpec {
            template,
            language: lang,
            mentions_gdpr: false,
            target_letters: letters,
            disclosures: PolicyDisclosures::default(),
            path: policy_path(lang).to_string(),
            broken: false,
        }
    }

    /// The padding `render_policy` did before it kept a running count: it
    /// recounts every letter of the whole text after each step, which costs
    /// time quadratic in the policy's length. The reference the running
    /// count must match byte for byte. A count that runs short only pads
    /// further before the same word trim, which gives the same text unless
    /// it lands exactly on the target; a count that runs long stops padding
    /// early, which this catches.
    fn render_policy_recounting(
        spec: &PolicySpec,
        site_domain: &str,
        company: Option<&str>,
        third_parties: &[&str],
    ) -> String {
        if spec.broken {
            return String::new();
        }
        let mut out = String::new();
        policy_body(&mut out, spec, site_domain, company, third_parties);
        let boiler = boilerplate(spec.language);
        let target = spec.target_letters as usize;
        let mut cursor = 0usize;
        while letter_count(&out) < target {
            out.push(' ');
            out.push_str(boiler);
            if spec.language == Language::English {
                out.push(' ');
                out.push_str(GENERIC_SECTIONS[cursor % GENERIC_SECTIONS.len()]);
            }
            cursor += 1;
        }
        if letter_count(&out) > target {
            trim_to_letters(&mut out, 0, target);
        }
        out
    }

    /// A policy's text alone, written after a page's opening tags as the
    /// server writes it (their letters must not count towards the target).
    fn render_policy(
        spec: &PolicySpec,
        site_domain: &str,
        company: Option<&str>,
        third_parties: &[&str],
    ) -> String {
        let mut page = String::from("<html><body><main>");
        write_policy(&mut page, spec, site_domain, company, third_parties);
        page.split_off("<html><body><main>".len())
    }

    #[test]
    fn running_letter_count_pads_like_recounting() {
        let parties = ["exoclick.com", "addthis.com"];
        let check = |spec: &PolicySpec| {
            let fast = render_policy(spec, "example.com", Some("MindGeek"), &parties);
            let reference =
                render_policy_recounting(spec, "example.com", Some("MindGeek"), &parties);
            // Compared without `assert_eq!`, which would print both texts.
            assert!(fast == reference, "texts differ for {spec:?}");
            assert!(
                letter_count(&fast) >= spec.target_letters as usize,
                "{spec:?}"
            );
        };
        let disclosures = [
            PolicyDisclosures::default(),
            PolicyDisclosures {
                cookies: true,
                ..Default::default()
            },
            PolicyDisclosures {
                data_types: true,
                ..Default::default()
            },
            PolicyDisclosures {
                third_parties: true,
                ..Default::default()
            },
            PolicyDisclosures {
                third_parties: true,
                full_third_party_list: true,
                ..Default::default()
            },
        ];
        let templates = [
            PolicyTemplate::Company(1),
            PolicyTemplate::Generic(5),
            PolicyTemplate::Unique(42),
        ];
        // The paper's shortest policy (1,088 letters: English bodies are
        // longer and only trim), over every combination.
        for language in Language::ALL {
            for template in templates {
                for mentions_gdpr in [false, true] {
                    for disclosures in disclosures {
                        let mut s = spec(template, language, 1_088);
                        s.mentions_gdpr = mentions_gdpr;
                        s.disclosures = disclosures;
                        check(&s);
                    }
                }
            }
        }
        // Near the median length, every language and template, with GDPR
        // and the full disclosures on every other template.
        for language in Language::ALL {
            for (i, template) in templates.into_iter().enumerate() {
                let mut s = spec(template, language, 11_500);
                if i % 2 == 1 {
                    s.mentions_gdpr = true;
                    s.disclosures = disclosures[4];
                    s.disclosures.cookies = true;
                    s.disclosures.data_types = true;
                }
                check(&s);
            }
        }
        // The paper's longest policy (243,649 letters) in English, and a
        // long one in a language that pads with its short boilerplate only
        // (the recounting reference is quadratic: these two dominate the
        // test's time).
        check(&spec(
            PolicyTemplate::Generic(3),
            Language::English,
            243_649,
        ));
        check(&spec(PolicyTemplate::Unique(7), Language::Russian, 30_000));
    }

    #[test]
    fn length_targets_are_respected() {
        let s = spec(PolicyTemplate::Unique(7), Language::English, 5_000);
        let text = render_policy(&s, "example.com", None, &[]);
        let n = letter_count(&text);
        assert!(n >= 5_000, "{n}");
        assert!(n < 8_000, "padding should stop near the target: {n}");
    }

    #[test]
    fn company_templates_are_near_identical() {
        let s = spec(PolicyTemplate::Company(1), Language::English, 3_000);
        let a = render_policy(&s, "pornhub.com", Some("MindGeek"), &[]);
        let b = render_policy(&s, "tube8-analog.com", Some("MindGeek"), &[]);
        let m = TfIdfModel::fit(&[a, b]);
        assert!(m.similarity(0, 1) > 0.95);
    }

    #[test]
    fn same_language_policies_stay_above_half() {
        let a = render_policy(
            &spec(PolicyTemplate::Generic(2), Language::English, 4_000),
            "a.com",
            None,
            &[],
        );
        let b = render_policy(
            &spec(PolicyTemplate::Unique(9), Language::English, 9_000),
            "b.com",
            None,
            &[],
        );
        let m = TfIdfModel::fit(&[a, b]);
        assert!(m.similarity(0, 1) >= 0.5, "sim = {}", m.similarity(0, 1));
    }

    #[test]
    fn cross_language_policies_diverge() {
        let a = render_policy(
            &spec(PolicyTemplate::Generic(2), Language::English, 3_000),
            "a.com",
            None,
            &[],
        );
        let b = render_policy(
            &spec(PolicyTemplate::Generic(2), Language::Russian, 3_000),
            "b.ru",
            None,
            &[],
        );
        let m = TfIdfModel::fit(&[a, b]);
        assert!(m.similarity(0, 1) < 0.5, "sim = {}", m.similarity(0, 1));
    }

    #[test]
    fn gdpr_mention_is_string_matchable() {
        let mut s = spec(PolicyTemplate::Generic(0), Language::English, 2_000);
        s.mentions_gdpr = true;
        let text = render_policy(&s, "x.com", None, &[]);
        assert!(text.contains("GDPR"));
        let s2 = spec(PolicyTemplate::Generic(0), Language::English, 2_000);
        assert!(!render_policy(&s2, "x.com", None, &[]).contains("GDPR"));
    }

    #[test]
    fn full_third_party_list_is_embedded() {
        let mut s = spec(PolicyTemplate::Unique(1), Language::English, 2_000);
        s.disclosures.third_parties = true;
        s.disclosures.full_third_party_list = true;
        let text = render_policy(&s, "x.com", None, &["exoclick.com", "addthis.com"]);
        assert!(text.contains("exoclick.com"));
        assert!(text.contains("addthis.com"));
    }

    #[test]
    fn broken_policies_render_empty() {
        let mut s = spec(PolicyTemplate::Unique(1), Language::English, 2_000);
        s.broken = true;
        assert!(render_policy(&s, "x.com", None, &[]).is_empty());
    }

    #[test]
    fn paths_cover_all_languages() {
        for lang in Language::ALL {
            assert!(policy_path(lang).starts_with('/'));
            assert!(!policy_link_text(lang).is_empty());
        }
    }
}
