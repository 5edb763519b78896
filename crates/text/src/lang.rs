//! Eight-language keyword dictionaries.
//!
//! The Selenium-style crawler (paper §3.1) searches landing pages for the
//! words “Yes”, “Enter”, “Agree”, “Continue” and “Accept” in eight languages
//! — English, Spanish, French, Portuguese, Russian, Italian, German and
//! Romanian, the most common default languages in the corpus — and for
//! “Privacy”/“Policy” links in the same languages. The monetization analysis
//! (§4.1) additionally searches for account-creation and premium keywords.

/// The eight languages covered by the study's keyword matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Language {
    /// English.
    English,
    /// Spanish.
    Spanish,
    /// French.
    French,
    /// Portuguese.
    Portuguese,
    /// Russian.
    Russian,
    /// Italian.
    Italian,
    /// German.
    German,
    /// Romanian.
    Romanian,
}

impl Language {
    /// All eight languages, in a stable order.
    pub const ALL: [Language; 8] = [
        Language::English,
        Language::Spanish,
        Language::French,
        Language::Portuguese,
        Language::Russian,
        Language::Italian,
        Language::German,
        Language::Romanian,
    ];

    /// ISO-639-1 code.
    pub fn code(self) -> &'static str {
        match self {
            Language::English => "en",
            Language::Spanish => "es",
            Language::French => "fr",
            Language::Portuguese => "pt",
            Language::Russian => "ru",
            Language::Italian => "it",
            Language::German => "de",
            Language::Romanian => "ro",
        }
    }
}

/// Per-language keyword pack.
#[derive(Debug, Clone)]
pub struct LanguagePack {
    /// Language.
    pub language: Language,
    /// Affirmative button labels: “Yes”, “Enter”, “Agree”, “Continue”, “Accept”.
    pub affirmative: &'static [&'static str],
    /// Privacy-policy link keywords (“Privacy”, “Policy”).
    pub privacy: &'static [&'static str],
    /// Cookie-banner vocabulary (“cookie(s)”, “consent”, …).
    pub cookie: &'static [&'static str],
    /// Account-creation keywords (“Log In”, “Sign Up”).
    pub account: &'static [&'static str],
    /// Premium/subscription keywords.
    pub premium: &'static [&'static str],
    /// Adult-content warning vocabulary (“18”, “adult”, “age”).
    pub age_warning: &'static [&'static str],
}

/// Returns the keyword pack for `language`.
pub fn pack(language: Language) -> &'static LanguagePack {
    match language {
        Language::English => &EN,
        Language::Spanish => &ES,
        Language::French => &FR,
        Language::Portuguese => &PT,
        Language::Russian => &RU,
        Language::Italian => &IT,
        Language::German => &DE,
        Language::Romanian => &RO,
    }
}

/// All eight packs.
pub fn all_packs() -> impl Iterator<Item = &'static LanguagePack> {
    Language::ALL.into_iter().map(pack)
}

/// Returns `true` when `text` contains an affirmative button keyword in any
/// of the eight languages (case-insensitive).
pub fn matches_affirmative(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| {
        p.affirmative
            .iter()
            .any(|k| lower.contains(&k.to_lowercase()))
    })
}

/// Returns `true` when `text` looks like a privacy-policy link label or URL
/// fragment in any of the eight languages.
pub fn matches_privacy(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| p.privacy.iter().any(|k| lower.contains(&k.to_lowercase())))
}

/// Returns `true` when `text` contains cookie-banner vocabulary.
pub fn matches_cookie(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| p.cookie.iter().any(|k| lower.contains(&k.to_lowercase())))
}

/// Returns `true` when `text` contains account-creation keywords.
pub fn matches_account(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| p.account.iter().any(|k| lower.contains(&k.to_lowercase())))
}

/// Returns `true` when `text` contains premium/subscription keywords.
pub fn matches_premium(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| p.premium.iter().any(|k| lower.contains(&k.to_lowercase())))
}

/// Returns `true` when `text` contains adult-content warning vocabulary.
pub fn matches_age_warning(text: &str) -> bool {
    let lower = text.to_lowercase();
    all_packs().any(|p| {
        p.age_warning
            .iter()
            .any(|k| lower.contains(&k.to_lowercase()))
    })
}

static EN: LanguagePack = LanguagePack {
    language: Language::English,
    affirmative: &["yes", "enter", "agree", "continue", "accept"],
    privacy: &["privacy", "policy"],
    cookie: &["cookie", "cookies", "consent", "we use cookies"],
    account: &["log in", "login", "sign up", "sign in", "register"],
    premium: &["premium", "subscription", "membership", "upgrade"],
    age_warning: &["18", "adult", "age", "years old", "mature content"],
};

static ES: LanguagePack = LanguagePack {
    language: Language::Spanish,
    affirmative: &["sí", "entrar", "acepto", "continuar", "aceptar"],
    privacy: &["privacidad", "política"],
    cookie: &["cookie", "cookies", "consentimiento", "utilizamos cookies"],
    account: &["iniciar sesión", "registrarse", "acceder"],
    premium: &["premium", "suscripción", "membresía"],
    age_warning: &["18", "adulto", "edad", "mayor de edad"],
};

static FR: LanguagePack = LanguagePack {
    language: Language::French,
    affirmative: &["oui", "entrer", "j'accepte", "continuer", "accepter"],
    privacy: &["confidentialité", "politique", "vie privée"],
    cookie: &[
        "cookie",
        "cookies",
        "consentement",
        "nous utilisons des cookies",
    ],
    account: &["connexion", "s'inscrire", "se connecter"],
    premium: &["premium", "abonnement", "adhésion"],
    age_warning: &["18", "adulte", "âge", "majeur"],
};

static PT: LanguagePack = LanguagePack {
    language: Language::Portuguese,
    affirmative: &["sim", "entrar", "concordo", "continuar", "aceitar"],
    privacy: &["privacidade", "política"],
    cookie: &["cookie", "cookies", "consentimento", "usamos cookies"],
    account: &["entrar", "registrar", "cadastre-se"],
    premium: &["premium", "assinatura"],
    age_warning: &["18", "adulto", "idade", "maior de idade"],
};

static RU: LanguagePack = LanguagePack {
    language: Language::Russian,
    affirmative: &["да", "войти", "согласен", "продолжить", "принять"],
    privacy: &["конфиденциальность", "политика"],
    cookie: &["cookie", "куки", "согласие", "мы используем файлы cookie"],
    account: &["войти", "регистрация"],
    premium: &["премиум", "подписка"],
    age_warning: &["18", "взрослый", "возраст", "совершеннолетний"],
};

static IT: LanguagePack = LanguagePack {
    language: Language::Italian,
    affirmative: &["sì", "entra", "accetto", "continua", "accettare"],
    privacy: &["privacy", "politica", "riservatezza"],
    cookie: &["cookie", "cookies", "consenso", "utilizziamo i cookie"],
    account: &["accedi", "registrati"],
    premium: &["premium", "abbonamento"],
    age_warning: &["18", "adulto", "età", "maggiorenne"],
};

static DE: LanguagePack = LanguagePack {
    language: Language::German,
    affirmative: &["ja", "eintreten", "zustimmen", "weiter", "akzeptieren"],
    privacy: &["datenschutz", "richtlinie"],
    cookie: &["cookie", "cookies", "einwilligung", "wir verwenden cookies"],
    account: &["anmelden", "registrieren", "einloggen"],
    premium: &["premium", "abonnement", "mitgliedschaft"],
    age_warning: &["18", "erwachsene", "alter", "volljährig"],
};

static RO: LanguagePack = LanguagePack {
    language: Language::Romanian,
    affirmative: &["da", "intră", "sunt de acord", "continuă", "accept"],
    privacy: &["confidențialitate", "politica"],
    cookie: &["cookie", "cookies", "consimțământ", "folosim cookie-uri"],
    account: &["autentificare", "înregistrare"],
    premium: &["premium", "abonament"],
    age_warning: &["18", "adult", "vârstă", "major"],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_languages_have_packs() {
        assert_eq!(Language::ALL.len(), 8);
        for l in Language::ALL {
            let p = pack(l);
            assert_eq!(p.language, l);
            assert!(!p.affirmative.is_empty());
            assert!(!p.privacy.is_empty());
        }
    }

    #[test]
    fn affirmative_matches_across_languages() {
        assert!(matches_affirmative("Click YES to enter"));
        assert!(matches_affirmative("Продолжить просмотр"));
        assert!(matches_affirmative("J'accepte les conditions"));
        assert!(!matches_affirmative("nothing relevant here"));
    }

    #[test]
    fn privacy_matches_across_languages() {
        assert!(matches_privacy("Privacy Policy"));
        assert!(matches_privacy("Política de privacidad"));
        assert!(matches_privacy("Datenschutzerklärung"));
        assert!(matches_privacy("Политика конфиденциальности"));
        assert!(!matches_privacy("video categories"));
    }

    #[test]
    fn cookie_and_account_and_premium() {
        assert!(matches_cookie("We use cookies to improve your experience"));
        assert!(matches_account("Sign Up for free"));
        assert!(matches_premium("Go Premium today"));
        assert!(matches_age_warning("You must be 18 years old"));
    }
}
