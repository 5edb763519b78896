//! Business-model classification (§4.1).
//!
//! Semi-automatic, like the paper: landing pages are scanned for account
//! ("Log In"/"Sign Up") and premium keywords across the eight languages;
//! sites advertising a subscription are then labeled *free* vs *paid* — the
//! keyword pass reads the premium page for paywall markers, and a manual
//! labeling callback can override it (the paper's human inspection).

use redlight_crawler::db::InteractionRecord;
use redlight_text::stats::pct;

/// Subscription label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscription {
    /// Content unlocks after free registration.
    Free,
    /// Content sits behind a paywall.
    Paid,
}

/// Keyword-based paywall heuristic over a premium page.
pub fn paywall_heuristic(premium_page: &str) -> Subscription {
    let lower = premium_page.to_lowercase();
    let paid = premium_page.contains('$')
        || lower.contains("payment required")
        || lower.contains("checkout")
        || lower.contains("per month")
        || lower.contains("/ month");
    if paid {
        Subscription::Paid
    } else {
        Subscription::Free
    }
}

/// §4.1 aggregate.
#[derive(Debug, Clone)]
pub struct MonetizationReport {
    /// Sites.
    pub sites: usize,
    /// Sites offering account creation.
    pub with_accounts: usize,
    /// Sites advertising subscriptions.
    pub with_subscription: usize,
    /// With subscription percentage.
    pub with_subscription_pct: f64,
    /// Of the subscription sites, those behind a paywall.
    pub paid: usize,
    /// PaID percentage.
    pub paid_pct: f64,
    /// Heuristic labels the manual pass overrode.
    pub manual_overrides: usize,
}

/// The manual-labeling callback (the paper's human inspection step).
pub type ManualLabel<'a> = &'a dyn Fn(&str) -> Option<Subscription>;

/// Builds the report. `manual_label` plays the paper's human labeling step;
/// pass `None` to rely on the keyword heuristic alone.
pub fn report(
    interactions: &[InteractionRecord],
    manual_label: Option<ManualLabel<'_>>,
) -> MonetizationReport {
    let reachable: Vec<&InteractionRecord> = interactions.iter().filter(|r| r.reachable).collect();
    let with_accounts = reachable.iter().filter(|r| r.login_signal).count();
    let subs: Vec<&&InteractionRecord> = reachable.iter().filter(|r| r.premium_signal).collect();

    let mut paid = 0usize;
    let mut overrides = 0usize;
    for rec in &subs {
        let heuristic = rec
            .premium_page
            .as_deref()
            .map(paywall_heuristic)
            .unwrap_or(Subscription::Free);
        let label = match manual_label.and_then(|f| f(&rec.domain)) {
            Some(manual) => {
                if manual != heuristic {
                    overrides += 1;
                }
                manual
            }
            None => heuristic,
        };
        if label == Subscription::Paid {
            paid += 1;
        }
    }

    MonetizationReport {
        sites: reachable.len(),
        with_accounts,
        with_subscription: subs.len(),
        with_subscription_pct: pct(subs.len(), reachable.len().max(1)),
        paid,
        paid_pct: pct(paid, subs.len().max(1)),
        manual_overrides: overrides,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paywall_markers() {
        assert_eq!(
            paywall_heuristic("Checkout: $29.99 / month"),
            Subscription::Paid
        );
        assert_eq!(
            paywall_heuristic("Free registration unlocks everything"),
            Subscription::Free
        );
    }
}
