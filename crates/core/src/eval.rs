//! Regex and convention evaluation: the §3.1 classification rules and the
//! ATP ranking metric.
//!
//! Per hostname, against a regex (or ordered set of regexes):
//!
//! * **TP** — the extraction is congruent with the training ASN (exactly,
//!   or via the typo rule in [`crate::apparent::congruence`]) and is not
//!   part of an embedded IP address.
//! * **FP** — an extraction happened but is incongruent, or overlaps an
//!   embedded representation of the interface's own address (Figure 3b).
//! * **FN** — no extraction, but the hostname contains an apparent ASN.
//! * **TN** — no extraction and no apparent ASN (no penalty, no credit).
//!
//! The ranking metric is **ATP = TP − (FP + FN)** — deliberately punishing
//! missed hostnames, because the goal is a convention matching as many
//! hostnames as possible rather than maximising PPV on a subset (§3.1).

use crate::apparent::congruence;
use crate::iputil::overlaps_any;
use crate::regex::{CompiledRegex, Regex};
use crate::training::HostObs;

/// Per-hostname evaluation outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Extraction congruent with the training ASN. Carries the extracted
    /// value (the literal digits parsed, not the training ASN).
    TruePositive(u32),
    /// Extraction incongruent, or part of an embedded IP address.
    FalsePositive(u32),
    /// No extraction, but an apparent ASN was present.
    FalseNegative,
    /// No extraction and no apparent ASN.
    TrueNegative,
}

impl Outcome {
    /// The extracted value, for TP or FP outcomes.
    pub fn extracted(&self) -> Option<u32> {
        match *self {
            Outcome::TruePositive(v) | Outcome::FalsePositive(v) => Some(v),
            _ => None,
        }
    }
}

/// Aggregate counts over a hostname set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// True positives.
    pub tp: u32,
    /// False positives.
    pub fp: u32,
    /// False negatives.
    pub fnn: u32,
    /// True negatives (unmatched hostnames without an apparent ASN).
    pub tn: u32,
    /// Distinct training ASNs among TP hostnames — the "unique ASNs
    /// congruent with training data" of §4's classification rules.
    /// Kept sorted ascending and deduplicated (set semantics on a flat
    /// vector: bulk column folds move their already-sorted uniques in
    /// without per-node allocation).
    pub unique_tp_asns: Vec<u32>,
    /// Distinct extracted values across TPs and FPs. Sorted ascending
    /// and deduplicated, like `unique_tp_asns`.
    pub unique_extracted: Vec<u32>,
}

impl Counts {
    /// Absolute true positives: `TP − (FP + FN)` (§3.1).
    pub fn atp(&self) -> i64 {
        i64::from(self.tp) - (i64::from(self.fp) + i64::from(self.fnn))
    }

    /// Positive predictive value `TP / (TP + FP)`; 0 when nothing matched.
    pub fn ppv(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            f64::from(self.tp) / f64::from(denom)
        }
    }

    /// Number of hostnames the convention matched.
    pub fn matched(&self) -> u32 {
        self.tp + self.fp
    }

    /// Total hostnames evaluated.
    pub fn total(&self) -> u32 {
        self.tp + self.fp + self.fnn + self.tn
    }

    pub(crate) fn record(&mut self, host: &HostObs, outcome: Outcome) {
        match outcome {
            Outcome::TruePositive(v) => {
                self.tp += 1;
                insert_unique(&mut self.unique_tp_asns, host.training_asn);
                insert_unique(&mut self.unique_extracted, v);
            }
            Outcome::FalsePositive(v) => {
                self.fp += 1;
                insert_unique(&mut self.unique_extracted, v);
            }
            Outcome::FalseNegative => self.fnn += 1,
            Outcome::TrueNegative => self.tn += 1,
        }
    }
}

/// Sorted-unique insert for the flat set vectors of [`Counts`].
fn insert_unique(v: &mut Vec<u32>, x: u32) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

/// The §3.1 outcome once a regex has matched `host` with a capture at
/// byte range `s..e`.
fn classify_capture(host: &HostObs, s: usize, e: usize) -> Outcome {
    let digits = &host.hostname[s..e];
    // Extracted numbers longer than an u32 can never be ASNs; treat
    // them as incongruent extractions.
    let value = digits.parse::<u64>().unwrap_or(u64::MAX);
    let value32 = u32::try_from(value.min(u64::from(u32::MAX))).unwrap_or(u32::MAX);
    if overlaps_any(&host.ip_spans, s, e) {
        return Outcome::FalsePositive(value32);
    }
    if congruence(digits, host.training_asn).is_congruent() {
        return Outcome::TruePositive(value32);
    }
    Outcome::FalsePositive(value32)
}

/// The outcome of a hostname no regex in the set claimed.
pub fn negative_outcome(host: &HostObs) -> Outcome {
    if host.has_apparent() {
        Outcome::FalseNegative
    } else {
        Outcome::TrueNegative
    }
}

/// Classifies one hostname against an ordered list of regexes
/// (first-match-wins, the semantics of a convention set), running each
/// regex's cached compiled program.
pub fn classify_host(regexes: &[Regex], host: &HostObs) -> Outcome {
    for r in regexes {
        // `match_capture` is the allocation-free cell primitive: a
        // captureless match falls through exactly like `find` + an
        // empty capture list would.
        let Some(cap) = r.program().match_capture(&host.hostname) else { continue };
        if let Some((s, e)) = cap {
            return classify_capture(host, s, e);
        }
    }
    negative_outcome(host)
}

/// The per-regex "column cell" of the learner's outcome matrix: `Some`
/// exactly when `program` would decide this host's outcome in a set
/// (matched with a capture), `None` when the set falls through.
///
/// Pools of sibling regexes overwhelmingly extract the *same* span from
/// a given host, and classification (digit parse, IP-overlap,
/// congruence) depends only on the span — so a caller evaluating many
/// programs against one host passes a one-entry span cache and the
/// previous outcome is reused whenever the span repeats. Reset the cache
/// (or pass a fresh `None`) per host.
pub fn regex_hit_cached(
    program: &CompiledRegex,
    host: &HostObs,
    cache: &mut Option<((usize, usize), Outcome)>,
) -> Option<Outcome> {
    let (s, e) = program.match_capture(&host.hostname)??;
    if let Some((span, out)) = cache {
        if *span == (s, e) {
            return Some(*out);
        }
    }
    let out = classify_capture(host, s, e);
    *cache = Some(((s, e), out));
    Some(out)
}

/// Evaluates an ordered regex list over a hostname set.
pub fn evaluate(regexes: &[Regex], hosts: &[HostObs]) -> Counts {
    let mut c = Counts::default();
    for h in hosts {
        c.record(h, classify_host(regexes, h));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Observation;

    fn host(hostname: &str, addr: [u8; 4], asn: u32) -> HostObs {
        HostObs::build(&Observation::new(hostname, addr, asn), suffix_of(hostname))
    }

    // Tests use two-label suffixes ending .com / .ch / .net etc.
    fn suffix_of(hostname: &str) -> &str {
        let parts: Vec<&str> = hostname.rsplitn(3, '.').collect();
        // parts = [tld, dom, rest...] reversed
        if parts.len() >= 2 {
            let idx = hostname.len() - parts[0].len() - parts[1].len() - 1;
            &hostname[idx..]
        } else {
            hostname
        }
    }

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn tp_exact() {
        let h = host("as15576.nts.ch", [1, 1, 1, 1], 15576);
        let o = classify_host(&[rx(r"as(\d+)\.nts\.ch$")], &h);
        assert_eq!(o, Outcome::TruePositive(15576));
    }

    #[test]
    fn tp_typo() {
        let h = host("as24940.akl-ix.nz", [1, 1, 1, 1], 20940);
        let o = classify_host(&[rx(r"^as(\d+)\.akl-ix\.nz$")], &h);
        assert_eq!(o, Outcome::TruePositive(24940));
    }

    #[test]
    fn fp_incongruent() {
        let h = host("as15576.nts.ch", [1, 1, 1, 1], 44879);
        let o = classify_host(&[rx(r"as(\d+)\.nts\.ch$")], &h);
        assert_eq!(o, Outcome::FalsePositive(15576));
    }

    #[test]
    fn fp_embedded_ip_even_when_congruent() {
        // Training ASN 122 coincides with the last octet (Figure 3b).
        let h = host(
            "50-236-216-122-static.hfc.comcastbusiness.net",
            [50, 236, 216, 122],
            122,
        );
        let o = classify_host(&[rx(r"(\d+)-static\.hfc\.comcastbusiness\.net$")], &h);
        assert_eq!(o, Outcome::FalsePositive(122));
    }

    #[test]
    fn fn_when_apparent_unmatched() {
        let h = host("as15576.nts.ch", [1, 1, 1, 1], 15576);
        let o = classify_host(&[rx(r"^x(\d+)\.nts\.ch$")], &h);
        assert_eq!(o, Outcome::FalseNegative);
    }

    #[test]
    fn tn_when_no_apparent() {
        let h = host("core1.nts.ch", [1, 1, 1, 1], 15576);
        let o = classify_host(&[rx(r"as(\d+)\.nts\.ch$")], &h);
        assert_eq!(o, Outcome::TrueNegative);
    }

    #[test]
    fn first_match_wins_in_sets() {
        let h = host("p714.sgw.equinix.com", [1, 1, 1, 1], 714);
        let set = [rx(r"^p(\d+)\.[^\.]+\.equinix\.com$"), rx(r"(\d+)")];
        assert_eq!(classify_host(&set, &h), Outcome::TruePositive(714));
        // Reversed order: the catch-all fires first and grabs "714" too.
        let set = [rx(r"p(\d+)\."), rx(r"^x(\d+)$")];
        assert_eq!(classify_host(&set, &h), Outcome::TruePositive(714));
    }

    #[test]
    fn counts_and_metrics() {
        let hosts = vec![
            host("as100.x.example.com", [1, 1, 1, 1], 100),
            host("as200.x.example.com", [1, 1, 1, 2], 200),
            host("as300.x.example.com", [1, 1, 1, 3], 999), // FP
            host("as400.y.example.com", [1, 1, 1, 4], 400), // FN (regex needs .x.)
            host("plain.x.example.com", [1, 1, 1, 5], 500), // TN
        ];
        let c = evaluate(&[rx(r"^as(\d+)\.x\.example\.com$")], &hosts);
        assert_eq!((c.tp, c.fp, c.fnn, c.tn), (2, 1, 1, 1));
        assert_eq!(c.atp(), 0);
        assert!((c.ppv() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.matched(), 3);
        assert_eq!(c.total(), 5);
        assert_eq!(c.unique_tp_asns.len(), 2);
        assert_eq!(c.unique_extracted.len(), 3);
    }

    #[test]
    fn empty_set_all_negative() {
        let hosts = vec![
            host("as100.x.example.com", [1, 1, 1, 1], 100),
            host("plain.x.example.com", [1, 1, 1, 2], 100),
        ];
        let c = evaluate(&[], &hosts);
        assert_eq!((c.tp, c.fp, c.fnn, c.tn), (0, 0, 1, 1));
        assert_eq!(c.ppv(), 0.0);
    }

    #[test]
    fn oversized_extraction_is_fp() {
        let h = host("as99999999999.x.example.com", [1, 1, 1, 1], 100);
        let o = classify_host(&[rx(r"^as(\d+)\.x\.example\.com$")], &h);
        assert!(matches!(o, Outcome::FalsePositive(_)));
    }
}
