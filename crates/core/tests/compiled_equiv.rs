//! Equivalence checks for the compiled regex engine and the §3.1
//! classification built on it:
//!
//! * the compiled program against the tree-walking interpreter
//!   (`hoiho_fuzz::oracle`) on `find`, `find_trace`, `extract` and
//!   `is_match`, plus the allocation-free entry points against the
//!   allocating ones, on fixed regexes and hostnames;
//! * classification (`classify_host`, `evaluate`, `regex_hit_cached`)
//!   against the interpreter's classification on corpora that exercise
//!   every §3.1 rule — typo congruence, embedded-IP overlap, oversized digit
//!   runs;
//! * `CompiledConvention` against the interpreter's first-match-wins
//!   extraction.
//!
//! The whole-pipeline gates (outcome matrix vs the direct sets oracle,
//! dispatched vs undispatched columns, fixed-seed determinism) need the
//! learner's private sets builders and live with its unit tests in
//! `src/learner.rs`.

use hoiho::convention::NamingConvention;
use hoiho::eval::{classify_host, evaluate, negative_outcome, regex_hit_cached};
use hoiho::regex::{CompiledRegex, Regex};
use hoiho::training::{HostObs, Observation};
use hoiho_fuzz::oracle;

fn rx(s: &str) -> Regex {
    Regex::parse(s).unwrap()
}

/// Hostnames that exercise every classification rule: exact congruence,
/// the typo rule, embedded-IP overlap (congruent digits that are part
/// of the interface's own address), incongruence, oversized digit
/// runs, unmatched-with-apparent (FN), and unmatched-plain (TN).
fn tricky_hosts() -> Vec<HostObs> {
    let rows: &[(&str, [u8; 4], u32, &str)] = &[
        ("as15576.nts.ch", [1, 1, 1, 1], 15576, "nts.ch"),
        ("as24940.akl-ix.nz", [1, 1, 1, 2], 20940, "akl-ix.nz"),
        (
            "50-236-216-122-static.hfc.comcastbusiness.net",
            [50, 236, 216, 122],
            122,
            "comcastbusiness.net",
        ),
        ("as44879.nts.ch", [1, 1, 1, 3], 15576, "nts.ch"),
        ("as99999999999.pop1.example.com", [1, 1, 1, 4], 100, "example.com"),
        ("p714.sgw.equinix.com", [1, 1, 1, 5], 714, "equinix.com"),
        ("24482-fr5-ix.equinix.com", [1, 1, 1, 6], 24482, "equinix.com"),
        ("netflix.zh2.corp.eu.equinix.com", [1, 1, 1, 7], 2906, "equinix.com"),
        ("core1.nts.ch", [1, 1, 1, 8], 15576, "nts.ch"),
        ("", [1, 1, 1, 9], 1, ""),
    ];
    rows.iter()
        .map(|&(h, addr, asn, sfx)| HostObs::build(&Observation::new(h, addr, asn), sfx))
        .collect()
}

fn tricky_sets() -> Vec<Vec<Regex>> {
    vec![
        vec![rx(r"as(\d+)\.nts\.ch$")],
        vec![rx(r"^as(\d+)\.akl-ix\.nz$")],
        vec![rx(r"(\d+)-static\.hfc\.comcastbusiness\.net$")],
        vec![rx(r"^as(\d+)\.[a-z\d]+\.example\.com$")],
        vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ],
        // A captureless regex first: the set must fall through past it.
        vec![rx(r"^\d+\.[a-z]+\."), rx(r"(\d+)")],
        vec![],
    ]
}

#[test]
fn compiled_classification_equals_interpreter_on_tricky_corpora() {
    let hosts = tricky_hosts();
    for set in tricky_sets() {
        for h in &hosts {
            let want = oracle::classify_host(&set, h);
            assert_eq!(want, classify_host(&set, h), "set {set:?} on {:?}", h.hostname);
        }
        assert_eq!(oracle::evaluate(&set, &hosts), evaluate(&set, &hosts), "{set:?}");
    }
}

/// `regex_hit_cached` is the single-regex column cell: `Some(outcome)`
/// exactly when a one-regex set would resolve the host, with the same
/// outcome, also when a set's regexes share one host's span cache.
#[test]
fn regex_hit_agrees_with_single_regex_classification() {
    let hosts = tricky_hosts();
    for set in tricky_sets() {
        for h in &hosts {
            let mut cache = None;
            for r in &set {
                let want = oracle::classify_host(std::slice::from_ref(r), h);
                let got = regex_hit_cached(r.program(), h, &mut cache)
                    .unwrap_or_else(|| negative_outcome(h));
                assert_eq!(got, want, "{r} on {:?}", h.hostname);
            }
        }
    }
}

/// The compiled program agrees with the interpreter on `find`,
/// `find_trace`, `extract` and `is_match`, and its allocation-free entry
/// points (`match_capture`, `find_trace_into`) with its allocating ones.
fn assert_agrees(r: &Regex, host: &str) {
    let c = CompiledRegex::compile(r);
    let want = oracle::find(r, host);
    assert_eq!(c.find(host), want, "{r} on {host:?}");
    assert_eq!(c.find_trace(host), oracle::find_trace(r, host), "{r} on {host:?} (trace)");
    let want_extract = want.as_ref().and_then(|m| m.capture(host, 0));
    assert_eq!(c.extract(host), want_extract, "{r} on {host:?} (extract)");
    assert_eq!(c.is_match(host), want.is_some(), "{r} on {host:?} (is_match)");
    // The `Regex` entry points run the same program.
    assert_eq!(r.find(host), want, "{r} on {host:?} (Regex::find)");
    assert_eq!(r.extract(host), want_extract, "{r} on {host:?} (Regex::extract)");
    assert_eq!(r.is_match(host), want.is_some(), "{r} on {host:?} (Regex::is_match)");
    assert_eq!(
        c.match_capture(host),
        c.find(host).map(|m| m.captures.first().copied()),
        "{r} on {host:?} (match_capture)"
    );
    let mut spans = Vec::new();
    let matched = c.find_trace_into(host, &mut spans);
    match c.find_trace(host) {
        Some((_, trace)) => {
            assert!(matched, "{r} on {host:?} (find_trace_into missed)");
            assert_eq!(spans, trace, "{r} on {host:?} (find_trace_into spans)");
        }
        None => assert!(!matched, "{r} on {host:?} (find_trace_into phantom)"),
    }
}

#[test]
fn paper_regexes_agree_on_corpus() {
    let regexes = [
        r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$",
        r"^(\d+)-.+\.equinix\.com$",
        r"as(\d+)\.nts\.ch$",
        r"^(\d+)\.[a-z]+\d+\.example\.com$",
        r"^(\d+)-[^-]+-[^-]+\.equinix\.com$",
        r"[a-z\d]+\.as(\d+)\.example\.com$",
    ];
    let hosts = [
        "p714.sgw.equinix.com",
        "s24115.tyo.equinix.com",
        "24482-fr5-ix.equinix.com",
        "ge0-2.01.p.ost.ch.as15576.nts.ch",
        "netflix.zh2.corp.eu.equinix.com",
        "605.pop7.example.com",
        "abc1.as100.example.com",
        "",
        "equinix.com",
        "x.y",
    ];
    for r in &regexes {
        let r = rx(r);
        for h in &hosts {
            assert_agrees(&r, h);
        }
    }
}

/// `as(\d+)` prunes start offsets to `a` bytes; the pruning only skips
/// offsets that cannot match.
#[test]
fn start_set_pruning_agrees_with_interpreter() {
    let r = rx(r"as(\d+)");
    for host in ["xxas123yy", "as1", "bs2", "aas5", "a", ""] {
        assert_agrees(&r, host);
    }
}

/// An optional first alternation is zero-width at any offset, so every
/// offset is scanned.
#[test]
fn optional_first_element_agrees_with_interpreter() {
    let r = rx(r"(?:p|s)?(\d+)");
    for host in ["p714", "714", "x714", "sp12", ""] {
        assert_agrees(&r, host);
    }
}

#[test]
fn empty_regex_matches_empty_at_zero() {
    let r = Regex::new(vec![]);
    assert_agrees(&r, "");
    assert_agrees(&r, "abc");
}

/// A digit run split across capture and literal backtracks the same way
/// in both engines.
#[test]
fn backtracking_and_captures_identical() {
    for r in [r"(\d+)1\.x$", r"^[^\.]+(\d+)$", r"(\d+)(\d+)x"] {
        let r = rx(r);
        for host in ["12341.x", "abc123", "1231x", "11x", "1x"] {
            assert_agrees(&r, host);
        }
    }
}

/// `Alt` options are tried in the order written: the first option that
/// lets the rest of the pattern match wins. With options sharing a
/// prefix the order moves the capture — `1` first leaves `234` for
/// `(\d+)`, where `12` first would leave `34`.
#[test]
fn alternation_options_are_tried_in_written_order() {
    let r = rx(r"^(?:1|12)(\d+)\.example\.com$");
    let host = "1234.example.com";
    assert_eq!(CompiledRegex::compile(&r).extract(host), Some("234"));
    assert_eq!(r.extract(host), Some("234"));
    assert_eq!(oracle::find(&r, host).and_then(|m| m.capture(host, 0)), Some("234"));
    assert_agrees(&r, host);
}

/// `CompiledConvention` and `NamingConvention` extract what the
/// interpreter's first-match-wins walk does: the first regex matching
/// with a capture decides, and digits past the 32-bit ASN space yield
/// `None`.
#[test]
fn compiled_convention_matches_interpreter() {
    let c = NamingConvention::new(
        "equinix.com",
        vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ],
    );
    let cc = c.compile();
    assert_eq!(cc.suffix(), "equinix.com");
    for h in [
        "p714.sgw.equinix.com",
        "24482-fr5-ix.equinix.com",
        "netflix.zh2.corp.eu.equinix.com",
        "S714.SGW.EQUINIX.COM",
        "99999999999.sgw.equinix.com",
        "",
    ] {
        let lower = h.to_ascii_lowercase();
        let digits = c.regexes.iter().find_map(|r| oracle::find(r, &lower)?.capture(&lower, 0));
        let want = digits.and_then(|d| d.parse::<u32>().ok());
        let matches = c.regexes.iter().any(|r| oracle::find(r, &lower).is_some());
        assert_eq!(cc.extract(h), want, "{h:?}");
        assert_eq!(cc.extract_lower(&lower), want, "{h:?}");
        assert_eq!(c.extract(h), want, "{h:?}");
        assert_eq!(cc.matches(h), matches, "{h:?}");
        assert_eq!(c.matches(h), matches, "{h:?}");
    }
}
