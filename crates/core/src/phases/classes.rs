//! Phase 3 (§3.4): embed character classes.
//!
//! For every regex that matches training hostnames, inspect what each
//! punctuation-exclusion component (`[^\.]+`, `[^-]+`) or wildcard (`.+`)
//! actually matched, and specialise it:
//!
//! * when every matched substring decomposes into the *same sequence* of
//!   character-type runs (letters, digits, hyphens), the component becomes
//!   that sequence — `[^\.]+` matching `pop7`, `lns3` becomes
//!   `[a-z]+\d+` (the paper's "bare" example shows this shape);
//! * otherwise the component becomes the smallest single class covering
//!   every character seen — `[^\.]+` matching `sgw`, `me1`, `tyo`
//!   becomes `[a-z\d]+` (Figure 4, regex #5 → #6);
//! * if the matches contain characters outside the class alphabet (a `.`
//!   under `.+`), the component is left alone.
//!
//! The specialised regex is added to the pool; the original stays.

use super::DISPATCH_MIN_CELLS;
use crate::regex::{CharClass, CompiledRegex, Elem, MultiMatcher, Regex};
use crate::training::HostObs;

/// Maximum run-sequence length worth emitting; longer sequences are
/// almost certainly over-fitted to a handful of hostnames.
const MAX_SEQUENCE: usize = 4;

/// Specialises each regex in `pool` against the matched hostnames.
/// Returns only the newly created regexes.
pub fn embed_classes(pool: &[Regex], hosts: &[HostObs]) -> Vec<Regex> {
    let mut out = if pool.len() * hosts.len() >= DISPATCH_MIN_CELLS {
        embed_dispatch(pool, hosts)
    } else {
        pool.iter()
            .filter_map(|r| specialise_hosts(r, hosts.iter()).filter(|s| s != r))
            .collect()
    };
    out.sort_by_cached_key(|r| r.to_string());
    out.dedup();
    out
}

/// The dispatch-filtered specialisation walk: one literal-dispatch scan
/// per host decides which regexes need to trace it at all. A host
/// missing a regex's required literal cannot match, so skipping it
/// leaves the collected substrings — and the specialised output —
/// identical to tracing every pair.
fn embed_dispatch(pool: &[Regex], hosts: &[HostObs]) -> Vec<Regex> {
    let programs: Vec<&CompiledRegex> = pool.iter().map(|r| r.program()).collect();
    let matcher = MultiMatcher::build(programs.iter().copied());
    let mut scratch = matcher.scratch();
    let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); pool.len()];
    for (hi, h) in hosts.iter().enumerate() {
        for &ri in matcher.dispatch(h.hostname.as_bytes(), &mut scratch) {
            candidates[ri as usize].push(hi as u32);
        }
    }
    let mut out = Vec::new();
    for (r, cand) in pool.iter().zip(&candidates) {
        let hs = cand.iter().map(|&hi| &hosts[hi as usize]);
        if let Some(s) = specialise_hosts(r, hs) {
            if &s != r {
                out.push(s);
            }
        }
    }
    out
}

/// Builds the specialised variant of one regex, or `None` when the regex
/// matched nothing or nothing could be specialised.
pub fn specialise(regex: &Regex, hosts: &[HostObs]) -> Option<Regex> {
    specialise_hosts(regex, hosts.iter())
}

fn specialise_hosts<'a>(
    regex: &Regex,
    hosts: impl Iterator<Item = &'a HostObs>,
) -> Option<Regex> {
    let elems = regex.elems();
    // Collected matched substrings per element index, borrowed from the
    // hostnames — specialisation only inspects them, so no copies.
    let mut matched: Vec<Vec<&'a str>> = vec![Vec::new(); elems.len()];
    let mut any = false;
    // The cached program amortises the compile over the whole hostname
    // set (and across phases).
    let program = regex.program();
    // Only the span buffer is needed (no captures), reused across the
    // whole hostname set — `find_trace_into` is the allocation-free
    // form of `find_trace`.
    let mut trace: Vec<(usize, usize)> = Vec::new();
    for h in hosts {
        if !program.find_trace_into(&h.hostname, &mut trace) {
            continue;
        }
        any = true;
        for (i, e) in elems.iter().enumerate() {
            if matches!(e, Elem::NotIn(_) | Elem::Any) {
                let (s, eo) = trace[i];
                matched[i].push(&h.hostname[s..eo]);
            }
        }
    }
    if !any {
        return None;
    }
    let mut changed = false;
    let mut new_elems: Vec<Elem> = Vec::new();
    for (i, e) in elems.iter().enumerate() {
        match e {
            Elem::NotIn(_) | Elem::Any if !matched[i].is_empty() => {
                match replacement(&matched[i]) {
                    Some(repl) => {
                        changed = true;
                        new_elems.extend(repl);
                    }
                    None => new_elems.push(e.clone()),
                }
            }
            _ => new_elems.push(e.clone()),
        }
    }
    if changed {
        Some(Regex::new(new_elems))
    } else {
        None
    }
}

/// Run type codes packed into [`RunSig::types`], two bits per run.
const RUN_LOWER: u32 = 0;
const RUN_DIGIT: u32 = 1;
const RUN_HYPHEN: u32 = 2;

/// Packed run decomposition of one sample: the run count, the run
/// types (two bits each, low-to-high), and a bitmask of the runs with
/// length exactly 1. `MAX_SEQUENCE` bounds the run count long before
/// either pack saturates.
#[derive(Clone, Copy)]
struct RunSig {
    n: u32,
    types: u32,
    len1: u32,
}

/// Decomposes `s` into its run signature in one allocation-free pass.
/// `None` when `s` leaves the run alphabet or needs more than `cap`
/// runs — callers compare against a first sample with at most `cap`
/// runs, so a longer decomposition can never match anyway.
fn run_sig(s: &str, cap: u32) -> Option<RunSig> {
    let mut sig = RunSig { n: 0, types: 0, len1: 0 };
    let mut prev = u32::MAX;
    let mut run_len = 0u32;
    for &b in s.as_bytes() {
        let t = match b {
            b'a'..=b'z' => RUN_LOWER,
            b'0'..=b'9' => RUN_DIGIT,
            b'-' => RUN_HYPHEN,
            _ => return None,
        };
        if t == prev {
            run_len += 1;
            continue;
        }
        if sig.n > 0 && run_len == 1 {
            sig.len1 |= 1 << (sig.n - 1);
        }
        if sig.n == cap {
            return None;
        }
        sig.types |= t << (2 * sig.n);
        sig.n += 1;
        prev = t;
        run_len = 1;
    }
    if sig.n > 0 && run_len == 1 {
        sig.len1 |= 1 << (sig.n - 1);
    }
    Some(sig)
}

/// Decides the replacement elements for a component that matched
/// `samples`. `None` when no specialisation is possible.
fn replacement(samples: &[&str]) -> Option<Vec<Elem>> {
    // Try the common run-type sequence first.
    if let Some(repl) = sequence_replacement(samples) {
        return Some(repl);
    }
    // Fall back to a single covering class.
    let mut class = CharClass::EMPTY;
    for &s in samples {
        class = class.union(CharClass::covering(s)?);
    }
    if class.is_empty() {
        return None;
    }
    if class.digit && !class.lower && !class.hyphen {
        Some(vec![Elem::Digits])
    } else {
        Some(vec![Elem::Class(class)])
    }
}

/// Replacement via the shared run-type sequence: when every sample
/// decomposes into the identical sequence of 2..=MAX_SEQUENCE runs,
/// render that sequence as elements. Hyphen runs become a literal `-`
/// when every sample has a single hyphen there, else a hyphen class.
/// One packed [`run_sig`] pass per sample covers both the sequence
/// check and the run-length-1 test.
fn sequence_replacement(samples: &[&str]) -> Option<Vec<Elem>> {
    let mut iter = samples.iter();
    let first = run_sig(iter.next()?, MAX_SEQUENCE as u32)?;
    if first.n <= 1 {
        return None;
    }
    // Per position, whether every sample's run has length 1.
    let mut len1 = first.len1;
    for &s in iter {
        let sig = run_sig(s, first.n)?;
        if sig.n != first.n || sig.types != first.types {
            return None;
        }
        len1 &= sig.len1;
    }
    Some(
        (0..first.n)
            .map(|i| match (first.types >> (2 * i)) & 3 {
                RUN_LOWER => Elem::Class(CharClass { lower: true, digit: false, hyphen: false }),
                RUN_DIGIT => Elem::Digits,
                RUN_HYPHEN if len1 >> i & 1 == 1 => Elem::Lit("-".to_string()),
                _ => Elem::Class(CharClass { lower: false, digit: false, hyphen: true }),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Observation;

    fn hosts(rows: &[(&str, u32)], suffix: &str) -> Vec<HostObs> {
        rows.iter()
            .map(|&(h, a)| HostObs::build(&Observation::new(h, [192, 0, 2, 9], a), suffix))
            .collect()
    }

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn figure4_regex5_becomes_regex6() {
        let hs = hosts(
            &[
                ("109.sgw.equinix.com", 109),
                ("714.os.equinix.com", 714),
                ("714.me1.equinix.com", 714),
                ("p714.sgw.equinix.com", 714),
                ("s714.sgw.equinix.com", 714),
                ("p24115.mel.equinix.com", 24115),
                ("s24115.tyo.equinix.com", 24115),
            ],
            "equinix.com",
        );
        let pool = vec![rx(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn sequence_inference_letters_then_digits() {
        let hs = hosts(
            &[("605.pop7.example.com", 605), ("923.lns3.example.com", 923)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z]+\d+\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn dot_under_any_blocks_specialisation() {
        let hs = hosts(&[("100-a.b.example.com", 100)], "example.com");
        let pool = vec![rx(r"^(\d+)-.+\.example\.com$")];
        // `.+` matched "a.b": contains a dot, cannot become a class.
        assert!(embed_classes(&pool, &hs).is_empty());
    }

    #[test]
    fn any_specialises_when_dot_free() {
        let hs = hosts(
            &[("100-ae1.example.com", 100), ("200-xe2.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)-.+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(strings.iter().any(|s| s == r"^(\d+)-[a-z]+\d+\.example\.com$"), "{strings:?}");
    }

    #[test]
    fn unmatched_regex_yields_nothing() {
        let hs = hosts(&[("as100.x.example.com", 100)], "example.com");
        let pool = vec![rx(r"^zz(\d+)\.example\.com$")];
        assert!(embed_classes(&pool, &hs).is_empty());
    }

    #[test]
    fn digit_only_component_becomes_digits() {
        let hs = hosts(
            &[("a.7.as100.example.com", 100), ("b.31.as200.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^[^\.]+\.[^\.]+\.as(\d+)\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^[a-z]+\.\d+\.as(\d+)\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn hyphen_sequence_with_constant_hyphen() {
        // [^\.]+ matching "fr5-ix" and "dc2-ix": sequence letters, digits,
        // literal hyphen, letters.
        let hs = hosts(
            &[("100.fr5-ix.example.com", 100), ("200.dc2-ix.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z]+\d+-[a-z]+\.example\.com$"),
            "{strings:?}"
        );
    }

    #[test]
    fn mixed_structures_fall_back_to_covering_class() {
        let hs = hosts(
            &[("100.fr5-ix.example.com", 100), ("200.tyo.example.com", 200)],
            "example.com",
        );
        let pool = vec![rx(r"^(\d+)\.[^\.]+\.example\.com$")];
        let new = embed_classes(&pool, &hs);
        let strings: Vec<String> = new.iter().map(|r| r.to_string()).collect();
        assert!(
            strings.iter().any(|s| s == r"^(\d+)\.[a-z\d-]+\.example\.com$"),
            "{strings:?}"
        );
    }

    /// The dispatch-filtered pool walk in `embed_classes` produces the
    /// same output as specialising every regex against every host.
    #[test]
    fn dispatch_filtered_embed_equals_naive_specialise() {
        let hs = hosts(
            &[
                ("109.sgw.equinix.com", 109),
                ("p714.sgw.equinix.com", 714),
                ("100-ae1.example.com", 100),
                ("200-xe2.example.com", 200),
                ("605.pop7.example.com", 605),
                ("923.lns3.example.com", 923),
            ],
            "example.com",
        );
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[^\.]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.example\.com$"),
            rx(r"^(\d+)\.[^\.]+\.example\.com$"),
            rx(r"(\d+)-[^\.]+"), // literal-free: rides the fallback bucket
        ];
        let mut naive: Vec<Regex> = pool
            .iter()
            .filter_map(|r| specialise(r, &hs).filter(|s| s != r))
            .collect();
        naive.sort_by_key(|r| r.to_string());
        naive.dedup();
        // `embed_dispatch` directly: the fixture sits far below
        // `DISPATCH_MIN_CELLS`, where `embed_classes` takes the naive
        // path itself and the comparison would test nothing.
        let mut dispatched = embed_dispatch(&pool, &hs);
        dispatched.sort_by_cached_key(|r| r.to_string());
        dispatched.dedup();
        assert_eq!(dispatched, naive);
        assert_eq!(embed_classes(&pool, &hs), naive);
    }

    #[test]
    fn already_specialised_unchanged() {
        let hs = hosts(&[("100.abc.example.com", 100)], "example.com");
        let pool = vec![rx(r"^(\d+)\.[a-z]+\.example\.com$")];
        assert!(embed_classes(&pool, &hs).is_empty());
    }
}
