//! Suffix lookup and dispatch: the trie walk of
//! [`PublicSuffixList`]/[`SuffixIndex`] vs the flat rule scan it
//! replaced.
//!
//! Case layout: PSL rule lines, a blank separator line, suffix-key
//! lines, another blank line, then host lines. Oracle, per host:
//!
//! 1. `lookup` and `registrable_str` equal the flat scan's `lookup`
//!    (publicsuffix.org rules, wildcards and exceptions, with overlaps);
//! 2. on the lowercased host, `SuffixIndex::walk` over the keys
//!    dispatches exactly as probing a key map with the registrable
//!    domain first, then every label suffix longest-first — the
//!    two-step dispatch the engine and the cluster router used to
//!    spell out.

use super::{Target, HOSTCHARS};
use crate::input::FuzzInput;
use hoiho_psl::{Dispatch, PublicSuffixList};
use std::collections::HashMap;

/// Labels drawn for rules, keys and hosts alike, so they overlap.
const LABELS: &[&str] = &["ck", "www", "nz", "co", "org", "com", "a", "b", "kobe", "jp"];

pub struct PslTarget;

/// A label: from the shared pool, occasionally random, uppercase, or
/// empty (which spells a doubled, leading or trailing dot).
fn label(input: &mut FuzzInput) -> String {
    let l = match input.below(10) {
        0 => String::new(),
        1 => input.token(HOSTCHARS, 1, 4),
        _ => input.pick(LABELS).to_string(),
    };
    if input.chance(10) {
        l.to_ascii_uppercase()
    } else {
        l
    }
}

/// A name of `lo..=hi` fresh labels, half the time prepended to an
/// earlier name so rules, keys and hosts nest inside each other.
fn name(input: &mut FuzzInput, stems: &mut Vec<String>, lo: u64, hi: u64) -> String {
    let labels: Vec<String> = (0..input.range(lo, hi)).map(|_| label(input)).collect();
    let mut name = labels.join(".");
    if !stems.is_empty() && input.chance(50) {
        let stem = input.pick(stems);
        name = if name.is_empty() { stem.clone() } else { format!("{name}.{stem}") };
    }
    stems.push(name.clone());
    name
}

impl Target for PslTarget {
    fn name(&self) -> &'static str {
        "psl"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let mut case = String::new();
        let mut stems = Vec::new();
        for _ in 0..input.range(0, 8) {
            let prefix = *input.pick(&["", "", "*.", "!", "// "]);
            let rule = name(input, &mut stems, 1, 3);
            if !rule.is_empty() {
                case.push_str(&format!("{prefix}{rule}\n"));
            }
        }
        case.push('\n');
        for _ in 0..input.range(0, 6) {
            let key = name(input, &mut stems, 1, 3);
            if !key.is_empty() {
                case.push_str(&key);
                case.push('\n');
            }
        }
        case.push('\n');
        for _ in 0..input.range(1, 8) {
            case.push_str(&name(input, &mut stems, 0, 3));
            case.push('\n');
        }
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(());
        };
        let mut lines = text.lines();
        let rules: Vec<&str> = lines.by_ref().take_while(|l| !l.is_empty()).collect();
        let keys: Vec<&str> = lines.by_ref().take_while(|l| !l.is_empty()).collect();
        let rules = rules.join("\n");
        let psl = PublicSuffixList::parse(&rules);
        let flat = FlatPsl::parse(&rules);
        if psl.len() != flat.len() {
            return Err(format!("rule count {} vs flat {}", psl.len(), flat.len()));
        }
        let index = psl.index(keys.iter().enumerate().map(|(i, k)| (*k, i)));
        let by_key: HashMap<&str, usize> = keys.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        for host in lines {
            let want = flat.lookup(host);
            let got = psl.lookup(host).map(|m| (m.suffix_labels, m.public_suffix, m.registrable));
            if got != want {
                return Err(format!("lookup({host:?}) = {got:?}, flat scan {want:?}"));
            }
            let borrowed = psl.registrable_str(host).map(str::to_ascii_lowercase);
            if borrowed != flat.registrable_domain(host) {
                return Err(format!("registrable_str({host:?}) = {borrowed:?}"));
            }
            let lower = host.to_ascii_lowercase();
            let rd = flat.registrable_domain(&lower);
            let want = match rd.as_deref().and_then(|rd| by_key.get(rd)) {
                Some(&i) => Dispatch::Exact(i),
                None => match label_suffixes(&lower).find_map(|s| by_key.get(s)) {
                    Some(&i) => Dispatch::Fallback(i),
                    None => Dispatch::Miss,
                },
            };
            let walk = index.walk(&lower);
            if walk.dispatch != want || walk.registrable != rd.as_deref() {
                return Err(format!(
                    "walk({lower:?}) = {:?} via {:?}, probing {want:?} via {rd:?}",
                    walk.dispatch, walk.registrable
                ));
            }
        }
        Ok(())
    }
}

/// The suffixes of `hostname` at label boundaries, longest (the whole
/// name) first: `a.b.c` → `a.b.c`, `b.c`, `c`. Trailing dots are
/// ignored; the empty hostname yields nothing.
fn label_suffixes(hostname: &str) -> impl Iterator<Item = &str> {
    let name = hostname.trim_end_matches('.');
    let whole = (!name.is_empty()).then_some(name);
    whole.into_iter().chain(
        name.char_indices()
            .filter(|&(_, c)| c == '.')
            .map(move |(i, _)| &name[i + 1..])
            .filter(|s| !s.is_empty()),
    )
}

/// The public suffix list as a flat scan: every rule stored as its
/// reversed labels and compared against every hostname.
#[derive(Default)]
struct FlatPsl {
    /// Normal rules, most-significant (TLD) label first.
    rules: Vec<Vec<String>>,
    /// Wildcard rules: `*.ck` stored as `["ck"]` (labels under the star).
    wildcards: Vec<Vec<String>>,
    /// Exception rules: `!www.ck` stored as `["ck", "www"]`.
    exceptions: Vec<Vec<String>>,
}

impl FlatPsl {
    fn parse(text: &str) -> FlatPsl {
        let mut psl = FlatPsl::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let rule = line.split_whitespace().next().unwrap_or("");
            if let Some(exc) = rule.strip_prefix('!') {
                psl.exceptions.push(reverse_labels(exc));
            } else if let Some(rest) = rule.strip_prefix("*.") {
                psl.wildcards.push(reverse_labels(rest));
            } else if !rule.is_empty() && rule != "*" {
                psl.rules.push(reverse_labels(rule));
            }
        }
        for list in [&mut psl.rules, &mut psl.wildcards, &mut psl.exceptions] {
            list.sort();
            list.dedup();
        }
        psl
    }

    fn len(&self) -> usize {
        self.rules.len() + self.wildcards.len() + self.exceptions.len()
    }

    /// `(suffix_labels, public_suffix, registrable)`, or `None` for a
    /// name with no labels or an empty one.
    fn lookup(&self, hostname: &str) -> Option<(usize, String, Option<String>)> {
        let name = hostname.trim_end_matches('.').to_ascii_lowercase();
        if name.is_empty() {
            return None;
        }
        let labels: Vec<&str> = name.split('.').collect();
        if labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        let rev: Vec<&str> = labels.iter().rev().copied().collect();
        // The prevailing rule is the matching rule with the most labels;
        // an exception rule beats all others and drops its leftmost
        // label; a wildcard needs one more label for its star.
        let mut suffix_labels = 1; // implicit `*` rule
        if let Some(n) = longest_match(&self.exceptions, &rev, 0) {
            suffix_labels = n - 1;
        } else {
            if let Some(n) = longest_match(&self.rules, &rev, 0) {
                suffix_labels = suffix_labels.max(n);
            }
            if let Some(n) = longest_match(&self.wildcards, &rev, 1) {
                suffix_labels = suffix_labels.max(n + 1);
            }
        }
        suffix_labels = suffix_labels.clamp(1, labels.len());
        let public_suffix = labels[labels.len() - suffix_labels..].join(".");
        let registrable = (labels.len() > suffix_labels)
            .then(|| labels[labels.len() - suffix_labels - 1..].join("."));
        Some((suffix_labels, public_suffix, registrable))
    }

    fn registrable_domain(&self, hostname: &str) -> Option<String> {
        self.lookup(hostname).and_then(|m| m.2)
    }
}

/// Splits a rule into lowercase labels, most-significant first.
fn reverse_labels(rule: &str) -> Vec<String> {
    rule.trim_end_matches('.').split('.').rev().map(|l| l.to_ascii_lowercase()).collect()
}

/// Length in labels of the longest rule matching the reversed name
/// with at least `spare` labels of the name left over.
fn longest_match(rules: &[Vec<String>], rev_name: &[&str], spare: usize) -> Option<usize> {
    rules
        .iter()
        .filter(|r| r.len() + spare <= rev_name.len() && r.iter().zip(rev_name).all(|(a, b)| a == b))
        .map(Vec::len)
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_suffixes_longest_first() {
        let got: Vec<&str> = label_suffixes("p714.sgw.equinix.com").collect();
        assert_eq!(got, ["p714.sgw.equinix.com", "sgw.equinix.com", "equinix.com", "com"]);
        assert_eq!(label_suffixes("com").collect::<Vec<_>>(), ["com"]);
        assert_eq!(label_suffixes("").count(), 0);
        // Trailing dots ignored; an empty label still splits.
        assert_eq!(label_suffixes("a..b.").collect::<Vec<_>>(), ["a..b", ".b", "b"]);
    }

    #[test]
    fn oracle_agrees_on_the_builtin_list_examples() {
        let case = "*.ck\n!www.ck\njp\nkobe.jp\ncity.kobe.jp\n\nwww.ck\nb.com\n\nr1.www.ck\na..b.com\nr.foo.city.kobe.jp\nX.Y.CK.\n";
        PslTarget.run(case.as_bytes()).unwrap();
        let flat = FlatPsl::parse("*.ck\n!www.ck\n");
        assert_eq!(flat.registrable_domain("r1.www.ck").as_deref(), Some("www.ck"));
        assert_eq!(flat.lookup("anything.ck").map(|m| m.0), Some(2));
    }
}
