//! Public suffix list parsing, effective-TLD+1 lookup, and suffix
//! dispatch.
//!
//! Hoiho groups router hostnames by *suffix*: the registrable domain under
//! which an operator names its routers (the paper, §3, determines suffixes
//! "using the Mozilla public suffix list"). This crate implements the
//! [Public Suffix List algorithm](https://publicsuffix.org/list/) — rules,
//! wildcard rules (`*.ck`), and exception rules (`!www.ck`) — and exposes
//! the lookups Hoiho needs:
//!
//! * [`PublicSuffixList::public_suffix`] — the effective TLD of a hostname
//!   (e.g. `org.nz` for `luckie.org.nz`).
//! * [`PublicSuffixList::registrable_domain`] — the suffix Hoiho groups by:
//!   the public suffix plus one label (e.g. `equinix.com` for
//!   `p714.sgw.equinix.com`); [`PublicSuffixList::registrable_str`] is
//!   the same domain borrowed from the hostname.
//! * [`PublicSuffixList::index`] — the rules plus a caller's suffix keys
//!   (a model's conventions, a cluster's routing table) in one
//!   [`SuffixIndex`], whose [`SuffixIndex::walk`] finds the registrable
//!   domain and the keyed suffix a hostname dispatches to in one pass.
//!
//! Rules and keys live in one reversed-label trie, walked once from the
//! right over byte offsets without allocating.
//!
//! The list snapshot embedded in [`PublicSuffixList::builtin`] covers the
//! effective TLDs exercised by this reproduction (generic TLDs plus the
//! country-code second-level registries that appear in the paper's figures
//! and in our synthetic Internet). The parser accepts the full Mozilla file
//! format, so a complete list can be loaded with
//! [`PublicSuffixList::parse`].
//!
//! Scope notes: hostnames here are DNS PTR strings, which in practice are
//! ASCII; internationalized labels (punycode) pass through untouched as
//! opaque labels.

mod builtin;
mod trie;

use trie::{Trie, EXCEPTION, NONE, NORMAL, WILDCARD};

/// A parsed public suffix list.
///
/// The rules are compiled into a reversed-label trie: a lookup walks the
/// hostname once from the right, one hash probe per label, and stops at
/// the first label no rule reaches below.
#[derive(Debug, Clone, Default)]
pub struct PublicSuffixList {
    trie: Trie,
}

/// Outcome of a suffix lookup on one hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixMatch {
    /// Number of labels (from the right) forming the public suffix.
    pub suffix_labels: usize,
    /// The public suffix itself, e.g. `org.nz`.
    pub public_suffix: String,
    /// The registrable domain (suffix + 1 label), if the hostname has one.
    pub registrable: Option<String>,
}

impl PublicSuffixList {
    /// Builds an empty list (only the implicit `*` rule applies: the last
    /// label is the public suffix).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the built-in snapshot used throughout this reproduction.
    pub fn builtin() -> Self {
        let mut psl = Self::new();
        psl.extend_from_str(builtin::BUILTIN_PSL);
        psl
    }

    /// Parses a list in the Mozilla file format.
    ///
    /// Lines are trimmed; blank lines and lines starting with `//` are
    /// ignored. A leading `!` marks an exception rule; a leading `*.` marks
    /// a wildcard rule. Everything after the first whitespace on a line is
    /// ignored, as the specification requires.
    pub fn parse(text: &str) -> Self {
        let mut psl = Self::new();
        psl.extend_from_str(text);
        psl
    }

    /// Adds all rules from `text` (same format as [`Self::parse`]).
    pub fn extend_from_str(&mut self, text: &str) {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            let rule = line.split_whitespace().next().unwrap_or("");
            if rule.is_empty() {
                continue;
            }
            self.add_rule(rule);
        }
    }

    /// Adds one rule in list syntax (`org.nz`, `*.ck`, `!www.ck`). Rules
    /// are case-insensitive, trailing dots are ignored, and adding a rule
    /// twice changes nothing.
    pub fn add_rule(&mut self, rule: &str) {
        let (kind, suffix) = if let Some(exc) = rule.strip_prefix('!') {
            (EXCEPTION, exc)
        } else if let Some(rest) = rule.strip_prefix("*.") {
            (WILDCARD, rest)
        } else if rule == "*" {
            return; // the implicit rule; nothing to store
        } else {
            (NORMAL, rule)
        };
        self.trie.add_rule(suffix.trim_end_matches('.'), kind);
    }

    /// Number of distinct explicit rules loaded (normal + wildcard +
    /// exception).
    pub fn len(&self) -> usize {
        self.trie.rules()
    }

    /// True if no explicit rules are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Computes the public suffix and registrable domain of `hostname`.
    ///
    /// Returns `None` for hostnames with no labels (empty string, `"."`)
    /// or with empty labels (`a..b`). The hostname is lowercased and
    /// trailing dots are ignored.
    pub fn lookup(&self, hostname: &str) -> Option<SuffixMatch> {
        let (suffix_labels, registrable) = self.trie.walk(hostname).psl?;
        let name = hostname.trim_end_matches('.');
        let start = name.rmatch_indices('.').nth(suffix_labels - 1).map_or(0, |(i, _)| i + 1);
        Some(SuffixMatch {
            suffix_labels,
            public_suffix: name[start..].to_ascii_lowercase(),
            registrable: registrable.map(str::to_ascii_lowercase),
        })
    }

    /// The public suffix (effective TLD) of `hostname`, if it has labels.
    pub fn public_suffix(&self, hostname: &str) -> Option<String> {
        self.lookup(hostname).map(|m| m.public_suffix)
    }

    /// The registrable domain — public suffix plus one label. This is the
    /// "suffix" Hoiho groups hostnames by. `None` when the hostname is
    /// itself a public suffix (e.g. `com`) or unparsable. The returned
    /// `String` (lowercased) is the only allocation.
    pub fn registrable_domain(&self, hostname: &str) -> Option<String> {
        self.registrable_str(hostname).map(str::to_ascii_lowercase)
    }

    /// [`Self::registrable_domain`] borrowed from `hostname` itself:
    /// the same labels, in `hostname`'s own case, without its trailing
    /// dots. Allocates nothing.
    pub fn registrable_str<'n>(&self, hostname: &'n str) -> Option<&'n str> {
        self.trie.walk(hostname).psl?.1
    }

    /// Compiles this list plus `keys` — the suffixes a caller dispatches
    /// on, each with its value — into one [`SuffixIndex`]. A repeated key
    /// keeps its last value. Keys match label suffixes verbatim, so a
    /// key containing an ASCII uppercase letter can never match the
    /// lowercased names [`SuffixIndex::walk`] takes, and is left out.
    pub fn index<'k, V>(&self, keys: impl IntoIterator<Item = (&'k str, V)>) -> SuffixIndex<V> {
        let mut trie = self.trie.clone();
        let mut values = Vec::new();
        for (key, value) in keys {
            if key.bytes().any(|c| c.is_ascii_uppercase()) {
                continue;
            }
            let slot = trie.key_mut(key);
            match *slot {
                NONE => {
                    *slot = values.len() as u32;
                    values.push(value);
                }
                k => values[k as usize] = value,
            }
        }
        SuffixIndex { trie, values }
    }
}

/// A public suffix list plus a caller's suffix keys, compiled into one
/// reversed-label trie (see [`PublicSuffixList::index`]).
#[derive(Debug, Clone)]
pub struct SuffixIndex<V> {
    trie: Trie,
    values: Vec<V>,
}

/// Which key a hostname dispatches to, in first-match order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<V> {
    /// The registrable domain itself is keyed.
    Exact(V),
    /// The registrable domain is not keyed (or the name has none); this
    /// is the deepest keyed label suffix.
    Fallback(V),
    /// No label suffix is keyed.
    Miss,
}

impl<V> Dispatch<V> {
    /// The dispatched value, exact or fallback.
    pub fn value(self) -> Option<V> {
        match self {
            Dispatch::Exact(v) | Dispatch::Fallback(v) => Some(v),
            Dispatch::Miss => None,
        }
    }
}

/// What one [`SuffixIndex::walk`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk<'n, V> {
    /// The registrable domain, a slice of the walked name (as
    /// [`PublicSuffixList::registrable_str`]).
    pub registrable: Option<&'n str>,
    /// The dispatch outcome.
    pub dispatch: Dispatch<V>,
}

impl<V: Copy> SuffixIndex<V> {
    /// Walks `lower` (an already-lowercased hostname; trailing dots are
    /// ignored) once from the right. The dispatch order is the
    /// registrable domain first, then every label suffix longest-first
    /// — the whole name, then each suffix after a dot, empty labels
    /// included — so a key deeper than the registrable domain, or one
    /// a different PSL snapshot would have chosen, is still reached.
    pub fn walk<'n>(&self, lower: &'n str) -> Walk<'n, V> {
        let found = self.trie.walk(lower);
        let value = |k: u32| self.values[k as usize];
        let dispatch = if found.exact != NONE {
            Dispatch::Exact(value(found.exact))
        } else if found.deepest != NONE {
            Dispatch::Fallback(value(found.deepest))
        } else {
            Dispatch::Miss
        };
        Walk { registrable: found.psl.and_then(|p| p.1), dispatch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::builtin()
    }

    fn walk<'n>(ix: &SuffixIndex<&'static str>, h: &'n str) -> (Option<&'n str>, Dispatch<&'static str>) {
        let w = ix.walk(h);
        (w.registrable, w.dispatch)
    }

    #[test]
    fn walk_dispatches_registrable_first_then_deepest_suffix() {
        use Dispatch::*;
        let keys = ["equinix.com", "sgw.equinix.com", "net.example.com", "b.com", "co.nz"];
        let ix = psl().index(keys.iter().map(|k| (*k, *k)));
        // A keyed registrable domain beats a deeper key.
        assert_eq!(walk(&ix, "p1.sgw.equinix.com"), (Some("equinix.com"), Exact("equinix.com")));
        // Unkeyed registrable domain: the deeper key, or a shallower one.
        assert_eq!(
            walk(&ix, "as1.net.example.com"),
            (Some("example.com"), Fallback("net.example.com"))
        );
        assert_eq!(walk(&ix, "r1.foo.co.nz"), (Some("foo.co.nz"), Fallback("co.nz")));
        // A bare public suffix has no registrable domain but is probed.
        assert_eq!(walk(&ix, "co.nz"), (None, Fallback("co.nz")));
        // Empty labels: no registrable domain, yet `b.com` is reached.
        assert_eq!(walk(&ix, "a..b.com"), (None, Fallback("b.com")));
        // Trailing dots are ignored.
        assert_eq!(walk(&ix, "x.b.com.."), (Some("b.com"), Exact("b.com")));
        assert_eq!(walk(&ix, "core1.example.org"), (Some("example.org"), Miss));
        assert_eq!(walk(&ix, ""), (None, Miss));
        assert_eq!(walk(&ix, "."), (None, Miss));
    }

    #[test]
    fn walk_keys_with_empty_labels_or_uppercase() {
        use Dispatch::*;
        let ix = psl().index([("a..b.org", "empty"), ("B.org", "upper"), ("", "blank")]);
        assert_eq!(walk(&ix, "x.a..b.org"), (None, Fallback("empty")));
        assert_eq!(walk(&ix, "a..b.org"), (None, Fallback("empty")));
        assert_eq!(walk(&ix, "x.b.org"), (Some("b.org"), Miss));
        assert_eq!(walk(&ix, "x.org"), (Some("x.org"), Miss));
        // A repeated key keeps its last value.
        let ix = psl().index([("b.org", "first"), ("b.org", "last")]);
        assert_eq!(walk(&ix, "x.b.org"), (Some("b.org"), Exact("last")));
    }

    #[test]
    fn walk_under_wildcard_and_exception_rules() {
        use Dispatch::*;
        let p = PublicSuffixList::parse("*.ck\n!www.ck\n");
        let ix = p.index([("foo.bar.ck", 1), ("bar.ck", 2), ("www.ck", 3)]);
        let d = |h| ix.walk(h).dispatch.value();
        assert_eq!(ix.walk("r1.foo.bar.ck").dispatch, Exact(1));
        assert_eq!(ix.walk("x.bar.ck").dispatch, Fallback(2));
        assert_eq!(ix.walk("r1.www.ck").dispatch, Exact(3));
        assert_eq!(ix.walk("r1.www.ck").registrable, Some("www.ck"));
        assert_eq!(d("bar.ck"), Some(2));
        assert_eq!(d("ck"), None);
    }

    #[test]
    fn registrable_str_borrows_in_the_hostnames_case() {
        let p = psl();
        assert_eq!(p.registrable_str("P714.SGW.Equinix.COM."), Some("Equinix.COM"));
        assert_eq!(p.registrable_str("a..b.com"), None);
        assert_eq!(p.registrable_str("org.nz"), None);
    }

    #[test]
    fn simple_tld() {
        let p = psl();
        assert_eq!(p.public_suffix("equinix.com").as_deref(), Some("com"));
        assert_eq!(
            p.registrable_domain("p714.sgw.equinix.com").as_deref(),
            Some("equinix.com")
        );
    }

    #[test]
    fn second_level_registry() {
        let p = psl();
        assert_eq!(p.public_suffix("luckie.org.nz").as_deref(), Some("org.nz"));
        assert_eq!(
            p.registrable_domain("www.luckie.org.nz").as_deref(),
            Some("luckie.org.nz")
        );
        // The paper's akl-ix.nz counts as suffix+1 under .nz.
        assert_eq!(
            p.registrable_domain("as24940.akl-ix.nz").as_deref(),
            Some("akl-ix.nz")
        );
    }

    #[test]
    fn uy_and_ch_examples_from_paper() {
        let p = psl();
        assert_eq!(
            p.registrable_domain("mlg4bras1-be127-605.antel.net.uy").as_deref(),
            Some("antel.net.uy")
        );
        assert_eq!(
            p.registrable_domain("ge0-2.01.p.ost.ch.as15576.nts.ch").as_deref(),
            Some("nts.ch")
        );
    }

    #[test]
    fn hostname_equal_to_suffix_has_no_registrable() {
        let p = psl();
        assert_eq!(p.registrable_domain("com"), None);
        assert_eq!(p.registrable_domain("org.nz"), None);
        assert_eq!(p.public_suffix("org.nz").as_deref(), Some("org.nz"));
    }

    #[test]
    fn unknown_tld_uses_implicit_star_rule() {
        let p = psl();
        assert_eq!(p.public_suffix("router.example.zzz").as_deref(), Some("zzz"));
        assert_eq!(
            p.registrable_domain("router.example.zzz").as_deref(),
            Some("example.zzz")
        );
    }

    #[test]
    fn wildcard_rule() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("*.ck\n!www.ck\n");
        assert_eq!(p.public_suffix("anything.ck").as_deref(), Some("anything.ck"));
        assert_eq!(
            p.registrable_domain("r1.foo.anything.ck").as_deref(),
            Some("foo.anything.ck")
        );
        // The exception rule makes www.ck registrable under ck.
        assert_eq!(p.public_suffix("www.ck").as_deref(), Some("ck"));
        assert_eq!(p.registrable_domain("www.ck").as_deref(), Some("www.ck"));
        assert_eq!(p.registrable_domain("r1.www.ck").as_deref(), Some("www.ck"));
    }

    #[test]
    fn comments_blank_lines_and_inline_junk_ignored() {
        let p = PublicSuffixList::parse(
            "// a comment\n\n  org.nz  trailing junk\n// another\nco.nz\n",
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.public_suffix("x.org.nz").as_deref(), Some("org.nz"));
    }

    #[test]
    fn case_and_trailing_dot_normalised() {
        let p = psl();
        assert_eq!(
            p.registrable_domain("P714.SGW.Equinix.COM.").as_deref(),
            Some("equinix.com")
        );
    }

    #[test]
    fn degenerate_names_rejected() {
        let p = psl();
        assert_eq!(p.lookup(""), None);
        assert_eq!(p.lookup("."), None);
        assert_eq!(p.lookup("a..b.com"), None);
    }

    #[test]
    fn longest_rule_wins() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("jp\nkobe.jp\ncity.kobe.jp\n");
        assert_eq!(
            p.public_suffix("r.foo.city.kobe.jp").as_deref(),
            Some("city.kobe.jp")
        );
        assert_eq!(
            p.registrable_domain("r.foo.city.kobe.jp").as_deref(),
            Some("foo.city.kobe.jp")
        );
    }

    #[test]
    fn builtin_is_nonempty_and_idempotent() {
        let p = psl();
        assert!(p.len() > 50);
        let mut again = PublicSuffixList::builtin();
        again.extend_from_str(builtin::BUILTIN_PSL);
        assert_eq!(p.len(), again.len());
    }

    #[test]
    fn dedup_across_reloads() {
        let mut p = PublicSuffixList::parse("org.nz\n");
        p.extend_from_str("org.nz\nco.nz\n");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn uppercase_and_trailing_dots_normalised_in_every_lookup() {
        let p = psl();
        let m = p.lookup("AS1.Foo.ORG.NZ.").unwrap();
        assert_eq!(m.suffix_labels, 2);
        assert_eq!(m.public_suffix, "org.nz");
        assert_eq!(m.registrable.as_deref(), Some("foo.org.nz"));
        // Every trailing dot is trimmed, not just one.
        assert_eq!(p.registrable_domain("x.Example.COM..").as_deref(), Some("example.com"));
        assert_eq!(p.lookup("COM."), p.lookup("com"));
    }

    #[test]
    fn empty_labels_anywhere_have_no_registrable_domain() {
        let p = psl();
        for h in ["a..b.com", ".b.com", "x.y..equinix.com", "..com"] {
            assert_eq!(p.lookup(h), None, "{h}");
            assert_eq!(p.registrable_domain(h), None, "{h}");
        }
    }

    #[test]
    fn wildcard_and_exception_bare_suffixes() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("*.ck\n!www.ck\n");
        // A bare wildcard match is itself a public suffix.
        assert_eq!(p.registrable_domain("anything.ck"), None);
        assert_eq!(p.lookup("anything.ck").unwrap().suffix_labels, 2);
        // The wildcard needs a label for its star: `ck` alone falls to
        // the implicit rule.
        assert_eq!(p.public_suffix("ck").as_deref(), Some("ck"));
        assert_eq!(p.registrable_domain("ck"), None);
        // The exception beats the wildcard, in any case.
        assert_eq!(p.registrable_domain("R1.WWW.CK").as_deref(), Some("www.ck"));
    }

    #[test]
    fn exception_deeper_than_longest_rule_and_pathological_exception() {
        let mut p = PublicSuffixList::new();
        p.extend_from_str("jp\n*.kobe.jp\n!city.kobe.jp\n");
        assert_eq!(p.public_suffix("a.b.city.kobe.jp").as_deref(), Some("kobe.jp"));
        assert_eq!(p.registrable_domain("a.b.city.kobe.jp").as_deref(), Some("city.kobe.jp"));
        assert_eq!(p.registrable_domain("a.b.other.kobe.jp").as_deref(), Some("b.other.kobe.jp"));
        // `!com` would leave no suffix label; the count clamps to one.
        let q = PublicSuffixList::parse("!com\n");
        let m = q.lookup("x.com").unwrap();
        assert_eq!((m.suffix_labels, m.registrable.as_deref()), (1, Some("x.com")));
    }

    #[test]
    fn single_label_hostname_on_known_tld() {
        let p = psl();
        // "com" alone: the whole name is the suffix.
        let m = p.lookup("com").unwrap();
        assert_eq!(m.suffix_labels, 1);
        assert_eq!(m.registrable, None);
    }
}
