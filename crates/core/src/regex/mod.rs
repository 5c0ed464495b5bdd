//! A regular-expression engine for the dialect Hoiho emits.
//!
//! Hoiho never needs (or wants) full PCRE: the regexes it learns are built
//! from a small, fixed vocabulary (paper §3.2–§3.5):
//!
//! * anchors `^` and `$` (the start anchor is optional — conventions that
//!   embed an ASN at the end of a hostname are matched from any offset,
//!   e.g. `as(\d+)\.nts\.ch$` in Figure 2);
//! * literal strings (with `\.` escaping);
//! * the ASN capture `(\d+)`;
//! * non-capturing digit runs `\d+`;
//! * punctuation-exclusion components `[^\.]+`, `[^-]+`, `[^\.-]+`;
//! * character-class components `[a-z]+`, `[a-z\d]+`, `[a-z-]+`,
//!   `[\d-]+`, `[a-z\d-]+`;
//! * the wildcard `.+` (at most one per regex by construction);
//! * string alternations `(?:p|s)` and optional alternations `(?:p|s)?`.
//!
//! Every regex matches through its compiled form, a [`CompiledRegex`]
//! cached on the [`Regex`] at first use: a flat backtracking program with
//! precomputed byte-class bitmasks, literal prefilters and one-byte
//! lookahead, allocation-free per call. Hostnames are short (rarely
//! beyond 80 bytes) and the dialect has no nested repetition, so
//! worst-case backtracking is shallow and bounded. The AST round-trips
//! through the textual form ([`Regex::parse`] / `Display`), which the
//! property tests pin down. When a whole *pool* of compiled programs is
//! evaluated against shared hostnames, a [`MultiMatcher`] (an
//! Aho–Corasick automaton over every program's required literals) scans
//! each hostname once and dispatches only to the programs that could
//! possibly match it.

mod ast;
mod compiled;
mod multi;
mod parse;

pub(crate) use ast::render_elems;
pub use ast::{AltGroup, CharClass, Elem, Regex};
pub use compiled::{CompiledRegex, MatchResult};
pub use multi::{DispatchScratch, MultiMatcher};
pub use parse::ParseError;

#[cfg(test)]
mod tests;
