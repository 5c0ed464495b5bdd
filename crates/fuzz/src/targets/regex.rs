//! Regex surface: `Regex::parse`, the display form, and the compiled
//! matcher against the tree-walking interpreter in [`crate::oracle`].
//!
//! Case layout: line 1 is the pattern, every following line is a
//! haystack. Oracle, for parse-accepted patterns:
//!
//! 1. `parse(display(re))` succeeds and equals `re` (the display form
//!    is a faithful serialization of the parsed AST);
//! 2. on every haystack, the compiled program ([`Regex::find`],
//!    [`Regex::find_trace`]) and the tree-walking interpreter
//!    ([`oracle::find`], [`oracle::find_trace`])
//!    return identical answers — the redundancy the paper's pipeline
//!    depends on (PAPER §3: extraction semantics must be identical in
//!    every tier).

use super::{Target, HOSTCHARS};
use crate::input::FuzzInput;
use crate::oracle;
use hoiho::regex::Regex;

/// Grammar pieces a syntactically-plausible pattern is assembled from.
const PIECES: &[&str] = &[
    "as",
    "core",
    "xe-",
    "\\.",
    "-",
    "(\\d+)",
    "\\d+",
    "[^\\.]+",
    "[^\\.-]+",
    "[a-z]+",
    "[a-z\\d]+",
    "[a-z\\d-]+",
    ".+",
    "(?:eth|gig|ae)",
    "(?:sea|nyc)?",
];

/// Corruption alphabet: dialect metacharacters and a few plain chars,
/// spliced in to probe the parser's rejection paths.
const META: &str = "^$()[]\\|?+.ad19:-";

pub struct RegexTarget;

impl Target for RegexTarget {
    fn name(&self) -> &'static str {
        "regex"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let mut pattern = String::new();
        if input.chance(60) {
            pattern.push('^');
        }
        for _ in 0..input.range(1, 6) {
            pattern.push_str(input.pick(PIECES) as &str);
        }
        if input.chance(60) {
            pattern.push('$');
        }
        // A third of cases get corrupted: random metacharacter splices
        // that mostly produce parse rejections (which must be clean).
        if input.chance(33) {
            for _ in 0..input.range(1, 4) {
                // The pattern is pure ASCII, so any index is a char
                // boundary.
                let at = input.below(pattern.len() as u64 + 1) as usize;
                let junk = input.token(META, 1, 3);
                pattern.insert_str(at, &junk);
            }
        }
        let mut case = pattern.clone();
        case.push('\n');
        // Haystacks: random hostname-ish text, plus a stripped form of
        // the pattern itself (high odds of partial matches).
        for _ in 0..input.range(1, 5) {
            case.push_str(&input.token(HOSTCHARS, 0, 24));
            case.push('\n');
        }
        if input.chance(50) {
            let stripped: String = pattern
                .chars()
                .map(|c| match c {
                    '^' | '$' | '(' | ')' | '[' | ']' | '\\' | '|' | '?' | '+' | ':' => '1',
                    c => c,
                })
                .collect();
            case.push_str(&stripped);
            case.push('\n');
        }
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(()); // foreign bytes: nothing to feed a &str parser
        };
        let mut lines = text.lines();
        let pattern = lines.next().unwrap_or("");
        let Ok(re) = Regex::parse(pattern) else {
            return Ok(()); // clean rejection is a pass
        };
        let rendered = re.to_string();
        let reparsed = Regex::parse(&rendered).map_err(|e| {
            format!("display {rendered:?} of accepted pattern {pattern:?} fails to reparse: {e}")
        })?;
        if reparsed != re {
            return Err(format!(
                "display round-trip changed the regex: {pattern:?} -> {rendered:?} -> {reparsed:?}"
            ));
        }
        for hay in lines {
            let compiled = re.find(hay);
            let interpreted = oracle::find(&re, hay);
            if compiled != interpreted {
                return Err(format!(
                    "find divergence on {pattern:?} / {hay:?}: compiled {compiled:?} vs interpreted {interpreted:?}"
                ));
            }
            let compiled = re.find_trace(hay);
            let interpreted = oracle::find_trace(&re, hay);
            if compiled != interpreted {
                return Err(format!(
                    "find_trace divergence on {pattern:?} / {hay:?}: compiled {compiled:?} vs interpreted {interpreted:?}"
                ));
            }
        }
        Ok(())
    }
}
