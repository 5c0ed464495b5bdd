//! Reference implementations the production engine is checked against.
//!
//! Production matches every regex through its compiled program
//! ([`hoiho::regex::CompiledRegex`]). This module keeps the engine's
//! original algorithm, a tree-walking interpreter over the element AST,
//! and the §3.1 classification and evaluation built on it, as
//! differential oracles:
//! the `regex` fuzz target and the `hoiho` equivalence tests compare the
//! compiled engine against them answer for answer.
//!
//! The interpreter favours being obviously right over being fast. The
//! dialect has no nested repetition, so a match is a walk over the
//! element list with greedy one-or-more components and backtracking on
//! failure. Hostnames are short ASCII strings; the walk works on bytes.

use hoiho::apparent::congruence;
use hoiho::eval::{negative_outcome, Counts, Outcome};
use hoiho::iputil::overlaps_any;
use hoiho::regex::{Elem, MatchResult, Regex};
use hoiho::training::HostObs;

/// The interpreter's leftmost match of `re` on `hostname`: the answer
/// [`Regex::find`] must reproduce.
pub fn find(re: &Regex, hostname: &str) -> Option<MatchResult> {
    find_impl(re, hostname, None)
}

/// The interpreter's counterpart of [`Regex::find_trace`]: the match plus
/// the byte span each element consumed, aligned with [`Regex::elems`].
pub fn find_trace(re: &Regex, hostname: &str) -> Option<(MatchResult, Vec<(usize, usize)>)> {
    let mut trace = vec![(0usize, 0usize); re.elems().len()];
    let m = find_impl(re, hostname, Some(&mut trace))?;
    Some((m, trace))
}

/// First-match-wins classification of `host` against `regexes` on the
/// interpreter, with the §3.1 rules spelled out independently of
/// `hoiho::eval`: the reference for [`hoiho::eval::classify_host`].
pub fn classify_host(regexes: &[Regex], host: &HostObs) -> Outcome {
    for r in regexes {
        // A captureless match falls through to the next regex.
        let Some(&(s, e)) = find(r, &host.hostname)
            .as_ref()
            .and_then(|m| m.captures.first())
        else {
            continue;
        };
        let digits = &host.hostname[s..e];
        let value = digits
            .parse::<u64>()
            .unwrap_or(u64::MAX)
            .min(u64::from(u32::MAX)) as u32;
        if !overlaps_any(&host.ip_spans, s, e)
            && congruence(digits, host.training_asn).is_congruent()
        {
            return Outcome::TruePositive(value);
        }
        return Outcome::FalsePositive(value);
    }
    negative_outcome(host)
}

/// [`classify_host`] folded over a hostname set: the reference for
/// [`hoiho::eval::evaluate`].
pub fn evaluate(regexes: &[Regex], hosts: &[HostObs]) -> Counts {
    let mut c = Counts::default();
    for h in hosts {
        match classify_host(regexes, h) {
            Outcome::TruePositive(v) => {
                c.tp += 1;
                c.unique_tp_asns.push(h.training_asn);
                c.unique_extracted.push(v);
            }
            Outcome::FalsePositive(v) => {
                c.fp += 1;
                c.unique_extracted.push(v);
            }
            Outcome::FalseNegative => c.fnn += 1,
            Outcome::TrueNegative => c.tn += 1,
        }
    }
    for set in [&mut c.unique_tp_asns, &mut c.unique_extracted] {
        set.sort_unstable();
        set.dedup();
    }
    c
}

fn find_impl(
    re: &Regex,
    hostname: &str,
    mut trace: Option<&mut [(usize, usize)]>,
) -> Option<MatchResult> {
    let h = hostname.as_bytes();
    // With `^` only offset 0 can match; otherwise scan leftmost-first.
    let last_start = if re.anchored_start() { 0 } else { h.len() };
    let mut caps: Vec<(usize, usize)> = Vec::new();
    for start in 0..=last_start {
        caps.clear();
        if let Some(end) = match_seq(re.elems(), 0, h, start, &mut caps, trace.as_deref_mut()) {
            return Some(MatchResult {
                span: (start, end),
                captures: caps,
            });
        }
    }
    None
}

/// Matches `elems` against `h[pos..]`, returning the end offset of the
/// match. Each element lists the end offsets it could consume to, in the
/// order backtracking tries them: literals and alternation options in
/// order (an optional group's empty match last), one-or-more components
/// greedy-first. `caps` accumulates capture ranges and is unwound on
/// failure. `idx` is the index of `elems[0]` in the full element list,
/// used to address `trace`; trace entries are written on the successful
/// unwind, so stale writes from failed branches are always overwritten.
fn match_seq(
    elems: &[Elem],
    idx: usize,
    h: &[u8],
    pos: usize,
    caps: &mut Vec<(usize, usize)>,
    mut trace: Option<&mut [(usize, usize)]>,
) -> Option<usize> {
    let Some((first, rest)) = elems.split_first() else {
        return Some(pos);
    };
    let lit_end = |l: &str| h[pos..].starts_with(l.as_bytes()).then_some(pos + l.len());
    let ends: Vec<usize> = match first {
        // `^` other than at index 0 never matches mid-string.
        Elem::StartAnchor => (pos == 0).then_some(pos).into_iter().collect(),
        Elem::EndAnchor => (pos == h.len()).then_some(pos).into_iter().collect(),
        Elem::Lit(l) => lit_end(l).into_iter().collect(),
        Elem::Alt(a) => a
            .opts
            .iter()
            .filter_map(|o| lit_end(o))
            .chain(a.optional.then_some(pos))
            .collect(),
        component => {
            let run = h[pos..]
                .iter()
                .take_while(|&&c| admits(component, c))
                .count();
            (pos + 1..=pos + run).rev().collect()
        }
    };
    for end in ends {
        let mark = caps.len();
        if matches!(first, Elem::CaptureDigits) {
            caps.push((pos, end));
        }
        if let Some(m) = match_seq(rest, idx + 1, h, end, caps, trace.as_deref_mut()) {
            if let Some(t) = trace.as_deref_mut() {
                t[idx] = (pos, end);
            }
            return Some(m);
        }
        caps.truncate(mark);
    }
    None
}

/// Whether one-or-more component `e` may consume byte `c`.
fn admits(e: &Elem, c: u8) -> bool {
    match e {
        Elem::CaptureDigits | Elem::Digits => c.is_ascii_digit(),
        Elem::NotIn(set) => !set.as_bytes().contains(&c),
        Elem::Class(cls) => cls.contains(c),
        Elem::Any => true,
        Elem::StartAnchor | Elem::EndAnchor | Elem::Lit(_) | Elem::Alt(_) => false,
    }
}
