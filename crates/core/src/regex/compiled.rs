//! Compiled form of a dialect regex: a flat program with precomputed
//! byte-class bitmask tables and cheap pre-match rejects.
//!
//! This is the only matcher: every [`Regex`] match entry point runs the
//! program cached on the regex ([`Regex::program`]). Compilation hoists
//! per-element work out of the match loop:
//!
//! * every variable-width component (`\d+`, `[^X]+`, `[...]+`, `.+`,
//!   and the `(\d+)` capture) lowers to a 256-bit [`ByteSet`] — one
//!   shift+mask membership test per byte;
//! * the **longest mandatory literal** becomes a prefilter: a hostname
//!   that does not contain it cannot match, and is rejected by a
//!   memchr-style first-byte scan before the matcher runs;
//! * a regex ending `lit$` rejects hostnames that do not end with
//!   `lit`;
//! * an unanchored scan only tries start offsets whose first byte could
//!   begin a match (the first body element's admissible byte set).
//!
//! All four are pure rejects or skip-aheads of starts that provably
//! fail, so the program answers exactly as a plain backtracking walk
//! over the element list would: same leftmost match, same captures,
//! same [`find_trace`](CompiledRegex::find_trace) spans. That plain
//! walk is kept as the reference oracle in `hoiho_fuzz::oracle`; the
//! `regex` fuzz target, the property suite in `tests/properties.rs` and
//! the equivalence tests in `tests/compiled_equiv.rs` pin the program to
//! it.

use super::ast::{Elem, Regex};

/// A successful match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// Byte range of the whole match within the hostname.
    pub span: (usize, usize),
    /// Byte ranges of each `(\d+)` capture, in element order.
    pub captures: Vec<(usize, usize)>,
}

impl MatchResult {
    /// The text of capture group `i` within `hostname`.
    pub fn capture<'h>(&self, hostname: &'h str, i: usize) -> Option<&'h str> {
        self.captures.get(i).map(|&(s, e)| &hostname[s..e])
    }
}

/// A 256-bit byte membership table: one bit per byte value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ByteSet([u64; 4]);

impl ByteSet {
    pub(crate) const EMPTY: ByteSet = ByteSet([0; 4]);
    pub(crate) const FULL: ByteSet = ByteSet([u64::MAX; 4]);

    fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1u64 << (b & 63);
    }

    fn from_pred(pred: impl Fn(u8) -> bool) -> ByteSet {
        let mut s = ByteSet::EMPTY;
        let mut b = 0u16;
        while b <= 255 {
            if pred(b as u8) {
                s.insert(b as u8);
            }
            b += 1;
        }
        s
    }

    /// The ASCII digit set (`\d`).
    fn digits() -> ByteSet {
        ByteSet::from_pred(|b| b.is_ascii_digit())
    }

    /// True when every byte value is a member.
    fn is_full(&self) -> bool {
        self.0 == [u64::MAX; 4]
    }

    fn union(&self, other: &ByteSet) -> ByteSet {
        ByteSet([
            self.0[0] | other.0[0],
            self.0[1] | other.0[1],
            self.0[2] | other.0[2],
            self.0[3] | other.0[3],
        ])
    }

    fn is_disjoint(&self, other: &ByteSet) -> bool {
        (0..4).all(|i| self.0[i] & other.0[i] == 0)
    }

    #[inline(always)]
    pub(crate) fn contains(&self, b: u8) -> bool {
        (self.0[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }
}

/// One-byte lookahead for a greedy component: what may legally appear
/// immediately after the bytes it consumes, derived from the FIRST set
/// of the remaining ops at compile time. A trial length whose boundary
/// byte is outside the set (or that ends the hostname when `eos` is
/// false) fails the very next op without consuming anything, so the
/// backtracking loop skips it outright. The set is an
/// *over*-approximation where the follower is hard to pin down
/// (optional alternations fold in their successor, `^` defers to its
/// successor, unknowns go to [`Look::ANY`]) — skipping is therefore
/// always sound and results stay bit-identical.
#[derive(Debug, Clone, Copy)]
struct Look {
    /// Admissible boundary bytes.
    bytes: ByteSet,
    /// Whether end-of-hostname may legally follow.
    eos: bool,
}

impl Look {
    /// No constraint: try every trial length.
    const ANY: Look = Look { bytes: ByteSet::FULL, eos: true };

    fn union(&self, other: &Look) -> Look {
        Look { bytes: self.bytes.union(&other.bytes), eos: self.eos || other.eos }
    }

    /// Can a match of the remaining ops start at `h[at..]`?
    #[inline(always)]
    fn viable(&self, h: &[u8], at: usize) -> bool {
        match h.get(at) {
            Some(&b) => self.bytes.contains(b),
            None => self.eos,
        }
    }
}

/// One instruction of the flat program. Ops align one-to-one with the
/// source [`Elem`] list so trace spans keep the same indices.
#[derive(Debug, Clone)]
enum COp {
    /// `^` (only meaningful at index 0; elsewhere matches only pos 0).
    Start,
    /// `$`.
    End,
    /// A literal byte string.
    Lit(Box<[u8]>),
    /// `(?:a|b)` / `(?:a|b)?`, options in the AST's sorted order.
    Alt { opts: Box<[Box<[u8]>]>, optional: bool },
    /// `(\d+)` — greedy one-or-more over the digit set, capturing.
    Capture { set: ByteSet, look: Look, boundary_only: bool },
    /// `\d+` / `[^X]+` / `[...]+` / `.+` — greedy one-or-more over a
    /// precomputed byte set.
    Set { set: ByteSet, look: Look, boundary_only: bool },
}

impl COp {
    fn lower(e: &Elem) -> COp {
        match e {
            Elem::StartAnchor => COp::Start,
            Elem::EndAnchor => COp::End,
            Elem::Lit(l) => COp::Lit(l.as_bytes().into()),
            Elem::Alt(a) => COp::Alt {
                opts: a.opts.iter().map(|o| Box::<[u8]>::from(o.as_bytes())).collect(),
                optional: a.optional,
            },
            Elem::CaptureDigits => COp::Capture { set: ByteSet::digits(), look: Look::ANY, boundary_only: false },
            Elem::Digits => COp::Set { set: ByteSet::digits(), look: Look::ANY, boundary_only: false },
            Elem::NotIn(set) => {
                let excluded = set.as_bytes();
                COp::Set {
                    set: ByteSet::from_pred(|b| !excluded.contains(&b)),
                    look: Look::ANY,
                    boundary_only: false,
                }
            }
            Elem::Class(cls) => {
                COp::Set { set: ByteSet::from_pred(|b| cls.contains(b)), look: Look::ANY, boundary_only: false }
            }
            Elem::Any => COp::Set { set: ByteSet::FULL, look: Look::ANY, boundary_only: false },
        }
    }
}

/// FIRST sets over op suffixes, right to left: `first[i]` describes the
/// bytes (and end-of-hostname) at which a match of `ops[i..]` may
/// begin. Over-approximations only — see [`Look`].
fn first_sets(ops: &[COp]) -> Vec<Look> {
    // Past the last op the match simply ends — anything may follow.
    let mut first = vec![Look::ANY; ops.len() + 1];
    for i in (0..ops.len()).rev() {
        first[i] = match &ops[i] {
            COp::Lit(l) => match l.first() {
                Some(&b) => {
                    let mut s = ByteSet::EMPTY;
                    s.insert(b);
                    Look { bytes: s, eos: false }
                }
                None => first[i + 1],
            },
            COp::Alt { opts, optional } => {
                let mut lk = Look { bytes: ByteSet::EMPTY, eos: false };
                for o in opts.iter() {
                    match o.first() {
                        Some(&b) => lk.bytes.insert(b),
                        None => lk = lk.union(&first[i + 1]),
                    }
                }
                if *optional {
                    lk = lk.union(&first[i + 1]);
                }
                lk
            }
            COp::Capture { set, .. } | COp::Set { set, .. } => Look { bytes: *set, eos: false },
            // `$` is zero-width: the remainder must hold at
            // end-of-hostname, which `eos` over-approximates.
            COp::End => Look { bytes: ByteSet::EMPTY, eos: true },
            // `^` is zero-width and adds only a position constraint;
            // its successor's FIRST set still applies.
            COp::Start => first[i + 1],
        };
    }
    first
}

/// A [`Regex`] lowered to a flat program, ready for the hot path.
///
/// Compile once (e.g. at model load, or once per pooled candidate in
/// the learner), then call [`find`](CompiledRegex::find) /
/// [`extract`](CompiledRegex::extract) as often as needed.
#[derive(Debug, Clone)]
pub struct CompiledRegex {
    ops: Vec<COp>,
    /// True when the program must match from offset 0 (`^`).
    must_start: bool,
    /// Longest mandatory literal; a hostname not containing it cannot
    /// match.
    prefilter: Option<Box<[u8]>>,
    /// Literal immediately before a final `$`; a hostname not ending
    /// with it cannot match.
    suffix_lit: Option<Box<[u8]>>,
    /// Admissible first byte of an unanchored match; `None` means any
    /// offset must be tried (optional first element, `$`-only body, or
    /// an empty program).
    start_set: Option<ByteSet>,
}

impl CompiledRegex {
    /// Lowers `regex` into a compiled program.
    pub fn compile(regex: &Regex) -> CompiledRegex {
        let elems = regex.elems();
        let mut ops: Vec<COp> = elems.iter().map(COp::lower).collect();
        // Give every greedy component its one-byte lookahead: the FIRST
        // set of the ops after it. When the lookahead bytes are
        // disjoint from the component's own set, no interior boundary
        // can be viable (it is a run member, hence not a lookahead
        // byte) — only the full greedy run needs trying at all.
        let first = first_sets(&ops);
        for (i, op) in ops.iter_mut().enumerate() {
            if let COp::Capture { set, look, boundary_only }
            | COp::Set { set, look, boundary_only } = op
            {
                *look = first[i + 1];
                *boundary_only = look.bytes.is_disjoint(set);
            }
        }
        let must_start = matches!(elems.first(), Some(Elem::StartAnchor));

        // Longest mandatory literal anywhere in the element list. Every
        // element is consumed in sequence, so each `Lit` must appear in
        // any matching hostname. Only worth it for unanchored programs,
        // where the reject replaces a scan over every start offset; a
        // `^`-anchored program fails its single attempt at least as
        // cheaply as the prefilter scan itself.
        let prefilter = if must_start {
            None
        } else {
            elems
                .iter()
                .filter_map(|e| match e {
                    Elem::Lit(l) if !l.is_empty() => Some(l.as_bytes()),
                    _ => None,
                })
                .max_by_key(|l| l.len())
                .map(Box::<[u8]>::from)
        };

        // `lit$` tail: the match must consume `lit` through the end.
        let suffix_lit = match elems {
            [.., Elem::Lit(l), Elem::EndAnchor] if !l.is_empty() => {
                Some(Box::<[u8]>::from(l.as_bytes()))
            }
            _ => None,
        };

        // First-byte set of the first body element, when it is
        // mandatory and consuming (then a match cannot begin at a byte
        // outside the set, and cannot begin at end-of-string either).
        let body_first = if must_start { None } else { elems.first() };
        let start_set = match body_first {
            Some(Elem::Lit(l)) => {
                let mut s = ByteSet::EMPTY;
                s.insert(l.as_bytes()[0]);
                Some(s)
            }
            Some(Elem::Alt(a)) if !a.optional => {
                let mut s = ByteSet::EMPTY;
                for o in &a.opts {
                    s.insert(o.as_bytes()[0]);
                }
                Some(s)
            }
            Some(e @ (Elem::CaptureDigits
            | Elem::Digits
            | Elem::NotIn(_)
            | Elem::Class(_)
            | Elem::Any)) => match COp::lower(e) {
                COp::Capture { set, .. } | COp::Set { set, .. } if !set.is_full() => Some(set),
                _ => None,
            },
            _ => None,
        };

        CompiledRegex { ops, must_start, prefilter, suffix_lit, start_set }
    }

    /// Matches `hostname` — same leftmost-start semantics as
    /// [`Regex::find`].
    pub fn find(&self, hostname: &str) -> Option<MatchResult> {
        let mut caps = Vec::new();
        let span = self.find_impl(hostname, &mut CapSink { caps: &mut caps })?;
        Some(MatchResult { span, captures: caps })
    }

    /// Like [`Regex::find_trace`]: also reports the byte span each
    /// element consumed, aligned with the source element list.
    pub fn find_trace(&self, hostname: &str) -> Option<(MatchResult, Vec<(usize, usize)>)> {
        let mut caps = Vec::new();
        let mut trace = vec![(0usize, 0usize); self.ops.len()];
        let span =
            self.find_impl(hostname, &mut TraceSink { caps: &mut caps, trace: &mut trace })?;
        Some((MatchResult { span, captures: caps }, trace))
    }

    /// [`CompiledRegex::find_trace`] into a caller-owned span buffer —
    /// the allocation-free form the learner's class-embedding phase
    /// loops over a whole hostname set with. `trace` is resized to one
    /// span per element; returns whether the program matched (spans are
    /// only meaningful then). Captures are not reported.
    pub fn find_trace_into(&self, hostname: &str, trace: &mut Vec<(usize, usize)>) -> bool {
        trace.clear();
        trace.resize(self.ops.len(), (0, 0));
        self.find_impl(hostname, &mut SpanSink { trace }).is_some()
    }

    /// True if the program matches `hostname` at all.
    pub fn is_match(&self, hostname: &str) -> bool {
        self.find_impl(hostname, &mut FirstCapSink::default()).is_some()
    }

    /// The text of the first capture of the first match.
    pub fn extract<'h>(&self, hostname: &'h str) -> Option<&'h str> {
        self.match_capture(hostname)?.map(|(s, e)| &hostname[s..e])
    }

    /// The first capture span of the first match, allocation-free:
    /// `None` when the program does not match, `Some(None)` on a
    /// captureless match, `Some(Some((s, e)))` otherwise — exactly
    /// `find(..).map(|m| m.captures.first().copied())`. This is the
    /// learner's outcome-matrix cell primitive.
    pub fn match_capture(&self, hostname: &str) -> Option<Option<(usize, usize)>> {
        let mut sink = FirstCapSink::default();
        self.find_impl(hostname, &mut sink)?;
        Some((sink.len > 0).then_some(sink.first))
    }

    /// Every literal the program must consume on any match, in program
    /// order (duplicates possible). A hostname lacking one of them as a
    /// substring cannot match — the fact [`super::MultiMatcher`] builds
    /// its pool-wide dispatch automaton on. Unlike the single-program
    /// `prefilter`, this reports *all* mandatory literals and does so
    /// for `^`-anchored programs too: pool dispatch skips whole
    /// programs, so every literal constraint pays off.
    pub fn required_literals(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.ops.iter().filter_map(|op| match op {
            COp::Lit(l) if !l.is_empty() => Some(&l[..]),
            _ => None,
        })
    }

    /// The shared matching core, monomorphized per [`Sink`]: returns
    /// the match span, with captures and trace spans reported through
    /// the sink.
    fn find_impl<S: Sink>(&self, hostname: &str, sink: &mut S) -> Option<(usize, usize)> {
        let h = hostname.as_bytes();
        // Pure rejects: each only skips hostnames the program provably
        // cannot match, so results are unchanged.
        if let Some(lit) = &self.prefilter {
            if !contains_lit(h, lit) {
                return None;
            }
        }
        if let Some(tail) = &self.suffix_lit {
            if h.len() < tail.len() || h[h.len() - tail.len()..] != tail[..] {
                return None;
            }
        }
        if self.must_start {
            if let Some(end) = match_ops(&self.ops[1..], 1, h, 0, sink) {
                sink.trace(0, 0, 0);
                return Some((0, end));
            }
            return None;
        }
        if let Some(set) = &self.start_set {
            // The first element consumes a byte from `set`, so only
            // such offsets (and never end-of-string) can start a match.
            for start in 0..h.len() {
                if !set.contains(h[start]) {
                    continue;
                }
                sink.truncate(0);
                if let Some(end) = match_ops(&self.ops, 0, h, start, sink) {
                    return Some((start, end));
                }
            }
            return None;
        }
        for start in 0..=h.len() {
            sink.truncate(0);
            if let Some(end) = match_ops(&self.ops, 0, h, start, sink) {
                return Some((start, end));
            }
        }
        None
    }
}

/// Capture/trace reporting for one [`CompiledRegex::find_impl`] run.
///
/// Captures never influence control flow, and each method is a no-op in
/// the sinks that do not need its data — so every instantiation walks
/// the exact same backtracking path and the results stay bit-identical
/// across `find`, `find_trace`, `is_match`, `extract`,
/// `match_capture`, and `find_trace_into`, while the hot paths pay for
/// nothing they do not use (no allocation, no `Option` threading).
trait Sink {
    /// Whether this sink consumes `trace` calls. When `false` the
    /// matcher skips the success-path replay that reconstructs spans
    /// for deterministically-consumed ops (see `trace_prefix`).
    const TRACES: bool = false;
    /// Records the span op `idx` consumed (trace sinks only).
    #[inline(always)]
    fn trace(&mut self, _idx: usize, _s: usize, _e: usize) {}
    /// Number of captures currently recorded.
    fn mark(&self) -> usize;
    /// Records a capture (entering a `Capture` op's trial).
    fn push_cap(&mut self, s: usize, e: usize);
    /// Unwinds the most recent capture (the trial failed).
    fn pop_cap(&mut self);
    /// Unwinds to a previous mark (a `Set` trial or a fresh start).
    fn truncate(&mut self, mark: usize);
}

/// Full capture list into a `Vec` — the [`CompiledRegex::find`] sink.
struct CapSink<'a> {
    caps: &'a mut Vec<(usize, usize)>,
}

impl Sink for CapSink<'_> {
    fn mark(&self) -> usize {
        self.caps.len()
    }
    fn push_cap(&mut self, s: usize, e: usize) {
        self.caps.push((s, e));
    }
    fn pop_cap(&mut self) {
        self.caps.pop();
    }
    fn truncate(&mut self, mark: usize) {
        self.caps.truncate(mark);
    }
}

/// Captures plus per-op spans — the [`CompiledRegex::find_trace`] sink.
struct TraceSink<'a> {
    caps: &'a mut Vec<(usize, usize)>,
    trace: &'a mut [(usize, usize)],
}

impl Sink for TraceSink<'_> {
    const TRACES: bool = true;
    fn trace(&mut self, idx: usize, s: usize, e: usize) {
        self.trace[idx] = (s, e);
    }
    fn mark(&self) -> usize {
        self.caps.len()
    }
    fn push_cap(&mut self, s: usize, e: usize) {
        self.caps.push((s, e));
    }
    fn pop_cap(&mut self) {
        self.caps.pop();
    }
    fn truncate(&mut self, mark: usize) {
        self.caps.truncate(mark);
    }
}

/// Per-op spans only — the [`CompiledRegex::find_trace_into`] sink.
struct SpanSink<'a> {
    trace: &'a mut [(usize, usize)],
}

impl Sink for SpanSink<'_> {
    const TRACES: bool = true;
    fn trace(&mut self, idx: usize, s: usize, e: usize) {
        self.trace[idx] = (s, e);
    }
    fn mark(&self) -> usize {
        0
    }
    fn push_cap(&mut self, _s: usize, _e: usize) {}
    fn pop_cap(&mut self) {}
    fn truncate(&mut self, _mark: usize) {}
}

/// First capture only, O(1) state — the [`CompiledRegex::is_match`] /
/// [`CompiledRegex::match_capture`] sink. `first` tracks whatever
/// capture is currently oldest: it is rewritten whenever the count
/// returns to zero and a new capture arrives, so on success it is
/// exactly `captures.first()`.
#[derive(Default)]
struct FirstCapSink {
    len: usize,
    first: (usize, usize),
}

impl Sink for FirstCapSink {
    fn mark(&self) -> usize {
        self.len
    }
    fn push_cap(&mut self, s: usize, e: usize) {
        if self.len == 0 {
            self.first = (s, e);
        }
        self.len += 1;
    }
    fn pop_cap(&mut self) {
        self.len -= 1;
    }
    fn truncate(&mut self, mark: usize) {
        self.len = mark;
    }
}

/// Substring search specialised for short needles: scan for the first
/// byte (the iterator `position` vectorises), then verify the rest.
fn contains_lit(h: &[u8], lit: &[u8]) -> bool {
    let n = lit.len();
    if n == 0 {
        return true;
    }
    if n > h.len() {
        return false;
    }
    let first = lit[0];
    let last_start = h.len() - n;
    let mut base = 0usize;
    while base <= last_start {
        match h[base..=last_start].iter().position(|&b| b == first) {
            Some(off) => {
                let i = base + off;
                if h[i..i + n] == lit[..] {
                    return true;
                }
                base = i + 1;
            }
            None => return false,
        }
    }
    false
}

/// Length of the run of bytes from `set` starting at `pos`.
///
/// Word-at-a-time: 8 bytes per iteration via an unaligned `u64` load,
/// each byte tested against the 4-word bitmap into a per-chunk miss
/// mask, `trailing_zeros` locating the first non-member; the sub-8-byte
/// remainder falls back to the scalar scan. The membership test itself
/// is branch-free, so the only branch per chunk is "any miss at all".
#[inline]
fn run_len(h: &[u8], pos: usize, set: &ByteSet) -> usize {
    let tail = &h[pos..];
    let mut n = 0usize;
    let mut chunks = tail.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact yields 8 bytes"));
        let mut miss = 0u8;
        for i in 0..8 {
            let b = (word >> (8 * i)) as u8;
            miss |= u8::from(!set.contains(b)) << i;
        }
        if miss != 0 {
            return n + miss.trailing_zeros() as usize;
        }
        n += 8;
    }
    n + chunks.remainder().iter().take_while(|&&c| set.contains(c)).count()
}

/// Re-walks the deterministic prefix `ops[..n]` from `pos`, emitting
/// the trace span each op consumed. Every op in the prefix admits
/// exactly one trial (that is what made it deterministic), so the
/// replay recomputes the identical spans the forward pass consumed.
/// Only called on the success path of trace-bearing sinks.
fn trace_prefix<S: Sink>(ops: &[COp], idx: usize, h: &[u8], mut pos: usize, n: usize, sink: &mut S) {
    for (j, op) in ops[..n].iter().enumerate() {
        let end = match op {
            COp::Start | COp::End => pos,
            COp::Lit(l) => pos + l.len(),
            COp::Capture { set, .. } | COp::Set { set, .. } => pos + run_len(h, pos, set),
            COp::Alt { .. } => unreachable!("Alt ops never join the deterministic prefix"),
        };
        sink.trace(idx + j, pos, end);
        pos = end;
    }
}

/// The backtracking walk over the flat program: greedy one-or-more
/// components, alternation options in order, backtracking on failure. `idx`
/// addresses `ops[0]` within the full program for trace writes.
/// Monomorphized per [`Sink`]; captures and traces never steer the
/// walk, so every instantiation follows the identical path.
///
/// Ops that admit exactly one trial — `Start`, `End`, `Lit`, and
/// greedy components whose FIRST-set lookahead excludes every interior
/// boundary (`boundary_only`) — advance an iterative cursor with no
/// recursion. Only genuinely branching ops (`Alt`, components that
/// must try several lengths) open a stack frame, so the common mostly-
/// literal program runs as a flat loop. On failure the sink is rolled
/// back to its entry mark, keeping the caller-visible contract of the
/// fully recursive form.
fn match_ops<S: Sink>(ops: &[COp], idx: usize, h: &[u8], pos: usize, sink: &mut S) -> Option<usize> {
    let mark = sink.mark();
    let mut i = 0usize;
    let mut p = pos;
    // Deterministic prefix: single-trial ops advance the cursor.
    let (first, rest) = loop {
        let Some(op) = ops.get(i) else {
            if S::TRACES {
                trace_prefix(ops, idx, h, pos, i, sink);
            }
            return Some(p);
        };
        match op {
            COp::Start => {
                if p != 0 {
                    sink.truncate(mark);
                    return None;
                }
            }
            COp::End => {
                if p != h.len() {
                    sink.truncate(mark);
                    return None;
                }
            }
            COp::Lit(l) => {
                if h.len() - p < l.len() || h[p..p + l.len()] != l[..] {
                    sink.truncate(mark);
                    return None;
                }
                p += l.len();
            }
            COp::Capture { set, look, boundary_only: true } => {
                let max = run_len(h, p, set);
                if max == 0 || !look.viable(h, p + max) {
                    sink.truncate(mark);
                    return None;
                }
                sink.push_cap(p, p + max);
                p += max;
            }
            COp::Set { set, look, boundary_only: true } => {
                let max = run_len(h, p, set);
                if max == 0 || !look.viable(h, p + max) {
                    sink.truncate(mark);
                    return None;
                }
                p += max;
            }
            _ => break (op, &ops[i + 1..]),
        }
        i += 1;
    };
    // Branching op at `ops[i]`: recursive trials, greediest first.
    let ridx = idx + i + 1;
    // Records the branching op's span plus the deterministic prefix's
    // spans on success, and propagates the end.
    macro_rules! ok {
        ($consumed_end:expr, $end:expr) => {{
            if S::TRACES {
                sink.trace(idx + i, p, $consumed_end);
                trace_prefix(ops, idx, h, pos, i, sink);
            }
            return Some($end);
        }};
    }
    match first {
        COp::Alt { opts, optional } => {
            for opt in opts.iter() {
                if h.len() - p >= opt.len() && h[p..p + opt.len()] == opt[..] {
                    let np = p + opt.len();
                    if let Some(end) = match_ops(rest, ridx, h, np, sink) {
                        ok!(np, end);
                    }
                }
            }
            if *optional {
                if let Some(end) = match_ops(rest, ridx, h, p, sink) {
                    ok!(p, end);
                }
            }
        }
        COp::Capture { set, look, .. } => {
            let max = run_len(h, p, set);
            for take in (1..=max).rev() {
                if !look.viable(h, p + take) {
                    continue;
                }
                sink.push_cap(p, p + take);
                if let Some(end) = match_ops(rest, ridx, h, p + take, sink) {
                    ok!(p + take, end);
                }
                sink.pop_cap();
            }
        }
        COp::Set { set, look, .. } => {
            let max = run_len(h, p, set);
            for take in (1..=max).rev() {
                if !look.viable(h, p + take) {
                    continue;
                }
                let trial = sink.mark();
                if let Some(end) = match_ops(rest, ridx, h, p + take, sink) {
                    ok!(p + take, end);
                }
                sink.truncate(trial);
            }
        }
        COp::Start | COp::End | COp::Lit(_) => {
            unreachable!("single-trial ops are consumed by the deterministic prefix")
        }
    }
    sink.truncate(mark);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    #[test]
    fn byteset_membership() {
        let digits = ByteSet::digits();
        for b in 0..=255u8 {
            assert_eq!(digits.contains(b), b.is_ascii_digit(), "byte {b}");
        }
        assert!(ByteSet::from_pred(|_| true).is_full());
        assert!(!ByteSet::EMPTY.is_full());
    }

    #[test]
    fn prefilter_rejects_without_running_the_program() {
        let c = CompiledRegex::compile(&rx(r"as(\d+)\.nts\.ch$"));
        assert_eq!(c.prefilter.as_deref(), Some(&b".nts.ch"[..]));
        assert!(c.find("core1.example.org").is_none());
        assert!(c.find("as100.nts.ch").is_some());
    }

    #[test]
    fn suffix_reject_respects_end_anchor() {
        let c = CompiledRegex::compile(&rx(r"^(\d+)\.x\.com$"));
        assert_eq!(c.suffix_lit.as_deref(), Some(&b".x.com"[..]));
        assert!(c.find("714.x.com").is_some());
        assert!(c.find("714.x.com.evil.net").is_none());
    }

    /// Agreement with the reference walk on these regexes is checked in
    /// `tests/compiled_equiv.rs`; here only the compiled screens.
    #[test]
    fn start_set_prunes_only_impossible_offsets() {
        // `as(\d+)` can only start at an `a`.
        let c = CompiledRegex::compile(&rx(r"as(\d+)"));
        assert_eq!(c.start_set.map(|s| (s.contains(b'a'), s.contains(b'b'))), Some((true, false)));
        // An optional alternation first is zero-width at any offset, so
        // no start pruning is sound.
        assert!(CompiledRegex::compile(&rx(r"(?:p|s)?(\d+)")).start_set.is_none());
    }

    #[test]
    fn contains_lit_cases() {
        assert!(contains_lit(b"abcdef", b"cde"));
        assert!(contains_lit(b"abcdef", b"abcdef"));
        assert!(!contains_lit(b"abcdef", b"abcdefg"));
        assert!(!contains_lit(b"abcdef", b"xyz"));
        assert!(contains_lit(b"aab", b"ab"));
        assert!(contains_lit(b"", b""));
        assert!(contains_lit(b"x", b""));
    }

    #[test]
    fn run_len_word_at_a_time_equals_scalar() {
        let digits = ByteSet::digits();
        // Runs crossing every chunk boundary shape: 0..=20 leading
        // digits, then a non-member, at every starting offset.
        for lead in 0..=20usize {
            let mut h = vec![b'x'; 3];
            h.extend(std::iter::repeat(b'7').take(lead));
            h.push(b'.');
            h.extend_from_slice(b"123456789");
            for pos in 0..h.len() {
                let scalar = h[pos..].iter().take_while(|&&c| digits.contains(c)).count();
                assert_eq!(run_len(&h, pos, &digits), scalar, "lead={lead} pos={pos}");
            }
        }
        // Run extending to end-of-string (no terminator in the tail).
        let all = b"12345678901234567";
        assert_eq!(run_len(all, 0, &digits), all.len());
        assert_eq!(run_len(b"", 0, &digits), 0);
    }

    #[test]
    fn required_literals_reported_for_anchored_and_unanchored() {
        let c = CompiledRegex::compile(&rx(r"^as(\d+)-ix\.example\.net$"));
        let lits: Vec<&[u8]> = c.required_literals().collect();
        assert_eq!(lits, vec![&b"as"[..], &b"-ix.example.net"[..]]);
        // Alternations and classes contribute no required literal.
        let c = CompiledRegex::compile(&rx(r"(?:p|s)?(\d+)\.[a-z]+"));
        let lits: Vec<&[u8]> = c.required_literals().collect();
        assert_eq!(lits, vec![&b"."[..]]);
    }
}
