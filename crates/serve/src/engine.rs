//! The extraction engine: a read-optimized in-memory index over a
//! loaded [`Model`](crate::model::Model).
//!
//! Dispatch is keyed by suffix. The model's suffixes and the PSL rules
//! (`hoiho-psl`, the same grouping the learner used) are compiled into
//! one [`SuffixIndex`], and a query hostname is walked through it once
//! from the right: its registrable domain when that is keyed (`exact`),
//! else its deepest keyed label suffix (`fallback` — a model keyed
//! under a deeper suffix, or a PSL snapshot drift between trainer and
//! server), else a `miss`. The dispatched suffix's naming convention
//! then runs its compiled regexes in rank order — identical semantics
//! to [`NamingConvention::extract`], minus the per-call allocation
//! churn.
//!
//! Batch extraction ([`Engine::extract_all`]) fans out over scoped
//! threads with each worker writing disjoint output slots, so results
//! are positionally deterministic regardless of thread count.
//!
//! [`NamingConvention::extract`]: hoiho::NamingConvention::extract

use crate::model::{Model, ModelEntry};
use crate::server::QueryAnswer;
use hoiho::classify::NcClass;
use hoiho::regex::{CompiledRegex, MultiMatcher, Regex};
use hoiho_psl::{Dispatch, PublicSuffixList, SuffixIndex};

/// Minimum number of hostnames a batch worker must own before
/// [`Engine::extract_all`] spawns it. Extraction costs on the order of
/// a microsecond per hostname while a thread spawn costs tens of
/// microseconds, so fanning out a small batch is a net loss — the
/// `serve/extract/batch_4_threads` bench regressed to ~0.6x
/// single-threaded on a 213-hostname batch before this floor existed.
pub const MIN_BATCH_CHUNK: usize = 1024;

/// One compiled convention, ready to serve lookups. The regex ASTs are
/// kept for introspection; queries run the matcher programs, lowered
/// once at engine construction (model load).
#[derive(Debug, Clone)]
pub struct CompiledNc {
    /// The suffix the convention is keyed under.
    pub suffix: String,
    /// §4 quality class.
    pub class: NcClass,
    /// True when the convention labels a single ASN (Figure 2).
    pub single: bool,
    /// The regexes, in rank order.
    pub regexes: Vec<Regex>,
    /// The compiled form of `regexes`, same order.
    programs: Vec<CompiledRegex>,
    /// Literal dispatch over `programs`, when the pool is small enough
    /// for the bitmask fast path (`MultiMatcher::supports_mask`) —
    /// always true for real models, whose conventions carry a handful
    /// of regexes. One automaton scan of the hostname rules out the
    /// programs whose required literal never occurs.
    matcher: Option<MultiMatcher>,
}

impl CompiledNc {
    /// Compiles every convention of `model`, in model order.
    pub(crate) fn compile_all(model: &Model) -> Vec<CompiledNc> {
        model.entries.iter().map(CompiledNc::new).collect()
    }

    fn new(e: &ModelEntry) -> CompiledNc {
        let programs: Vec<CompiledRegex> = e.regexes.iter().map(CompiledRegex::compile).collect();
        let matcher = Some(MultiMatcher::build(programs.iter())).filter(MultiMatcher::supports_mask);
        CompiledNc {
            suffix: e.suffix.clone(),
            class: e.class,
            single: e.single,
            regexes: e.regexes.clone(),
            programs,
            matcher,
        }
    }

    /// Runs the convention on an already-lowercased hostname —
    /// first-match-wins, mirroring [`hoiho::NamingConvention::extract`]:
    /// the first matching regex provides the digits, and digits that
    /// overflow the 32-bit ASN space yield `None` without trying later
    /// regexes.
    pub fn extract_lower(&self, lower: &str) -> Option<u32> {
        if let Some(m) = &self.matcher {
            // Ascending bit order is pool order is rank order, so the
            // masked walk preserves first-match-wins exactly; skipped
            // programs are missing a required literal and cannot match.
            let mut mask = m.dispatch_mask(lower.as_bytes());
            while mask != 0 {
                let ri = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if let Some(digits) = self.programs[ri].extract(lower) {
                    return digits.parse::<u32>().ok();
                }
            }
            return None;
        }
        for p in &self.programs {
            if let Some(digits) = p.extract(lower) {
                return digits.parse::<u32>().ok();
            }
        }
        None
    }
}

/// The outcome of one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extraction {
    /// Index into [`Engine::conventions`] of the dispatched NC, when
    /// some suffix in the index covered the hostname.
    pub nc: Option<usize>,
    /// The extracted ASN, when a regex matched.
    pub asn: Option<u32>,
}

impl Extraction {
    /// A lookup that found no convention to run.
    pub const MISS: Extraction = Extraction { nc: None, asn: None };
}

/// A suffix-indexed, read-only extraction engine.
///
/// Construction compiles the model once; lookups never mutate, so one
/// engine can be shared across threads behind an `Arc`. The server
/// serves
/// through [`crate::router::ShardRouter`], which runs the same
/// dispatch over all of its shards at once; this engine is the
/// single-model reference it is tested against.
#[derive(Debug, Clone)]
pub struct Engine {
    ncs: Vec<CompiledNc>,
    /// The PSL rules plus every convention's suffix → its index.
    index: SuffixIndex<usize>,
}

impl Engine {
    /// Compiles a model into an engine using the built-in PSL snapshot.
    pub fn new(model: &Model) -> Engine {
        Engine::with_psl(model, PublicSuffixList::builtin())
    }

    /// Compiles a model with a caller-provided PSL (e.g. a full Mozilla
    /// list loaded at deploy time).
    pub fn with_psl(model: &Model, psl: PublicSuffixList) -> Engine {
        let ncs = CompiledNc::compile_all(model);
        let index = psl.index(ncs.iter().enumerate().map(|(i, nc)| (nc.suffix.as_str(), i)));
        Engine { ncs, index }
    }

    /// The compiled conventions, index-addressable (the indices appear
    /// in [`Extraction::nc`] and the server's per-suffix stats).
    pub fn conventions(&self) -> &[CompiledNc] {
        &self.ncs
    }

    /// Number of conventions in the index.
    pub fn len(&self) -> usize {
        self.ncs.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ncs.is_empty()
    }

    /// How `lower` (an already-lowercased hostname) dispatches, in one
    /// walk of the suffix index (see the module docs): the convention
    /// index, and whether the registrable domain or a fallback label
    /// suffix found it.
    pub(crate) fn dispatch(&self, lower: &str) -> Dispatch<usize> {
        self.index.walk(lower).dispatch
    }

    /// Looks up one hostname: dispatch to its suffix's NC, then run the
    /// regexes. Matching is case-insensitive (one lowercase pass here).
    pub fn extract(&self, hostname: &str) -> Extraction {
        let lower = hostname.to_ascii_lowercase();
        match self.dispatch(&lower).value() {
            Some(i) => Extraction { nc: Some(i), asn: self.ncs[i].extract_lower(&lower) },
            None => Extraction::MISS,
        }
    }

    /// [`Engine::extract`] as the protocol reports it: the ASN plus the
    /// dispatched convention's suffix and class.
    pub fn answer(&self, hostname: &str) -> QueryAnswer {
        let x = self.extract(hostname);
        QueryAnswer::new(x.nc.map(|i| &self.ncs[i]), x.asn)
    }

    /// Batch lookup over `threads` scoped workers (0 = one per core).
    ///
    /// Output slot `i` always holds the extraction for `hostnames[i]`,
    /// and each worker owns a disjoint contiguous chunk of the output,
    /// so the result is byte-identical for every thread count. Chunks
    /// never shrink below [`MIN_BATCH_CHUNK`] hostnames: a batch too
    /// small to amortize thread spawns runs on fewer workers (down to
    /// the calling thread alone), which changes nothing positionally.
    pub fn extract_all(&self, hostnames: &[String], threads: usize) -> Vec<Extraction> {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        let threads = threads.max(1).min(hostnames.len().max(1));
        let mut out = vec![Extraction::MISS; hostnames.len()];
        let chunk = hostnames.len().div_ceil(threads).max(MIN_BATCH_CHUNK);
        if threads <= 1 || chunk >= hostnames.len() {
            for (slot, h) in out.iter_mut().zip(hostnames) {
                *slot = self.extract(h);
            }
            return out;
        }
        std::thread::scope(|scope| {
            for (inputs, slots) in hostnames.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, h) in slots.iter_mut().zip(inputs) {
                        *slot = self.extract(h);
                    }
                });
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EvalCounts, Model, ModelEntry};
    use hoiho::taxonomy::Taxonomy;

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Complex,
            hostnames: 10,
            counts: EvalCounts::default(),
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn engine() -> Engine {
        Engine::new(&Model {
            entries: vec![
                entry(
                    "equinix.com",
                    &[r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$", r"^(\d+)-.+\.equinix\.com$"],
                ),
                entry("nts.ch", &[r"as(\d+)\.nts\.ch$"]),
            ],
        })
    }

    #[test]
    fn dispatch_and_extract() {
        let e = engine();
        let x = e.extract("p714.sgw.equinix.com");
        assert_eq!(x.asn, Some(714));
        assert_eq!(x.nc.map(|i| e.conventions()[i].suffix.as_str()), Some("equinix.com"));
        // Second regex in rank order.
        assert_eq!(e.extract("24482-fr5-ix.equinix.com").asn, Some(24482));
        // Covered suffix, no match: dispatched but no ASN.
        let x = e.extract("netflix.zh2.corp.eu.equinix.com");
        assert_eq!((x.nc.is_some(), x.asn), (true, None));
        // Unknown suffix: full miss.
        assert_eq!(e.extract("core1.example.org"), Extraction::MISS);
        assert_eq!(e.extract(""), Extraction::MISS);
    }

    #[test]
    fn case_insensitive() {
        let e = engine();
        assert_eq!(e.extract("GE0-2.01.P.AS15576.NTS.CH").asn, Some(15576));
    }

    #[test]
    fn deeper_than_registrable_suffix_reachable_via_fallback() {
        // A model keyed under a third-level suffix the PSL reduces past.
        let e = Engine::new(&Model {
            entries: vec![entry("net.example.com", &[r"^as(\d+)\.net\.example\.com$"])],
        });
        assert_eq!(e.extract("as100.net.example.com").asn, Some(100));
    }

    #[test]
    fn extraction_matches_convention_semantics() {
        // First matching regex wins even when its digits overflow u32 —
        // mirroring NamingConvention::extract exactly, which never falls
        // through to a later regex once one has matched.
        let e = Engine::new(&Model {
            entries: vec![entry(
                "x.com",
                &[r"-(\d+)\.x\.com$", r"^(\d+)-"],
            )],
        });
        assert_eq!(e.extract("123-99999999999.x.com").asn, None);
    }

    #[test]
    fn batch_is_positional_and_thread_invariant() {
        let e = engine();
        // Larger than MIN_BATCH_CHUNK so the threaded path actually
        // engages, and not a multiple of any chunk size.
        let hosts: Vec<String> = (0..(3 * MIN_BATCH_CHUNK + 17))
            .map(|i| match i % 4 {
                0 => format!("p{i}.sgw.equinix.com"),
                1 => format!("{i}-fr5-ix.equinix.com"),
                2 => format!("as{i}.nts.ch"),
                _ => format!("host{i}.example.org"),
            })
            .collect();
        let baseline = e.extract_all(&hosts, 1);
        assert_eq!(baseline.len(), hosts.len());
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(baseline[i], e.extract(h));
        }
        for threads in [2, 3, 8, 64, 0] {
            assert_eq!(e.extract_all(&hosts, threads), baseline, "threads={threads}");
        }
        assert!(e.extract_all(&[], 4).is_empty());
        // A batch below the chunk floor must stay identical too (it
        // runs on the calling thread regardless of `threads`).
        let small = &hosts[..MIN_BATCH_CHUNK / 2];
        assert_eq!(e.extract_all(small, 8), baseline[..small.len()]);
    }

    #[test]
    fn dispatch_outcomes_under_the_builtin_psl() {
        let e = engine();
        assert_eq!(e.dispatch("p714.sgw.equinix.com"), Dispatch::Exact(0));
        assert_eq!(e.dispatch("as100.nts.ch"), Dispatch::Exact(1));
        assert_eq!(e.dispatch("core1.example.org"), Dispatch::Miss);
        // Deeper than the PSL registrable domain: fallback.
        let deep = Engine::new(&Model {
            entries: vec![entry("net.example.com", &[r"^as(\d+)\.net\.example\.com$"])],
        });
        assert_eq!(deep.dispatch("as100.net.example.com"), Dispatch::Fallback(0));
    }

    /// How one lookup dispatched, and the suffix its extraction names.
    fn dispatched(e: &Engine, host: &str) -> (&'static str, Option<String>) {
        let outcome = match e.dispatch(&host.to_ascii_lowercase()) {
            Dispatch::Exact(_) => "exact",
            Dispatch::Fallback(_) => "fallback",
            Dispatch::Miss => "miss",
        };
        (outcome, e.extract(host).nc.map(|i| e.conventions()[i].suffix.clone()))
    }

    /// First-match order, pinned case by case: the registrable domain
    /// first, then label suffixes longest-first.
    #[test]
    fn dispatch_order_is_registrable_first_then_deepest_suffix() {
        let psl = PublicSuffixList::parse("com\nnz\nco.nz\n*.ck\n!www.ck\n");
        let keys = [
            "equinix.com",
            "sgw.equinix.com",
            "net.example.com",
            "b.com",
            "co.nz",
            "foo.bar.ck",
            "bar.ck",
            "www.ck",
            "a..b.org",
        ];
        let e = Engine::with_psl(
            &Model { entries: keys.iter().map(|k| entry(k, &[r"^as(\d+)\."])).collect() },
            psl,
        );
        let cases: &[(&str, &str, Option<&str>)] = &[
            // A keyed registrable domain beats a deeper key.
            ("p1.sgw.equinix.com", "exact", Some("equinix.com")),
            // Uppercase and trailing dots normalise before dispatch.
            ("P1.SGW.Equinix.COM.", "exact", Some("equinix.com")),
            // Registrable domain unkeyed: the deeper key is reached...
            ("as1.net.example.com", "fallback", Some("net.example.com")),
            // ...and so is a shallower one (a keyed public suffix).
            ("r1.foo.co.nz", "fallback", Some("co.nz")),
            // A bare public suffix has no registrable domain, but its
            // own label suffix is still probed.
            ("co.nz", "fallback", Some("co.nz")),
            // Empty labels: no registrable domain, yet the fallback
            // still reaches `b.com`.
            ("a..b.com", "fallback", Some("b.com")),
            // A key spelled with an empty label is reachable verbatim.
            ("x.a..b.org", "fallback", Some("a..b.org")),
            // `*.ck`: the registrable domain sits under the wildcard.
            ("r1.foo.bar.ck", "exact", Some("foo.bar.ck")),
            ("x.bar.ck", "fallback", Some("bar.ck")),
            // `!www.ck`: the exception makes `www.ck` registrable.
            ("r1.www.ck", "exact", Some("www.ck")),
            ("core1.example.org", "miss", None),
            ("", "miss", None),
            (".", "miss", None),
        ];
        for &(host, outcome, suffix) in cases {
            let got = dispatched(&e, host);
            assert_eq!(got, (outcome, suffix.map(str::to_string)), "{host}");
        }
    }

    /// A pool past the 64-regex bitmask limit drops to the plain
    /// rank-order loop and answers identically to a masked engine
    /// holding the same effective convention.
    #[test]
    fn oversized_pool_falls_back_to_rank_order_loop() {
        let real = [r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$", r"^(\d+)-.+\.equinix\.com$"];
        // 70 never-matching decoys ahead of the real regexes keep rank
        // order observable: the decoys must all be tried (and fail)
        // before the real ones win.
        let mut pool: Vec<String> =
            (0..70).map(|i| format!(r"^decoy{i}x(\d+)\.equinix\.com$")).collect();
        pool.extend(real.iter().map(|s| s.to_string()));
        let refs: Vec<&str> = pool.iter().map(String::as_str).collect();
        let big = Engine::new(&Model { entries: vec![entry("equinix.com", &refs)] });
        let small = Engine::new(&Model { entries: vec![entry("equinix.com", &real)] });
        for h in ["p714.sgw.equinix.com", "24482-fr5-ix.equinix.com", "www.equinix.com"] {
            assert_eq!(big.extract(h).asn, small.extract(h).asn, "{h}");
        }
    }
}
