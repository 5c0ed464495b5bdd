//! Phase 4 (§3.5): build regex sets.
//!
//! Operators often use several hostname formats at once (Figure 4's
//! Equinix data mixes `p714.sgw…` with `24482-fr5-ix…`). A single regex
//! cannot cover both, so Hoiho combines regexes into a *set* forming one
//! naming convention: regexes are ranked by ATP and greedily extended
//! with lower-ranked regexes whenever the combination's ATP strictly
//! improves. Unlike the 2019 router-name work, a combination is kept even
//! if it lowers PPV — discrepancies between training and embedded ASNs
//! are the signal §5 consumes, so coverage wins (§3.5).
//!
//! ## The outcome matrix
//!
//! Set semantics are first-match-wins per hostname, so a trial set's
//! `Counts` is fully determined by each member regex's *individual*
//! per-host outcome. The learner therefore evaluates every
//! pooled regex exactly once per host — through its compiled program
//! ([`crate::regex::CompiledRegex`]) — into a column of
//! `Option<Outcome>` cells (`Some` iff the regex matched with a
//! capture, which is when it would claim the host in a set). Ranking
//! folds each column into `Counts`, and greedy extension becomes an
//! incremental merge: only hosts the current set leaves unresolved are
//! consulted when scoring a trial, and the trial's ATP is the current
//! set's resolved tally plus the candidate column's contribution on
//! those hosts. No matcher runs during greedy extension at all.
//!
//! When the matrix is large enough to pay for it (`DISPATCH_MIN_CELLS`
//! cells), the column build goes one step further: a pool-wide
//! [`MultiMatcher`] — an Aho–Corasick automaton over every program's
//! required literals — scans each host **once** and dispatches only the
//! regexes whose literals all occurred (plus the literal-free fallback
//! bucket). Skipped cells are provably `None` (a missing required
//! literal rules the match out), so the matrix is bit-identical to
//! evaluating everything; the skip volume is exported as
//! `hoiho_learn_prefilter_skips_total`. Smaller matrices evaluate every
//! (regex, host) cell.
//!
//! The pre-matrix algorithm, which re-evaluates every trial set with
//! [`crate::eval::evaluate`], survives only as a test oracle
//! (`build_sets_direct`); the unit tests here and the whole-pipeline
//! gates in `learner.rs` pin the matrix to it, and each column build to
//! the other.

use super::DISPATCH_MIN_CELLS;
use crate::eval::{negative_outcome, regex_hit_cached, Counts, Outcome};
use crate::regex::{CompiledRegex, MultiMatcher, Regex};
use crate::training::HostObs;
use hoiho_obs::Counter;
use std::sync::OnceLock;

/// A candidate naming convention: an ordered regex list with its
/// evaluation over the suffix's hostnames.
#[derive(Debug, Clone)]
pub struct CandidateNc {
    /// Regexes in rank order (first match wins).
    pub regexes: Vec<Regex>,
    /// Evaluation of the ordered set over the training hostnames.
    pub counts: Counts,
}

/// Tunables for set construction.
#[derive(Debug, Clone, Copy)]
pub struct SetsConfig {
    /// How many top-ranked regexes seed greedy set construction.
    pub max_starts: usize,
    /// Maximum number of regexes in one convention.
    pub max_set_size: usize,
    /// Cap on ranked regexes considered for extension.
    pub max_pool: usize,
}

impl Default for SetsConfig {
    fn default() -> Self {
        SetsConfig { max_starts: 12, max_set_size: 6, max_pool: 200 }
    }
}

/// What one [`build_sets`] call actually evaluated: the observability
/// payload for the learner's `sets` trace span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetsStats {
    /// (regex, host) evaluations that ran.
    pub dispatched: u64,
    /// Evaluations skipped by literal dispatch (a required literal was
    /// absent, so the cell is `None` without running the program).
    pub skipped: u64,
}

/// Process-global `hoiho_learn_evaluations_total{phase}` counters:
/// `rank` counts one evaluation per pooled regex (one column build on
/// the fast path), `greedy` one per trial-set scoring. Visible over the
/// serving `METRICS` verb and summarised by `hoiho learn --trace`.
fn eval_counters() -> &'static (Counter, Counter) {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = hoiho_obs::global().registry();
        (
            reg.counter("hoiho_learn_evaluations_total", &[("phase", "rank")]),
            reg.counter("hoiho_learn_evaluations_total", &[("phase", "greedy")]),
        )
    })
}

/// Process-global `hoiho_learn_prefilter_skips_total`: (regex, host)
/// evaluations the pool-wide literal dispatch proved unnecessary. Read
/// next to `hoiho_learn_evaluations_total{phase="rank"}` to see the
/// fraction of the matrix the automaton skipped.
fn prefilter_skips() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| {
        hoiho_obs::global().registry().counter("hoiho_learn_prefilter_skips_total", &[])
    })
}

/// Ranks `pool` by ATP and returns candidate conventions: every ranked
/// single regex plus the greedy combinations seeded from the top ranks.
///
/// Regexes that never achieve a true positive are dropped before
/// ranking — they cannot contribute to any convention.
pub fn build_sets(pool: &[Regex], hosts: &[HostObs], cfg: &SetsConfig) -> Vec<CandidateNc> {
    build_sets_stats(pool, hosts, cfg).0
}

/// [`build_sets`] that also reports what the column build dispatched
/// and skipped — the learner attaches this to its `sets` trace span.
pub fn build_sets_stats(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> (Vec<CandidateNc>, SetsStats) {
    build_sets_with(pool, hosts, cfg, DISPATCH_MIN_CELLS)
}

/// Sorts candidates best-first and drops duplicate conventions (two
/// seeds can converge). The key is computed once per candidate — the
/// tie-breaks render the regexes to text, far too expensive to re-run
/// inside a comparator.
fn dedup_candidates(mut out: Vec<CandidateNc>) -> Vec<CandidateNc> {
    out.sort_by_cached_key(|c| {
        (
            std::cmp::Reverse(c.counts.atp()),
            std::cmp::Reverse(c.counts.tp),
            c.counts.fp,
            c.regexes.len(),
            memorised(&c.regexes),
            std::cmp::Reverse(strength(&c.regexes)),
            key(&c.regexes),
        )
    });
    out.dedup_by(|a, b| a.regexes == b.regexes);
    out
}

/// Rank-sorts evaluated candidates, in place, with the anti-over-fitting
/// tie-breaks, then applies the pool cap and drops duplicates.
fn rank_and_prune<T>(ranked: &mut Vec<(Regex, Counts, T)>, cfg: &SetsConfig) {
    // Mirrors `rank_order` plus the anti-over-fitting tie-breaks: less
    // memorised text, then stronger components, then the textual form.
    // One cached key per candidate — the textual tie-break formats the
    // regex, far too expensive to re-run inside a comparator.
    ranked.sort_by_cached_key(|(r, c, _)| {
        (
            std::cmp::Reverse(c.atp()),
            std::cmp::Reverse(c.tp),
            c.fp,
            r.memorised_chars(),
            std::cmp::Reverse(r.component_strength()),
            r.to_string(),
        )
    });
    ranked.truncate(cfg.max_pool);
    ranked.dedup_by(|a, b| a.0 == b.0);
}

/// [`build_sets_stats`] with the dispatch threshold as a parameter, so
/// tests can force either column build whatever the matrix size: at
/// most one compiled evaluation per (regex, host), then pure column
/// composition.
fn build_sets_with(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
    dispatch_min_cells: usize,
) -> (Vec<CandidateNc>, SetsStats) {
    let (rank_evals, greedy_evals) = eval_counters();
    rank_evals.add(pool.len() as u64);
    let mut stats = SetsStats::default();

    // Layer 1: each pooled regex compiles once into its on-`Regex` cache.
    // Layer 2: evaluate it at most once per host into its outcome column.
    // On a large matrix "at most" does the heavy lifting: one automaton
    // scan per host dispatches only the regexes whose required literals
    // all occurred; a skipped cell is provably `None`, so the columns are
    // bit-identical to evaluating every regex on every host.
    let programs: Vec<&CompiledRegex> = pool.iter().map(|r| r.program()).collect();
    let cells = pool.len() * hosts.len();
    let matcher =
        (cells >= dispatch_min_cells).then(|| MultiMatcher::build(programs.iter().copied()));
    let mut scratch = matcher.as_ref().map(MultiMatcher::scratch);
    let every: Vec<u32> = (0..pool.len() as u32).collect();
    let mut columns: Vec<Vec<Option<Outcome>>> = vec![vec![None; hosts.len()]; pool.len()];
    for (hi, h) in hosts.iter().enumerate() {
        let dispatched = match (&matcher, &mut scratch) {
            (Some(m), Some(scratch)) => m.dispatch(h.hostname.as_bytes(), scratch),
            _ => &every,
        };
        stats.dispatched += dispatched.len() as u64;
        // Sibling regexes overwhelmingly extract the same span from a
        // host; the one-entry cache skips re-classifying it.
        let mut span_cache = None;
        for &ri in dispatched {
            columns[ri as usize][hi] = regex_hit_cached(programs[ri as usize], h, &mut span_cache);
        }
    }
    stats.skipped = cells as u64 - stats.dispatched;
    prefilter_skips().add(stats.skipped);

    let mut ranked: Vec<(Regex, Counts, usize)> = pool
        .iter()
        .enumerate()
        .map(|(ci, r)| (r.clone(), column_counts(&columns[ci], hosts), ci))
        .filter(|(_, c, _)| c.tp > 0)
        .collect();
    rank_and_prune(&mut ranked, cfg);

    let mut out: Vec<CandidateNc> = ranked
        .iter()
        .map(|(r, c, _)| CandidateNc { regexes: vec![r.clone()], counts: c.clone() })
        .collect();

    // Greedy combination from each of the top `max_starts` seeds,
    // merging candidate columns over the still-unresolved hosts only.
    for i in 0..ranked.len().min(cfg.max_starts) {
        let mut cur: Vec<Regex> = vec![ranked[i].0.clone()];
        let mut cur_counts = ranked[i].1.clone();
        // First-match-wins state: resolved cells are the TP/FP hosts
        // some member already claims; everything else is still open.
        let mut resolved: Vec<Option<Outcome>> = columns[ranked[i].2].clone();
        let mut unresolved: Vec<usize> =
            (0..hosts.len()).filter(|&hi| resolved[hi].is_none()).collect();
        let mut res_tp = i64::from(cur_counts.tp);
        let mut res_fp = i64::from(cur_counts.fp);
        for (r, _, cj) in ranked.iter().skip(i + 1) {
            if cur.len() >= cfg.max_set_size {
                break;
            }
            greedy_evals.inc();
            let col = &columns[*cj];
            let (mut tp, mut fp, mut fnn) = (res_tp, res_fp, 0i64);
            for &hi in &unresolved {
                match col[hi] {
                    Some(Outcome::TruePositive(_)) => tp += 1,
                    Some(Outcome::FalsePositive(_)) => fp += 1,
                    _ => {
                        if hosts[hi].has_apparent() {
                            fnn += 1;
                        }
                    }
                }
            }
            if tp - (fp + fnn) > cur_counts.atp() {
                cur.push(r.clone());
                for &hi in &unresolved {
                    if col[hi].is_some() {
                        resolved[hi] = col[hi];
                    }
                }
                unresolved.retain(|&hi| resolved[hi].is_none());
                cur_counts = column_counts(&resolved, hosts);
                res_tp = i64::from(cur_counts.tp);
                res_fp = i64::from(cur_counts.fp);
            }
        }
        if cur.len() > 1 {
            out.push(CandidateNc { regexes: cur, counts: cur_counts });
        }
    }
    (dedup_candidates(out), stats)
}

/// The pre-matrix algorithm, re-evaluating each trial set with
/// [`crate::eval::evaluate`]: the equivalence oracle for the matrix.
#[cfg(test)]
pub(crate) fn build_sets_direct(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> (Vec<CandidateNc>, SetsStats) {
    use crate::eval::evaluate;

    let mut ranked: Vec<(Regex, Counts, ())> = pool
        .iter()
        .map(|r| (r.clone(), evaluate(std::slice::from_ref(r), hosts), ()))
        .filter(|(_, c, _)| c.tp > 0)
        .collect();
    rank_and_prune(&mut ranked, cfg);

    let mut out: Vec<CandidateNc> = ranked
        .iter()
        .map(|(r, c, _)| CandidateNc { regexes: vec![r.clone()], counts: c.clone() })
        .collect();

    // Greedy combination from each of the top `max_starts` seeds.
    for i in 0..ranked.len().min(cfg.max_starts) {
        let mut cur: Vec<Regex> = vec![ranked[i].0.clone()];
        let mut cur_counts = ranked[i].1.clone();
        for (r, _, ()) in ranked.iter().skip(i + 1) {
            if cur.len() >= cfg.max_set_size {
                break;
            }
            let mut trial = cur.clone();
            trial.push(r.clone());
            let c = evaluate(&trial, hosts);
            if c.atp() > cur_counts.atp() {
                cur = trial;
                cur_counts = c;
            }
        }
        if cur.len() > 1 {
            out.push(CandidateNc { regexes: cur, counts: cur_counts });
        }
    }
    let stats = SetsStats { dispatched: (pool.len() * hosts.len()) as u64, skipped: 0 };
    (dedup_candidates(out), stats)
}

/// The matrix with every (regex, host) cell evaluated, whatever its
/// size.
#[cfg(test)]
pub(crate) fn build_sets_undispatched(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> (Vec<CandidateNc>, SetsStats) {
    build_sets_with(pool, hosts, cfg, usize::MAX)
}

/// The matrix with every column built through literal dispatch,
/// whatever its size.
#[cfg(test)]
pub(crate) fn build_sets_dispatch(
    pool: &[Regex],
    hosts: &[HostObs],
    cfg: &SetsConfig,
) -> (Vec<CandidateNc>, SetsStats) {
    build_sets_with(pool, hosts, cfg, 0)
}

/// Folds a first-match-wins outcome column into `Counts`, filling
/// unresolved hosts with their negative outcome (FN/TN).
///
/// The unique-value sets are bulk-built (collect, sort, dedup) rather
/// than inserted per host: one column fold per pooled regex is the
/// inner loop of ranking, and per-record `BTreeSet` inserts dominated
/// it. Set contents are identical either way.
fn column_counts(col: &[Option<Outcome>], hosts: &[HostObs]) -> Counts {
    let mut c = Counts::default();
    let mut tp_asns: Vec<u32> = Vec::new();
    let mut extracted: Vec<u32> = Vec::new();
    for (hi, h) in hosts.iter().enumerate() {
        match col[hi].unwrap_or_else(|| negative_outcome(h)) {
            Outcome::TruePositive(v) => {
                c.tp += 1;
                tp_asns.push(h.training_asn);
                extracted.push(v);
            }
            Outcome::FalsePositive(v) => {
                c.fp += 1;
                extracted.push(v);
            }
            Outcome::FalseNegative => c.fnn += 1,
            Outcome::TrueNegative => c.tn += 1,
        }
    }
    tp_asns.sort_unstable();
    tp_asns.dedup();
    extracted.sort_unstable();
    extracted.dedup();
    c.unique_tp_asns = tp_asns;
    c.unique_extracted = extracted;
    c
}

fn memorised(regexes: &[Regex]) -> usize {
    regexes.iter().map(|r| r.memorised_chars()).sum()
}

fn strength(regexes: &[Regex]) -> usize {
    regexes.iter().map(|r| r.component_strength()).sum()
}

fn key(regexes: &[Regex]) -> String {
    let mut s = String::new();
    for r in regexes {
        s.push_str(&r.to_string());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::Observation;

    fn hosts(rows: &[(&str, u32)], suffix: &str) -> Vec<HostObs> {
        rows.iter()
            .map(|&(h, a)| HostObs::build(&Observation::new(h, [192, 0, 2, 7], a), suffix))
            .collect()
    }

    fn rx(s: &str) -> Regex {
        Regex::parse(s).unwrap()
    }

    /// The Figure 4 training data (hostnames a–p with their ASNs).
    fn figure4_hosts() -> Vec<HostObs> {
        hosts(
            &[
                ("109.sgw.equinix.com", 109),
                ("714.os.equinix.com", 714),
                ("714.me1.equinix.com", 714),
                ("p714.sgw.equinix.com", 714),
                ("s714.sgw.equinix.com", 714),
                ("p24115.mel.equinix.com", 24115),
                ("s24115.tyo.equinix.com", 24115),
                ("22822-2.tyo.equinix.com", 22282),
                ("24482-fr5-ix.equinix.com", 24482),
                ("54827-dc5-ix2.equinix.com", 54827),
                ("55247-ch3-ix.equinix.com", 55247),
                ("netflix.zh2.corp.eu.equinix.com", 2906),
                ("ipv4.dosarrest.eqix.equinix.com", 19324),
                ("8069.tyo.equinix.com", 8075),
                ("8074.hkg.equinix.com", 8075),
                ("45437-sy1-ix.equinix.com", 55923),
            ],
            "equinix.com",
        )
    }

    #[test]
    fn figure4_combination_reaches_atp_8() {
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"), // #6, ATP 1
            rx(r"^(\d+)-.+\.equinix\.com$"),                // #4, ATP -4
        ];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        let best = &cands[0];
        assert_eq!(best.regexes.len(), 2, "expected the combined set first");
        assert_eq!(best.counts.atp(), 8);
        assert_eq!(best.counts.tp, 11);
        assert_eq!(best.counts.fp, 3);
        assert_eq!(best.counts.fnn, 0);
    }

    #[test]
    fn single_regexes_also_candidates() {
        let pool = vec![rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$")];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].counts.atp(), 1);
        assert_eq!((cands[0].counts.tp, cands[0].counts.fp, cands[0].counts.fnn), (7, 2, 4));
    }

    #[test]
    fn zero_tp_regexes_dropped() {
        let pool = vec![rx(r"^zz(\d+)\.equinix\.com$")];
        let hs = figure4_hosts();
        assert!(build_sets(&pool, &hs, &SetsConfig::default()).is_empty());
    }

    #[test]
    fn combination_requires_strict_improvement() {
        // A redundant regex (subset of the first) must not be added.
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^p(\d+)\.[a-z\d]+\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let cands = build_sets(&pool, &hs, &SetsConfig::default());
        assert!(cands.iter().all(|c| c.regexes.len() == 1));
    }

    #[test]
    fn set_size_capped() {
        let pool = vec![
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"^(\d+)\.os\.equinix\.com$"),
            rx(r"^(\d+)\.me1\.equinix\.com$"),
            rx(r"^p(\d+)\.sgw\.equinix\.com$"),
            rx(r"^s(\d+)\.sgw\.equinix\.com$"),
            rx(r"^p(\d+)\.mel\.equinix\.com$"),
            rx(r"^s(\d+)\.tyo\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let cfg = SetsConfig { max_set_size: 3, ..SetsConfig::default() };
        let cands = build_sets(&pool, &hs, &cfg);
        assert!(cands.iter().all(|c| c.regexes.len() <= 3));
        assert!(cands.iter().any(|c| c.regexes.len() == 3));
    }

    fn assert_same(a: &[CandidateNc], b: &[CandidateNc]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.regexes, y.regexes);
            assert_eq!(x.counts, y.counts);
        }
    }

    /// The matrix and the direct oracle are interchangeable on Figure 4
    /// data: identical regex lists and identical full `Counts`.
    #[test]
    fn matrix_path_equals_direct_path() {
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"^p(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"(\d+)-[a-z\d]+-ix\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let cfg = SetsConfig::default();
        assert_same(&build_sets(&pool, &hs, &cfg), &build_sets_direct(&pool, &hs, &cfg).0);
    }

    /// Literal dispatch changes nothing: identical candidates and
    /// counts whether the columns are built through the automaton or by
    /// evaluating every cell.
    #[test]
    fn dispatched_columns_equal_undispatched() {
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"(\d+)-[a-z\d]+-ix\.equinix\.com$"),
            rx(r"(\d+)"), // literal-free: fallback bucket
        ];
        let hs = figure4_hosts();
        // Forced dispatch: the fixture is far below `DISPATCH_MIN_CELLS`
        // and would otherwise skip the automaton on both sides.
        let cfg = SetsConfig::default();
        assert_same(
            &build_sets_dispatch(&pool, &hs, &cfg).0,
            &build_sets_undispatched(&pool, &hs, &cfg).0,
        );
    }

    /// The dispatch stats account for the whole matrix, and the skip
    /// counter moves (>= because the registry is process-global).
    #[test]
    fn dispatch_stats_partition_the_matrix() {
        let pool = vec![
            rx(r"^(\d+)\.sgw\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ];
        let hs = figure4_hosts();
        let skips0 = prefilter_skips().get();
        let (_, stats) = build_sets_dispatch(&pool, &hs, &SetsConfig::default());
        assert_eq!(stats.dispatched + stats.skipped, (pool.len() * hs.len()) as u64);
        assert!(stats.skipped > 0, "`.sgw.` hosts are a minority: some cells must skip");
        assert!(prefilter_skips().get() >= skips0 + stats.skipped);
        // Without dispatch the stats report a full matrix and no skips.
        let (_, full) = build_sets_undispatched(&pool, &hs, &SetsConfig::default());
        assert_eq!(full.dispatched, (pool.len() * hs.len()) as u64);
        assert_eq!(full.skipped, 0);
    }

    /// A 64-regex pool over `n` hosts: each regex names one of 16 pops,
    /// so most (regex, host) cells miss a required literal.
    fn pop_fixture(n: usize) -> (Vec<Regex>, Vec<HostObs>) {
        let pool: Vec<Regex> = (0..64)
            .map(|k| match k % 4 {
                0 => rx(&format!(r"^as(\d+)\.pop{}\.example\.com$", k / 4)),
                1 => rx(&format!(r"as(\d+)\.pop{}\.example\.com$", k / 4)),
                2 => rx(&format!(r"^[a-z]+(\d+)\.pop{}\.example\.com$", k / 4)),
                _ => rx(&format!(r"(\d+)\.pop{}\.", k / 4)),
            })
            .collect();
        let rows: Vec<(String, u32)> = (0..n)
            .map(|i| {
                let asn = 64500 + i as u32 % 7;
                // Every fifth host carries a wrong ASN: the sets see FPs.
                let training = if i % 5 == 0 { asn + 1000 } else { asn };
                (format!("as{asn}.pop{}.example.com", i % 16), training)
            })
            .collect();
        let rows: Vec<(&str, u32)> = rows.iter().map(|(h, a)| (h.as_str(), *a)).collect();
        (pool, hosts(&rows, "example.com"))
    }

    /// The production size selection: a matrix of `DISPATCH_MIN_CELLS`
    /// cells is built through dispatch, and its output equals the
    /// direct oracle's.
    #[test]
    fn default_selection_dispatches_at_the_threshold() {
        let (pool, hs) = pop_fixture(DISPATCH_MIN_CELLS / 64);
        assert!(pool.len() * hs.len() >= DISPATCH_MIN_CELLS);
        let cfg = SetsConfig::default();
        let (out, stats) = build_sets_stats(&pool, &hs, &cfg);
        assert!(stats.skipped > 0, "a matrix at the threshold must dispatch");
        assert!(!out.is_empty());
        assert_same(&out, &build_sets_direct(&pool, &hs, &cfg).0);
    }

    /// Just below the threshold the production selection evaluates
    /// every cell, with the same output as the direct oracle.
    #[test]
    fn default_selection_evaluates_every_cell_below_the_threshold() {
        let (pool, hs) = pop_fixture(DISPATCH_MIN_CELLS / 64 - 1);
        assert!(pool.len() * hs.len() < DISPATCH_MIN_CELLS);
        let cfg = SetsConfig::default();
        let (out, stats) = build_sets_stats(&pool, &hs, &cfg);
        assert_eq!(stats.skipped, 0, "a matrix below the threshold must not dispatch");
        assert_eq!(stats.dispatched, (pool.len() * hs.len()) as u64);
        assert!(!out.is_empty());
        assert_same(&out, &build_sets_direct(&pool, &hs, &cfg).0);
    }

    /// The `hoiho_learn_evaluations_total` counters move when sets are
    /// built (>= because other tests share the process-global registry).
    #[test]
    fn evaluation_counters_are_incremented() {
        let (rank, greedy) = eval_counters();
        let (rank0, greedy0) = (rank.get(), greedy.get());
        let pool = vec![
            rx(r"^(?:p|s)?(\d+)\.[a-z\d]+\.equinix\.com$"),
            rx(r"^(\d+)-.+\.equinix\.com$"),
        ];
        build_sets(&pool, &figure4_hosts(), &SetsConfig::default());
        assert!(rank.get() >= rank0 + 2, "rank evals should count each pooled regex");
        assert!(greedy.get() > greedy0, "greedy evals should count trial sets");
    }
}
