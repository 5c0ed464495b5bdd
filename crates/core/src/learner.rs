//! End-to-end learning: runs the four phases plus selection and
//! classification for each suffix, with a threaded driver for whole
//! training sets.

use crate::classify::{classify, is_single, NcClass};
use crate::convention::NamingConvention;
use crate::eval::Counts;
use crate::phases::base::{self, BaseConfig};
use crate::phases::classes::embed_classes;
use crate::phases::merge::merge;
use crate::phases::sets::{build_sets_stats, CandidateNc, SetsConfig, SetsStats};
use crate::regex::Regex;
use crate::select::select_best;
use crate::taxonomy::{taxonomy_of, Taxonomy};
use crate::training::{HostObs, SuffixTraining};

/// Tunables for the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Base-regex generation knobs (§3.2).
    pub base: BaseConfig,
    /// Set-construction knobs (§3.5).
    pub sets: SetsConfig,
    /// Suffixes with fewer hostnames carrying apparent ASNs than this are
    /// skipped — one annotated hostname cannot establish a convention.
    pub min_apparent: usize,
    /// Worker threads for [`learn_all`]; 0 means one per available core.
    pub threads: usize,
    /// Ablation switch: run the merge phase (§3.3).
    pub enable_merge: bool,
    /// Ablation switch: run the character-class phase (§3.4).
    pub enable_classes: bool,
    /// Ablation switch: build multi-regex sets (§3.5). When off, only
    /// single-regex conventions compete.
    pub enable_sets: bool,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            base: BaseConfig::default(),
            sets: SetsConfig::default(),
            min_apparent: 2,
            threads: 0,
            enable_merge: true,
            enable_classes: true,
            enable_sets: true,
        }
    }
}

/// A learned convention with its evaluation and classification.
#[derive(Debug, Clone)]
pub struct LearnedConvention {
    /// The selected naming convention.
    pub convention: NamingConvention,
    /// Evaluation of the convention over its suffix's training data.
    pub counts: Counts,
    /// §4 quality class.
    pub class: NcClass,
    /// True when the convention extracts one unique ASN (Figure 2).
    pub single: bool,
    /// Table 1 shape taxonomy.
    pub taxonomy: Taxonomy,
    /// Number of hostnames in the suffix's training data.
    pub hostnames: usize,
}

/// Learns a naming convention for one suffix, or `None` when the suffix
/// has too few apparent ASNs or no viable regex emerges.
pub fn learn_suffix(st: &SuffixTraining, cfg: &LearnConfig) -> Option<LearnedConvention> {
    learn_suffix_traced(st, cfg, None)
}

/// [`learn_suffix`] with optional tracing: when a tracer is given, each
/// pipeline phase that runs is wrapped in a span named after it
/// (`generate`, `merge`, `classes`, `sets`, `select`), all carrying a
/// `suffix` argument and enclosed in a `learn_suffix` span. With
/// `None`, the only cost over the untraced path is a handful of
/// `Option` checks.
pub fn learn_suffix_traced(
    st: &SuffixTraining,
    cfg: &LearnConfig,
    tracer: Option<&hoiho_obs::Tracer>,
) -> Option<LearnedConvention> {
    learn_suffix_with(st, cfg, tracer, build_sets_stats)
}

/// The sets phase's signature. The learner always runs
/// [`build_sets_stats`]; the seam lets tests run the whole pipeline on
/// the sets oracles instead.
type SetsBuilder = fn(&[Regex], &[HostObs], &SetsConfig) -> (Vec<CandidateNc>, SetsStats);

fn learn_suffix_with(
    st: &SuffixTraining,
    cfg: &LearnConfig,
    tracer: Option<&hoiho_obs::Tracer>,
    build_sets: SetsBuilder,
) -> Option<LearnedConvention> {
    let suffix = st.suffix.as_str();
    let span = |name: &str| tracer.map(|t| t.span(name, &[("suffix", suffix)]));
    let _outer = span("learn_suffix");
    if st.apparent_count() < cfg.min_apparent {
        return None;
    }
    // Phase 1: base regexes (§3.2).
    let mut pool = {
        let _s = span("generate");
        base::generate(st, &cfg.base)
    };
    if pool.is_empty() {
        return None;
    }
    // Phase 2: merge near-identical regexes (§3.3). New regexes join the
    // pool; originals stay and compete on ATP.
    if cfg.enable_merge {
        let _s = span("merge");
        pool.extend(merge(&pool));
        dedup(&mut pool);
    }
    // Phase 3: embed character classes (§3.4).
    if cfg.enable_classes {
        let _s = span("classes");
        pool.extend(embed_classes(&pool, &st.hosts));
        dedup(&mut pool);
    }
    // Phase 4: regex sets (§3.5), then selection (§3.6).
    let sets_cfg = if cfg.enable_sets {
        cfg.sets
    } else {
        SetsConfig { max_set_size: 1, max_starts: 0, ..cfg.sets }
    };
    let candidates = {
        // The sets span also records the workload size, so `--trace`
        // output shows what the outcome matrix amortised.
        let pool_size = pool.len().to_string();
        let host_count = st.hosts.len().to_string();
        let mut _s = tracer.map(|t| {
            t.span(
                "sets",
                &[("suffix", suffix), ("pool_size", &pool_size), ("hosts", &host_count)],
            )
        });
        let (candidates, stats) = build_sets(&pool, &st.hosts, &sets_cfg);
        if let Some(g) = _s.as_mut() {
            g.arg("dispatched", &stats.dispatched.to_string());
        }
        candidates
    };
    let best = {
        let _s = span("select");
        select_best(&candidates)?
    };

    let convention = NamingConvention::new(&st.suffix, best.regexes.clone());
    let counts = best.counts.clone();
    Some(LearnedConvention {
        class: classify(&counts),
        single: is_single(&counts),
        taxonomy: taxonomy_of(&convention),
        hostnames: st.hosts.len(),
        convention,
        counts,
    })
}

/// Learns conventions for many suffixes in parallel. Results come back
/// sorted by suffix, independent of thread scheduling.
pub fn learn_all(suffixes: &[SuffixTraining], cfg: &LearnConfig) -> Vec<LearnedConvention> {
    learn_all_traced(suffixes, cfg, None)
}

/// [`learn_all`] with optional tracing. The tracer is shared by every
/// worker thread; span *order* follows scheduling, but each suffix
/// still gets its full set of phase spans (distinguishable by the
/// `suffix` argument and nested by time containment per thread).
pub fn learn_all_traced(
    suffixes: &[SuffixTraining],
    cfg: &LearnConfig,
    tracer: Option<&hoiho_obs::Tracer>,
) -> Vec<LearnedConvention> {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.threads
    };
    let threads = threads.max(1).min(suffixes.len().max(1));

    let mut out: Vec<LearnedConvention> = if threads <= 1 || suffixes.len() <= 1 {
        suffixes.iter().filter_map(|st| learn_suffix_traced(st, cfg, tracer)).collect()
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let results: Vec<std::sync::Mutex<Vec<LearnedConvention>>> =
            (0..threads).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        std::thread::scope(|scope| {
            for slot in &results {
                scope.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(st) = suffixes.get(i) else { break };
                        if let Some(lc) = learn_suffix_traced(st, cfg, tracer) {
                            slot.lock().unwrap().push(lc);
                        }
                    }
                });
            }
        });
        results.into_iter().flat_map(|m| m.into_inner().unwrap()).collect()
    };
    out.sort_by(|a, b| a.convention.suffix.cmp(&b.convention.suffix));
    out
}

fn dedup(pool: &mut Vec<Regex>) {
    let mut seen = std::collections::BTreeSet::new();
    pool.retain(|r| seen.insert(r.to_string()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{Observation, SuffixTraining, TrainingSet};
    use hoiho_psl::PublicSuffixList;

    fn learn(rows: &[(&str, u32)]) -> Vec<LearnedConvention> {
        let mut ts = TrainingSet::new();
        for &(h, a) in rows {
            ts.push(Observation::new(h, [192, 0, 2, 3], a));
        }
        let groups = ts.by_suffix(&PublicSuffixList::builtin());
        learn_all(&groups, &LearnConfig::default())
    }

    #[test]
    fn learns_simple_as_convention() {
        let learned = learn(&[
            ("as64500.border1.example.com", 64500),
            ("as64501.border2.example.com", 64501),
            ("as64502.core3.example.com", 64502),
            ("as64503.core4.example.com", 64503),
        ]);
        assert_eq!(learned.len(), 1);
        let lc = &learned[0];
        assert_eq!(lc.convention.suffix, "example.com");
        assert_eq!(lc.class, NcClass::Good);
        assert!(!lc.single);
        assert_eq!(lc.counts.tp, 4);
        assert_eq!(lc.counts.fp, 0);
        // All training hostnames had letters-then-digits middle labels,
        // so the learned convention generalises to that shape.
        assert_eq!(lc.convention.extract("as65000.pop9.example.com"), Some(65000));
    }

    #[test]
    fn learns_figure2_single_convention() {
        let learned = learn(&[
            ("ge0-2.01.p.ost.ch.as15576.nts.ch", 15576),
            ("lo1000.01.lns.czh.ch.as15576.nts.ch", 15576),
            ("te0-0-24.01.p.bre.ch.as15576.nts.ch", 15576),
            ("01.r.cba.ch.bl.cust.as15576.nts.ch", 44879),
            ("02.r.czh.ch.sda.cust.as15576.nts.ch", 51768),
            ("01.r.cbs.ch.wwc.cust.as15576.nts.ch", 206616),
        ]);
        assert_eq!(learned.len(), 1);
        let lc = &learned[0];
        // Whatever shape wins, it must extract 15576 and be single/poor.
        assert_eq!(lc.class, NcClass::Poor);
        assert!(lc.single);
        assert_eq!(lc.counts.unique_extracted.len(), 1);
    }

    #[test]
    fn too_few_apparent_hosts_skipped() {
        let learned = learn(&[
            ("as64500.border1.example.com", 64500),
            ("plain.core.example.com", 64501),
        ]);
        assert!(learned.is_empty());
    }

    #[test]
    fn multiple_suffixes_sorted() {
        let learned = learn(&[
            ("as1000.a.zzz-example.net", 1000),
            ("as2000.b.zzz-example.net", 2000),
            ("as3000.c.zzz-example.net", 3000),
            ("as64500.border1.example.com", 64500),
            ("as64501.border2.example.com", 64501),
            ("as64502.core3.example.com", 64502),
        ]);
        assert_eq!(learned.len(), 2);
        assert_eq!(learned[0].convention.suffix, "example.com");
        assert_eq!(learned[1].convention.suffix, "zzz-example.net");
    }

    #[test]
    fn ablations_degrade_gracefully() {
        // The Figure 4 data needs merge + classes + sets to reach ATP 8;
        // each ablation must still learn *something*, with ATP no better
        // than the full pipeline.
        let rows: Vec<(&str, u32)> = vec![
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
            ("8069.tyo.equinix.com", 8075),
            ("8074.hkg.equinix.com", 8075),
            ("45437-sy1-ix.equinix.com", 55923),
        ];
        let obs: Vec<Observation> =
            rows.iter().map(|&(h, a)| Observation::new(h, [192, 0, 2, 4], a)).collect();
        let st = SuffixTraining::build("equinix.com", &obs);
        let full = learn_suffix(&st, &LearnConfig::default()).unwrap();
        for ablated_cfg in [
            LearnConfig { enable_merge: false, ..LearnConfig::default() },
            LearnConfig { enable_classes: false, ..LearnConfig::default() },
            LearnConfig { enable_sets: false, ..LearnConfig::default() },
        ] {
            let ablated = learn_suffix(&st, &ablated_cfg).expect("still learns");
            assert!(
                ablated.counts.atp() <= full.counts.atp(),
                "ablation beat the full pipeline"
            );
        }
        // Without sets, the convention is a single regex and must lose
        // coverage on this two-format suffix.
        let no_sets = learn_suffix(
            &st,
            &LearnConfig { enable_sets: false, ..LearnConfig::default() },
        )
        .unwrap();
        assert_eq!(no_sets.convention.len(), 1);
        assert!(no_sets.counts.atp() < full.counts.atp());
    }

    #[test]
    fn traced_run_emits_one_span_per_phase_per_suffix() {
        use hoiho_obs::{ManualClock, Tracer};
        use std::sync::Arc;
        let mut ts = TrainingSet::new();
        for &(h, a) in &[
            ("as64500.border1.example.com", 64500u32),
            ("as64501.border2.example.com", 64501),
            ("as1000.a.zzz-example.net", 1000),
            ("as2000.b.zzz-example.net", 2000),
        ] {
            ts.push(Observation::new(h, [192, 0, 2, 3], a));
        }
        let groups = ts.by_suffix(&PublicSuffixList::builtin());
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(clock);
        let learned =
            learn_all_traced(&groups, &LearnConfig::default(), Some(&tracer));
        assert_eq!(learned.len(), 2);
        let spans = tracer.records();
        for suffix in ["example.com", "zzz-example.net"] {
            for phase in ["learn_suffix", "generate", "merge", "classes", "sets", "select"] {
                let n = spans
                    .iter()
                    .filter(|s| {
                        s.name == phase
                            && s.args.iter().any(|(k, v)| k == "suffix" && v == suffix)
                    })
                    .count();
                assert_eq!(n, 1, "expected exactly one {phase} span for {suffix}");
            }
        }
        // The sets span also records its workload size.
        for s in spans.iter().filter(|s| s.name == "sets") {
            assert!(s.args.iter().any(|(k, v)| k == "pool_size" && v.parse::<usize>().is_ok()));
            assert!(s.args.iter().any(|(k, v)| k == "hosts" && v.parse::<usize>().is_ok()));
            assert!(s.args.iter().any(|(k, v)| k == "dispatched" && v.parse::<u64>().is_ok()));
        }
        // Untraced runs stay untraced.
        let silent = Tracer::new();
        learn_all_traced(&groups, &LearnConfig::default(), None);
        assert!(silent.is_empty());
    }

    /// Ground-truth training groups from the tiny synthetic Internet at
    /// a fixed seed (the same generator `hoiho learn --sim` uses).
    fn sim_groups(seed: u64) -> Vec<SuffixTraining> {
        let internet = hoiho_netsim::Internet::generate(&hoiho_netsim::SimConfig::tiny(seed));
        let mut ts = TrainingSet::new();
        for (iface, owner) in internet.named_interfaces() {
            let hostname = iface.hostname.as_deref().expect("named interface has a hostname");
            ts.push(Observation::new(hostname, iface.addr.to_be_bytes(), owner));
        }
        ts.by_suffix(&PublicSuffixList::builtin())
    }

    /// Runs the learner over every group with the given sets builder.
    fn learn_with(groups: &[SuffixTraining], build_sets: SetsBuilder) -> Vec<LearnedConvention> {
        let cfg = LearnConfig::default();
        let out: Vec<LearnedConvention> =
            groups.iter().filter_map(|st| learn_suffix_with(st, &cfg, None, build_sets)).collect();
        assert!(!out.is_empty(), "sim training must learn something");
        out
    }

    fn assert_identical(a: &[LearnedConvention], b: &[LearnedConvention]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let suffix = &x.convention.suffix;
            assert_eq!(x.convention, y.convention, "regex lists differ for {suffix}");
            assert_eq!(x.convention.to_string(), y.convention.to_string());
            assert_eq!(x.counts, y.counts, "counts differ for {suffix}");
            assert_eq!(x.class, y.class);
            assert_eq!(x.single, y.single);
            assert_eq!(x.taxonomy, y.taxonomy);
            assert_eq!(x.hostnames, y.hostnames);
        }
    }

    /// The outcome matrix changes nothing: whole-pipeline output on a
    /// fixed-seed synthetic Internet is identical with the direct
    /// re-evaluation oracle and with dispatched columns, and the
    /// production size selection agrees with both. `scripts/tier1.sh`
    /// runs this test by name.
    #[test]
    fn learn_identical_with_direct_and_dispatch_sets() {
        use crate::phases::sets::{build_sets_direct, build_sets_dispatch};
        let groups = sim_groups(42);
        let direct = learn_with(&groups, build_sets_direct);
        assert_identical(&direct, &learn_with(&groups, build_sets_dispatch));
        assert_identical(&direct, &learn_with(&groups, build_sets_stats));
    }

    /// Aho–Corasick literal dispatch changes nothing either: identical
    /// whole-pipeline output with every matrix cell evaluated and with
    /// every column built through dispatch (the sim's small suffixes sit
    /// below the production threshold, so both are forced).
    /// `scripts/tier1.sh` runs this test by name.
    #[test]
    fn learn_identical_with_undispatched_and_dispatched_columns() {
        use crate::phases::sets::{build_sets_dispatch, build_sets_undispatched};
        let groups = sim_groups(42);
        assert_identical(
            &learn_with(&groups, build_sets_undispatched),
            &learn_with(&groups, build_sets_dispatch),
        );
    }

    /// Fixed seed, fixed config ⇒ byte-identical output run to run.
    #[test]
    fn learn_all_is_deterministic() {
        let groups = sim_groups(7);
        let cfg = LearnConfig::default();
        assert_identical(&learn_all(&groups, &cfg), &learn_all(&groups, &cfg));
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let rows: Vec<(String, u32)> = (0..12)
            .flat_map(|d| {
                (0..4).map(move |i| {
                    (format!("as{}.r{}.domain{}-example.com", 64500 + i, i, d), 64500 + i)
                })
            })
            .collect();
        let rows_ref: Vec<(&str, u32)> = rows.iter().map(|(h, a)| (h.as_str(), *a)).collect();
        let mut ts = TrainingSet::new();
        for &(h, a) in &rows_ref {
            ts.push(Observation::new(h, [192, 0, 2, 3], a));
        }
        let groups = ts.by_suffix(&PublicSuffixList::builtin());
        let mut cfg = LearnConfig { threads: 1, ..LearnConfig::default() };
        let single = learn_all(&groups, &cfg);
        cfg.threads = 4;
        let multi = learn_all(&groups, &cfg);
        assert_eq!(single.len(), multi.len());
        for (a, b) in single.iter().zip(&multi) {
            assert_eq!(a.convention, b.convention);
            assert_eq!(a.counts, b.counts);
        }
    }
}
