//! The offline workloads.
//!
//! * `timeline` — §4's training timeline: each of the 19 snapshot specs
//!   goes netsim → traceroute → alias → router graph → ownership →
//!   training set → `by_suffix` → `learn_all` → model → engine.
//! * `learn` — the learner alone: `by_suffix` plus `learn_all` over the
//!   19 timeline training sets and the training sets of the checked-in
//!   scenario worlds, all built in set-up.
//!
//! A "request" of an offline workload is one snapshot (`timeline`) or
//! one training set (`learn`): the unit a caller waits on.

use crate::measure::{
    median, paired, peak_rss_mib, perturb, quantile, Calibration, Layers, Report,
};
use hoiho::learner::{learn_all, learn_all_traced, LearnConfig, LearnedConvention};
use hoiho::training::TrainingSet;
use hoiho_bdrmap::graph::RouterGraph;
use hoiho_bdrmap::refine::RefineConfig;
use hoiho_bdrmap::{refine, rtaa, InferenceInput, Trace};
use hoiho_itdk::{alias, BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::traceroute::run_traceroutes;
use hoiho_netsim::Internet;
use hoiho_obs::Tracer;
use hoiho_pdb::{synthesize, PdbConfig};
use hoiho_psl::PublicSuffixList;
use hoiho_scenario::Scenario;
use hoiho_serve::{Engine, Model};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The learn workload's
/// set-up builds 25 snapshots, so it repeats fewer times.
pub const SETUP_REPEATS: usize = 5;
const LEARN_SETUP_REPEATS: usize = 3;

/// The 19 timeline specs, every world seed moved by the workload seed.
pub fn timeline_specs(seed: u64) -> Vec<SnapshotSpec> {
    hoiho_itdk::timeline()
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            spec.cfg.seed = perturb(spec.cfg.seed, seed, i as u64);
            spec
        })
        .collect()
}

/// One bdrmapIT snapshot spec per `scenarios/*.hoiho` world, in file
/// name order, built the way `hoiho-serve scenario save` builds them.
fn scenario_specs(seed: u64) -> Result<Vec<SnapshotSpec>, String> {
    let mut files: Vec<_> = std::fs::read_dir("scenarios")
        .map_err(|e| format!("cannot list scenarios/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "hoiho"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err("no scenarios/*.hoiho worlds".into());
    }
    files
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let sc = Scenario::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut cfg = sc.compile().map_err(|e| e.to_string())?;
            cfg.seed = perturb(cfg.seed, seed, 100 + i as u64);
            Ok(SnapshotSpec {
                label: format!("scenario-{}", sc.name),
                method: Method::BdrmapIt,
                cfg,
                alias_split: 0.3,
            })
        })
        .collect()
}

/// `BuiltSnapshot::build`, call for call, with a span around each
/// layer call.
pub(crate) fn build_traced(spec: &SnapshotSpec, layers: &mut Layers) -> BuiltSnapshot {
    let internet = layers.span("netsim.generate", || Internet::generate(&spec.cfg));
    let ts = layers.span("netsim.traceroute", || run_traceroutes(&internet));
    let traces: Vec<Trace> = ts
        .paths
        .iter()
        .map(|p| Trace {
            vp_asn: p.vp_asn,
            dst: p.dst,
            hops: p.hops.clone(),
        })
        .collect();
    let aliases = layers.span("itdk.alias", || {
        alias::resolve(&internet, &traces, spec.alias_split, spec.cfg.seed)
    });
    let input = InferenceInput {
        bgp: internet.aslevel.bgp.clone(),
        rel: internet.aslevel.rel.clone(),
        org: internet.aslevel.org.clone(),
        ixps: internet.aslevel.ixps.clone(),
        aliases,
        traces,
    };
    let graph = layers.span("bdrmap.graph", || RouterGraph::build(&input));
    let (owners, peeringdb) = match spec.method {
        Method::Rtaa => (
            layers.span("bdrmap.ownership", || rtaa::infer(&graph, &input)),
            None,
        ),
        Method::BdrmapIt => (
            layers.span("bdrmap.ownership", || {
                refine::infer(&graph, &input, &RefineConfig::default())
            }),
            None,
        ),
        Method::PeeringDb => {
            let pdb_cfg = PdbConfig {
                seed: spec.cfg.seed,
                ..Default::default()
            };
            (
                Vec::new(),
                Some(layers.span("pdb.synthesize", || synthesize(&internet, &pdb_cfg))),
            )
        }
    };
    BuiltSnapshot {
        spec: spec.clone(),
        internet,
        input,
        graph,
        owners,
        peeringdb,
    }
}

/// Work counts of one built snapshot.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SnapCounts {
    traces: u64,
    alias_sets: u64,
    /// Routers and annotated routers of ITDK snapshots; PeeringDB
    /// snapshots take their ASNs from records, not routers.
    routers: u64,
    annotated: u64,
}

impl SnapCounts {
    pub(crate) fn of(snap: &BuiltSnapshot) -> SnapCounts {
        let itdk = snap.peeringdb.is_none();
        SnapCounts {
            traces: snap.input.traces.len() as u64,
            alias_sets: snap.input.aliases.len() as u64,
            routers: if itdk { snap.graph.len() as u64 } else { 0 },
            annotated: snap.owners.iter().filter(|o| o.is_some()).count() as u64,
        }
    }

    fn add(&mut self, o: SnapCounts) {
        self.traces += o.traces;
        self.alias_sets += o.alias_sets;
        self.routers += o.routers;
        self.annotated += o.annotated;
    }
}

/// What one training set yields: the learned conventions and the
/// model and engine built from them.
pub(crate) struct Learned {
    pub suffixes: usize,
    pub learned: Vec<LearnedConvention>,
    pub model: Model,
    pub engine: Engine,
}

/// `by_suffix` → `learn_all` → model → engine for one training set.
/// With a tracer, the learner records its phase spans; without one,
/// the untraced entry point runs.
pub(crate) fn learn_set(
    ts: &TrainingSet,
    psl: &PublicSuffixList,
    cfg: &LearnConfig,
    layers: &mut Layers,
    tracer: Option<&Tracer>,
) -> Learned {
    let groups = layers.span("core.by_suffix", || ts.by_suffix(psl));
    let learned = layers.span("core.learn", || match tracer {
        Some(t) => learn_all_traced(&groups, cfg, Some(t)),
        None => learn_all(&groups, cfg),
    });
    let (model, engine) = layers.span("serve.model_build", || {
        let model = Model::from_learned(&learned);
        let engine = Engine::new(&model);
        (model, engine)
    });
    Learned {
        suffixes: groups.len(),
        learned,
        model,
        engine,
    }
}

/// The output checks on one training set's results: the model
/// survives render → parse → render byte-identically, and the engine
/// agrees with `NamingConvention::extract` on every training hostname.
/// Returns how many hostnames the engine answered and how many it
/// dispatched to no convention.
pub(crate) fn check_learned(
    ts: &TrainingSet,
    out: &Learned,
    psl: &PublicSuffixList,
    report: &mut Report,
) -> (u64, u64) {
    let text = out.model.render();
    let again = Model::parse(&text).map(|m| m.render());
    report.check(again.as_deref() == Ok(text.as_str()), || {
        "model render/parse/render differs".into()
    });
    let by_suffix: BTreeMap<&str, _> = out
        .learned
        .iter()
        .map(|lc| (lc.convention.suffix.as_str(), &lc.convention))
        .collect();
    let (mut answers, mut misses) = (0, 0);
    for o in ts.observations() {
        let want = psl.registrable_domain(&o.hostname).and_then(|rd| {
            by_suffix
                .get(rd.as_str())
                .and_then(|nc| nc.extract(&o.hostname))
        });
        let got = out.engine.extract(&o.hostname);
        answers += u64::from(got.asn.is_some());
        misses += u64::from(got.nc.is_none());
        report.check(got.asn == want, || {
            format!(
                "engine {:?} != convention {want:?} on {}",
                got.asn, o.hostname
            )
        });
    }
    (answers, misses)
}

/// Nanoseconds per call of `f` over every training hostname.
fn per_host_ns(sets: &[&TrainingSet], mut f: impl FnMut(usize, &str)) -> f64 {
    let mut n = 0usize;
    let t = Instant::now();
    for (i, ts) in sets.iter().enumerate() {
        for o in ts.observations() {
            f(i, &o.hostname);
            n += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Adds the per-layer rows every offline traced pass reports.
pub(crate) fn layer_rows(report: &mut Report, layers: &Layers, tracer: &Tracer, snaps: SnapCounts) {
    for (name, row) in [
        ("netsim.generate_ms", "netsim.generate"),
        ("netsim.traceroute_ms", "netsim.traceroute"),
        ("itdk.alias_ms", "itdk.alias"),
        ("itdk.training_set_ms", "itdk.training_set"),
        ("bdrmap.graph_ms", "bdrmap.graph"),
        ("bdrmap.ownership_ms", "bdrmap.ownership"),
        ("pdb.synthesize_ms", "pdb.synthesize"),
        ("core.by_suffix_ms", "core.by_suffix"),
        ("core.learn_ms", "core.learn"),
        ("serve.model_build_ms", "serve.model_build"),
    ] {
        report.metric(name, layers.ms(row), "ms");
    }
    // The learner's own phase spans: summed over the learn_all worker
    // threads, so they split core.learn_ms's busy time rather than add
    // to the wall-time budget.
    let spans = tracer.records();
    for (name, phase) in [
        ("core.generate_ms", "generate"),
        ("core.merge_ms", "merge"),
        ("core.classes_ms", "classes"),
        ("core.sets_ms", "sets"),
        ("core.select_ms", "select"),
    ] {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == phase)
            .map(|s| s.duration_ns())
            .sum();
        report.metric(name, ns as f64 / 1e6, "ms");
    }
    let slowest = spans
        .iter()
        .filter(|s| s.name == "learn_suffix")
        .map(|s| s.duration_ns())
        .max()
        .unwrap_or(0);
    report.metric("core.learn_suffix_max_ms", slowest as f64 / 1e6, "ms");
    report.count("netsim.traces", snaps.traces);
    report.count("itdk.alias_sets", snaps.alias_sets);
    report.count("bdrmap.routers", snaps.routers);
    report.metric(
        "bdrmap.annotated_ratio",
        snaps.annotated as f64 / snaps.routers.max(1) as f64,
        "ratio",
    );
}

pub(crate) fn learned_counts(report: &mut Report, obs: usize, outs: &[&Learned]) {
    let suffixes: usize = outs.iter().map(|o| o.suffixes).sum();
    let conventions: usize = outs.iter().map(|o| o.model.len()).sum();
    report.count("itdk.observations", obs as u64);
    report.count("core.suffixes", suffixes as u64);
    report.count("core.conventions", conventions as u64);
    report.count(
        "core.regexes",
        outs.iter().map(|o| o.model.regex_count() as u64).sum(),
    );
    report.metric(
        "core.learned_ratio",
        conventions as f64 / suffixes.max(1) as f64,
        "ratio",
    );
}

/// Layers the offline workloads never call; reported as 0 so every
/// run prints every per-layer metric.
fn absent_serving_rows(report: &mut Report) {
    report.metric("serve.wire_us", 0.0, "us");
    report.metric("cluster.router_lookup_ns", 0.0, "ns");
    report.metric("cluster.cache_hit_ratio", 0.0, "ratio");
    report.metric("cluster.reload_ms", 0.0, "ms");
    for name in [
        "cluster.cache_hits",
        "cluster.cache_evictions",
        "cluster.cache_invalidations",
        "cluster.reloads",
    ] {
        report.count(name, 0);
    }
}

/// The engine and PSL probes over the training hostnames, and the
/// output checks, for a traced offline run.
fn probes_and_checks(
    report: &mut Report,
    sets: &[&TrainingSet],
    outs: &[&Learned],
    psl: &PublicSuffixList,
) {
    let psl_ns = per_host_ns(sets, |_, h| {
        black_box(psl.registrable_domain(black_box(h)));
    });
    let engine_ns = per_host_ns(sets, |i, h| {
        black_box(outs[i].engine.extract(black_box(h)));
    });
    report.metric("psl.registrable_domain_ns", psl_ns, "ns");
    report.metric("serve.engine_extract_ns", engine_ns, "ns");
    let (mut answers, mut misses) = (0, 0);
    for (ts, out) in sets.iter().zip(outs) {
        let (a, m) = check_learned(ts, out, psl, report);
        answers += a;
        misses += m;
    }
    let lookups: u64 = sets.iter().map(|ts| ts.len() as u64).sum();
    report.metric(
        "serve.answer_ratio",
        answers as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.dispatch_miss_ratio",
        misses as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.count("serve.lookups", lookups);
    report.count("serve.answers", answers);
    report.count("serve.dispatch_misses", misses);
}

/// Throughput and latency of an offline workload from the calibrated
/// seconds each unit (snapshot or training set) took in each pass.
/// `hosts_per_s` is the observations of all units over the sum of each
/// unit's median time, which filters out a pass that a noisy neighbour
/// slowed. A request is one whole pass, the unit a caller of the
/// workload waits for; per-unit latencies would rank units whose sizes
/// move with the seed.
fn unit_metrics(report: &mut Report, obs: &[usize], passes: &[Vec<f64>]) {
    let unit_secs: Vec<f64> = (0..obs.len())
        .map(|u| median(&passes.iter().map(|p| p[u]).collect::<Vec<_>>()))
        .collect();
    let total: usize = obs.iter().sum();
    report.metric(
        "hosts_per_s",
        total as f64 / unit_secs.iter().sum::<f64>(),
        "hosts/s",
    );
    let mut pass_us: Vec<f64> = passes.iter().map(|p| p.iter().sum::<f64>() * 1e6).collect();
    pass_us.sort_by(f64::total_cmp);
    eprintln!("{} passes", pass_us.len());
    report.metric("request_p50_us", quantile(&pass_us, 0.5), "us");
    report.metric("request_p90_us", quantile(&pass_us, 0.9), "us");
}

/// Runs timed passes until `seconds` have passed; at least one pass,
/// and the last may end after the deadline. Each pass returns the
/// calibrated seconds each of its units took. Also returns the peak
/// RSS after set-up and the first pass, so that figure does not depend
/// on how many passes fit.
fn passes(
    seconds: u64,
    mut pass: impl FnMut() -> Vec<f64>,
) -> Result<(Vec<Vec<f64>>, f64), String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut out = vec![pass()];
    let peak = peak_rss_mib(None)?;
    while start.elapsed() < budget {
        out.push(pass());
    }
    Ok((out, peak))
}

pub fn timeline(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let cfg = LearnConfig::default();
    let mut report = Report::default();
    if trace {
        let specs = timeline_specs(seed);
        let psl = PublicSuffixList::builtin();
        let mut layers = Layers::new(true);
        let tracer = Tracer::new();
        let mut snaps = SnapCounts::default();
        // Untraced, the program's own BuiltSnapshot::build.
        let untraced = || {
            Ok(specs
                .iter()
                .map(|spec| {
                    let ts = BuiltSnapshot::build(spec).training_set();
                    black_box(learn_set(&ts, &psl, &cfg, &mut Layers::new(false), None));
                    ts
                })
                .collect::<Vec<TrainingSet>>())
        };
        let traced = || {
            Ok(specs
                .iter()
                .map(|spec| {
                    let snap = build_traced(spec, &mut layers);
                    snaps.add(SnapCounts::of(&snap));
                    let ts = layers.span("itdk.training_set", || snap.training_set());
                    drop(snap);
                    let out = learn_set(&ts, &psl, &cfg, &mut layers, Some(&tracer));
                    (ts, out)
                })
                .collect::<Vec<(TrainingSet, Learned)>>())
        };
        let (plain, traced, traced_ns, untraced_ns) = paired(untraced, traced)?;
        for ((ts, _), want) in traced.iter().zip(&plain) {
            report.check(ts.observations() == want.observations(), || {
                "traced training set differs".into()
            });
        }
        report.budget(&layers, traced_ns, untraced_ns);
        layer_rows(&mut report, &layers, &tracer, snaps);
        let sets: Vec<&TrainingSet> = traced.iter().map(|(ts, _)| ts).collect();
        let outs: Vec<&Learned> = traced.iter().map(|(_, o)| o).collect();
        learned_counts(&mut report, sets.iter().map(|ts| ts.len()).sum(), &outs);
        probes_and_checks(&mut report, &sets, &outs, &psl);
        absent_serving_rows(&mut report);
        return Ok(report);
    }

    // Set-up: the specs, plus one warm-up build of the largest ITDK
    // snapshot, so the heap has grown to its working size before the
    // timed passes.
    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (made, s) = cal.time(|| {
            let specs = timeline_specs(seed);
            let largest = specs
                .iter()
                .find(|s| s.label == "2020-01")
                .expect("timeline has 2020-01");
            let ts = BuiltSnapshot::build(largest).training_set();
            black_box(learn_set(
                &ts,
                &PublicSuffixList::builtin(),
                &cfg,
                &mut Layers::new(false),
                None,
            ));
            specs
        });
        specs = made;
        setups.push(s);
    }
    let psl = PublicSuffixList::builtin();
    // The first pass's outputs are checked; later passes must learn
    // the same models.
    let mut first: Option<Vec<(TrainingSet, Learned)>> = None;
    let (runs, peak) = passes(seconds, || {
        let mut secs = Vec::new();
        let outs: Vec<(TrainingSet, Learned)> = specs
            .iter()
            .map(|spec| {
                let (out, s) = cal.time(|| {
                    let ts = BuiltSnapshot::build(spec).training_set();
                    let out = learn_set(&ts, &psl, &cfg, &mut Layers::new(false), None);
                    (ts, out)
                });
                secs.push(s);
                out
            })
            .collect();
        match &first {
            None => first = Some(outs),
            Some(want) => {
                for ((_, a), (_, b)) in outs.iter().zip(want) {
                    report.check(a.model == b.model, || {
                        "a later pass learned a different model".into()
                    });
                }
            }
        }
        secs
    })?;
    eprintln!("host ran at 1/{:.3} of its usual speed", cal.slowdown());
    let first = first.expect("at least one pass");
    for (ts, out) in &first {
        check_learned(ts, out, &psl, &mut report);
    }
    report.metric("setup_s", median(&setups), "s");
    let obs: Vec<usize> = first.iter().map(|(ts, _)| ts.len()).collect();
    unit_metrics(&mut report, &obs, &runs);
    report.metric("peak_rss_mb", peak, "MiB");
    Ok(report)
}

fn learn_specs(seed: u64) -> Result<Vec<SnapshotSpec>, String> {
    let mut specs = timeline_specs(seed);
    specs.extend(scenario_specs(seed)?);
    Ok(specs)
}

/// The learn workload's inputs, each made by the program's own
/// `BuiltSnapshot::build`, and the calibrated seconds they took: each
/// build is timed on its own, so the calibration follows the host's
/// speed through a set-up of several seconds.
fn learn_inputs_timed(seed: u64, cal: &mut Calibration) -> Result<(Vec<TrainingSet>, f64), String> {
    let (specs, mut secs) = cal.time(|| learn_specs(seed));
    let sets = specs?
        .iter()
        .map(|spec| {
            let (ts, s) = cal.time(|| BuiltSnapshot::build(spec).training_set());
            secs += s;
            ts
        })
        .collect();
    Ok((sets, secs))
}

/// The learn workload's inputs: the timeline's and the scenarios'
/// training sets. Untraced, each comes from the program's own
/// `BuiltSnapshot::build`; traced, from its spelled-out layer calls.
fn learn_inputs(
    seed: u64,
    traced: Option<(&mut Layers, &mut SnapCounts)>,
) -> Result<Vec<TrainingSet>, String> {
    let specs = learn_specs(seed)?;
    let Some((layers, snaps)) = traced else {
        return Ok(specs
            .iter()
            .map(|spec| BuiltSnapshot::build(spec).training_set())
            .collect());
    };
    Ok(specs
        .iter()
        .map(|spec| {
            let snap = build_traced(spec, layers);
            snaps.add(SnapCounts::of(&snap));
            layers.span("itdk.training_set", || snap.training_set())
        })
        .collect())
}

pub fn learn(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let cfg = LearnConfig::default();
    let psl = PublicSuffixList::builtin();
    let mut report = Report::default();
    if trace {
        // Both passes build the inputs and learn once; the traced one
        // records every layer call, set-up included.
        let mut layers = Layers::new(true);
        let tracer = Tracer::new();
        let mut snaps = SnapCounts::default();
        let untraced = || {
            let plain = learn_inputs(seed, None)?;
            for ts in &plain {
                black_box(learn_set(ts, &psl, &cfg, &mut Layers::new(false), None));
            }
            Ok(plain)
        };
        let traced = || {
            let sets = learn_inputs(seed, Some((&mut layers, &mut snaps)))?;
            let outs: Vec<Learned> = sets
                .iter()
                .map(|ts| learn_set(ts, &psl, &cfg, &mut layers, Some(&tracer)))
                .collect();
            Ok((sets, outs))
        };
        let (plain, (sets, outs), traced_ns, untraced_ns) = paired(untraced, traced)?;
        for (ts, want) in sets.iter().zip(&plain) {
            report.check(ts.observations() == want.observations(), || {
                "traced training set differs".into()
            });
        }
        report.budget(&layers, traced_ns, untraced_ns);
        layer_rows(&mut report, &layers, &tracer, snaps);
        let set_refs: Vec<&TrainingSet> = sets.iter().collect();
        let out_refs: Vec<&Learned> = outs.iter().collect();
        learned_counts(&mut report, sets.iter().map(|ts| ts.len()).sum(), &out_refs);
        probes_and_checks(&mut report, &set_refs, &out_refs, &psl);
        absent_serving_rows(&mut report);
        return Ok(report);
    }

    let mut cal = Calibration::new();
    let mut setups = Vec::new();
    let mut sets = Vec::new();
    for _ in 0..LEARN_SETUP_REPEATS {
        let (made, s) = learn_inputs_timed(seed, &mut cal)?;
        sets = made;
        setups.push(s);
    }
    let mut first: Option<Vec<Vec<LearnedConvention>>> = None;
    let (runs, peak) = passes(seconds, || {
        let mut secs = Vec::new();
        let learned: Vec<Vec<LearnedConvention>> = sets
            .iter()
            .map(|ts| {
                let (learned, s) = cal.time(|| learn_all(&ts.by_suffix(&psl), &cfg));
                secs.push(s);
                learned
            })
            .collect();
        match &first {
            None => first = Some(learned),
            Some(want) => {
                for (a, b) in learned.iter().zip(want) {
                    let same = a.len() == b.len()
                        && a.iter()
                            .zip(b)
                            .all(|(x, y)| x.convention == y.convention && x.counts == y.counts);
                    report.check(same, || "a later pass learned different conventions".into());
                }
            }
        }
        secs
    })?;
    eprintln!("host ran at 1/{:.3} of its usual speed", cal.slowdown());
    // The checks need models and engines, built outside the timed passes.
    for (ts, learned) in sets.iter().zip(first.expect("at least one pass")) {
        let model = Model::from_learned(&learned);
        let engine = Engine::new(&model);
        let out = Learned {
            suffixes: 0,
            learned,
            model,
            engine,
        };
        check_learned(ts, &out, &psl, &mut report);
    }
    report.metric("setup_s", median(&setups), "s");
    let obs: Vec<usize> = sets.iter().map(|ts| ts.len()).collect();
    unit_metrics(&mut report, &obs, &runs);
    report.metric("peak_rss_mb", peak, "MiB");
    Ok(report)
}
