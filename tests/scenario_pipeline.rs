//! Scenario-subsystem integration: checked-in corpus file → compiled
//! world → learner → model → sharded cluster, asserting the PR's
//! acceptance criteria end to end — equal (file, seed) builds are
//! byte-identical, and the sharded serve tier answers byte-identically
//! to a single engine on a scenario-compiled world, so the quality
//! matrix is the same number no matter which tier computed it.

use hoiho_repro::hoiho::learner::{learn_all, LearnConfig};
use hoiho_repro::hoiho::quality::QualityCounts;
use hoiho_repro::itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_repro::psl::PublicSuffixList;
use hoiho_repro::scenario::compile::ground_truth_rows;
use hoiho_repro::scenario::traffic::universe;
use hoiho_repro::scenario::Scenario;
use hoiho_repro::serve::{Engine, Model, ShardRouter};
use std::path::Path;

fn corpus(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios").join(name);
    Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Train the serving model the same way `hoiho-serve scenario run`
/// does: compile the scenario, build a measurement snapshot over the
/// same world, group by suffix, learn conventions.
fn model_for(sc: &Scenario) -> (BuiltSnapshot, Model) {
    let cfg = sc.compile().expect("corpus scenario compiles");
    let snap = BuiltSnapshot::build(&SnapshotSpec {
        label: format!("scenario-it-{}", sc.name),
        method: Method::BdrmapIt,
        cfg,
        alias_split: 0.3,
    });
    let groups = snap.training_set().by_suffix(&PublicSuffixList::builtin());
    let learned = learn_all(&groups, &LearnConfig::default());
    assert!(!learned.is_empty(), "{}: nothing learned", sc.name);
    let model = Model::from_learned(&learned);
    (snap, model)
}

/// Determinism across independent loads: the same corpus file builds
/// the same world, hostname for hostname.
#[test]
fn corpus_file_builds_identical_worlds_across_loads() {
    let a = corpus("paper-default.hoiho").build().expect("build a");
    let b = corpus("paper-default.hoiho").build().expect("build b");
    assert_eq!(a.digest(), b.digest(), "world digests diverge across loads");
    assert_eq!(universe(&a), universe(&b), "hostname universes diverge across loads");
    assert!(!universe(&a).is_empty(), "scenario world has no hostnames");
}

/// The acceptance criterion: on a scenario-compiled world, a sharded
/// router (2 shards) answers every universe hostname byte-identically
/// to the single engine, and the quality matrix computed through
/// either path is the same number.
#[test]
fn sharded_answers_match_single_engine_on_scenario_world() {
    let sc = corpus("paper-default.hoiho");
    let (snap, model) = model_for(&sc);
    let single = Engine::new(&model);
    let router = ShardRouter::from_model(&model, 2, 256).expect("build 2-shard router");

    let world = &snap.internet;
    let uni = universe(world);
    assert!(uni.len() > 50, "universe too small to be meaningful: {}", uni.len());
    for h in &uni {
        assert_eq!(
            router.lookup(h).asn,
            single.extract(h).asn,
            "sharded router != single engine for {h}"
        );
    }

    let rows = ground_truth_rows(world);
    let mut via_single = QualityCounts::default();
    let mut via_router = QualityCounts::default();
    for (hostname, expected) in &rows {
        via_single.observe(*expected, single.extract(hostname).asn);
        via_router.observe(*expected, router.lookup(hostname).asn);
    }
    assert_eq!(via_single, via_router, "quality matrix depends on the serving tier");
    assert!(via_single.total() > 0, "no ground-truth rows scored");
}

/// Distinct corpus scenarios must actually produce distinct worlds —
/// otherwise the matrix rows are redundant and a regression in one
/// regime could hide behind another.
#[test]
fn corpus_scenarios_produce_distinct_worlds() {
    let a = corpus("paper-default.hoiho").build().expect("build paper-default");
    let b = corpus("stale-churn.hoiho").build().expect("build stale-churn");
    assert_ne!(a.digest(), b.digest(), "different scenarios built the same world");
}
