//! Benchmarks for the inference substrate: longest-prefix matching,
//! public-suffix lookups, the traceroute campaign, router-graph
//! construction, RTAA election,
//! bdrmapIT refinement, and the §5 integration.
//!
//! Runs on the devkit micro-benchmark harness; results land in
//! `BENCH_inference.json` at the workspace root.

use hoiho::learner::{learn_all, LearnConfig};
use hoiho_bdrmap::graph::RouterGraph;
use hoiho_bdrmap::integrate::{integrate, ConventionSet};
use hoiho_bdrmap::refine::{self, RefineConfig};
use hoiho_bdrmap::rtaa;
use hoiho_devkit::bench::{Harness, Throughput};
use hoiho_itdk::{BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::traceroute::run_traceroutes;
use hoiho_netsim::{Internet, SimConfig};
use hoiho_psl::PublicSuffixList;
use std::collections::BTreeMap;
use std::hint::black_box;

fn spec() -> SnapshotSpec {
    SnapshotSpec {
        label: "bench".into(),
        method: Method::BdrmapIt,
        cfg: SimConfig::tiny(2020),
        alias_split: 0.3,
    }
}

fn bench_trie(h: &mut Harness) {
    let snap = BuiltSnapshot::build(&spec());
    let bgp = &snap.input.bgp;
    let addrs: Vec<u32> = snap.graph.by_addr.keys().copied().collect();
    let mut g = h.benchmark_group("substrate/trie_lpm");
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("lookup_observed_addrs", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &a in &addrs {
                if bgp.lookup_value(black_box(a)).is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_psl(h: &mut Harness) {
    let psl = PublicSuffixList::builtin();
    let snap = BuiltSnapshot::build(&spec());
    let names: Vec<String> = snap
        .internet
        .interfaces
        .iter()
        .filter_map(|i| i.hostname.clone())
        .collect();
    let mut g = h.benchmark_group("substrate/psl");
    g.throughput(Throughput::Elements(names.len() as u64));
    g.bench_function("registrable_domain", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for h in &names {
                if psl.registrable_domain(black_box(h)).is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    g.finish();
}

fn bench_traceroute(h: &mut Harness) {
    // The whole measurement campaign over the default-sized world:
    // routing towards every destination and router-level expansion of
    // every vantage point's path.
    let net = Internet::generate(&SimConfig::default());
    let paths = run_traceroutes(&net).paths.len();
    let mut g = h.benchmark_group("substrate/traceroute");
    g.sample_size(10);
    g.throughput(Throughput::Elements(paths as u64));
    g.bench_function("default_internet", |b| b.iter(|| black_box(run_traceroutes(black_box(&net)))));
    g.finish();
}

fn bench_graph_build(h: &mut Harness) {
    let snap = BuiltSnapshot::build(&spec());
    let mut g = h.benchmark_group("inference/graph_build");
    g.sample_size(20);
    g.throughput(Throughput::Elements(snap.input.traces.len() as u64));
    g.bench_function("router_graph_from_traces", |b| {
        b.iter(|| black_box(RouterGraph::build(black_box(&snap.input))))
    });
    g.finish();
}

fn bench_inference(h: &mut Harness) {
    let snap = BuiltSnapshot::build(&spec());
    let graph = RouterGraph::build(&snap.input);
    let mut g = h.benchmark_group("inference/ownership");
    g.sample_size(20);
    g.throughput(Throughput::Elements(graph.len() as u64));
    g.bench_function("rtaa_election", |b| {
        b.iter(|| black_box(rtaa::infer(black_box(&graph), &snap.input)))
    });
    g.bench_function("bdrmapit_refine", |b| {
        b.iter(|| black_box(refine::infer(black_box(&graph), &snap.input, &RefineConfig::default())))
    });
    g.finish();
}

fn bench_integration(h: &mut Harness) {
    let snap = BuiltSnapshot::build(&spec());
    let psl = PublicSuffixList::builtin();
    let training = snap.training_set();
    let groups = training.by_suffix(&psl);
    let learned = learn_all(&groups, &LearnConfig::default());
    let conventions = ConventionSet::new(
        learned.iter().filter(|l| !l.single).map(|l| (l.convention.clone(), l.class)),
    );
    let mut hostnames = BTreeMap::new();
    for &addr in snap.graph.by_addr.keys() {
        if let Some(iface) = snap.internet.iface_at(addr) {
            if let Some(h) = iface.hostname.as_deref() {
                hostnames.insert(addr, h.to_string());
            }
        }
    }
    let mut g = h.benchmark_group("inference/integration");
    g.sample_size(20);
    g.throughput(Throughput::Elements(hostnames.len() as u64));
    g.bench_function("sec5_integrate", |b| {
        b.iter(|| {
            black_box(integrate(
                black_box(&snap.graph),
                &snap.input,
                &snap.owners,
                &hostnames,
                &conventions,
            ))
        })
    });
    g.finish();
}

fn bench_end_to_end(h: &mut Harness) {
    // The full snapshot build (topology, traceroute, aliases,
    // inference) — the unit Figure 5/6 iterate 19 times.
    let mut g = h.benchmark_group("pipeline/snapshot_build");
    g.sample_size(10);
    g.bench_function("tiny_internet", |b| {
        b.iter(|| black_box(BuiltSnapshot::build(black_box(&spec()))))
    });
    g.finish();
}

fn main() {
    let mut h = Harness::new("inference");
    bench_trie(&mut h);
    bench_psl(&mut h);
    bench_traceroute(&mut h);
    bench_graph_build(&mut h);
    bench_inference(&mut h);
    bench_integration(&mut h);
    bench_end_to_end(&mut h);
    h.finish();
}
