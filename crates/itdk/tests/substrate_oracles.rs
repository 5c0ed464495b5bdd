//! Byte-identity of the substrate layers against their reference
//! implementations.
//!
//! Traceroute routing, path expansion, alias resolution and the router
//! graph run over dense tables in production. The straightforward
//! versions they replaced live on here as oracles: per-destination heap
//! Dijkstra with next hops for every AS, hop expansion through the
//! `Internet`'s ordered maps, and ordered-map/ordered-set grouping. The
//! tests demand full equality — every trace, alias set and router node —
//! on tiny worlds and on one timeline snapshot per annotation method.

use hoiho_asdb::{Addr, Relationship};
use hoiho_bdrmap::graph::{RouterGraph, RouterIdx, RouterNode};
use hoiho_bdrmap::{InferenceInput, Trace};
use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};
use hoiho_itdk::{alias, timeline, BuiltSnapshot, Method, SnapshotSpec};
use hoiho_netsim::internet::{IfaceKind, RouterId};
use hoiho_netsim::traceroute::{run_traceroutes, Routing, TracePath, TraceSet};
use hoiho_netsim::{Internet, SimConfig};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

const INF: u32 = u32::MAX;

/// Sorted, deduplicated adjacency with the relationship from the first
/// AS's perspective.
fn oracle_adjacency(net: &Internet) -> Vec<Vec<(usize, Relationship)>> {
    let mut nbrs: Vec<Vec<(usize, Relationship)>> = vec![Vec::new(); net.aslevel.ases.len()];
    for &(a, b) in net.link_index.keys() {
        let ra = net.aslevel.ases[a].asn;
        let rb = net.aslevel.ases[b].asn;
        if let Some(rel) = net.aslevel.rel.relationship(ra, rb) {
            nbrs[a].push((b, rel));
        }
    }
    for list in &mut nbrs {
        list.sort_by_key(|&(id, _)| id);
        list.dedup_by_key(|&mut (id, _)| id);
    }
    nbrs
}

/// Next hop of every AS towards `d`: two heap Dijkstras plus a peer
/// pass, then customer > peer > provider, shortest, lowest id.
fn oracle_next_hops(nbrs: &[Vec<(usize, Relationship)>], d: usize) -> Vec<Option<usize>> {
    let n = nbrs.len();
    let mut dist_cust = vec![INF; n];
    dist_cust[d] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u32, d)));
    while let Some(Reverse((dx, x))) = heap.pop() {
        if dx > dist_cust[x] {
            continue;
        }
        for &(y, rel) in &nbrs[x] {
            if rel == Relationship::CustomerOf && dx + 1 < dist_cust[y] {
                dist_cust[y] = dx + 1;
                heap.push(Reverse((dx + 1, y)));
            }
        }
    }
    let mut dist_peer = vec![INF; n];
    for x in 0..n {
        for &(y, rel) in &nbrs[x] {
            if rel == Relationship::Peer && dist_cust[y] != INF {
                dist_peer[x] = dist_peer[x].min(dist_cust[y] + 1);
            }
        }
    }
    let base = |i: usize| dist_cust[i].min(dist_peer[i]);
    let mut dist_prov = vec![INF; n];
    let mut heap = BinaryHeap::new();
    for x in 0..n {
        if base(x) != INF {
            heap.push(Reverse((base(x), x)));
        }
    }
    while let Some(Reverse((dx, x))) = heap.pop() {
        if dx > base(x).min(dist_prov[x]) {
            continue;
        }
        for &(y, rel) in &nbrs[x] {
            if rel == Relationship::ProviderOf && dx + 1 < dist_prov[y] {
                dist_prov[y] = dx + 1;
                heap.push(Reverse((dx + 1, y)));
            }
        }
    }
    let pick = |x: usize, want: Relationship, ok: &dyn Fn(usize) -> bool| {
        nbrs[x].iter().filter(|&&(y, rel)| rel == want && ok(y)).map(|&(y, _)| y).min()
    };
    (0..n)
        .map(|x| {
            if x == d {
                None
            } else if dist_cust[x] != INF {
                pick(x, Relationship::ProviderOf, &|y| dist_cust[y] == dist_cust[x] - 1)
            } else if dist_peer[x] != INF {
                pick(x, Relationship::Peer, &|y| dist_cust[y] == dist_peer[x] - 1)
            } else if dist_prov[x] != INF {
                pick(x, Relationship::CustomerOf, &|y| {
                    base(y).min(dist_prov[y]) == dist_prov[x] - 1
                })
            } else {
                None
            }
        })
        .collect()
}

fn oracle_as_path(s: usize, d: usize, next: &[Option<usize>]) -> Option<Vec<usize>> {
    let mut path = vec![s];
    let mut cur = s;
    while cur != d {
        let nx = next[cur]?;
        if path.len() > next.len() {
            return None;
        }
        path.push(nx);
        cur = nx;
    }
    Some(path)
}

fn oracle_traceroutes(net: &Internet) -> TraceSet {
    let mut rng = StdRng::seed_from_u64(net.cfg.seed ^ 0x7E57_0003);
    let n = net.aslevel.ases.len();
    let nbrs = oracle_adjacency(net);
    let mut vp_as_ids: Vec<usize> = Vec::new();
    let mut cursor = 0usize;
    while vp_as_ids.len() < net.cfg.vantage_points.min(n) {
        let cand = (net.cfg.tier1 + cursor * 7) % n;
        if !vp_as_ids.contains(&cand) {
            vp_as_ids.push(cand);
        }
        cursor += 1;
        if cursor > 4 * n {
            break;
        }
    }
    let mut paths = Vec::new();
    for d in 0..n {
        let next = oracle_next_hops(&nbrs, d);
        for &vp in &vp_as_ids {
            if vp == d {
                continue;
            }
            let Some(as_path) = oracle_as_path(vp, d, &next) else { continue };
            let (hops, reached) = oracle_expand_path(net, &as_path, &mut rng);
            paths.push(TracePath {
                vp_asn: net.aslevel.ases[vp].asn,
                dst: net.dest_addr(d),
                hops,
                reached,
            });
        }
    }
    TraceSet { paths, vp_as_ids }
}

fn oracle_expand_path(
    net: &Internet,
    as_path: &[usize],
    rng: &mut StdRng,
) -> (Vec<Option<Addr>>, bool) {
    let mut hops: Vec<Addr> = Vec::new();
    let mut cur_router: RouterId = net.as_routers[as_path[0]][0];
    for w in as_path.windows(2) {
        let (a, b) = (w[0], w[1]);
        let Some(&li) = net.link_index.get(&(a, b)) else { break };
        let link = &net.links[li];
        let (exit_router, entry_router, entry_iface) = if link.a_as == a {
            (link.a_router, link.b_router, link.b_iface)
        } else {
            (link.b_router, link.a_router, link.a_iface)
        };
        oracle_record_internal(net, &mut hops, cur_router, exit_router, a);
        let mut answer = net.interfaces[entry_iface as usize].addr;
        if rng.random_bool(net.cfg.third_party_rate) {
            let candidates: Vec<u32> = net.routers[entry_router as usize]
                .interfaces
                .iter()
                .copied()
                .filter(|&i| net.interfaces[i as usize].kind != IfaceKind::IxpLan)
                .collect();
            if candidates.len() > 1 {
                let pick = candidates[rng.random_range(0..candidates.len())];
                answer = net.interfaces[pick as usize].addr;
            }
        }
        hops.push(answer);
        cur_router = entry_router;
    }
    let d = *as_path.last().expect("non-empty path");
    oracle_record_internal(net, &mut hops, cur_router, net.as_routers[d][0], d);
    let reached = rng.random_bool(0.85);
    let mut out: Vec<Option<Addr>> = hops
        .into_iter()
        .map(|h| if rng.random_bool(net.cfg.unresponsive_rate) { None } else { Some(h) })
        .collect();
    if reached {
        out.push(Some(net.dest_addr(d)));
    }
    (out, reached)
}

fn oracle_record_internal(
    net: &Internet,
    hops: &mut Vec<Addr>,
    from: RouterId,
    to: RouterId,
    as_id: usize,
) {
    if from == to {
        return;
    }
    let core = net.as_routers[as_id][0];
    if from != core && to != core {
        if let Some(&(_, on_core)) = net.internal.get(&(from, core)) {
            hops.push(net.interfaces[on_core as usize].addr);
        }
        if let Some(&(_, on_to)) = net.internal.get(&(core, to)) {
            hops.push(net.interfaces[on_to as usize].addr);
        }
    } else if let Some(&(_, on_to)) = net.internal.get(&(from, to)) {
        hops.push(net.interfaces[on_to as usize].addr);
    }
}

fn oracle_resolve(net: &Internet, traces: &[Trace], split_rate: f64, seed: u64) -> Vec<Vec<Addr>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A_5E75);
    let mut observed: BTreeSet<Addr> = BTreeSet::new();
    for t in traces {
        for h in t.hops.iter().flatten() {
            if net.iface_at(*h).is_some() {
                observed.insert(*h);
            }
        }
    }
    let probed: BTreeSet<u32> =
        observed.iter().map(|&a| net.iface_at(a).expect("observed iface").router).collect();
    let mut by_router: BTreeMap<u32, Vec<Addr>> = BTreeMap::new();
    for iface in &net.interfaces {
        if !probed.contains(&iface.router) {
            continue;
        }
        if iface.kind == IfaceKind::IxpLan && !observed.contains(&iface.addr) {
            continue;
        }
        if rng.random_bool(split_rate) {
            continue;
        }
        by_router.entry(iface.router).or_default().push(iface.addr);
    }
    by_router.into_values().filter(|v| v.len() >= 2).collect()
}

fn oracle_router_for(g: &mut RouterGraph, addr: Addr) -> RouterIdx {
    if let Some(&i) = g.by_addr.get(&addr) {
        return i;
    }
    let idx = g.routers.len();
    g.routers.push(RouterNode { interfaces: vec![addr], ..RouterNode::default() });
    g.by_addr.insert(addr, idx);
    idx
}

fn oracle_graph(input: &InferenceInput) -> RouterGraph {
    let mut g = RouterGraph::default();
    for set in &input.aliases {
        if set.is_empty() {
            continue;
        }
        let idx = g.routers.len();
        let mut node = RouterNode::default();
        for &a in set {
            if g.by_addr.insert(a, idx).is_none() {
                node.interfaces.push(a);
            }
        }
        g.routers.push(node);
    }
    for trace in &input.traces {
        let dst_origin = input.origin(trace.dst);
        let hops: Vec<(usize, Addr)> =
            trace.hops.iter().enumerate().filter_map(|(i, h)| h.map(|a| (i, a))).collect();
        let mut prev: Option<(usize, RouterIdx)> = None;
        let reached = hops.last().is_some_and(|&(_, a)| a == trace.dst);
        let mut dest_marked: BTreeSet<RouterIdx> = BTreeSet::new();
        for &(pos, addr) in &hops {
            let idx = oracle_router_for(&mut g, addr);
            if let Some(d) = dst_origin {
                if addr != trace.dst && dest_marked.insert(idx) {
                    *g.routers[idx].destinations.entry(d).or_insert(0) += 1;
                }
            }
            if let Some((ppos, pidx)) = prev {
                if pos == ppos + 1 && pidx != idx {
                    if let Some(o) = input.origin(addr) {
                        *g.routers[pidx].subsequent.entry(o).or_insert(0) += 1;
                    }
                    *g.routers[pidx].next_routers.entry(idx).or_insert(0) += 1;
                }
            }
            prev = Some((pos, idx));
        }
        if !reached {
            if let Some((_, idx)) = prev {
                g.routers[idx].last_hop = true;
            }
        }
    }
    g
}

/// Every AS's next hop towards every destination equals the heap
/// oracle's — not only those on vantage-point walks.
fn assert_routing_matches(net: &Internet) {
    let nbrs = oracle_adjacency(net);
    let mut routing = Routing::new(net);
    for d in 0..nbrs.len() {
        let want = oracle_next_hops(&nbrs, d);
        routing.route_to(d);
        let got: Vec<Option<usize>> = (0..nbrs.len()).map(|x| routing.next_hop(x)).collect();
        assert_eq!(got, want, "next hops towards AS {d} (seed {})", net.cfg.seed);
    }
}

/// Traces, alias sets and router graph of one world equal the oracles';
/// returns them for the snapshot-level check.
fn assert_substrate_matches(
    net: &Internet,
    split: f64,
    seed: u64,
) -> (Vec<Trace>, Vec<Vec<Addr>>, RouterGraph) {
    let ts = run_traceroutes(net);
    assert_eq!(ts, oracle_traceroutes(net), "traces (seed {})", net.cfg.seed);
    let traces: Vec<Trace> = ts
        .paths
        .into_iter()
        .map(|p| Trace { vp_asn: p.vp_asn, dst: p.dst, hops: p.hops })
        .collect();
    let aliases = alias::resolve(net, &traces, split, seed);
    assert_eq!(aliases, oracle_resolve(net, &traces, split, seed), "alias sets (seed {seed})");
    let input = InferenceInput {
        bgp: net.aslevel.bgp.clone(),
        rel: net.aslevel.rel.clone(),
        org: net.aslevel.org.clone(),
        ixps: net.aslevel.ixps.clone(),
        aliases: aliases.clone(),
        traces: traces.clone(),
    };
    let graph = RouterGraph::build(&input);
    assert_eq!(graph, oracle_graph(&input), "router graph (seed {seed})");
    (traces, aliases, graph)
}

#[test]
fn routing_matches_heap_oracle() {
    for seed in [1, 31, 2020] {
        assert_routing_matches(&Internet::generate(&SimConfig::tiny(seed)));
    }
    assert_routing_matches(&Internet::generate(&SimConfig::default()));
}

#[test]
fn tiny_worlds_match_oracles() {
    for seed in [1, 31, 61, 2020] {
        let net = Internet::generate(&SimConfig::tiny(seed));
        for split in [0.0, 0.3, 1.0] {
            assert_substrate_matches(&net, split, seed);
        }
    }
}

#[test]
fn timeline_snapshots_match_oracles() {
    let specs = timeline();
    let pick = |m: Method| specs.iter().find(|s| s.method == m).expect("method in timeline");
    for spec in [pick(Method::Rtaa), pick(Method::BdrmapIt), pick(Method::PeeringDb)] {
        let spec: &SnapshotSpec = spec;
        let net = Internet::generate(&spec.cfg);
        let (traces, aliases, graph) =
            assert_substrate_matches(&net, spec.alias_split, spec.cfg.seed);
        let snap = BuiltSnapshot::build(spec);
        assert_eq!(snap.input.traces, traces, "{}", spec.label);
        assert_eq!(snap.input.aliases, aliases, "{}", spec.label);
        assert_eq!(snap.graph, graph, "{}", spec.label);
    }
}

#[test]
fn duplicate_alias_addresses_match_oracle() {
    // Alias sets are disjoint in practice; a shared address must still
    // land where the ordered-map build put it.
    let net = Internet::generate(&SimConfig::tiny(7));
    let (traces, mut aliases, _) = assert_substrate_matches(&net, 0.0, 7);
    let shared: Addr = aliases[0][0];
    aliases[1].push(shared);
    aliases.push(Vec::new());
    aliases.push(vec![aliases[2][0], aliases[2][0]]);
    let input = InferenceInput {
        bgp: net.aslevel.bgp.clone(),
        rel: net.aslevel.rel.clone(),
        org: net.aslevel.org.clone(),
        ixps: net.aslevel.ixps.clone(),
        aliases,
        traces,
    };
    assert_eq!(RouterGraph::build(&input), oracle_graph(&input));
}
