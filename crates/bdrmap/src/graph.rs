//! Router graph construction from traceroutes.
//!
//! Groups observed addresses into routers using the alias sets, then
//! annotates each router the way bdrmapIT does (paper §5): *subsequent
//! ASNs* — the BGP origins of interfaces on adjacent next-hop routers —
//! and *destination ASNs* — the origins of the destinations whose traces
//! crossed the router. Interface origins are kept for the election
//! heuristic.

use crate::InferenceInput;
use hoiho_asdb::{Addr, Asn};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Dense router index in a [`RouterGraph`].
pub type RouterIdx = usize;

/// One router node with its topological annotations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterNode {
    /// Interface addresses grouped into this router.
    pub interfaces: Vec<Addr>,
    /// BGP origins of next-hop interfaces, with observation counts.
    pub subsequent: BTreeMap<Asn, u32>,
    /// Origins of traceroute destinations whose paths crossed this
    /// router (the router itself excluded when it terminates the trace
    /// at the destination).
    pub destinations: BTreeMap<Asn, u32>,
    /// Next-hop router indices with observation counts.
    pub next_routers: BTreeMap<RouterIdx, u32>,
    /// True when some trace ended (last responsive hop) at this router
    /// without reaching the destination.
    pub last_hop: bool,
}

/// The assembled router graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterGraph {
    /// Router nodes.
    pub routers: Vec<RouterNode>,
    /// Address → router index.
    pub by_addr: BTreeMap<Addr, RouterIdx>,
}

/// What the build knows about one address: its router, and its BGP
/// origin once some edge needed it.
struct AddrInfo {
    router: RouterIdx,
    origin: Option<Option<Asn>>,
}

/// Hashes an address with one multiply; the keys are simulated IPv4
/// addresses, so no keyed hash is needed.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

impl RouterGraph {
    /// Builds the graph from inference input.
    pub fn build(input: &InferenceInput) -> RouterGraph {
        let mut routers: Vec<RouterNode> = Vec::new();
        let mut addrs: HashMap<Addr, AddrInfo, BuildHasherDefault<AddrHasher>> =
            HashMap::default();

        // Seed routers from alias sets.
        for set in &input.aliases {
            if set.is_empty() {
                continue;
            }
            let router = routers.len();
            let mut node = RouterNode::default();
            for &a in set {
                // Alias sets are expected to be disjoint. An address in
                // several stays an interface of the first set's router
                // but maps to the last set's.
                match addrs.entry(a) {
                    Entry::Vacant(e) => {
                        e.insert(AddrInfo { router, origin: None });
                        node.interfaces.push(a);
                    }
                    Entry::Occupied(mut e) => e.get_mut().router = router,
                }
            }
            routers.push(node);
        }

        // Walk traces: create singleton routers for unknown addresses,
        // accumulate annotations.
        let mut marked: Vec<RouterIdx> = Vec::new();
        // Traces to one destination run consecutively, so one cached
        // lookup serves them all.
        let mut dst_origin: Option<(Addr, Option<Asn>)> = None;
        for trace in &input.traces {
            let dst = match dst_origin {
                Some((a, o)) if a == trace.dst => o,
                _ => {
                    let o = input.origin(trace.dst);
                    dst_origin = Some((trace.dst, o));
                    o
                }
            };
            let reached = trace.hops.iter().rev().flatten().next() == Some(&trace.dst);
            marked.clear();
            // (position, router) of the previous responsive hop.
            let mut prev: Option<(usize, RouterIdx)> = None;
            for (pos, hop) in trace.hops.iter().enumerate() {
                let Some(addr) = *hop else { continue };
                let info = addrs.entry(addr).or_insert_with(|| {
                    routers.push(RouterNode { interfaces: vec![addr], ..RouterNode::default() });
                    AddrInfo { router: routers.len() - 1, origin: None }
                });
                let idx = info.router;
                // Destination annotation: every router on the way to the
                // destination learns the destination origin once per
                // trace, except the destination's own responding node.
                if let Some(d) = dst {
                    if addr != trace.dst && !marked.contains(&idx) {
                        marked.push(idx);
                        *routers[idx].destinations.entry(d).or_insert(0) += 1;
                    }
                }
                if let Some((ppos, pidx)) = prev {
                    // Only adjacent responsive hops form edges: a gap
                    // (unresponsive hop) hides the true adjacency.
                    if pos == ppos + 1 && pidx != idx {
                        let origin = *info.origin.get_or_insert_with(|| input.origin(addr));
                        let node = &mut routers[pidx];
                        if let Some(o) = origin {
                            *node.subsequent.entry(o).or_insert(0) += 1;
                        }
                        *node.next_routers.entry(idx).or_insert(0) += 1;
                    }
                }
                prev = Some((pos, idx));
            }
            if !reached {
                if let Some((_, idx)) = prev {
                    routers[idx].last_hop = true;
                }
            }
        }

        let mut by_addr: Vec<(Addr, RouterIdx)> =
            addrs.into_iter().map(|(a, info)| (a, info.router)).collect();
        by_addr.sort_unstable();
        RouterGraph { routers, by_addr: by_addr.into_iter().collect() }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.routers.len()
    }

    /// True when the graph has no routers.
    pub fn is_empty(&self) -> bool {
        self.routers.is_empty()
    }

    /// The set of ASNs in a router's subsequent ∪ destination
    /// annotations — the evidence pool for the §5 reasonableness test.
    pub fn evidence(&self, idx: RouterIdx) -> BTreeSet<Asn> {
        let r = &self.routers[idx];
        r.subsequent.keys().chain(r.destinations.keys()).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use hoiho_asdb::{As2Org, AsRelationships, IxpDirectory, Prefix, RouteTable};

    /// A 3-AS chain: VP in 100 → 200 → 300. Addresses: 10.x for AS100,
    /// 20.x for AS200, 30.x for AS300.
    fn input() -> InferenceInput {
        let mut bgp = RouteTable::new();
        bgp.insert("10.0.0.0/8".parse::<Prefix>().unwrap(), 100);
        bgp.insert("20.0.0.0/8".parse::<Prefix>().unwrap(), 200);
        bgp.insert("30.0.0.0/8".parse::<Prefix>().unwrap(), 300);
        InferenceInput {
            bgp,
            rel: AsRelationships::new(),
            org: As2Org::new(),
            ixps: IxpDirectory::new(),
            aliases: vec![vec![a("20.0.0.1"), a("20.0.0.9")]],
            traces: vec![
                Trace {
                    vp_asn: 100,
                    dst: a("30.0.0.99"),
                    hops: vec![
                        Some(a("10.0.0.1")),
                        Some(a("20.0.0.1")),
                        Some(a("20.0.0.9")),
                        Some(a("30.0.0.1")),
                        Some(a("30.0.0.99")),
                    ],
                },
                Trace {
                    vp_asn: 100,
                    dst: a("30.0.0.99"),
                    hops: vec![Some(a("10.0.0.1")), None, Some(a("20.0.0.9"))],
                },
            ],
        }
    }

    fn a(s: &str) -> Addr {
        hoiho_asdb::addr_parse(s).unwrap()
    }

    #[test]
    fn aliases_group_and_singletons_created() {
        let g = RouterGraph::build(&input());
        // Routers: alias set {20.0.0.1, 20.0.0.9}, singletons 10.0.0.1,
        // 30.0.0.1, 30.0.0.99.
        assert_eq!(g.len(), 4);
        assert_eq!(g.by_addr[&a("20.0.0.1")], g.by_addr[&a("20.0.0.9")]);
        assert_ne!(g.by_addr[&a("10.0.0.1")], g.by_addr[&a("30.0.0.1")]);
    }

    #[test]
    fn subsequent_annotations() {
        let g = RouterGraph::build(&input());
        let r10 = &g.routers[g.by_addr[&a("10.0.0.1")]];
        assert_eq!(r10.subsequent.get(&200), Some(&1));
        let r20 = &g.routers[g.by_addr[&a("20.0.0.1")]];
        // 20.0.0.1 → 20.0.0.9 is the same router: no self edge. The
        // router's next hop is 30.0.0.1 (origin 300), and 30.0.0.99.
        assert_eq!(r20.subsequent.get(&300), Some(&1));
        assert!(!r20.next_routers.is_empty());
    }

    #[test]
    fn unresponsive_gap_breaks_adjacency() {
        let g = RouterGraph::build(&input());
        let r10 = &g.routers[g.by_addr[&a("10.0.0.1")]];
        // The gapped second trace must not add 20.0.0.9 as subsequent:
        // subsequent count for 200 stays at 1 (from the first trace).
        assert_eq!(r10.subsequent.get(&200), Some(&1));
    }

    #[test]
    fn destination_annotations() {
        let g = RouterGraph::build(&input());
        let r20 = &g.routers[g.by_addr[&a("20.0.0.1")]];
        assert_eq!(r20.destinations.get(&300), Some(&2));
        // The destination's own responding node gets no dest annotation.
        let rdst = &g.routers[g.by_addr[&a("30.0.0.99")]];
        assert!(rdst.destinations.is_empty());
    }

    #[test]
    fn last_hop_flag() {
        let g = RouterGraph::build(&input());
        // Second trace ended at 20.0.0.9 without reaching the dst.
        let r20 = &g.routers[g.by_addr[&a("20.0.0.9")]];
        assert!(r20.last_hop);
        let r10 = &g.routers[g.by_addr[&a("10.0.0.1")]];
        assert!(!r10.last_hop);
    }

    #[test]
    fn evidence_pool() {
        let g = RouterGraph::build(&input());
        let idx = g.by_addr[&a("20.0.0.1")];
        let ev = g.evidence(idx);
        assert!(ev.contains(&300));
    }

    #[test]
    fn empty_input() {
        let mut i = input();
        i.traces.clear();
        i.aliases.clear();
        let g = RouterGraph::build(&i);
        assert!(g.is_empty());
    }
}
