//! Traceroute simulation over the synthetic Internet.
//!
//! AS-level forwarding follows Gao-Rexford policy routing: an AS prefers
//! routes through customers over peers over providers, never exporting a
//! peer/provider route to another peer/provider (valley-free paths).
//! [`Routing`] computes the routes towards one destination in three
//! breadth-first phases over adjacency lists split by relationship:
//! customer routes climb provider links (a FIFO BFS), peer routes take
//! one lateral step onto a customer route (one pass over the peer
//! lists), and provider routes descend customer links from every base
//! route (the base routes, sorted by distance, merged with a FIFO). Every
//! link costs 1, so these are exactly the shortest-path distances. Next
//! hops are then picked only for the ASes a vantage point's walk visits.
//!
//! Router-level expansion walks the star topology inside each AS and the
//! interconnect/IXP links between them, recording at each hop the
//! address of the interface the packet *entered* — which, on
//! supplier-addressed interconnects, is an address routed and named by
//! the previous AS (the paper's central measurement artefact). It reads
//! dense tables built once per snapshot: the link of each AS pair and
//! each router's link to its core.

use crate::internet::{IfaceId, IfaceKind, Internet, RouterId};
use hoiho_asdb::{Addr, Asn, Relationship};
use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};

/// One traceroute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracePath {
    /// ASN hosting the vantage point.
    pub vp_asn: Asn,
    /// Destination address probed.
    pub dst: Addr,
    /// Hop responses in order; `None` is an unresponsive hop.
    pub hops: Vec<Option<Addr>>,
    /// True when the destination itself answered as the final hop.
    pub reached: bool,
}

/// A collection of traceroutes from a set of vantage points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// All paths.
    pub paths: Vec<TracePath>,
    /// Dense AS ids hosting vantage points.
    pub vp_as_ids: Vec<usize>,
}

const INF: u32 = u32::MAX;
/// Marks an absent interface in the dense tables.
const NO_IFACE: IfaceId = IfaceId::MAX;

/// Adjacency lists in one flat array: the neighbours of node `x` are
/// `ids[start[x]..start[x + 1]]`, in ascending order.
struct Csr {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// Builds the lists of `n` nodes from `(x, y)` pairs ascending in
    /// `x`, and in `y` within one `x`.
    fn from_sorted(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>) -> Csr {
        let mut start = Vec::with_capacity(n + 1);
        let mut ids = Vec::new();
        for (x, y) in pairs {
            while start.len() <= x {
                start.push(ids.len() as u32);
            }
            ids.push(y as u32);
        }
        while start.len() <= n {
            start.push(ids.len() as u32);
        }
        Csr { start, ids }
    }

    fn of(&self, x: usize) -> &[u32] {
        &self.ids[self.start[x] as usize..self.start[x + 1] as usize]
    }
}

/// Valley-free policy routing over the AS graph: the adjacency split by
/// relationship, and the route distances towards the destination last
/// passed to [`Routing::route_to`] (buffers reused across destinations).
pub struct Routing {
    /// Customers of each AS (it reaches them down a provider link).
    customers: Csr,
    /// Peers of each AS.
    peers: Csr,
    /// Providers of each AS.
    providers: Csr,
    /// Destination of the distance tables.
    dest: usize,
    /// Hops of each AS's shortest customer route (`INF`: none).
    cust: Vec<u32>,
    /// Hops of each AS's shortest peer route.
    peer: Vec<u32>,
    /// Hops of each AS's shortest provider route.
    prov: Vec<u32>,
    /// BFS queue (dense ids).
    queue: Vec<u32>,
    /// Base-route holders sorted by distance, and the per-distance
    /// counts of the counting sort that orders them.
    sources: Vec<u32>,
    counts: Vec<u32>,
}

impl Routing {
    /// Builds the routing adjacency from an [`Internet`]: the ASes it
    /// links, with the relationship from the first AS's perspective.
    pub fn new(net: &Internet) -> Routing {
        let n = net.aslevel.ases.len();
        // `link_index` keys ascend by (a, b), so every list comes out
        // sorted by dense id.
        let edges: Vec<(usize, usize, Relationship)> = net
            .link_index
            .keys()
            .filter_map(|&(a, b)| {
                let ra = net.aslevel.ases[a].asn;
                let rb = net.aslevel.ases[b].asn;
                net.aslevel.rel.relationship(ra, rb).map(|rel| (a, b, rel))
            })
            .collect();
        let split = |want: Relationship| {
            Csr::from_sorted(
                n,
                edges.iter().filter(|e| e.2 == want).map(|&(a, b, _)| (a, b)),
            )
        };
        Routing {
            customers: split(Relationship::ProviderOf),
            peers: split(Relationship::Peer),
            providers: split(Relationship::CustomerOf),
            dest: 0,
            cust: vec![INF; n],
            peer: vec![INF; n],
            prov: vec![INF; n],
            queue: Vec::with_capacity(n),
            sources: Vec::with_capacity(n),
            counts: Vec::new(),
        }
    }

    /// Number of ASes.
    fn len(&self) -> usize {
        self.cust.len()
    }

    /// Computes every AS's route distances towards destination `d`
    /// (dense id); [`Routing::next_hop`] and [`Routing::as_path`] then
    /// answer for `d`.
    pub fn route_to(&mut self, d: usize) {
        let n = self.len();
        self.dest = d;
        self.cust.fill(INF);
        self.peer.fill(INF);
        self.prov.fill(INF);

        // Customer routes climb provider links: if x has a customer
        // route, every provider of x learns one a hop longer.
        self.queue.clear();
        self.cust[d] = 0;
        self.queue.push(d as u32);
        let mut head = 0;
        while let Some(&x) = self.queue.get(head) {
            head += 1;
            let next = self.cust[x as usize] + 1;
            for &y in self.providers.of(x as usize) {
                if self.cust[y as usize] == INF {
                    self.cust[y as usize] = next;
                    self.queue.push(y);
                }
            }
        }

        // Peer routes: exactly one lateral step onto a customer route.
        for x in 0..n {
            for &y in self.peers.of(x) {
                let c = self.cust[y as usize];
                if c != INF {
                    self.peer[x] = self.peer[x].min(c + 1);
                }
            }
        }

        // Provider routes descend customer links from any base route.
        // The base-route holders, counting-sorted by distance, merge
        // with the FIFO of provider routes found, so ASes leave in
        // distance order as from a priority queue.
        self.counts.clear();
        for x in 0..n {
            let b = self.base(x);
            if b != INF {
                let b = b as usize;
                if self.counts.len() <= b {
                    self.counts.resize(b + 1, 0);
                }
                self.counts[b] += 1;
            }
        }
        let mut at = 0;
        for c in &mut self.counts {
            let here = *c;
            *c = at;
            at += here;
        }
        self.sources.clear();
        self.sources.resize(at as usize, 0);
        for x in 0..n {
            let b = self.base(x);
            if b != INF {
                let slot = &mut self.counts[b as usize];
                self.sources[*slot as usize] = x as u32;
                *slot += 1;
            }
        }
        self.queue.clear();
        let (mut head, mut next_source) = (0, 0);
        loop {
            let source = self.sources.get(next_source).map(|&x| (self.base(x as usize), x));
            let queued = self.queue.get(head).map(|&x| (self.prov[x as usize], x));
            let (dx, x) = match (source, queued) {
                (Some(s), Some(q)) if q.0 < s.0 => {
                    head += 1;
                    q
                }
                (Some(s), _) => {
                    next_source += 1;
                    s
                }
                (None, Some(q)) => {
                    head += 1;
                    q
                }
                (None, None) => break,
            };
            if dx > self.best(x as usize) {
                continue;
            }
            for &y in self.customers.of(x as usize) {
                if dx + 1 < self.prov[y as usize] {
                    self.prov[y as usize] = dx + 1;
                    self.queue.push(y);
                }
            }
        }
    }

    /// Distance of AS `x`'s best customer or peer route.
    fn base(&self, x: usize) -> u32 {
        self.cust[x].min(self.peer[x])
    }

    /// Distance of AS `x`'s best route of any kind.
    fn best(&self, x: usize) -> u32 {
        self.base(x).min(self.prov[x])
    }

    /// The AS that `x` forwards to towards the routed destination, or
    /// `None` when `x` is the destination or has no valley-free route:
    /// customer routes over peer over provider routes, then the
    /// shortest, then the lowest dense id.
    pub fn next_hop(&self, x: usize) -> Option<usize> {
        if x == self.dest {
            return None;
        }
        let (c, p, v) = (self.cust[x], self.peer[x], self.prov[x]);
        let hop = if c != INF {
            self.customers.of(x).iter().find(|&&y| self.cust[y as usize] == c - 1)
        } else if p != INF {
            self.peers.of(x).iter().find(|&&y| self.cust[y as usize] == p - 1)
        } else if v != INF {
            self.providers.of(x).iter().find(|&&y| self.best(y as usize) == v - 1)
        } else {
            None
        };
        hop.map(|&y| y as usize)
    }

    /// Writes the AS-level path from `s` to the routed destination into
    /// `path`, inclusive of both ends; false when there is none.
    pub fn as_path(&self, s: usize, path: &mut Vec<usize>) -> bool {
        path.clear();
        path.push(s);
        let mut cur = s;
        while cur != self.dest {
            let Some(nx) = self.next_hop(cur) else { return false };
            // Defensive: valley-free next-hops cannot loop, but a bug
            // would hang the simulator, so bound the walk.
            if path.len() > self.len() {
                return false;
            }
            path.push(nx);
            cur = nx;
        }
        true
    }
}

/// Runs the full measurement campaign: every vantage point traceroutes
/// to one destination in every AS.
pub fn run_traceroutes(net: &Internet) -> TraceSet {
    let mut rng = StdRng::seed_from_u64(net.cfg.seed ^ 0x7E57_0003);
    let n = net.aslevel.ases.len();
    let mut routing = Routing::new(net);
    let mut expander = Expander::new(net);

    // Vantage points: deterministic spread across edge and tier-2 ASes.
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
    let mut as_path = Vec::new();
    for d in 0..n {
        routing.route_to(d);
        let dst = net.dest_addr(d);
        for &vp in &vp_as_ids {
            if vp == d || !routing.as_path(vp, &mut as_path) {
                continue;
            }
            let (hops, reached) = expander.expand(&as_path, &mut rng);
            paths.push(TracePath { vp_asn: net.aslevel.ases[vp].asn, dst, hops, reached });
        }
    }
    TraceSet { paths, vp_as_ids }
}

/// Expands AS paths into hop addresses over per-snapshot dense tables.
struct Expander<'a> {
    net: &'a Internet,
    /// Every AS each AS links to, ascending.
    nbrs: Csr,
    /// Index into `net.links` of each `nbrs` entry.
    link: Vec<u32>,
    /// Per router, its link to its AS's core router: (interface on the
    /// core, interface on the router); `NO_IFACE` when it has none.
    uplink: Vec<(IfaceId, IfaceId)>,
    /// Hop buffer, reused across paths.
    hops: Vec<Addr>,
}

impl<'a> Expander<'a> {
    fn new(net: &'a Internet) -> Expander<'a> {
        let nbrs = Csr::from_sorted(net.aslevel.ases.len(), net.link_index.keys().copied());
        let link = net.link_index.values().map(|&li| li as u32).collect();
        let mut uplink = vec![(NO_IFACE, NO_IFACE); net.routers.len()];
        for (&(from, to), &(on_from, on_to)) in &net.internal {
            if net.as_routers[net.routers[to as usize].as_id][0] == from {
                uplink[to as usize] = (on_from, on_to);
            }
        }
        Expander { net, nbrs, link, uplink, hops: Vec::new() }
    }

    /// Index into `net.links` of the link from AS `a` to AS `b`.
    fn link(&self, a: usize, b: usize) -> Option<usize> {
        let at = self.nbrs.of(a).binary_search(&(b as u32)).ok()?;
        Some(self.link[self.nbrs.start[a] as usize + at] as usize)
    }

    /// The hop responses along `as_path`, and whether the destination
    /// answered.
    fn expand(&mut self, as_path: &[usize], rng: &mut StdRng) -> (Vec<Option<Addr>>, bool) {
        let net = self.net;
        self.hops.clear();
        // The probe starts at the VP AS's core router.
        let mut cur_router: RouterId = net.as_routers[as_path[0]][0];
        for w in as_path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let Some(li) = self.link(a, b) else { break };
            let link = &net.links[li];
            let (exit_router, entry_router, entry_iface) = if link.a_as == a {
                (link.a_router, link.b_router, link.b_iface)
            } else {
                (link.b_router, link.a_router, link.a_iface)
            };
            // Internal walk to the exit border (star topology: at most
            // two internal hops, via the core).
            self.record_internal(cur_router, exit_router, a);
            // Crossing the interconnect: the hop answers with the entry
            // interface — a supplier-routed address on the neighbor's
            // router. With some probability the router answers from a
            // *different* interface instead (a third-party address), the
            // classic traceroute artefact that muddies ownership
            // evidence.
            let mut answer = net.interfaces[entry_iface as usize].addr;
            if rng.random_bool(net.cfg.third_party_rate) {
                // Third-party answers come from the interface the reply
                // leaves through — some point-to-point or internal port,
                // never the shared IXP LAN.
                let eligible = net.routers[entry_router as usize]
                    .interfaces
                    .iter()
                    .filter(|&&i| net.interfaces[i as usize].kind != IfaceKind::IxpLan);
                let count = eligible.clone().count();
                if count > 1 {
                    let k = rng.random_range(0..count);
                    let pick = eligible.clone().nth(k).expect("k < count");
                    answer = net.interfaces[*pick as usize].addr;
                }
            }
            self.hops.push(answer);
            cur_router = entry_router;
        }
        // Inside the destination AS, walk to the core where the host
        // hangs.
        let d = *as_path.last().expect("non-empty path");
        self.record_internal(cur_router, net.as_routers[d][0], d);
        // The destination host answers most of the time.
        let reached = rng.random_bool(0.85);
        let mut out = Vec::with_capacity(self.hops.len() + usize::from(reached));
        for &h in &self.hops {
            out.push(if rng.random_bool(net.cfg.unresponsive_rate) { None } else { Some(h) });
        }
        if reached {
            out.push(Some(net.dest_addr(d)));
        }
        (out, reached)
    }

    /// Records the interior hops of a star-topology AS between two
    /// routers: each hop answers with the interface it entered.
    fn record_internal(&mut self, from: RouterId, to: RouterId, as_id: usize) {
        if from == to {
            return;
        }
        let core = self.net.as_routers[as_id][0];
        if from != core {
            // from → core: the core's side of from's uplink.
            self.record(self.uplink[from as usize].0);
        }
        if to != core {
            // core → to: to's own side of its uplink.
            self.record(self.uplink[to as usize].1);
        }
    }

    fn record(&mut self, iface: IfaceId) {
        if iface != NO_IFACE {
            self.hops.push(self.net.interfaces[iface as usize].addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::internet::Internet;
    use hoiho_asdb::Relationship;

    fn net() -> Internet {
        Internet::generate(&SimConfig::tiny(31))
    }

    #[test]
    fn traceroutes_produced() {
        let n = net();
        let ts = run_traceroutes(&n);
        assert_eq!(ts.vp_as_ids.len(), n.cfg.vantage_points);
        assert!(!ts.paths.is_empty());
        // Typical scale: most VP/destination pairs produce a path.
        assert!(ts.paths.len() > n.aslevel.ases.len());
    }

    #[test]
    fn hops_are_known_interfaces_or_dest() {
        let n = net();
        let ts = run_traceroutes(&n);
        for p in ts.paths.iter().take(500) {
            for (i, h) in p.hops.iter().enumerate() {
                let Some(addr) = h else { continue };
                let is_last = i == p.hops.len() - 1;
                let known = n.addr_index.contains_key(addr);
                let is_dst = *addr == p.dst;
                assert!(known || (is_last && is_dst && p.reached), "stray hop {addr:#x}");
            }
        }
    }

    /// FNV-1a over every field of every path, in order.
    fn digest(ts: &TraceSet) -> u64 {
        let mut h = crate::internet::Fnv::new();
        for &vp in &ts.vp_as_ids {
            h.u64(vp as u64);
        }
        for p in &ts.paths {
            h.u64(u64::from(p.vp_asn));
            h.u64(u64::from(p.dst));
            h.u64(u64::from(p.reached));
            h.u64(p.hops.len() as u64);
            for hop in &p.hops {
                h.u64(hop.map_or(u64::MAX, u64::from));
            }
        }
        h.0
    }

    #[test]
    fn golden_traces() {
        // Every route, third-party draw and hop is pinned: a change to
        // routing or expansion that moves any of them fails here.
        let ts = run_traceroutes(&Internet::generate(&SimConfig::default()));
        assert_eq!(ts.paths.len(), 10152);
        assert_eq!(digest(&ts), 0x9908_5945_9152_7e8c);
        let ts = run_traceroutes(&net());
        assert_eq!(ts.paths.len(), 300);
        assert_eq!(digest(&ts), 0x72ed_eba2_3162_1568);
    }

    #[test]
    fn paths_are_valley_free() {
        let n = net();
        let mut routing = Routing::new(&n);
        let total = n.aslevel.ases.len();
        let mut path = Vec::new();
        for d in (0..total).step_by(7) {
            routing.route_to(d);
            for s in (0..total).step_by(5) {
                if s == d || !routing.as_path(s, &mut path) {
                    continue;
                }
                assert!(path.len() >= 2);
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), d);
                // Valley-free: once we step down (to a customer) or
                // across (peer), we never step up (to a provider) and
                // cross at most one peer edge.
                let mut descending = false;
                let mut peer_edges = 0;
                for w in path.windows(2) {
                    let ra = n.aslevel.ases[w[0]].asn;
                    let rb = n.aslevel.ases[w[1]].asn;
                    match n.aslevel.rel.relationship(ra, rb).expect("adjacent") {
                        Relationship::CustomerOf => {
                            assert!(!descending, "up step after down step in {path:?}");
                        }
                        Relationship::Peer => {
                            peer_edges += 1;
                            descending = true;
                        }
                        Relationship::ProviderOf => {
                            descending = true;
                        }
                    }
                }
                assert!(peer_edges <= 1, "multiple peer edges in {path:?}");
            }
        }
    }

    #[test]
    fn reachability_is_high() {
        // Everyone has a provider chain to the tier-1 clique, so routes
        // must exist between almost all pairs.
        let n = net();
        let mut routing = Routing::new(&n);
        let total = n.aslevel.ases.len();
        let mut ok = 0;
        let mut all = 0;
        let mut path = Vec::new();
        for d in 0..total {
            routing.route_to(d);
            for s in 0..total {
                if s == d {
                    continue;
                }
                all += 1;
                if routing.as_path(s, &mut path) {
                    ok += 1;
                }
            }
        }
        assert!(ok as f64 / all as f64 > 0.95, "reachability {ok}/{all}");
    }

    #[test]
    fn deterministic() {
        let n = net();
        assert_eq!(run_traceroutes(&n), run_traceroutes(&n));
    }

    #[test]
    fn far_side_addresses_appear_in_paths() {
        // Traceroute must observe supplier-routed addresses on customer
        // routers — the measurement artefact under study.
        let n = net();
        let ts = run_traceroutes(&n);
        let mut seen_far = 0;
        for p in &ts.paths {
            for h in p.hops.iter().flatten() {
                if let Some(iface) = n.iface_at(*h) {
                    if iface.kind == crate::internet::IfaceKind::InterconnectFar {
                        seen_far += 1;
                    }
                }
            }
        }
        assert!(seen_far > 50, "only {seen_far} far-side observations");
    }
}
