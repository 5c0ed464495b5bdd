//! MIDAR-style alias resolution model.
//!
//! ITDK routers come from alias resolution over the addresses observed
//! in traceroutes. The model here is deliberately conservative, like the
//! real tooling: only observed addresses participate, and a per-snapshot
//! fraction of interfaces cannot be placed and remain singletons (the
//! paper's early ITDKs resolved far fewer aliases than recent ones).

use hoiho_asdb::Addr;
use hoiho_bdrmap::Trace;
use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};
use hoiho_netsim::internet::IfaceKind;
use hoiho_netsim::Internet;

/// Groups interface addresses into alias sets by ground-truth router.
///
/// A router participates once any of its addresses was observed in a
/// trace; alias probing (MIDAR-style) then discovers the router's other
/// interfaces too, so the set covers all of the router's addresses —
/// except that resolution is incomplete: each interface fails to be
/// placed with probability `split_rate` (observed ones become singleton
/// routers downstream; unobserved ones vanish). Returns only sets with
/// at least two members — singletons need no alias set — in router
/// order.
pub fn resolve(
    net: &Internet,
    traces: &[Trace],
    split_rate: f64,
    seed: u64,
) -> Vec<Vec<Addr>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11A_5E75);
    // Interfaces observed in traces (destinations that responded are
    // hosts, not router interfaces), and the routers holding them.
    let mut observed = vec![false; net.interfaces.len()];
    let mut probed = vec![false; net.routers.len()];
    for t in traces {
        for h in t.hops.iter().flatten() {
            if let Some(&i) = net.addr_index.get(h) {
                observed[i as usize] = true;
                probed[net.interfaces[i as usize].router as usize] = true;
            }
        }
    }
    let mut by_router: Vec<Vec<Addr>> = vec![Vec::new(); net.routers.len()];
    for iface in &net.interfaces {
        if !probed[iface.router as usize] {
            continue;
        }
        // IXP LAN addresses respond poorly to alias probing (shared
        // media, filtered), so MIDAR only places the ones traceroute
        // itself observed.
        if iface.kind == IfaceKind::IxpLan && !observed[iface.id as usize] {
            continue;
        }
        if rng.random_bool(split_rate) {
            continue; // resolution failed for this interface
        }
        by_router[iface.router as usize].push(iface.addr);
    }
    by_router.into_iter().filter(|v| v.len() >= 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_netsim::traceroute::run_traceroutes;
    use hoiho_netsim::SimConfig;
    use std::collections::BTreeSet;

    fn setup() -> (Internet, Vec<Trace>) {
        let net = Internet::generate(&SimConfig::tiny(61));
        let ts = run_traceroutes(&net);
        let traces = ts
            .paths
            .iter()
            .map(|p| Trace { vp_asn: p.vp_asn, dst: p.dst, hops: p.hops.clone() })
            .collect();
        (net, traces)
    }

    #[test]
    fn sets_group_same_router_only() {
        let (net, traces) = setup();
        let sets = resolve(&net, &traces, 0.0, 1);
        assert!(!sets.is_empty());
        for set in &sets {
            assert!(set.len() >= 2);
            let r = net.iface_at(set[0]).unwrap().router;
            for &a in set {
                assert_eq!(net.iface_at(a).unwrap().router, r);
            }
        }
    }

    #[test]
    fn split_rate_shrinks_sets() {
        let (net, traces) = setup();
        let full: usize = resolve(&net, &traces, 0.0, 1).iter().map(|s| s.len()).sum();
        let half: usize = resolve(&net, &traces, 0.5, 1).iter().map(|s| s.len()).sum();
        assert!(half < full, "split rate had no effect ({half} vs {full})");
        let none: usize = resolve(&net, &traces, 1.0, 1).iter().map(|s| s.len()).sum();
        assert_eq!(none, 0);
    }

    #[test]
    fn only_probed_routers_included() {
        let (net, traces) = setup();
        let mut probed = BTreeSet::new();
        for t in &traces {
            for h in t.hops.iter().flatten() {
                if let Some(i) = net.iface_at(*h) {
                    probed.insert(i.router);
                }
            }
        }
        let sets = resolve(&net, &traces, 0.0, 1);
        let mut unobserved_included = 0usize;
        let mut observed_addrs = BTreeSet::new();
        for t in &traces {
            for h in t.hops.iter().flatten() {
                observed_addrs.insert(*h);
            }
        }
        for set in &sets {
            for &a in set {
                assert!(probed.contains(&net.iface_at(a).unwrap().router));
                if !observed_addrs.contains(&a) {
                    unobserved_included += 1;
                }
            }
        }
        // Alias probing discovers interfaces traceroute never saw.
        assert!(unobserved_included > 0);
    }

    #[test]
    fn deterministic() {
        let (net, traces) = setup();
        assert_eq!(resolve(&net, &traces, 0.3, 9), resolve(&net, &traces, 0.3, 9));
    }
}
