//! Property-based tests over random simulation seeds, on the devkit
//! harness: structural invariants of the generated Internet and its
//! measurement, plus the fixed-seed determinism guarantee the devkit
//! PRNG exists to provide.

use hoiho_netsim::internet::{EmbeddedInfo, IfaceKind, Internet as InternetStruct};
use hoiho_netsim::traceroute::{run_traceroutes, Routing};
use hoiho_netsim::{Internet, SimConfig};
use hoiho_devkit::prop::any;
use hoiho_devkit::{prop_assert, prop_assert_eq, prop_assert_ne, props};

props! {
    // Each case builds a whole Internet; keep the count modest.
    cases = 12;

    /// Every hostname is DNS-safe; every written ASN string appears in
    /// its hostname; far-side interfaces are supplier-routed but
    /// neighbor-operated.
    fn internet_invariants(seed in 0u64..10_000) {
        let net = Internet::generate(&SimConfig::tiny(seed));
        for iface in &net.interfaces {
            if let Some(h) = iface.hostname.as_deref() {
                prop_assert!(
                    h.bytes().all(|b| b.is_ascii_lowercase()
                        || b.is_ascii_digit()
                        || b == b'.'
                        || b == b'-'),
                    "unsafe hostname {h}"
                );
                if let EmbeddedInfo::NeighborAsn { written, .. } = &iface.embedded {
                    prop_assert!(h.contains(written.as_str()));
                }
            }
            if iface.kind == IfaceKind::InterconnectFar {
                let origin = net.aslevel.bgp.lookup_value(iface.addr).copied();
                let owner = net.routers[iface.router as usize].owner;
                prop_assert!(origin.is_some());
                prop_assert_ne!(origin.unwrap(), owner);
            }
            if iface.kind == IfaceKind::IxpLan {
                prop_assert_eq!(net.aslevel.bgp.lookup_value(iface.addr), None);
            }
        }
    }

    /// Interface addresses are unique and resolve back to themselves.
    fn addresses_unique(seed in 0u64..10_000) {
        let net = Internet::generate(&SimConfig::tiny(seed));
        let mut seen = std::collections::BTreeSet::new();
        for iface in &net.interfaces {
            prop_assert!(seen.insert(iface.addr), "duplicate address");
            prop_assert_eq!(net.iface_at(iface.addr).map(|i| i.id), Some(iface.id));
        }
    }

    /// AS paths are valley-free for random source/destination samples.
    fn paths_valley_free(seed in 0u64..10_000, d_pick in any::<usize>(), s_pick in any::<usize>()) {
        let net = Internet::generate(&SimConfig::tiny(seed));
        let mut routing = Routing::new(&net);
        let n = net.aslevel.ases.len();
        let d = d_pick % n;
        let s = s_pick % n;
        if s != d {
            routing.route_to(d);
            let mut path = Vec::new();
            if routing.as_path(s, &mut path) {
                let mut descending = false;
                let mut peers = 0;
                for w in path.windows(2) {
                    let ra = net.aslevel.ases[w[0]].asn;
                    let rb = net.aslevel.ases[w[1]].asn;
                    match net.aslevel.rel.relationship(ra, rb).unwrap() {
                        hoiho_asdb::Relationship::CustomerOf => {
                            prop_assert!(!descending, "valley in {path:?}");
                        }
                        hoiho_asdb::Relationship::Peer => {
                            peers += 1;
                            descending = true;
                        }
                        hoiho_asdb::Relationship::ProviderOf => descending = true,
                    }
                }
                prop_assert!(peers <= 1);
            }
        }
    }

    /// Every responsive hop is either a known interface or the reached
    /// destination.
    fn hops_resolve(seed in 0u64..10_000) {
        let net = Internet::generate(&SimConfig::tiny(seed));
        let ts = run_traceroutes(&net);
        for p in ts.paths.iter().take(200) {
            for (i, h) in p.hops.iter().enumerate() {
                if let Some(addr) = h {
                    let last = i == p.hops.len() - 1;
                    prop_assert!(
                        net.iface_at(*addr).is_some() || (last && *addr == p.dst),
                        "unknown hop"
                    );
                }
            }
        }
    }
}

/// Flattens every seed-derived artifact of a generated Internet into
/// one byte string, so two generations can be compared exactly.
fn digest(net: &InternetStruct) -> String {
    let mut s = String::new();
    for a in &net.aslevel.ases {
        s.push_str(&format!(
            "as {} tier {:?} brand {} naming {:?} prefixes {:?}\n",
            a.asn, a.tier, a.brand, a.naming, a.prefixes
        ));
    }
    s.push_str(&net.aslevel.rel.to_text());
    for iface in &net.interfaces {
        s.push_str(&format!(
            "iface {} addr {} router {} kind {:?} host {:?} embedded {:?}\n",
            iface.id, iface.addr, iface.router, iface.kind, iface.hostname, iface.embedded
        ));
    }
    for r in &net.routers {
        s.push_str(&format!("router {} owner {}\n", r.id, r.owner));
    }
    s
}

/// The devkit PRNG's reason to exist: the same seed must produce a
/// byte-identical synthetic Internet, twice in a row, including every
/// hostname, address, relationship, and embedded-ASN artifact.
#[test]
fn same_seed_byte_identical_internet() {
    let a = Internet::generate(&SimConfig::tiny(2020));
    let b = Internet::generate(&SimConfig::tiny(2020));
    assert_eq!(digest(&a), digest(&b), "same seed must reproduce the Internet byte-for-byte");

    // And traceroute measurement over it is equally deterministic.
    let ta = run_traceroutes(&a);
    let tb = run_traceroutes(&b);
    assert_eq!(ta.paths.len(), tb.paths.len());
    for (p, q) in ta.paths.iter().zip(&tb.paths) {
        assert_eq!(p.dst, q.dst);
        assert_eq!(p.hops, q.hops);
    }

    // A different seed produces a different world (sanity that the
    // digest actually captures seed-derived state).
    let c = Internet::generate(&SimConfig::tiny(2021));
    assert_ne!(digest(&a), digest(&c));
}
