//! # hoiho-bdrmap — heuristic router ownership inference
//!
//! Reimplementations of the two heuristic methods the paper trains Hoiho
//! with, plus the paper's contribution #3 — the modification that feeds
//! extracted hostname ASNs back into inference:
//!
//! * [`rtaa`] — **RouterToAsAssignment** (Huffaker et al. 2010): per
//!   router, elect the AS announcing the longest matching prefix for the
//!   most interfaces, breaking ties with the smaller-degree AS. Used by
//!   the 2010–2017 ITDK snapshots.
//! * [`graph`] + [`refine`] — **bdrmapIT** (Marder et al. 2018): build a
//!   router graph from traceroutes, annotate each router with
//!   *subsequent* ASNs (origins of next-hop interfaces) and *destination*
//!   ASNs (origins of probed destinations), then iteratively refine
//!   ownership. Used by the 2017–2020 ITDKs.
//! * [`integrate`] — the §5 modification: accept an ASN extracted from a
//!   hostname when it matches (or is a sibling of) an ASN in the
//!   router's subsequent/destination sets, or is a provider of one —
//!   otherwise treat the hostname as stale and keep the topological
//!   inference.

pub mod graph;
pub mod integrate;
pub mod refine;
pub mod rtaa;

use hoiho_asdb::{Addr, As2Org, AsRelationships, Asn, IxpDirectory, RouteTable};

/// One traceroute path, as inference input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// ASN hosting the vantage point.
    pub vp_asn: Asn,
    /// Destination address probed.
    pub dst: Addr,
    /// Hop responses; `None` is an unresponsive hop.
    pub hops: Vec<Option<Addr>>,
}

/// Everything the inference methods consume.
#[derive(Debug, Clone)]
pub struct InferenceInput {
    /// BGP table: prefix → origin ASN.
    pub bgp: RouteTable<Asn>,
    /// AS relationships.
    pub rel: AsRelationships,
    /// AS → organization (siblings).
    pub org: As2Org,
    /// IXP peering LANs.
    pub ixps: IxpDirectory,
    /// Alias sets from alias resolution; each inner vector is the
    /// interface addresses of one inferred router. Addresses observed in
    /// traces but absent here become singleton routers.
    pub aliases: Vec<Vec<Addr>>,
    /// The traceroute corpus.
    pub traces: Vec<Trace>,
}

impl InferenceInput {
    /// BGP origin of an address, if announced.
    pub fn origin(&self, addr: Addr) -> Option<Asn> {
        self.bgp.lookup_value(addr).copied()
    }
}
