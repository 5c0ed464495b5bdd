//! Router-level topology with supplier-assigned interconnect addressing.
//!
//! The semantics that drive every result in the paper (Figure 1): when
//! AS *A* and AS *B* interconnect, the *supplier* (the provider, or one
//! peer) allocates a /31 from its own address space and assigns PTR
//! names to **both** sides under its own suffix. The neighbor-facing
//! address — the one traceroute sees when a packet enters *B*'s border
//! router — is therefore routed and named by *A*, even though the router
//! belongs to *B*. Naïve IP-to-AS mapping attributes that router to *A*;
//! hostnames that embed *B*'s ASN are the corrective signal.
//!
//! IXP peering LANs add the second hard case: addresses with no BGP
//! origin at all, where only the IXP directory, PeeringDB, and hostnames
//! identify the member.
//!
//! The builder records full ground truth (who operates each router, what
//! each hostname's embedded ASN means, which hostnames are stale or
//! typoed) so experiments can score inference exactly.

use crate::asgen::{self, AsLevel, Tier};
use crate::config::SimConfig;
use crate::naming::{NameCtx, OperatorNaming, StyleKind};
use hoiho_asdb::{Addr, Asn};
use hoiho_devkit::rngs::StdRng;
use hoiho_devkit::{RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Dense router identifier.
pub type RouterId = u32;
/// Dense interface identifier.
pub type IfaceId = u32;

/// One router, with ground-truth ownership.
#[derive(Debug, Clone)]
pub struct Router {
    /// Identifier (index into [`Internet::routers`]).
    pub id: RouterId,
    /// Dense AS id of the operator (ground truth).
    pub as_id: usize,
    /// The operator's ASN (ground truth).
    pub owner: Asn,
    /// Interfaces on this router.
    pub interfaces: Vec<IfaceId>,
}

/// What the ASN digits embedded in a hostname mean (ground truth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbeddedInfo {
    /// The supplier annotated the neighbor's ASN.
    NeighborAsn {
        /// Digits actually written in the hostname (after stale, typo,
        /// or sibling injection).
        written: String,
        /// The ASN of the current neighbor (the router's operator).
        intended: Asn,
        /// True when `written` names a previous neighbor (the hostname
        /// is stale and wrong).
        stale: bool,
        /// True when `written` is a typo of `intended`.
        typo: bool,
        /// True when `written` is a sibling ASN of the operator (the
        /// Microsoft AS8075/AS8069 situation in the paper's Table 2).
        sibling: bool,
    },
    /// The operator embedded its own ASN (Figure 2 style).
    OwnAsn {
        /// The embedded (operator's) ASN.
        asn: Asn,
    },
    /// The hostname carries no ASN.
    NoAsn,
}

/// Why an interface exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IfaceKind {
    /// Internal backbone link.
    Internal,
    /// Supplier's own side of an interconnect /31.
    InterconnectNear,
    /// Neighbor-facing side of an interconnect /31 (address and name
    /// belong to the supplier; the router belongs to the neighbor).
    InterconnectFar,
    /// Port on an IXP peering LAN.
    IxpLan,
}

/// One interface.
#[derive(Debug, Clone)]
pub struct Interface {
    /// Identifier (index into [`Internet::interfaces`]).
    pub id: IfaceId,
    /// IPv4 address.
    pub addr: Addr,
    /// Owning router.
    pub router: RouterId,
    /// PTR hostname, if one is assigned.
    pub hostname: Option<String>,
    /// The AS that assigned the address and hostname (the supplier for
    /// interconnects, the IXP or member for LAN ports, the operator for
    /// internal links).
    pub namer: Option<Asn>,
    /// Role of the interface.
    pub kind: IfaceKind,
    /// Ground truth about the embedded ASN.
    pub embedded: EmbeddedInfo,
}

/// How two ASes exchange traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Point-to-point /31 supplied by one side (dense AS id).
    PtP {
        /// Dense AS id of the address supplier.
        supplier: usize,
    },
    /// Across an IXP peering LAN.
    Ixp {
        /// IXP id in the directory.
        ixp: u32,
    },
}

/// A usable forwarding adjacency between two ASes.
#[derive(Debug, Clone)]
pub struct Link {
    /// Dense AS id of side A.
    pub a_as: usize,
    /// Dense AS id of side B.
    pub b_as: usize,
    /// Border router on side A.
    pub a_router: RouterId,
    /// Border router on side B.
    pub b_router: RouterId,
    /// Interface used by A towards B.
    pub a_iface: IfaceId,
    /// Interface used by B towards A (the address a packet entering B
    /// responds from).
    pub b_iface: IfaceId,
    /// PtP or IXP.
    pub kind: LinkKind,
}

/// The full synthetic Internet.
#[derive(Debug, Clone)]
pub struct Internet {
    /// Configuration used to build it.
    pub cfg: SimConfig,
    /// The AS level (relationships, orgs, prefixes, IXPs, BGP).
    pub aslevel: AsLevel,
    /// All routers.
    pub routers: Vec<Router>,
    /// All interfaces.
    pub interfaces: Vec<Interface>,
    /// Inter-AS links.
    pub links: Vec<Link>,
    /// Routers of each AS (indexed by dense AS id); element 0 is the
    /// core router.
    pub as_routers: Vec<Vec<RouterId>>,
    /// (a_as, b_as) → index into `links`, both directions.
    pub link_index: BTreeMap<(usize, usize), usize>,
    /// Internal adjacency: (router, router) → (iface on first, iface on
    /// second), both directions.
    pub internal: BTreeMap<(RouterId, RouterId), (IfaceId, IfaceId)>,
    /// addr → interface.
    pub addr_index: BTreeMap<Addr, IfaceId>,
}

/// Per-AS address cursor within its first prefix.
struct AsAlloc {
    base: Addr,
    used: u32,
    limit: u32,
}

impl AsAlloc {
    fn take(&mut self, n: u32) -> Option<Addr> {
        if self.used + n > self.limit {
            return None;
        }
        let a = self.base + self.used;
        self.used += n;
        Some(a)
    }
}

impl Internet {
    /// Builds the Internet for a configuration.
    pub fn generate(cfg: &SimConfig) -> Internet {
        Builder::new(cfg.clone()).build()
    }

    /// Interface by address.
    pub fn iface_at(&self, addr: Addr) -> Option<&Interface> {
        self.addr_index.get(&addr).map(|&i| &self.interfaces[i as usize])
    }

    /// Ground-truth operator of the router holding `addr`.
    pub fn owner_of_addr(&self, addr: Addr) -> Option<Asn> {
        self.iface_at(addr).map(|i| self.routers[i.router as usize].owner)
    }

    /// The traceroute destination address for an AS (a host inside its
    /// first prefix).
    pub fn dest_addr(&self, as_id: usize) -> Addr {
        let p = self.aslevel.ases[as_id].prefixes[0];
        p.addr() + (p.size() as u32 - 2)
    }

    /// All interfaces with hostnames, as (addr, hostname, router owner)
    /// ground-truth rows.
    pub fn named_interfaces(&self) -> impl Iterator<Item = (&Interface, Asn)> {
        self.interfaces
            .iter()
            .filter(|i| i.hostname.is_some())
            .map(|i| (i, self.routers[i.router as usize].owner))
    }

    /// A stable 64-bit FNV-1a digest over the whole generated world —
    /// AS level, routers, interfaces (addresses, hostnames, ground
    /// truth), and links. Two [`Internet`]s with equal digests are
    /// byte-identical for every consumer in the workspace; the
    /// scenario compiler's determinism contract (same file + seed →
    /// identical world) is checked against this.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for a in &self.aslevel.ases {
            h.u64(u64::from(a.asn));
            h.u64(a.tier as u64);
            h.str(&a.brand);
            h.str(&a.naming.suffix);
            h.u64(a.naming.kind as u64);
            h.u64(u64::from(a.naming.variant));
            h.u64(a.naming.vendor as u64);
            for p in &a.naming.pops {
                h.str(p);
            }
            for p in &a.prefixes {
                h.u64(u64::from(p.addr()));
                h.u64(u64::from(p.len()));
            }
        }
        h.str(&self.aslevel.rel.to_text());
        for r in &self.routers {
            h.u64(u64::from(r.id));
            h.u64(r.as_id as u64);
            h.u64(u64::from(r.owner));
        }
        for i in &self.interfaces {
            h.u64(u64::from(i.id));
            h.u64(u64::from(i.addr));
            h.u64(u64::from(i.router));
            h.str(i.hostname.as_deref().unwrap_or("-"));
            h.u64(i.namer.map_or(u64::MAX, u64::from));
            h.u64(i.kind as u64);
            match &i.embedded {
                EmbeddedInfo::NoAsn => h.u64(0),
                EmbeddedInfo::OwnAsn { asn } => {
                    h.u64(1);
                    h.u64(u64::from(*asn));
                }
                EmbeddedInfo::NeighborAsn { written, intended, stale, typo, sibling } => {
                    h.u64(2);
                    h.str(written);
                    h.u64(u64::from(*intended));
                    h.u64(u64::from(*stale) | u64::from(*typo) << 1 | u64::from(*sibling) << 2);
                }
            }
        }
        for l in &self.links {
            h.u64(l.a_as as u64);
            h.u64(l.b_as as u64);
            h.u64(u64::from(l.a_iface));
            h.u64(u64::from(l.b_iface));
            match l.kind {
                LinkKind::PtP { supplier } => h.u64(supplier as u64),
                LinkKind::Ixp { ixp } => h.u64(u64::from(ixp) | 1 << 32),
            }
        }
        h.0
    }
}

/// FNV-1a, the workspace's house choice for cheap stable digests.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

struct Builder {
    cfg: SimConfig,
    aslevel: AsLevel,
    rng: StdRng,
    routers: Vec<Router>,
    interfaces: Vec<Interface>,
    links: Vec<Link>,
    as_routers: Vec<Vec<RouterId>>,
    link_index: BTreeMap<(usize, usize), usize>,
    internal: BTreeMap<(RouterId, RouterId), (IfaceId, IfaceId)>,
    addr_index: BTreeMap<Addr, IfaceId>,
    alloc: Vec<AsAlloc>,
    /// Per-AS counter used as `link_index` in naming contexts.
    name_counter: Vec<u32>,
    /// Per-member IXP LAN interface: (as_id, ixp) → iface.
    ixp_port: BTreeMap<(usize, u32), IfaceId>,
}

impl Builder {
    fn new(cfg: SimConfig) -> Builder {
        let aslevel = asgen::generate(&cfg);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xB0B0_0002);
        let n = aslevel.ases.len();
        let alloc = aslevel
            .ases
            .iter()
            .map(|a| {
                let p = a.prefixes[0];
                AsAlloc {
                    base: p.addr(),
                    used: 0,
                    // Keep the top quarter for destination hosts.
                    limit: (p.size() as u32).saturating_sub(p.size() as u32 / 4).max(8),
                }
            })
            .collect();
        Builder {
            cfg,
            aslevel,
            rng,
            routers: Vec::new(),
            interfaces: Vec::new(),
            links: Vec::new(),
            as_routers: vec![Vec::new(); n],
            link_index: BTreeMap::new(),
            internal: BTreeMap::new(),
            addr_index: BTreeMap::new(),
            alloc,
            name_counter: vec![0; n],
            ixp_port: BTreeMap::new(),
        }
    }

    fn build(mut self) -> Internet {
        self.make_routers();
        self.make_internal_links();
        self.make_ixp_ports();
        self.make_interconnects();
        Internet {
            cfg: self.cfg,
            aslevel: self.aslevel,
            routers: self.routers,
            interfaces: self.interfaces,
            links: self.links,
            as_routers: self.as_routers,
            link_index: self.link_index,
            internal: self.internal,
            addr_index: self.addr_index,
        }
    }

    fn new_router(&mut self, as_id: usize) -> RouterId {
        let id = self.routers.len() as RouterId;
        self.routers.push(Router {
            id,
            as_id,
            owner: self.aslevel.ases[as_id].asn,
            interfaces: Vec::new(),
        });
        self.as_routers[as_id].push(id);
        id
    }

    fn new_iface(
        &mut self,
        addr: Addr,
        router: RouterId,
        hostname: Option<String>,
        namer: Option<Asn>,
        kind: IfaceKind,
        embedded: EmbeddedInfo,
    ) -> IfaceId {
        let id = self.interfaces.len() as IfaceId;
        self.interfaces.push(Interface { id, addr, router, hostname, namer, kind, embedded });
        self.routers[router as usize].interfaces.push(id);
        self.addr_index.insert(addr, id);
        id
    }

    fn make_routers(&mut self) {
        for as_id in 0..self.aslevel.ases.len() {
            let n = match self.aslevel.ases[as_id].tier {
                Tier::Tier1 => 5,
                Tier::Tier2 => 3,
                Tier::Edge => 1 + usize::from(self.rng.random_bool(0.6)),
            };
            for _ in 0..n {
                self.new_router(as_id);
            }
        }
    }

    /// Star topology inside each AS: every router links to the core
    /// (router 0) over a /31 from the AS's own space.
    fn make_internal_links(&mut self) {
        for as_id in 0..self.aslevel.ases.len() {
            let routers = self.as_routers[as_id].clone();
            let core = routers[0];
            for &r in &routers[1..] {
                let Some(base) = self.alloc[as_id].take(2) else { continue };
                let asn = self.aslevel.ases[as_id].asn;
                let naming = self.aslevel.ases[as_id].naming.clone();
                let idx = self.bump_counter(as_id);
                let mk = |b: &mut Builder, addr: Addr, router: RouterId, idx2: u32| {
                    let ctx = NameCtx {
                        neighbor_asn: asn,
                        neighbor_slug: "core",
                        own_asn: asn,
                        link_index: idx2,
                        addr: hoiho_asdb::addr_octets(addr),
                    };
                    let hostname = if b.rng.random_bool(b.cfg.name_coverage) {
                        naming.infra_name(&ctx)
                    } else {
                        None
                    };
                    let embedded = match (&hostname, naming.kind) {
                        (Some(_), StyleKind::OwnAsn) => EmbeddedInfo::OwnAsn { asn },
                        _ => EmbeddedInfo::NoAsn,
                    };
                    b.new_iface(addr, router, hostname, Some(asn), IfaceKind::Internal, embedded)
                };
                let i0 = mk(self, base, core, idx);
                let i1 = mk(self, base + 1, r, idx.wrapping_add(1));
                self.internal.insert((core, r), (i0, i1));
                self.internal.insert((r, core), (i1, i0));
            }
        }
    }

    /// One port per (member, IXP) on the member's border router.
    ///
    /// IXP port PTR records are curated far better than interconnect
    /// names (ports are provisioned through the IXP's portal), so the
    /// stale rate is halved while the sibling-ASN phenomenon remains.
    fn make_ixp_ports(&mut self) {
        let saved_stale = self.cfg.stale_rate;
        self.cfg.stale_rate = saved_stale * 0.5;
        // Each IXP gets its own naming convention, biased towards
        // member-ASN-embedding styles (the PeeringDB-visible pattern).
        let ixps = self.aslevel.ixps.clone();
        for ix in ixps.ixps() {
            let mut ix_rng = StdRng::seed_from_u64(self.cfg.seed ^ (0xC0DE + u64::from(ix.id)));
            let style = match ix_rng.random_range(0..10u32) {
                0..=3 => StyleKind::Simple,
                4..=6 => StyleKind::Start,
                7 => StyleKind::Bare,
                8 => StyleKind::AsName,
                _ => StyleKind::Infra,
            };
            let mut ix_naming = OperatorNaming::generate(style, &mut ix_rng);
            // The IXP's own suffix reuses its directory name.
            ix_naming.suffix = format!("{}.net", ix.name);
            for (slot, &member) in ix.members.iter().enumerate() {
                let Some(as_id) = self.aslevel.id_of(member) else { continue };
                let addr = match ix.lan.nth(2 + slot as u64) {
                    Some(a) => a,
                    None => continue, // LAN full
                };
                let router = self.border_router(as_id);
                let member_slug = self.aslevel.ases[as_id].brand.clone();
                let ctx = NameCtx {
                    neighbor_asn: member,
                    neighbor_slug: &member_slug,
                    own_asn: member,
                    link_index: slot as u32,
                    addr: hoiho_asdb::addr_octets(addr),
                };
                // Either the IXP names the port (embedding the member
                // ASN) or the member names it under its own suffix.
                let ixp_names = self.rng.random_bool(0.7);
                let (hostname, namer, embedded) = if ixp_names {
                    let (h, emb) = self.render_neighbor_name(&ix_naming, &ctx, member);
                    (h, None, emb)
                } else {
                    let member_naming = self.aslevel.ases[as_id].naming.clone();
                    let h = member_naming.infra_name(&ctx);
                    let emb = match (&h, member_naming.kind) {
                        (Some(_), StyleKind::OwnAsn) => EmbeddedInfo::OwnAsn { asn: member },
                        _ => EmbeddedInfo::NoAsn,
                    };
                    (h, Some(member), emb)
                };
                let iface =
                    self.new_iface(addr, router, hostname, namer, IfaceKind::IxpLan, embedded);
                self.ixp_port.insert((as_id, ix.id), iface);
            }
        }
        self.cfg.stale_rate = saved_stale;
    }

    /// Renders a neighbor-annotating hostname with stale/typo injection,
    /// returning the hostname and ground truth. Applies name coverage.
    fn render_neighbor_name(
        &mut self,
        naming: &OperatorNaming,
        ctx: &NameCtx<'_>,
        neighbor: Asn,
    ) -> (Option<String>, EmbeddedInfo) {
        if !self.rng.random_bool(self.cfg.name_coverage) {
            return (None, EmbeddedInfo::NoAsn);
        }
        if naming.kind == StyleKind::None {
            return (None, EmbeddedInfo::NoAsn);
        }
        let annotates = naming.kind.embeds_neighbor_asn();
        if !annotates {
            let h = naming.interconnect_name(ctx, None);
            let emb = match (&h, naming.kind) {
                (Some(_), StyleKind::OwnAsn) => EmbeddedInfo::OwnAsn { asn: ctx.own_asn },
                _ => EmbeddedInfo::NoAsn,
            };
            return (h, emb);
        }
        // Stale: the hostname still names a previous neighbor. Sibling:
        // the operator annotates a different ASN of the same
        // organization. Typo: a single-digit slip.
        let stale = self.rng.random_bool(self.cfg.stale_rate);
        let siblings = self.aslevel.org.sibling_set(neighbor);
        let sibling = !stale
            && siblings.len() > 1
            && self.rng.random_bool(self.cfg.sibling_embed_rate);
        let typo = !stale && !sibling && self.rng.random_bool(self.cfg.typo_rate);
        let written = if stale {
            let other = loop {
                let i = self.rng.random_range(0..self.aslevel.ases.len());
                let a = self.aslevel.ases[i].asn;
                if a != neighbor {
                    break a;
                }
            };
            other.to_string()
        } else if sibling {
            let alt = siblings
                .iter()
                .copied()
                .find(|&s| s != neighbor)
                .expect("sibling set has another member");
            alt.to_string()
        } else if typo {
            OperatorNaming::typo_asn(neighbor, &mut self.rng)
        } else {
            neighbor.to_string()
        };
        let h = naming.interconnect_name(ctx, Some(written.clone()));
        (
            h,
            EmbeddedInfo::NeighborAsn { written, intended: neighbor, stale, typo, sibling },
        )
    }

    /// Picks a border router for an AS (any non-core router when the AS
    /// has several, round-robin; the core otherwise).
    fn border_router(&mut self, as_id: usize) -> RouterId {
        let n = self.as_routers[as_id].len();
        if n == 1 {
            self.as_routers[as_id][0]
        } else {
            let k = self.bump_counter(as_id) as usize;
            self.as_routers[as_id][1 + k % (n - 1)]
        }
    }

    fn bump_counter(&mut self, as_id: usize) -> u32 {
        let c = self.name_counter[as_id];
        self.name_counter[as_id] += 1;
        c
    }

    /// Creates forwarding adjacencies for every AS relationship.
    fn make_interconnects(&mut self) {
        // Deterministic link order: iterate the relationship text form.
        let mut pairs: Vec<(Asn, Asn, bool)> = Vec::new(); // (a, b, a_is_provider)
        let rel = self.aslevel.rel.clone();
        for a in rel.asns() {
            for c in rel.customers(a) {
                pairs.push((a, c, true));
            }
            for p in rel.peers(a) {
                if a < p {
                    pairs.push((a, p, false));
                }
            }
        }
        for (a, b, a_provides) in pairs {
            let (Some(a_id), Some(b_id)) = (self.aslevel.id_of(a), self.aslevel.id_of(b)) else {
                continue;
            };
            // Peers sharing an IXP usually interconnect across its LAN.
            if !a_provides {
                if let Some(ixp) = self.common_ixp(a_id, b_id) {
                    if self.rng.random_bool(0.5) {
                        self.add_ixp_link(a_id, b_id, ixp);
                        continue;
                    }
                }
            }
            // Point-to-point: the provider supplies addresses; peers
            // flip a deterministic coin.
            let coin = self.rng.random_bool(0.5);
            let supplier = if a_provides || coin { a_id } else { b_id };
            self.add_ptp_link(a_id, b_id, supplier);
        }
    }

    fn common_ixp(&self, a_id: usize, b_id: usize) -> Option<u32> {
        for ix in self.aslevel.ixps.ixps() {
            if self.ixp_port.contains_key(&(a_id, ix.id))
                && self.ixp_port.contains_key(&(b_id, ix.id))
            {
                return Some(ix.id);
            }
        }
        None
    }

    fn add_ixp_link(&mut self, a_id: usize, b_id: usize, ixp: u32) {
        let (Some(&ai), Some(&bi)) =
            (self.ixp_port.get(&(a_id, ixp)), self.ixp_port.get(&(b_id, ixp)))
        else {
            return;
        };
        let link = Link {
            a_as: a_id,
            b_as: b_id,
            a_router: self.interfaces[ai as usize].router,
            b_router: self.interfaces[bi as usize].router,
            a_iface: ai,
            b_iface: bi,
            kind: LinkKind::Ixp { ixp },
        };
        let idx = self.links.len();
        self.links.push(link);
        self.link_index.insert((a_id, b_id), idx);
        self.link_index.insert((b_id, a_id), idx);
    }

    fn add_ptp_link(&mut self, a_id: usize, b_id: usize, supplier: usize) {
        let customer = if supplier == a_id { b_id } else { a_id };
        let Some(base) = self.alloc[supplier].take(2) else { return };
        let sup_router = self.border_router(supplier);
        let cust_router = self.border_router(customer);
        let sup_asn = self.aslevel.ases[supplier].asn;
        let cust_asn = self.aslevel.ases[customer].asn;
        let naming = self.aslevel.ases[supplier].naming.clone();
        let cust_slug = self.aslevel.ases[customer].brand.clone();
        let idx = self.bump_counter(supplier);

        // Supplier's own side: infrastructure name.
        let near_ctx = NameCtx {
            neighbor_asn: cust_asn,
            neighbor_slug: &cust_slug,
            own_asn: sup_asn,
            link_index: idx,
            addr: hoiho_asdb::addr_octets(base),
        };
        let near_host = if self.rng.random_bool(self.cfg.name_coverage) {
            naming.infra_name(&near_ctx)
        } else {
            None
        };
        let near_emb = match (&near_host, naming.kind) {
            (Some(_), StyleKind::OwnAsn) => EmbeddedInfo::OwnAsn { asn: sup_asn },
            _ => EmbeddedInfo::NoAsn,
        };
        let near = self.new_iface(
            base,
            sup_router,
            near_host,
            Some(sup_asn),
            IfaceKind::InterconnectNear,
            near_emb,
        );

        // Neighbor-facing side: the address the paper is about.
        let far_ctx = NameCtx {
            neighbor_asn: cust_asn,
            neighbor_slug: &cust_slug,
            own_asn: sup_asn,
            link_index: idx,
            addr: hoiho_asdb::addr_octets(base + 1),
        };
        let (far_host, far_emb) = self.render_neighbor_name(&naming, &far_ctx, cust_asn);
        let far = self.new_iface(
            base + 1,
            cust_router,
            far_host,
            Some(sup_asn),
            IfaceKind::InterconnectFar,
            far_emb,
        );

        let (a_as, b_as) = (supplier, customer);
        let link = Link {
            a_as,
            b_as,
            a_router: sup_router,
            b_router: cust_router,
            a_iface: near,
            b_iface: far,
            kind: LinkKind::PtP { supplier },
        };
        let idx = self.links.len();
        self.links.push(link);
        self.link_index.insert((a_as, b_as), idx);
        self.link_index.insert((b_as, a_as), idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Internet {
        Internet::generate(&SimConfig::tiny(21))
    }

    #[test]
    fn structure_sane() {
        let n = net();
        assert_eq!(n.as_routers.len(), n.aslevel.ases.len());
        assert!(n.routers.len() >= n.aslevel.ases.len());
        assert!(!n.links.is_empty());
        // Every interface address resolves back to itself.
        for i in &n.interfaces {
            assert_eq!(n.addr_index.get(&i.addr), Some(&i.id));
        }
        // Every router belongs to its AS.
        for r in &n.routers {
            assert_eq!(r.owner, n.aslevel.ases[r.as_id].asn);
            assert!(n.as_routers[r.as_id].contains(&r.id));
        }
    }

    #[test]
    fn deterministic() {
        let a = net();
        let b = net();
        assert_eq!(a.routers.len(), b.routers.len());
        assert_eq!(a.interfaces.len(), b.interfaces.len());
        for (x, y) in a.interfaces.iter().zip(&b.interfaces) {
            assert_eq!(x.addr, y.addr);
            assert_eq!(x.hostname, y.hostname);
        }
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_separates_configs() {
        let a = Internet::generate(&SimConfig::tiny(21));
        let b = Internet::generate(&SimConfig::tiny(22));
        assert_ne!(a.digest(), b.digest(), "different seeds, different worlds");
        let mut cfg = SimConfig::tiny(21);
        cfg.stale_rate = 0.4;
        let c = Internet::generate(&cfg);
        assert_ne!(a.digest(), c.digest(), "different rates, different worlds");
    }

    #[test]
    fn far_side_semantics() {
        // The critical invariant: a far-side interconnect interface is
        // routed (BGP origin) by the supplier but operated by the
        // customer.
        let n = net();
        let mut checked = 0;
        for l in &n.links {
            let LinkKind::PtP { supplier } = l.kind else { continue };
            let far = &n.interfaces[l.b_iface as usize];
            assert_eq!(far.kind, IfaceKind::InterconnectFar);
            let origin = n.aslevel.bgp.lookup_value(far.addr).copied();
            assert_eq!(origin, Some(n.aslevel.ases[supplier].asn));
            let owner = n.routers[far.router as usize].owner;
            assert_ne!(owner, n.aslevel.ases[supplier].asn, "far side operated by neighbor");
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn ixp_addresses_have_no_origin() {
        let n = net();
        let mut seen = 0;
        for i in &n.interfaces {
            if i.kind == IfaceKind::IxpLan {
                assert_eq!(n.aslevel.bgp.lookup_value(i.addr), None);
                seen += 1;
            }
        }
        assert!(seen > 0, "no IXP ports generated");
    }

    #[test]
    fn stale_and_correct_hostnames_recorded() {
        let mut cfg = SimConfig::tiny(22);
        cfg.stale_rate = 0.3;
        let n = Internet::generate(&cfg);
        let mut stale = 0;
        let mut correct = 0;
        for i in &n.interfaces {
            if let EmbeddedInfo::NeighborAsn { written, intended, stale: s, .. } = &i.embedded {
                let h = i.hostname.as_ref().expect("annotated iface has hostname");
                assert!(h.contains(written.as_str()), "{h} lacks {written}");
                if *s {
                    assert_ne!(written, &intended.to_string());
                    stale += 1;
                } else {
                    correct += 1;
                }
            }
        }
        assert!(stale > 0, "stale injection inactive");
        assert!(correct > stale, "most hostnames should be correct");
    }

    #[test]
    fn embedded_intended_matches_owner() {
        // For non-stale neighbor annotations, the intended ASN is the
        // ground-truth operator of the router holding the interface.
        let n = net();
        for i in &n.interfaces {
            if let EmbeddedInfo::NeighborAsn { intended, .. } = &i.embedded {
                if i.kind == IfaceKind::InterconnectFar {
                    assert_eq!(*intended, n.routers[i.router as usize].owner);
                }
            }
        }
    }

    #[test]
    fn links_connect_distinct_ases() {
        let n = net();
        for l in &n.links {
            assert_ne!(l.a_as, l.b_as);
            assert_eq!(n.routers[l.a_router as usize].as_id, l.a_as);
            assert_eq!(n.routers[l.b_router as usize].as_id, l.b_as);
            assert!(n.link_index.contains_key(&(l.a_as, l.b_as)));
            assert!(n.link_index.contains_key(&(l.b_as, l.a_as)));
        }
    }

    #[test]
    fn dest_addr_outside_interface_space() {
        let n = net();
        for as_id in 0..n.aslevel.ases.len() {
            let d = n.dest_addr(as_id);
            assert!(n.aslevel.ases[as_id].prefixes[0].contains(d));
            assert!(!n.addr_index.contains_key(&d), "dest addr collides with an interface");
        }
    }

    #[test]
    fn own_asn_operators_embed_their_asn_everywhere() {
        let mut cfg = SimConfig::tiny(23);
        cfg.styles.own_asn = 5.0; // force plenty of OwnAsn operators
        let n = Internet::generate(&cfg);
        let mut seen = 0;
        for i in &n.interfaces {
            if let EmbeddedInfo::OwnAsn { asn } = i.embedded {
                let h = i.hostname.as_ref().unwrap();
                assert!(h.contains(&format!("as{asn}")), "{h}");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }
}
