//! The shard router: the server's one serving path. N independently
//! reloadable shards behind one lookup API, fronted by the bounded
//! response cache. A plain `hoiho-serve serve` is a one-shard router
//! with the cache off.
//!
//! # Dispatch
//!
//! Everything a lookup reads sits in one immutable snapshot: each
//! shard's compiled conventions and reload count, the global reload
//! epoch, and one
//! [`SuffixIndex`](hoiho_psl::SuffixIndex) compiling the PSL rules with
//! every shard's suffixes, each keyed to its `(shard, convention)`.
//! A lookup lowercases the hostname once and walks that index once:
//! the registrable domain's convention when that suffix is keyed, else
//! the deepest keyed label suffix — across shard boundaries, exactly
//! the dispatch a single [`Engine`](crate::Engine) over the whole model
//! makes. The convention found then runs its regexes; there is no
//! second walk inside the shard.
//!
//! A `BATCH` resolves the snapshot once (a read lock and an `Arc`
//! clone) and answers every item from it.
//!
//! # Cache safety across reloads
//!
//! Cached answers are tagged with a [`Route`]: the shard and its
//! generation for registrable-domain (exact) routes, or the global
//! epoch for fallback and miss routes. A cache read accepts an entry
//! only when its tag equals the numbers of the snapshot the lookup
//! runs on, so an answer is served only where that snapshot would
//! compute the same one:
//!
//! * Reloading shard *k* bumps *k*'s generation — every cached answer
//!   computed by *k*'s old conventions fails validation.
//! * Any reload bumps the epoch — every fallback/miss answer is
//!   dropped, because a reload can add or remove suffixes anywhere in
//!   the fallback search order.
//! * Exact-route answers of *other* shards stay valid: a reload may
//!   not move a suffix between shards (cross-shard conflicts are
//!   rejected), so another shard's registrable-domain dispatch cannot
//!   be affected.
//!
//! A reload builds the next snapshot, swaps it in, then drops the
//! entries it made stale. A lookup racing a reload computes on the
//! snapshot it holds and tags the answer with that snapshot's numbers,
//! so a racing insert can be stale — rejected by every later snapshot
//! and evicted in time — but never wrong.

use crate::cache::{CacheStats, ShardedLru};
use crate::engine::CompiledNc;
use crate::model::Model;
use crate::plan::split;
use crate::server::QueryAnswer;
use hoiho_obs::span::{detail, Layer, TraceCtx};
use hoiho_obs::{Counter, Gauge, Obs, SpanHandle};
use hoiho_psl::{Dispatch, PublicSuffixList, SuffixIndex};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A router construction or reload failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError(pub String);

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for RouterError {}

/// How a cached answer was routed — the validation tag that makes the
/// cache reload-safe (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Registrable-domain dispatch to `shard` while it was at
    /// `generation`.
    Exact { shard: u32, generation: u64 },
    /// Label-suffix fallback dispatch to `shard` under routing `epoch`.
    Fallback { shard: u32, epoch: u64 },
    /// No suffix covered the hostname under routing `epoch`.
    Miss { epoch: u64 },
}

/// A cached response: the answer plus the route tag it must revalidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    /// Validation tag.
    pub route: Route,
    /// The answer served on a hit.
    pub answer: QueryAnswer,
}

/// One shard generation: its compiled conventions and their per-suffix
/// query counters, which restart when the shard reloads.
struct Shard {
    ncs: Vec<CompiledNc>,
    per_suffix: Vec<AtomicU64>,
    /// Reloads of this shard so far; exact-route tags record it.
    generation: u64,
}

impl Shard {
    fn new(model: &Model, generation: u64) -> Arc<Shard> {
        let ncs = CompiledNc::compile_all(model);
        let per_suffix = ncs.iter().map(|_| AtomicU64::new(0)).collect();
        Arc::new(Shard { ncs, per_suffix, generation })
    }
}

/// Everything a lookup reads, swapped whole on reload (module docs).
struct Snapshot {
    shards: Vec<Arc<Shard>>,
    /// Reloads of any shard so far; fallback/miss tags record it.
    epoch: u64,
    /// The PSL rules plus every suffix → (shard, convention index).
    index: SuffixIndex<(u32, u32)>,
}

impl Snapshot {
    /// Indexes `shards`. Fails if two conventions share a suffix.
    fn new(
        psl: &PublicSuffixList,
        shards: Vec<Arc<Shard>>,
        epoch: u64,
    ) -> Result<Snapshot, RouterError> {
        let mut owners = HashMap::new();
        for (k, shard) in shards.iter().enumerate() {
            for nc in &shard.ncs {
                if let Some(prev) = owners.insert(nc.suffix.clone(), k as u32) {
                    return Err(RouterError(format!(
                        "suffix {} owned by both shard {prev} and shard {k}",
                        nc.suffix
                    )));
                }
            }
        }
        let keys = shards.iter().enumerate().flat_map(|(k, shard)| {
            let ncs = shard.ncs.iter().enumerate();
            ncs.map(move |(i, nc)| (nc.suffix.as_str(), (k as u32, i as u32)))
        });
        let index = psl.index(keys);
        Ok(Snapshot { shards, epoch, index })
    }

    /// True when an answer tagged `route` is what this snapshot would
    /// compute.
    fn current(&self, route: &Route) -> bool {
        match *route {
            Route::Exact { shard, generation } => {
                self.shards[shard as usize].generation == generation
            }
            Route::Fallback { epoch, .. } | Route::Miss { epoch } => self.epoch == epoch,
        }
    }
}

/// Point-in-time view of one shard for `STATS CLUSTER`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Reload count (0 = as constructed).
    pub generation: u64,
    /// Conventions currently owned.
    pub suffixes: usize,
    /// Queries dispatched here since start (cache hits excluded).
    pub queries: u64,
}

/// Pre-registered per-shard metric handles. Series are labelled
/// `shard="<k>"`, with `shard="none"` collecting cache traffic for
/// miss-route entries (hostnames no shard covers — they are cached
/// too, as negative answers).
struct ShardMetrics {
    queries: Counter,
    reloads: Counter,
    generation: Gauge,
    suffixes: Gauge,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_stale: Counter,
}

/// The router's metric handles: one [`ShardMetrics`] per shard, the
/// `shard="none"` cache series, and the dispatch outcomes
/// (`hoiho_engine_extractions_total{dispatch=...}`: `exact` when the
/// registrable domain is keyed, `fallback` when a deeper or shallower
/// label suffix is, `miss` when none is), counted once per computed
/// lookup from the router's own walk.
struct RouterMetrics {
    shards: Vec<ShardMetrics>,
    none: ShardMetrics,
    exact: Counter,
    fallback: Counter,
    miss: Counter,
}

impl RouterMetrics {
    fn register(obs: &Obs, suffix_counts: &[usize]) -> RouterMetrics {
        let r = obs.registry();
        let series = |label: &str| {
            let l = &[("shard", label)];
            ShardMetrics {
                queries: r.counter("hoiho_shard_queries_total", l),
                reloads: r.counter("hoiho_shard_reloads_total", l),
                generation: r.gauge("hoiho_shard_generation", l),
                suffixes: r.gauge("hoiho_shard_suffixes", l),
                cache_hits: r.counter("hoiho_cache_hits_total", l),
                cache_misses: r.counter("hoiho_cache_misses_total", l),
                cache_evictions: r.counter("hoiho_cache_evictions_total", l),
                cache_stale: r.counter("hoiho_cache_stale_total", l),
            }
        };
        let shards: Vec<ShardMetrics> =
            (0..suffix_counts.len()).map(|k| series(&k.to_string())).collect();
        for (m, &n) in shards.iter().zip(suffix_counts) {
            m.suffixes.set(n as i64);
        }
        let dispatch = |d| r.counter("hoiho_engine_extractions_total", &[("dispatch", d)]);
        RouterMetrics {
            shards,
            none: series("none"),
            exact: dispatch("exact"),
            fallback: dispatch("fallback"),
            miss: dispatch("miss"),
        }
    }

    /// The metrics bucket a route charges cache traffic to.
    fn of_route(&self, route: &Route) -> &ShardMetrics {
        match *route {
            Route::Exact { shard, .. } | Route::Fallback { shard, .. } => {
                &self.shards[shard as usize]
            }
            Route::Miss { .. } => &self.none,
        }
    }
}

/// The suffix-sharded serving tier: the live snapshot, the response
/// cache, and the observability context the server shares.
pub struct ShardRouter {
    psl: PublicSuffixList,
    snapshot: RwLock<Arc<Snapshot>>,
    cache: ShardedLru<CachedAnswer>,
    /// Serializes reloads so snapshot rebuilds never interleave.
    reload_lock: Mutex<()>,
    /// Metrics, the `shard_reload` event stream, and the trace, profile
    /// and SLO state of the server running this router.
    obs: Arc<Obs>,
    metrics: RouterMetrics,
}

impl ShardRouter {
    /// Builds a router over pre-split shard models, with a fresh
    /// private observability context ([`ShardRouter::obs`]). Fails if
    /// the same suffix appears in more than one shard.
    pub fn new(shard_models: &[Model], cache_capacity: usize) -> Result<ShardRouter, RouterError> {
        if shard_models.is_empty() {
            return Err(RouterError("a cluster needs at least one shard".into()));
        }
        let psl = PublicSuffixList::builtin();
        let shards = shard_models.iter().map(|m| Shard::new(m, 0)).collect();
        let snapshot = Snapshot::new(&psl, shards, 0)?;
        let obs = Arc::new(Obs::new());
        let suffix_counts: Vec<usize> = shard_models.iter().map(|m| m.entries.len()).collect();
        let metrics = RouterMetrics::register(&obs, &suffix_counts);
        Ok(ShardRouter {
            psl,
            snapshot: RwLock::new(Arc::new(snapshot)),
            cache: ShardedLru::new(cache_capacity),
            reload_lock: Mutex::new(()),
            obs,
            metrics,
        })
    }

    /// Plans, splits, and builds in one step.
    pub fn from_model(
        model: &Model,
        shards: u32,
        cache_capacity: usize,
    ) -> Result<ShardRouter, RouterError> {
        let (models, _) = split(model, shards).map_err(|e| RouterError(e.to_string()))?;
        ShardRouter::new(&models, cache_capacity)
    }

    /// The observability context: per-shard, cache and dispatch
    /// metrics, and the `shard_reload` events. A server started over
    /// this router records into it too.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.snapshot().shards.len()
    }

    /// The response cache (for stats and tests).
    pub fn cache(&self) -> &ShardedLru<CachedAnswer> {
        &self.cache
    }

    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Answers one hostname, through the cache.
    ///
    /// Cache accounting: a hit is charged to the cached route's shard,
    /// a miss to the shard that ends up computing the answer, a
    /// stale-generation rejection to the rejected entry's shard (stale
    /// lookups then recompute, so they also count as misses — per
    /// shard, `hits + misses` over all series equals total lookups),
    /// and an eviction to the shard of the answer that was pushed out.
    /// With the cache off (capacity 0) no cache traffic is counted.
    pub fn lookup(&self, hostname: &str) -> QueryAnswer {
        self.lookup_traced(hostname, &TraceCtx::off())
    }

    /// [`ShardRouter::lookup`] under a request tracing context: a
    /// sampled request records a router span tagged with the route
    /// outcome (exact/fallback/route_miss), shard, and generation (or
    /// epoch), a cache span tagged hit/miss/stale when the cache is on,
    /// and — when the answer is computed — an engine span around the
    /// convention's regexes (DESIGN §7i). An off context costs one
    /// branch per span site.
    pub fn lookup_traced(&self, hostname: &str, ctx: &TraceCtx) -> QueryAnswer {
        self.lookup_in(&self.snapshot(), hostname, &mut String::new(), ctx)
    }

    /// Answers a `BATCH` of hostnames in order, all from one snapshot
    /// and lowercased into one reused buffer. Each item goes through
    /// the same cache path as a single query, so cache accounting,
    /// route tags, and reload safety are identical item for item.
    pub fn lookup_batch(&self, hostnames: &[&str]) -> Vec<QueryAnswer> {
        self.lookup_batch_traced(hostnames, &TraceCtx::off())
    }

    /// [`ShardRouter::lookup_batch`] under a tracing context; each item
    /// records its own router/cache/engine spans until the context's
    /// span budget is spent.
    pub fn lookup_batch_traced(&self, hostnames: &[&str], ctx: &TraceCtx) -> Vec<QueryAnswer> {
        let snap = self.snapshot();
        let mut lower = String::new();
        hostnames.iter().map(|h| self.lookup_in(&snap, h, &mut lower, ctx)).collect()
    }

    /// One lookup on `snap`, lowercasing `hostname` into `lower`.
    fn lookup_in(
        &self,
        snap: &Snapshot,
        hostname: &str,
        lower: &mut String,
        ctx: &TraceCtx,
    ) -> QueryAnswer {
        lower.clear();
        lower.push_str(hostname);
        lower.make_ascii_lowercase();
        let lower = lower.as_str();
        let mut rsp = ctx.span(Layer::Router);
        if !self.cache.is_enabled() {
            let (route, answer) = self.compute(snap, lower, ctx);
            tag_route(&mut rsp, &route);
            return answer;
        }
        let mut saw_stale = false;
        let cached = {
            let mut csp = ctx.span(Layer::Cache);
            let hit = self.cache.get_valid(lower, |v| {
                let current = snap.current(&v.route);
                if !current {
                    saw_stale = true;
                    self.metrics.of_route(&v.route).cache_stale.inc();
                }
                current
            });
            match &hit {
                Some(h) => {
                    // Route tag first: it also writes a dispatch
                    // detail, which the cache outcome overrides.
                    tag_route(&mut csp, &h.route);
                    csp.detail(detail::HIT);
                }
                // A stale rejection recomputes, so it also reads as a
                // miss downstream; the distinct detail says why.
                None => csp.detail(if saw_stale { detail::STALE } else { detail::MISS }),
            }
            hit
        };
        if let Some(hit) = cached {
            self.metrics.of_route(&hit.route).cache_hits.inc();
            tag_route(&mut rsp, &hit.route);
            return hit.answer;
        }
        let (route, answer) = self.compute(snap, lower, ctx);
        tag_route(&mut rsp, &route);
        self.metrics.of_route(&route).cache_misses.inc();
        let evicted = self.cache.insert(lower, CachedAnswer { route, answer: answer.clone() });
        if let Some(ev) = evicted {
            self.metrics.of_route(&ev.route).cache_evictions.inc();
        }
        answer
    }

    /// The compute path: one walk of the snapshot's index, then the
    /// dispatched convention's regexes. Counts the dispatch outcome,
    /// the shard's query and the convention's per-suffix query.
    fn compute(&self, snap: &Snapshot, lower: &str, ctx: &TraceCtx) -> (Route, QueryAnswer) {
        let (route, (k, i)) = match snap.index.walk(lower).dispatch {
            Dispatch::Exact((k, i)) => {
                self.metrics.exact.inc();
                let generation = snap.shards[k as usize].generation;
                (Route::Exact { shard: k, generation }, (k, i))
            }
            Dispatch::Fallback((k, i)) => {
                self.metrics.fallback.inc();
                (Route::Fallback { shard: k, epoch: snap.epoch }, (k, i))
            }
            Dispatch::Miss => {
                self.metrics.miss.inc();
                return (Route::Miss { epoch: snap.epoch }, QueryAnswer::MISS);
            }
        };
        let shard = &snap.shards[k as usize];
        self.metrics.shards[k as usize].queries.inc();
        shard.per_suffix[i as usize].fetch_add(1, Ordering::Relaxed);
        let nc = &shard.ncs[i as usize];
        let mut esp = ctx.span(Layer::Engine);
        esp.shard(k);
        esp.generation(shard.generation);
        let asn = nc.extract_lower(lower);
        esp.detail(if asn.is_some() { detail::EXTRACT_HIT } else { detail::EXTRACT_MISS });
        (route, QueryAnswer::new(Some(nc), asn))
    }

    /// Hot-reloads shard `k` with a new model. The new model may add
    /// or drop suffixes, but may not claim a suffix another shard owns.
    /// On success the shard's generation and the global epoch advance
    /// and stale cache entries are dropped; on failure nothing changes.
    pub fn reload_shard(&self, k: u32, model: &Model) -> Result<usize, RouterError> {
        let _serialize = self.reload_lock.lock().expect("reload lock poisoned");
        let current = self.snapshot();
        let Some(old) = current.shards.get(k as usize) else {
            return Err(RouterError(format!(
                "shard {k} out of range (cluster has {})",
                current.shards.len()
            )));
        };
        let generation = old.generation + 1;
        let mut shards = current.shards.clone();
        shards[k as usize] = Shard::new(model, generation);
        let next = Arc::new(Snapshot::new(&self.psl, shards, current.epoch + 1)?);
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::clone(&next);
        self.cache.invalidate(|v| !next.current(&v.route));
        let n = model.entries.len();
        let m = &self.metrics.shards[k as usize];
        m.reloads.inc();
        m.generation.set(generation as i64);
        m.suffixes.set(n as i64);
        self.obs.events().record(
            "shard_reload",
            &[
                ("shard", &k.to_string()),
                ("generation", &generation.to_string()),
                ("conventions", &n.to_string()),
            ],
        );
        Ok(n)
    }

    /// Total conventions across all shards.
    pub fn model_len(&self) -> usize {
        self.snapshot().shards.iter().map(|s| s.ncs.len()).sum()
    }

    /// Per-suffix query counts since each shard's last reload, shard by
    /// shard in index order (`STATS SUFFIX`). Cache hits do not reach
    /// a convention and are not counted here.
    pub fn per_suffix(&self) -> Vec<(String, u64)> {
        let snap = self.snapshot();
        snap.shards
            .iter()
            .flat_map(|s| s.ncs.iter().zip(&s.per_suffix))
            .map(|(nc, n)| (nc.suffix.clone(), n.load(Ordering::Relaxed)))
            .collect()
    }

    /// Per-shard stats snapshot; `queries` reads
    /// `hoiho_shard_queries_total`.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let snap = self.snapshot();
        snap.shards
            .iter()
            .zip(&self.metrics.shards)
            .enumerate()
            .map(|(k, (s, m))| ShardStats {
                shard: k as u32,
                generation: s.generation,
                suffixes: s.ncs.len(),
                queries: m.queries.get(),
            })
            .collect()
    }

    /// Cache counters snapshot.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Tags a span with a route outcome: the dispatch detail plus the
/// shard index and its validation counter (generation for exact
/// routes, routing epoch for fallback/miss).
fn tag_route(sp: &mut SpanHandle<'_>, route: &Route) {
    match *route {
        Route::Exact { shard, generation } => {
            sp.detail(detail::EXACT);
            sp.shard(shard);
            sp.generation(generation);
        }
        Route::Fallback { shard, epoch } => {
            sp.detail(detail::FALLBACK);
            sp.shard(shard);
            sp.generation(epoch);
        }
        Route::Miss { epoch } => {
            sp.detail(detail::ROUTE_MISS);
            sp.generation(epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EvalCounts, ModelEntry};
    use crate::Engine;
    use hoiho::classify::NcClass;
    use hoiho::regex::Regex;
    use hoiho::taxonomy::Taxonomy;

    /// suffix → owning shard, in the router's live snapshot.
    fn owners(router: &ShardRouter) -> HashMap<String, u32> {
        let snap = router.snapshot();
        let by_shard = snap.shards.iter().enumerate();
        by_shard
            .flat_map(|(k, s)| s.ncs.iter().map(move |nc| (nc.suffix.clone(), k as u32)))
            .collect()
    }

    fn entry(suffix: &str, rx: &[&str]) -> ModelEntry {
        ModelEntry {
            suffix: suffix.to_string(),
            class: NcClass::Good,
            single: false,
            taxonomy: Taxonomy::Start,
            hostnames: 5,
            counts: EvalCounts::default(),
            regexes: rx.iter().map(|s| Regex::parse(s).unwrap()).collect(),
        }
    }

    fn model() -> Model {
        Model {
            entries: vec![
                entry("equinix.com", &[r"^[^\.]+\.[^\.]+\.as(\d+)\.equinix\.com$"]),
                entry("nts.ch", &[r"^[^\.]+\.\d+\.[a-z]+\.as(\d+)\.nts\.ch$"]),
                // A deeper suffix under the same registrable domain as
                // another entry, to exercise fallback precedence.
                entry("sgw.equinix.com", &[r"^p(\d+)\.sgw\.equinix\.com$"]),
                entry("example.net", &[r"^as(\d+)\.example\.net$"]),
            ],
        }
    }

    const HOSTS: &[&str] = &[
        "ge0-2.01.p.as15576.nts.ch",
        "a.b.as64500.equinix.com",
        "p714.sgw.equinix.com",
        "as3356.example.net",
        "AS3356.EXAMPLE.NET",
        "nothing.example.org",
        "example.net",
        "com",
        "",
    ];

    #[test]
    fn router_matches_single_engine_for_all_shard_counts() {
        let m = model();
        let single = Engine::new(&m);
        for shards in [1u32, 2, 3, 4] {
            let router = ShardRouter::from_model(&m, shards, 64).unwrap();
            for h in HOSTS {
                let direct = single.extract(h);
                let routed = router.lookup(h);
                assert_eq!(routed.asn, direct.asn, "shards={shards} host={h}");
                let expect_suffix = direct.nc.map(|i| single.conventions()[i].suffix.clone());
                assert_eq!(routed.suffix, expect_suffix, "shards={shards} host={h}");
                // And the cached second read agrees.
                assert_eq!(router.lookup(h), routed, "shards={shards} host={h} cached");
            }
        }
    }

    /// The router's route kind agrees with the dispatch outcome of a
    /// single engine over the whole model, host by host — the
    /// cases the dispatch order turns on: a keyed registrable domain
    /// beating a deeper key, deeper and shallower fallbacks, bare
    /// public suffixes, empty labels, case and trailing dots.
    #[test]
    fn route_kind_agrees_with_engine_dispatch_counters() {
        let mut m = model();
        m.entries.push(entry("co.nz", &[r"^as(\d+)\."]));
        m.entries.push(entry("b.com", &[r"^as(\d+)\."]));
        m.entries.push(entry("net.example.com", &[r"^as(\d+)\."]));
        let hosts = [
            "p714.sgw.equinix.com",
            "P714.SGW.EQUINIX.COM.",
            "as1.net.example.com",
            "r1.foo.co.nz",
            "co.nz",
            "a..b.com",
            "as3356.example.net",
            "nothing.example.org",
            "com",
            "",
        ];
        let single = Engine::new(&m);
        for shards in [1u32, 2, 3, 4] {
            let router = ShardRouter::from_model(&m, shards, 0).unwrap();
            for h in hosts {
                let lower = h.to_ascii_lowercase();
                let (route, _) = router.compute(&router.snapshot(), &lower, &TraceCtx::off());
                let agree = matches!(
                    (route, single.dispatch(&lower)),
                    (Route::Exact { .. }, Dispatch::Exact(_))
                        | (Route::Fallback { .. }, Dispatch::Fallback(_))
                        | (Route::Miss { .. }, Dispatch::Miss)
                );
                assert!(agree, "shards={shards} host={h} {route:?}");
            }
        }
    }

    #[test]
    fn cache_hits_counted_and_engine_not_retouched() {
        let router = ShardRouter::from_model(&model(), 2, 64).unwrap();
        let h = "a.b.as64500.equinix.com";
        assert_eq!(router.lookup(h).asn, Some(64500));
        let queries_after_first: u64 = router.shard_stats().iter().map(|s| s.queries).sum();
        for _ in 0..5 {
            assert_eq!(router.lookup(h).asn, Some(64500));
        }
        let stats = router.cache_stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 1);
        let queries_now: u64 = router.shard_stats().iter().map(|s| s.queries).sum();
        assert_eq!(queries_now, queries_after_first, "cache hits must not reach engines");
        // Mixed case maps to the same cache entry.
        assert_eq!(router.lookup("A.B.AS64500.Equinix.COM").asn, Some(64500));
        assert_eq!(router.cache_stats().hits, 6);
    }

    #[test]
    fn reload_invalidates_only_what_it_must() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 64).unwrap();
        let routing = owners(&router);
        let nts_shard = routing["nts.ch"];
        // Prime: one exact answer per shard, one miss.
        for h in HOSTS {
            router.lookup(h);
        }
        let primed = router.cache().len();
        assert!(primed >= 4);

        // Reload the nts.ch shard with that same single entry dropped
        // to an always-miss regex set (still owns nts.ch).
        let new_model = Model {
            entries: m
                .entries
                .iter()
                .filter(|e| routing[&e.suffix] == nts_shard)
                .map(|e| {
                    let mut e = e.clone();
                    if e.suffix == "nts.ch" {
                        e.regexes = vec![Regex::parse(r"^never(\d+)\.nts\.ch$").unwrap()];
                    }
                    e
                })
                .collect(),
        };
        router.reload_shard(nts_shard, &new_model).unwrap();

        // The nts answer changed; the other shard's exact answers
        // survived the reload in cache.
        assert_eq!(router.lookup("ge0-2.01.p.as15576.nts.ch").asn, None);
        let (other_host, other_asn) = [
            ("a.b.as64500.equinix.com", "equinix.com", 64500),
            ("as3356.example.net", "example.net", 3356),
        ]
        .iter()
        .find(|(_, suffix, _)| routing[*suffix] != nts_shard)
        .map(|&(h, _, asn)| (h, asn))
        .expect("two shards cannot both hold nts.ch");
        let hits_before = router.cache_stats().hits;
        assert_eq!(router.lookup(other_host).asn, Some(other_asn));
        assert_eq!(
            router.cache_stats().hits,
            hits_before + 1,
            "other shard's exact-route entry must still be served from cache"
        );
        let gens: Vec<u64> = router.shard_stats().iter().map(|s| s.generation).collect();
        assert_eq!(gens.iter().sum::<u64>(), 1, "exactly one shard advanced: {gens:?}");
    }

    #[test]
    fn reload_may_not_steal_a_suffix() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 0).unwrap();
        let routing = owners(&router);
        let victim = &m.entries[0].suffix;
        let thief = (routing[victim] + 1) % 2;
        let steal = Model { entries: vec![m.entries[0].clone()] };
        let err = router.reload_shard(thief, &steal).unwrap_err();
        assert!(err.0.contains("owned by both"), "{err}");
        // Nothing moved.
        assert_eq!(router.lookup("a.b.as64500.equinix.com").asn, Some(64500));
    }

    #[test]
    fn reload_can_add_and_drop_suffixes() {
        let router = ShardRouter::from_model(&model(), 2, 16).unwrap();
        assert_eq!(router.lookup("as1.fresh.io").asn, None);
        // Give shard 0 a brand-new suffix and nothing else.
        let fresh = Model { entries: vec![entry("fresh.io", &[r"^as(\d+)\.fresh\.io$"])] };
        router.reload_shard(0, &fresh).unwrap();
        assert_eq!(router.lookup("as1.fresh.io").asn, Some(1), "new suffix routed after reload");
        // Suffixes previously on shard 0 are gone from routing.
        let routing = owners(&router);
        assert_eq!(routing.values().filter(|&&s| s == 0).count(), 1);
        assert_eq!(router.model_len(), 1 + router.snapshot().shards[1].ncs.len());
    }

    #[test]
    fn duplicate_suffix_across_shards_rejected_at_build() {
        let m = Model { entries: vec![entry("dup.com", &[r"^as(\d+)\.dup\.com$"])] };
        let err = match ShardRouter::new(&[m.clone(), m], 0) {
            Err(e) => e,
            Ok(_) => panic!("duplicate suffix must be rejected"),
        };
        assert!(err.0.contains("owned by both"), "{err}");
    }

    #[test]
    fn per_shard_metrics_account_exactly() {
        let m = model();
        let router = ShardRouter::from_model(&m, 2, 64).unwrap();
        let obs = router.obs();
        let routing = owners(&router);
        let eq = routing["equinix.com"];
        let s = eq.to_string();
        let c = |name: &str, shard: &str| obs.registry().counter(name, &[("shard", shard)]).get();

        let h = "a.b.as64500.equinix.com";
        router.lookup(h); // compute on eq's shard
        router.lookup(h); // cache hit
        router.lookup(h); // cache hit
        router.lookup("nothing.example.org"); // miss route → shard="none"
        assert_eq!(c("hoiho_cache_misses_total", &s), 1);
        assert_eq!(c("hoiho_cache_hits_total", &s), 2);
        assert_eq!(c("hoiho_shard_queries_total", &s), 1, "hits must not reach the engine");
        assert_eq!(c("hoiho_cache_misses_total", "none"), 1);
        assert_eq!(c("hoiho_cache_hits_total", "none"), 0);
        assert_eq!(obs.registry().gauge("hoiho_shard_suffixes", &[("shard", &s)]).get(), 2);

        // A racing-insert survivor: an entry whose tag predates the
        // live generation. Its rejection is charged to its shard as
        // `stale`, and the recompute as a fresh miss.
        router.cache().insert(
            h,
            CachedAnswer {
                route: Route::Exact { shard: eq, generation: 999 },
                answer: QueryAnswer::MISS,
            },
        );
        assert_eq!(router.lookup(h).asn, Some(64500));
        assert_eq!(c("hoiho_cache_stale_total", &s), 1);
        assert_eq!(c("hoiho_cache_misses_total", &s), 2);

        // Reload bumps the reload counter and the generation gauge and
        // records a shard_reload event.
        let own = Model {
            entries: m.entries.iter().filter(|e| routing[&e.suffix] == eq).cloned().collect(),
        };
        router.reload_shard(eq, &own).unwrap();
        assert_eq!(c("hoiho_shard_reloads_total", &s), 1);
        assert_eq!(obs.registry().gauge("hoiho_shard_generation", &[("shard", &s)]).get(), 1);
        let kinds: Vec<String> =
            obs.events().tail(16).into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"shard_reload".to_string()), "{kinds:?}");

        // Per shard, hits + misses across all series == total lookups
        // (the stale rejection became a miss, not a separate bucket).
        let lookups = 5u64;
        let total: u64 = [&s as &str, "none", &((eq + 1) % 2).to_string()]
            .iter()
            .map(|sh| c("hoiho_cache_hits_total", sh) + c("hoiho_cache_misses_total", sh))
            .sum();
        assert_eq!(total, lookups);
    }

    /// One index walk per computed lookup: N cache-missing lookups
    /// bump the three dispatch-outcome series by exactly N in total,
    /// and cache hits bump none of them.
    #[test]
    fn one_dispatch_per_computed_lookup() {
        for shards in [1u32, 2, 3, 4] {
            let router = ShardRouter::from_model(&model(), shards, 64).unwrap();
            let dispatches =
                || router.obs().registry().counter_sum("hoiho_engine_extractions_total");
            for h in HOSTS {
                router.lookup(h);
            }
            let computed = router.cache_stats().misses;
            assert_eq!(dispatches(), computed, "shards={shards}");
            router.lookup_batch(HOSTS);
            assert_eq!(dispatches(), computed, "shards={shards}: hits must not dispatch");
        }
        let uncached = ShardRouter::from_model(&model(), 2, 0).unwrap();
        uncached.lookup_batch(HOSTS);
        uncached.lookup_batch(HOSTS);
        let total = uncached.obs().registry().counter_sum("hoiho_engine_extractions_total");
        assert_eq!(total, 2 * HOSTS.len() as u64);
    }
}
