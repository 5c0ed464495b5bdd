//! # hoiho-serve — model artifacts and extraction serving
//!
//! The learner (`hoiho`) produces naming conventions; this crate makes
//! them *reusable inference artifacts*, the way the paper's authors
//! ship Hoiho's learned regexes with CAIDA's ITDK for others to apply:
//!
//! * [`model`] — a line-based text artifact serializing a full learned
//!   model (per-suffix regexes, §4 class, single flag, taxonomy, eval
//!   counts), with a strict line-numbered parser and a
//!   render→parse→render fixpoint guarantee.
//! * [`engine`] — a read-optimized in-memory index keyed by PSL-derived
//!   suffix that dispatches hostnames to their convention and runs the
//!   compiled regexes; single and thread-scoped batch APIs.
//! * [`plan`] — deterministic greedy partitioning of a model artifact
//!   into N weight-balanced shards by registrable-domain suffix, plus
//!   the shard-map manifest (strict parser, render→parse→render
//!   fixpoint, truncation-detecting trailer).
//! * [`cache`] — a std-only bounded LRU striped across mutex-guarded
//!   segments, with read-time validation and hit/miss/insert/evict/
//!   invalidation counters.
//! * [`router`] — the shard router, the one serving path: N
//!   independently reloadable shards dispatched through one suffix
//!   index walk per lookup, behind the response cache, with route tags
//!   that keep a reloaded shard from being answered from stale cache.
//!   A default server is one shard with the cache off.
//! * [`server`] — a `std::net` TCP line-protocol server over the
//!   router, running a small set of epoll readiness event loops
//!   ([`sys`] holds the in-tree syscall shims), with protocol
//!   pipelining, a multi-hostname `BATCH` verb, hit/miss/error/
//!   per-suffix counters, `STATS` and `METRICS` views, atomic per-shard
//!   hot reload, and graceful shutdown.
//! * [`chaos`] — `ChaosConn`, a seeded fault-injecting stream wrapper
//!   (drop / truncate / delay / garbage / fragment) used by
//!   `loadgen --chaos` and the fuzz tier's robustness tests.
//!
//! The `hoiho-serve` binary (in `crates/cluster`) wires these into the
//! workspace pipeline: `save` (learn → artifact, from a training file
//! or a synthetic snapshot), `inspect`, `query`, `shard`, `serve`, and
//! `loadgen`.
//!
//! Offline/serving split: learning is minutes-scale and runs offline;
//! lookups are microseconds-scale and run here. Nothing in this crate
//! mutates a compiled model after load: a reload compiles a new shard
//! and swaps it in whole.

pub mod cache;
pub mod chaos;
pub mod engine;
pub mod model;
pub mod plan;
pub mod router;
pub mod server;
pub mod sys;

pub use cache::{CacheStats, ShardedLru};
pub use chaos::{ChaosConfig, ChaosConn, ChaosStats};
pub use engine::{CompiledNc, Engine, Extraction, MIN_BATCH_CHUNK};
pub use model::{EvalCounts, Model, ModelEntry, ModelError};
pub use plan::{
    plan, shard_file_name, split, suffix_weight, Assignment, PlanError, ShardMap, ShardMapError,
    SHARDMAP_FILE_NAME, SHARDMAP_VERSION,
};
pub use router::{CachedAnswer, Route, RouterError, ShardRouter, ShardStats};
pub use server::{
    Client, QueryAnswer, ServerHandle, StatsSnapshot, MAX_BATCH, MAX_LINE, MAX_PENDING_OUT,
};
