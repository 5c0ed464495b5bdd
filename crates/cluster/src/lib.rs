//! # hoiho-cluster — the `hoiho-serve` binary
//!
//! The serving tier — shard planner, response cache and shard router —
//! lives in [`hoiho_serve`]; this package holds the `hoiho-serve`
//! binary (`src/bin/hoiho-serve.rs`) and re-exports the tier's names
//! for callers that import them from here.

pub use hoiho_serve::{
    cache, plan, router, shard_file_name, split, suffix_weight, Assignment, CacheStats,
    CachedAnswer, PlanError, Route, RouterError, ShardMap, ShardMapError, ShardRouter,
    ShardStats, ShardedLru, SHARDMAP_FILE_NAME, SHARDMAP_VERSION,
};
