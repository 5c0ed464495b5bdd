//! The four learning phases of §3: base regex generation, merging,
//! character-class embedding, and regex-set construction.
//!
//! Each phase grows the candidate pool (earlier candidates stay in the
//! pool and compete on ATP) — the figure-4 walkthrough in the paper shows
//! the surviving representative of each phase, not a replacement of the
//! pool. [`crate::select`] makes the final choice.

pub mod base;
pub mod classes;
pub mod merge;
pub mod sets;

/// Smallest outcome matrix (`pool × hosts` cells) worth a
/// [`crate::regex::MultiMatcher`]: below this the automaton build costs
/// more than the evaluations it skips, so the sets and classes phases
/// run every (regex, host) pair directly.
const DISPATCH_MIN_CELLS: usize = 4096;
