//! Shard-map surface: `ShardMap::parse`.
//!
//! Case layout: a whole manifest text. Oracle for parse-accepted
//! manifests: `render(m)` reparses to an equal value and renders to
//! the same bytes (render→parse fixpoint, plus value equality — the
//! manifest is the cluster's source of routing truth, so a lossy
//! round-trip would silently re-route suffixes).

use super::{Target, HOSTCHARS};
use crate::input::FuzzInput;
use hoiho_serve::ShardMap;

pub struct ShardMapTarget;

impl Target for ShardMapTarget {
    fn name(&self) -> &'static str {
        "shardmap"
    }

    fn generate(&self, input: &mut FuzzInput) -> Vec<u8> {
        let shards = input.range(0, 5);
        let mut lines: Vec<String> =
            vec![format!("hoiho-shardmap\t1\t{shards}")];
        let n = input.range(0, 5);
        let mut suffixes: Vec<String> = (0..n)
            .map(|_| input.token(HOSTCHARS, 1, 10))
            .collect();
        // Parse requires sorted unique suffixes; keep most cases valid
        // and let the mutation pass below probe the order checks.
        suffixes.sort();
        suffixes.dedup();
        let mut total = 0u64;
        for s in &suffixes {
            let shard = input.below(shards.max(1) + 1); // sometimes out of range
            let weight = input.below(10_000);
            total += weight;
            lines.push(format!("A\t{s}\t{shard}\t{weight}"));
        }
        let trailer_total = if input.chance(85) { total } else { input.below(10_000) };
        lines.push(format!("E\t{}\t{}", suffixes.len(), trailer_total));
        for _ in 0..input.range(0, 2) {
            if lines.is_empty() {
                break;
            }
            let at = input.below(lines.len() as u64) as usize;
            match input.below(4) {
                0 => {
                    lines.remove(at);
                }
                1 => {
                    let bt = input.below(lines.len() as u64) as usize;
                    lines.swap(at, bt);
                }
                2 => {
                    let junk = input.token("\tAE 0z.", 1, 3);
                    let pos = input.below(lines[at].len() as u64 + 1) as usize;
                    lines[at].insert_str(pos, &junk);
                }
                _ => lines.push(input.token("AE\t 019a.-", 0, 12)),
            }
        }
        let mut case = lines.join("\n");
        case.push('\n');
        case.into_bytes()
    }

    fn run(&self, case: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(case) else {
            return Ok(());
        };
        let Ok(map) = ShardMap::parse(text) else {
            return Ok(());
        };
        let rendered = map.render();
        let reparsed = ShardMap::parse(&rendered)
            .map_err(|e| format!("render of accepted shard map fails to reparse: {e}"))?;
        if reparsed != map {
            return Err("render→parse round-trip changed the shard map".to_string());
        }
        if reparsed.render() != rendered {
            return Err("render→parse→render is not a fixpoint".to_string());
        }
        Ok(())
    }
}
