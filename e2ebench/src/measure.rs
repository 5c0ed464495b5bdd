//! Measurement helpers shared by the workloads: benchmark-side layer
//! spans, quantiles, peak memory, and the result record.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Benchmark-side spans around calls into the program's layers.
///
/// With `on == false` a span is a plain call, so the untraced runs
/// that produce the end-to-end metrics pay nothing for it. With
/// `on == true` each span adds its wall time to the row named after
/// the layer. Spans recorded here never nest: every row is the self
/// time of one kind of call, so the rows plus the unattributed rest
/// add up to the traced pass's wall time.
pub struct Layers {
    on: bool,
    rows: BTreeMap<&'static str, u64>,
    /// Duration of the most recent span, in nanoseconds (0 when off).
    pub last_ns: u64,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            rows: BTreeMap::new(),
            last_ns: 0,
        }
    }

    pub fn span<T>(&mut self, row: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.last_ns = t.elapsed().as_nanos() as u64;
        *self.rows.entry(row).or_default() += self.last_ns;
        out
    }

    /// Total nanoseconds recorded under `row`.
    pub fn ns(&self, row: &str) -> u64 {
        self.rows.get(row).copied().unwrap_or(0)
    }

    pub fn ms(&self, row: &str) -> f64 {
        self.ns(row) as f64 / 1e6
    }

    /// Sum of every row, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.rows.values().sum()
    }

    /// The rows, for the human-readable budget table.
    pub fn rows(&self) -> &BTreeMap<&'static str, u64> {
        &self.rows
    }
}

/// Runs `untraced`, then `traced`, then `untraced` again, so drift
/// during the run weighs on both sides alike. Returns the first
/// untraced result, the traced result, the traced wall time and the
/// mean untraced wall time, in nanoseconds.
pub fn paired<U, T>(
    mut untraced: impl FnMut() -> Result<U, String>,
    traced: impl FnOnce() -> Result<T, String>,
) -> Result<(U, T, u64, u64), String> {
    let t = Instant::now();
    let plain = untraced()?;
    let before = t.elapsed();
    let t = Instant::now();
    let out = traced()?;
    let traced_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    std::hint::black_box(untraced()?);
    let untraced_ns = ((before + t.elapsed()) / 2).as_nanos() as u64;
    Ok((plain, out, traced_ns, untraced_ns))
}

/// Wall time in calibrated seconds.
///
/// The CPUs this benchmark gets are shared: the same fixed loop of
/// work takes anywhere from one to two times as long from one second
/// to the next, as neighbours come and go. A timing is therefore taken
/// beside a fixed reference computation that runs no code of the
/// program, run on the same thread just before and just after it, and
/// scaled by `REFERENCE_S` over the reference's mean time: a
/// calibrated second is the time in which the host runs the reference
/// `1 / REFERENCE_S` times. On a host running at its usual speed,
/// calibrated and wall seconds agree; when the host slows, both the
/// work and the reference slow, and the ratio holds.
pub struct Calibration {
    /// The reference's time at the end of the previous timing.
    last_s: f64,
    words: Vec<u64>,
    /// Sums over every timing so far, for the wall/calibrated ratio.
    wall_s: f64,
    calibrated_s: f64,
}

/// The reference's nominal time, near its median on a 2-vCPU Xeon
/// virtual machine; any fixed value would do, since it only scales
/// every calibrated figure alike.
pub const REFERENCE_S: f64 = 0.0017;

impl Calibration {
    pub fn new() -> Calibration {
        let mut c = Calibration {
            last_s: 0.0,
            words: vec![0; 1 << 15],
            wall_s: 0.0,
            calibrated_s: 0.0,
        };
        c.reference();
        c.last_s = c.reference();
        c
    }

    /// The reference computation, in two parts like the program's own
    /// work: it sorts 32,768 pseudo-random words in a buffer kept
    /// across calls and hashes them with a branch on every word, then
    /// fills a `HashMap` with 1,000 freshly formatted hostname-like
    /// strings and walks them in order. The program's time goes largely
    /// to small allocations and string work, and a reference that
    /// allocates its strings afresh tracks the host's speed for it far
    /// better than one that reuses them (over eight runs of `learn`,
    /// 0.025 of the median against 0.070). No allocation is large
    /// enough for the C allocator to take fresh pages, whose cost varies
    /// from one process to the next. It uses the standard library
    /// alone. Returns its wall seconds.
    fn reference(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for w in self.words.iter_mut() {
            *w = next();
        }
        self.words.sort_unstable();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &w in &self.words {
            h = if w & 0x10 == 0 {
                (h ^ w).wrapping_mul(0x100_0000_01B3)
            } else {
                h.rotate_left(5) ^ w
            };
        }
        let mut map = HashMap::new();
        for i in 0..1000u32 {
            let r = next();
            map.insert(format!("r{}-ae{i}.{}.example", r % 1000, r % 97), i);
        }
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        for k in keys {
            h = h.wrapping_add(u64::from(map[k])) ^ k.len() as u64;
        }
        black_box(h);
        t.elapsed().as_secs_f64()
    }

    /// Scales `wall_s` seconds that ended just now by the reference
    /// runs before and after them; returns calibrated seconds.
    pub fn scale(&mut self, wall_s: f64) -> f64 {
        let before = self.last_s;
        self.last_s = self.reference();
        let calibrated = wall_s * REFERENCE_S / ((before + self.last_s) / 2.0);
        self.wall_s += wall_s;
        self.calibrated_s += calibrated;
        calibrated
    }

    /// Runs `f` and returns its result and calibrated seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed().as_secs_f64();
        (out, self.scale(wall))
    }

    /// Wall over calibrated seconds so far: above 1 when the host ran
    /// slower than usual.
    pub fn slowdown(&self) -> f64 {
        self.wall_s / self.calibrated_s.max(f64::MIN_POSITIVE)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

/// Mixes the workload seed into a base seed, so every generated input
/// moves with `--seed` while seed 0 keeps the base value.
pub fn perturb(base: u64, seed: u64, stream: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One run's outcome: the checks made and the metrics measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A work count: repeats exactly across runs of one seed.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.metric(name, value as f64, "count");
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Adds the budget rows of a traced pass: each layer row, the
    /// traced wall time, the unattributed rest, and the overhead
    /// against the untraced pass of the same work.
    pub fn budget(&mut self, layers: &Layers, traced_ns: u64, untraced_ns: u64) {
        let attributed = layers.total_ns();
        let unattributed = traced_ns as f64 - attributed as f64;
        // Spans never nest, so they cannot cover more than the pass.
        self.check(attributed <= traced_ns, || {
            format!("layer rows {attributed} ns exceed the pass {traced_ns} ns")
        });
        eprintln!(
            "budget ({:.1} ms traced, {:.1} ms untraced):",
            traced_ns as f64 / 1e6,
            untraced_ns as f64 / 1e6
        );
        for (row, ns) in layers.rows() {
            eprintln!(
                "  {row:<24} {:>10.1} ms {:>5.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / traced_ns as f64
            );
        }
        eprintln!(
            "  {:<24} {:>10.1} ms {:>5.1}%",
            "unattributed",
            unattributed / 1e6,
            100.0 * unattributed / traced_ns as f64
        );
        self.metric("traced_wall_ms", traced_ns as f64 / 1e6, "ms");
        self.metric("unattributed_ms", unattributed / 1e6, "ms");
        self.metric(
            "trace_overhead_pct",
            100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
            "%",
        );
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a value that is not finite is a bug
/// in the benchmark, not a measurement. `Display` prints every digit
/// and never an exponent.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}
