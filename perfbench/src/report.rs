//! Metric names, the result line, and the small statistics every workload
//! shares.
//!
//! The metric tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints exactly [`END_TO_END`], a
//! traced run exactly [`PER_LAYER`], on every workload. A layer a workload
//! does not exercise reports 0 there (it should not move on that
//! workload).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("cold_op_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Layers timed from outside in the traced run. Each reports
/// `<layer>.calls` and `<layer>.busy_ms`.
pub const LAYERS: &[&str] = &[
    "netlist.generate",
    "netlist.parse_map",
    "core.apply_style",
    "netlist.compile_lower",
    "serve.cache",
    "atpg.fault_setup",
    "atpg.campaign",
    "sim.good_eval",
    "atpg.replay",
    "exec.pool",
    "core.evaluate",
    "atpg.transition",
    "atpg.podem",
    "atpg.pattern_sim",
    "atpg.broadside",
    "atpg.path_delay",
    "analog.build",
    "analog.transient",
];

/// Per-layer extras and the program's deterministic counters (traced
/// runs): `(name, unit)`.
pub const EXTRAS: &[(&str, &str)] = &[
    ("codegen.fused_ops", "count"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.parse_skips", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("atpg.fault_setup.faults", "count"),
    ("atpg.fault_setup.pruned", "count"),
    ("atpg.campaign.fault_pairs_per_s", "1/s"),
    ("sim.bytecode_insts", "count"),
    ("replay.calls", "count"),
    ("replay.events", "count"),
    ("replay.early_exits", "count"),
    ("replay.lane_evals", "count"),
    ("drops.faults_dropped", "count"),
    ("exec.pool.busy_imbalance", "ratio"),
    ("atpg.podem.call_ms.p50", "ms"),
    ("atpg.podem.call_ms.p90", "ms"),
    ("atpg.podem.none", "count"),
    ("podem.backtracks", "count"),
    ("atpg.podem_none_later_detected", "count"),
    ("analog.transient.steps", "count"),
    ("analog.transient.us_per_step", "us"),
    ("trace.window_ops", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for layer in LAYERS {
        all.push((format!("{layer}.calls"), "count"));
        all.push((format!("{layer}.busy_ms"), "ms"));
    }
    all.extend(EXTRAS.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// What one run prints as its last line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Extra correctness conditions beyond per-op checks (pinned digests).
    pub pinned_ok: bool,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Renders the result line, checking that the metric set is exactly
    /// `expected` and every value is finite.
    pub fn render(&self, expected: &[(String, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(expected.len());
        for (name, unit) in expected {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let correct = self.failed == 0 && self.pinned_ok;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Inputs of the end-to-end metric block.
pub struct EndToEnd {
    /// Work units per second (jobs, target faults, samples) of each round
    /// of the timed phase, over the round's scaled operation times (see
    /// [`Pace`]); the metric is their median.
    pub round_rates: Vec<f64>,
    /// Per-operation latency (ms, scaled).
    pub op_ms: Vec<f64>,
    /// Latency (ms, scaled) of operations that found no cached state.
    pub cold_op_ms: Vec<f64>,
    /// Set-up durations (s, scaled): the run's own set-up, then one
    /// repetition at round boundaries of the timed phase, so the median
    /// samples the same stretches of host time as the rounds do.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut m = BTreeMap::new();
        m.insert("ops_per_s".into(), quantile(&self.round_rates, 0.5));
        m.insert("op_ms.p50".into(), quantile(&self.op_ms, 0.5));
        m.insert("op_ms.p90".into(), quantile(&self.op_ms, 0.9));
        m.insert("cold_op_ms.p50".into(), quantile(&self.cold_op_ms, 0.5));
        m.insert("setup_s".into(), quantile(&self.setup_s, 0.5));
        m.insert("peak_rss_mb".into(), self.peak_rss_mb);
        m.insert(
            "ok_frac".into(),
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        m
    }
}

/// Linear-interpolated quantile (NaN on an empty sample, which
/// [`Outcome::render`] rejects).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Tracing overhead in percent: the median over a window's operations of
/// each operation's traced over untraced latency (per-operation pairing
/// keeps one noisy stretch of the untraced pass from deciding the figure).
pub fn overhead_pct(off_ms: &[f64], on_ms: &[f64]) -> f64 {
    let ratios: Vec<f64> = off_ms
        .iter()
        .zip(on_ms)
        .map(|(off, on)| 100.0 * (on / off - 1.0))
        .collect();
    quantile(&ratios, 0.5)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Keys the reference kernel sorts (256 KiB, resident in a core's own
/// caches).
const SORT_KEYS: usize = 1 << 16;
/// What the reference kernel takes at the speed all times are scaled to,
/// in ms (about its time on an uncontended 2.0 GHz Xeon vCPU).
const REF_NOMINAL_MS: f64 = 1.5;

/// Times operations on the host's drifting clock and scales them to a
/// fixed reference speed.
///
/// The shared host's speed drifts by up to 2x in stretches of seconds to
/// minutes. So every timed operation is bracketed by a fixed reference
/// kernel that calls no program code: a sort of pseudo-random keys, which
/// is branchy, integer work on data in the core's own caches, like most of
/// the program. The operation's wall time is multiplied by
/// `REF_NOMINAL_MS` over the mean of the two bracketing reference times:
/// the time it would take at the speed where the kernel takes
/// `REF_NOMINAL_MS`. A change to the program moves the scaled times as
/// much as the wall times; the host's drift cancels. Of the candidate
/// kernels tried (the sort, read-modify-write walks over 512 KiB and
/// 4 MiB tables, a floating-point recurrence) the sort tracked the drift
/// best; see the README's Noise section for the measurements.
pub struct Pace {
    /// One key buffer per thread the timed operations run on.
    keys: Vec<Vec<u32>>,
    /// Reference time (ms) measured right after the previous operation.
    before_ms: f64,
    wall_ms: f64,
    scaled_ms: f64,
}

impl Pace {
    /// A pace for operations that run on `threads` threads: the reference
    /// kernel runs on as many at once and its time is their mean, so it
    /// samples the speed of the same vCPUs the operations use.
    pub fn new(threads: usize) -> Pace {
        let mut pace = Pace {
            keys: vec![vec![0; SORT_KEYS]; threads.max(1)],
            before_ms: 0.0,
            wall_ms: 0.0,
            scaled_ms: 0.0,
        };
        pace.reference_ms();
        pace.before_ms = pace.reference_ms();
        pace
    }

    /// Runs `f`; returns its output and its wall time in ms scaled to the
    /// reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let wall = ms(start.elapsed());
        let after = self.reference_ms();
        let scaled = wall * 2.0 * REF_NOMINAL_MS / (self.before_ms + after);
        self.before_ms = after;
        self.wall_ms += wall;
        self.scaled_ms += scaled;
        (out, scaled)
    }

    /// Wall over scaled time of everything timed so far: how much slower
    /// than the reference speed the host ran.
    pub fn slowdown(&self) -> f64 {
        self.wall_ms / self.scaled_ms
    }

    fn reference_ms(&mut self) -> f64 {
        let total: f64 = match self.keys.as_mut_slice() {
            [one] => sort_ms(one),
            all => std::thread::scope(|s| {
                let runs: Vec<_> = all.iter_mut().map(|k| s.spawn(|| sort_ms(k))).collect();
                runs.into_iter()
                    .map(|r| r.join().expect("reference kernel panicked"))
                    .sum()
            }),
        };
        total / self.keys.len() as f64
    }
}

/// The reference kernel: fills `keys` from a xorshift stream and sorts
/// them. Timed as the fastest of three repetitions, so an interrupt inside
/// one does not count as drift.
fn sort_ms(keys: &mut [u32]) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x2545_f491u32;
            for key in keys.iter_mut() {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *key = x;
            }
            keys.sort_unstable();
            std::hint::black_box(&keys);
            ms(start.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Per-layer busy time measured from outside: each timed call opens an
/// flh-obs span of the layer's name (for the Chrome trace) and adds its
/// wall time to the layer's total.
#[derive(Default)]
pub struct Layers {
    busy: BTreeMap<&'static str, (u64, Duration)>,
}

impl Layers {
    /// Times one call into `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = flh_obs::span(layer);
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Adds a call of `busy` to `layer` (for layers whose time is derived,
    /// such as replay = batch simulation minus good-machine evaluation).
    pub fn add(&mut self, layer: &'static str, busy: Duration) {
        debug_assert!(LAYERS.contains(&layer), "undeclared layer {layer}");
        let entry = self.busy.entry(layer).or_default();
        entry.0 += 1;
        entry.1 += busy;
    }

    /// Busy time of one layer so far.
    pub fn busy(&self, layer: &str) -> Duration {
        self.busy.get(layer).map_or(Duration::ZERO, |e| e.1)
    }

    /// `<layer>.calls` / `<layer>.busy_ms` for every declared layer.
    pub fn metrics(&self, into: &mut BTreeMap<String, f64>) {
        for layer in LAYERS {
            let (calls, busy) = self.busy.get(layer).copied().unwrap_or_default();
            into.insert(format!("{layer}.calls"), calls as f64);
            into.insert(format!("{layer}.busy_ms"), ms(busy));
        }
    }
}

/// Fills every declared extra with 0, so layers a workload never touches
/// still report (and stay at 0 on that workload).
pub fn zero_extras(into: &mut BTreeMap<String, f64>) {
    for (name, _) in EXTRAS {
        into.insert(name.to_string(), 0.0);
    }
}

/// Copies the program's deterministic flh-obs counters into the extras.
pub fn program_counters(snap: &flh_obs::Snapshot, into: &mut BTreeMap<String, f64>) {
    for (name, value) in &snap.counters {
        if EXTRAS.iter().any(|(n, _)| n == name) {
            into.insert(name.to_string(), *value as f64);
        }
    }
}

/// A deterministic per-index seed derived from the workload seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ index.rotate_left(32);
    flh_rng::splitmix64(&mut state)
}
