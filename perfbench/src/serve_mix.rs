//! `serve_mix`: one closed-loop client sending a seeded job sequence to one
//! `JobEngine` on the default pool and cache.
//!
//! Circuits are the three large profiles, asked for either by profile name
//! (generator path) or as inline `.bench` text under a renamed design
//! (parser + mapper path), each with three DFT variants. The renamed
//! variants are distinct cache entries of the same structure, so the
//! working set (36 entries) exceeds the default 32-entry cache and capacity
//! misses recur throughout the run at the same per-job cost. Jobs come in
//! rounds with a fixed mix (per circuit: four campaign jobs and one
//! evaluate job) in a shuffled order. The job structure (circuit, source
//! kind, DFT and job kind at each position, hence the cache hit/miss
//! pattern) is fixed; `--seed` picks the data: the renamed designs'
//! names, the campaign seeds and the power-vector seed. Seeds thus differ
//! in inputs, not in cost mix.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::tview::Observation;
use flh_atpg::{
    order_transition_faults_pruned, transition_campaign_filtered, ApplicationStyle, CampaignResult,
    StaticFilter, TestView, TransitionSimulator, PATTERN_BLOCK,
};
use flh_core::{apply_style, evaluate_all, evaluate_style, DftStyle, EvalConfig, StyleEvaluation};
use flh_exec::ThreadPool;
use flh_netlist::bench_io::{parse_bench, write_bench};
use flh_netlist::mapper::map_netlist;
use flh_netlist::{
    generate_circuit, iscas89_profile, CompiledCircuit, LaneWord, Netlist, Packed256, PatternWord,
    Program,
};
use flh_rng::Rng;
use flh_serve::{
    BatchPayload, CircuitSource, JobEngine, JobId, JobKind, JobOutcome, JobSpec,
    ALL_APPLICATION_STYLES,
};

use crate::report::{self, EndToEnd, Layers, Outcome, Pace};
use crate::Args;

const CIRCUITS: [&str; 3] = ["s5378", "s9234", "s13207"];
/// Renamed inline-bench designs per circuit, besides its profile source.
const BENCH_VARIANTS: usize = 3;
const DFTS: [Option<DftStyle>; 3] = [None, Some(DftStyle::Flh), Some(DftStyle::EnhancedScan)];
const EVAL_STYLES: [DftStyle; 2] = [DftStyle::EnhancedScan, DftStyle::Flh];
const PAIRS: usize = 128;
const CAMPAIGNS_PER_CIRCUIT: usize = 4;
const ROUND_JOBS: usize = CIRCUITS.len() * (CAMPAIGNS_PER_CIRCUIT + 1);
/// Rounds in the traced window (fixed, so its counters repeat exactly).
const WINDOW_ROUNDS: usize = 3;
/// Seeds the job structure, which is the same for every `--seed`.
const STRUCTURE_SEED: u64 = 0x5e7e;

/// Identifies the computation of a job, for reference memoization.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SpecKey {
    source: usize,
    dft: usize,
    /// Campaign seed, or `None` for an evaluation job.
    campaign_seed: Option<u64>,
}

struct Plan {
    sources: Vec<CircuitSource>,
    campaign_seeds: [u64; 2],
    config: EvalConfig,
}

impl Plan {
    fn setup(seed: u64) -> Result<Plan, String> {
        let mut sources = Vec::new();
        let salt = report::derive_seed(seed, 4, 0) & 0xffff;
        for name in CIRCUITS {
            let profile = iscas89_profile(name).ok_or_else(|| format!("no profile {name}"))?;
            let netlist = generate_circuit(&profile.generator_config())
                .map_err(|e| format!("generating {name}: {e}"))?;
            let text = write_bench(&netlist);
            sources.push(CircuitSource::profile(profile));
            for v in 0..BENCH_VARIANTS {
                sources.push(CircuitSource::bench_text(
                    format!("{name}_{salt:04x}_v{v}"),
                    text.clone(),
                ));
            }
        }
        Ok(Plan {
            sources,
            campaign_seeds: [
                report::derive_seed(seed, 2, 0),
                report::derive_seed(seed, 2, 1),
            ],
            config: EvalConfig {
                seed: report::derive_seed(seed, 5, 0),
                ..EvalConfig::paper_default()
            },
        })
    }

    /// The `i`-th job of the sequence (a pure function of the plan and the
    /// index).
    fn job(&self, i: usize) -> (SpecKey, JobSpec) {
        let (round, pos) = (i / ROUND_JOBS, i % ROUND_JOBS);
        let mut slots: Vec<usize> = (0..ROUND_JOBS).collect();
        Rng::seed_from_u64(report::derive_seed(STRUCTURE_SEED, 3, round as u64))
            .shuffle(&mut slots);
        let circuit = slots[pos] / (CAMPAIGNS_PER_CIRCUIT + 1);
        let evaluate = slots[pos] % (CAMPAIGNS_PER_CIRCUIT + 1) == CAMPAIGNS_PER_CIRCUIT;

        let mut rng = Rng::seed_from_u64(report::derive_seed(STRUCTURE_SEED, 1, i as u64));
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let source = circuit * (1 + BENCH_VARIANTS) + pick(1 + BENCH_VARIANTS);
        let src = self.sources[source].clone();
        if evaluate {
            let key = SpecKey {
                source,
                dft: 0,
                campaign_seed: None,
            };
            (
                key,
                JobSpec::evaluate(src, EVAL_STYLES.to_vec(), self.config.clone()),
            )
        } else {
            let dft = pick(DFTS.len());
            let seed = self.campaign_seeds[pick(2)];
            let key = SpecKey {
                source,
                dft,
                campaign_seed: Some(seed),
            };
            let spec = JobSpec::campaign(src)
                .with_pairs(PAIRS)
                .with_seed(seed)
                .with_dft(DFTS[dft]);
            (key, spec)
        }
    }
}

struct Record {
    key: SpecKey,
    ms: f64,
    result: Result<JobOutcome, String>,
}

/// Runs whole rounds of jobs through a fresh engine until `stop(rounds
/// done, pace)`; returns the records and each round's jobs per second.
fn run_jobs(
    plan: &Plan,
    pace: &mut Pace,
    mut stop: impl FnMut(usize, &mut Pace) -> bool,
) -> (Vec<Record>, Vec<f64>) {
    let engine = JobEngine::from_env();
    let mut records = Vec::new();
    let mut rates = Vec::new();
    while !stop(rates.len(), pace) {
        let mut round_ms = 0.0;
        for _ in 0..ROUND_JOBS {
            let i = records.len();
            let (key, spec) = plan.job(i);
            let (result, ms) = pace.time(|| engine.run(JobId(i as u64), &spec, &mut |_| {}));
            round_ms += ms;
            records.push(Record { key, ms, result });
        }
        rates.push(ROUND_JOBS as f64 * 1e3 / round_ms);
    }
    (records, rates)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Jobs run on the engine's default pool: pace them on as many threads.
    let mut pace = Pace::new(ThreadPool::from_env().dispatch());
    let (plan, first_setup_ms) = pace.time(|| Plan::setup(args.seed));
    let plan = plan?;
    if args.trace {
        return traced(args, &plan);
    }
    let mut setup_s = vec![first_setup_ms / 1e3];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (records, round_rates) = run_jobs(&plan, &mut pace, |_, pace| {
        setup_s.push(pace.time(|| Plan::setup(args.seed)).1 / 1e3);
        start.elapsed() >= budget
    });
    let wall = start.elapsed();
    let peak_rss_mb = report::peak_rss_mb()?;
    let mut refs = References::default();
    let failed = records
        .iter()
        .filter(|r| !refs.check(&plan, r.key, &r.result))
        .count() as u64;
    let misses = records
        .iter()
        .filter(|r| r.result.as_ref().is_ok_and(|o| !o.cache.hit))
        .count();
    eprintln!(
        "serve_mix: {} jobs in {:.2} s, {misses} cache misses, {failed} failed; host {:.2}x slower than the reference speed",
        records.len(),
        wall.as_secs_f64(),
        pace.slowdown()
    );
    let e2e = EndToEnd {
        round_rates,
        op_ms: records.iter().map(|r| r.ms).collect(),
        cold_op_ms: records
            .iter()
            .filter(|r| r.result.as_ref().is_ok_and(|o| !o.cache.hit))
            .map(|r| r.ms)
            .collect(),
        setup_s,
        peak_rss_mb,
        attempted: records.len() as u64,
        failed,
    };
    Ok(Outcome {
        attempted: e2e.attempted,
        failed,
        pinned_ok: true,
        metrics: e2e.metrics(),
    })
}

fn traced(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let window = |rounds: usize, _: &mut Pace| rounds >= WINDOW_ROUNDS;
    let mut pace = Pace::new(ThreadPool::from_env().dispatch());
    let (off, _) = run_jobs(plan, &mut pace, window);

    flh_obs::install(true);
    flh_obs::reset();
    let (records, _) = run_jobs(plan, &mut pace, window);
    let det = flh_obs::snapshot();
    let mut metrics = BTreeMap::new();
    report::zero_extras(&mut metrics);
    report::program_counters(&det, &mut metrics);

    let mut layers = Layers::default();
    let mut probe_failures = 0u64;
    let probe_engine = JobEngine::from_env();
    let pool = ThreadPool::from_env();
    let (mut faults_total, mut pruned_total, mut fault_pairs) = (0usize, 0usize, 0usize);
    for (i, record) in records.iter().enumerate() {
        let (_, spec) = plan.job(i);
        let Ok(outcome) = &record.result else {
            continue;
        };
        let probe = probe_job(&mut layers, &probe_engine, &pool, &spec, outcome)?;
        probe_failures += u64::from(!probe.matches);
        faults_total += probe.faults;
        pruned_total += probe.pruned;
        fault_pairs += probe.fault_pairs;
    }
    // The probe engine saw the traced window's lookup sequence (each probe
    // checked its lookup against the traced job's), so its totals are the
    // window's.
    let stats = probe_engine.cache_stats();
    metrics.insert("serve.cache.hits".into(), stats.hits as f64);
    metrics.insert("serve.cache.misses".into(), stats.misses as f64);
    metrics.insert("serve.cache.parse_skips".into(), stats.parse_skips as f64);
    metrics.insert(
        "serve.cache.hit_ratio".into(),
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    metrics.insert("atpg.fault_setup.faults".into(), faults_total as f64);
    metrics.insert("atpg.fault_setup.pruned".into(), pruned_total as f64);
    metrics.insert(
        "atpg.campaign.fault_pairs_per_s".into(),
        fault_pairs as f64 / layers.busy("atpg.campaign").as_secs_f64().max(1e-9),
    );
    metrics.insert("trace.window_ops".into(), records.len() as f64);
    let ms_of = |r: &[Record]| r.iter().map(|r| r.ms).collect::<Vec<_>>();
    metrics.insert(
        "trace.overhead_pct".into(),
        report::overhead_pct(&ms_of(&off), &ms_of(&records)),
    );
    layers.metrics(&mut metrics);
    pool_metrics(&det, &mut metrics);
    crate::write_trace_files(args, &det)?;

    let mut refs = References::default();
    let failed = records
        .iter()
        .filter(|r| !refs.check(plan, r.key, &r.result))
        .count() as u64
        + probe_failures;
    Ok(Outcome {
        attempted: records.len() as u64,
        failed,
        pinned_ok: true,
        metrics,
    })
}

/// `exec.pool.*` from the program's own worker stats: total busy time,
/// `ThreadPool::run` calls, and max/mean busy over the pool's workers.
fn pool_metrics(snap: &flh_obs::Snapshot, into: &mut BTreeMap<String, f64>) {
    let busy: Vec<f64> = snap
        .workers
        .iter()
        .filter(|w| w.pool == "exec.pool")
        .map(|w| w.busy_ns as f64)
        .collect();
    let total: f64 = busy.iter().sum();
    let runs = snap
        .spans
        .iter()
        .find(|s| s.name == "exec.pool.run")
        .map_or(0, |s| s.count);
    into.insert("exec.pool.calls".into(), runs as f64);
    into.insert("exec.pool.busy_ms".into(), total / 1e6);
    let mean = total / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    into.insert(
        "exec.pool.busy_imbalance".into(),
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

struct Probe {
    matches: bool,
    faults: usize,
    pruned: usize,
    fault_pairs: usize,
}

/// Re-executes one job layer by layer, timing each public call, and checks
/// that the decomposition reproduces the engine's lookup and batches.
fn probe_job(
    layers: &mut Layers,
    engine: &JobEngine,
    pool: &ThreadPool,
    spec: &JobSpec,
    outcome: &JobOutcome,
) -> Result<Probe, String> {
    let (entry, lookup) = layers.time("serve.cache", || engine.compiled(&spec.source, spec.dft))?;
    if !lookup.hit {
        probe_load(layers, &spec.source, spec.dft)?;
    }
    let mut probe = Probe {
        matches: lookup == outcome.cache,
        faults: 0,
        pruned: 0,
        fault_pairs: 0,
    };
    match &spec.kind {
        JobKind::Campaign {
            styles,
            pairs,
            seed,
        } => {
            let view = TestView::with_program(
                &entry.netlist,
                Arc::clone(&entry.compiled),
                Arc::clone(&entry.program),
            )
            .map_err(|e| e.to_string())?;
            let faults = layers.time("atpg.fault_setup", || {
                enumerate_transition_faults(&entry.netlist)
            });
            for (k, &style) in styles.iter().enumerate() {
                let (filter, ordered, pruned) = layers.time("atpg.fault_setup", || {
                    let filter = StaticFilter::from_view(&view);
                    let (ordered, pruned) =
                        order_transition_faults_pruned(&filter, view.compiled(), &faults);
                    (filter, ordered, pruned)
                });
                let result = layers.time("atpg.campaign", || {
                    transition_campaign_filtered(
                        &view,
                        &faults,
                        style,
                        *pairs,
                        *seed,
                        pool,
                        Some(&filter),
                    )
                });
                let detected = probe_replay(layers, &view, style, *pairs, *seed, &ordered);
                probe.matches &= detected == result.detected
                    && matches!(outcome.batches.get(k), Some(BatchPayload::Campaign(c)) if *c == result);
                probe.faults += faults.len();
                probe.pruned += pruned;
                probe.fault_pairs += faults.len() * pairs;
            }
        }
        JobKind::Evaluate { styles, config } => {
            for (k, &style) in styles.iter().enumerate() {
                let eval = layers
                    .time("core.evaluate", || {
                        evaluate_style(&entry.netlist, style, config)
                    })
                    .map_err(|e| e.to_string())?;
                probe.matches &= matches!(outcome.batches.get(k), Some(BatchPayload::Evaluation(e)) if same_eval(e, &eval));
            }
        }
    }
    Ok(probe)
}

/// The work a cache miss does inside `JobEngine::compiled`, one public
/// call per layer.
fn probe_load(
    layers: &mut Layers,
    source: &CircuitSource,
    dft: Option<DftStyle>,
) -> Result<(), String> {
    let base = match source {
        CircuitSource::Profile(p) => layers
            .time("netlist.generate", || {
                generate_circuit(&p.generator_config())
            })
            .map_err(|e| e.to_string())?,
        CircuitSource::BenchText { name, text } => layers
            .time("netlist.parse_map", || {
                parse_bench(text, name).and_then(|parsed| map_netlist(&parsed))
            })
            .map_err(|e| e.to_string())?,
    };
    let styled = match dft {
        None => base,
        Some(style) => {
            layers
                .time("core.apply_style", || apply_style(&base, style))
                .map_err(|e| e.to_string())?
                .netlist
        }
    };
    layers
        .time("netlist.compile_lower", || {
            CompiledCircuit::compile(&styled).map(|c| Program::lower(&c))
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Good-machine evaluation and deviation replay of one campaign's pair
/// blocks, serially over the pruned, ordered fault list the campaign
/// shards. Returns the detected count, which must equal the campaign's.
fn probe_replay(
    layers: &mut Layers,
    view: &TestView<'_>,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    ordered: &[flh_atpg::TransitionFault],
) -> usize {
    let blocks = pair_blocks(view, style, pairs, seed);
    let mut values = Vec::new();
    let mut sim = TransitionSimulator::new(view);
    let mut detected = vec![false; ordered.len()];
    let mut hits = 0;
    for (v1, v2, mask) in &blocks {
        let start = Instant::now();
        layers.time("sim.good_eval", || {
            view.eval_lanes_into(v1, &mut values);
            view.eval_lanes_into(v2, &mut values);
        });
        let good = start.elapsed();
        let _span = flh_obs::span("atpg.replay");
        let start = Instant::now();
        hits += sim.run_batch(v1, v2, *mask, ordered, &mut detected);
        // run_batch evaluates both good machines itself before replaying.
        layers.add("atpg.replay", start.elapsed().saturating_sub(good));
    }
    hits
}

type Block = (Vec<Packed256>, Vec<Packed256>, Packed256);

/// The campaign's pair stream grouped into 256-lane blocks, generated
/// exactly as `transition_campaign_filtered` generates it (four
/// sequential 64-lane fills per block, limb `j` = fill `j`).
fn pair_blocks(
    view: &TestView<'_>,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
) -> Vec<Block> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = view.assignable().len();
    let mut blocks = Vec::new();
    let mut remaining = pairs;
    let (mut sub1, mut sub2) = (vec![0u64; n], vec![0u64; n]);
    while remaining > 0 {
        let lanes = remaining.min(PATTERN_BLOCK);
        let mut v1 = vec![Packed256::bot(); n];
        let mut v2 = vec![Packed256::bot(); n];
        for limb in 0..lanes.div_ceil(64) {
            fill_pairs(view, style, &mut rng, &mut sub1, &mut sub2);
            for i in 0..n {
                v1[i].0[limb] = sub1[i];
                v2[i].0[limb] = sub2[i];
            }
        }
        blocks.push((v1, v2, Packed256::mask_lanes(lanes)));
        remaining -= lanes;
    }
    blocks
}

/// One 64-lane fill of (V1, V2) under `style`, consuming the RNG in the
/// campaign's order: V1, V2 primary inputs, then the style's state part.
fn fill_pairs(
    view: &TestView<'_>,
    style: ApplicationStyle,
    rng: &mut Rng,
    v1: &mut [u64],
    v2: &mut [u64],
) {
    let n_pi = view.primary_input_count();
    let n_ff = v1.len() - n_pi;
    for w in v1.iter_mut() {
        *w = rng.gen();
    }
    for w in v2.iter_mut().take(n_pi) {
        *w = rng.gen();
    }
    match style {
        ApplicationStyle::ArbitraryTwoPattern => {
            for w in v2.iter_mut().skip(n_pi) {
                *w = rng.gen();
            }
        }
        ApplicationStyle::Broadside => {
            let good1 = view.eval64(v1, None);
            let ffs = view.observations().iter().filter_map(|o| match o {
                Observation::FfD(ff) => Some(*ff),
                Observation::Po(_) => None,
            });
            for (k, ff) in ffs.enumerate() {
                let d = view.netlist().cell(ff).fanin()[0];
                v2[n_pi + k] = good1[d.index()];
            }
        }
        ApplicationStyle::SkewedLoad => {
            for i in (1..n_ff).rev() {
                v2[n_pi + i] = v1[n_pi + i - 1];
            }
            if n_ff > 0 {
                v2[n_pi] = rng.gen();
            }
        }
    }
}

fn same_eval(a: &StyleEvaluation, b: &StyleEvaluation) -> bool {
    a.style == b.style
        && a.base_area_um2 == b.base_area_um2
        && a.area_um2 == b.area_um2
        && a.base_delay_ps == b.base_delay_ps
        && a.delay_ps == b.delay_ps
        && a.base_power_uw == b.base_power_uw
        && a.power_uw == b.power_uw
        && a.first_level_gates == b.first_level_gates
        && a.hold_cells == b.hold_cells
}

/// Serial, unpruned recomputations of every distinct job, built from
/// freshly loaded netlists (never the engine's cache).
#[derive(Default)]
struct References {
    netlists: BTreeMap<(usize, usize), Netlist>,
    campaigns: BTreeMap<SpecKey, Vec<CampaignResult>>,
    evaluations: BTreeMap<usize, Vec<StyleEvaluation>>,
}

impl References {
    fn netlist(&mut self, plan: &Plan, source: usize, dft: usize) -> Result<&Netlist, String> {
        match self.netlists.entry((source, dft)) {
            Entry::Occupied(found) => Ok(found.into_mut()),
            Entry::Vacant(slot) => {
                let base = plan.sources[source].load()?;
                let styled = match DFTS[dft] {
                    None => base,
                    Some(style) => {
                        apply_style(&base, style)
                            .map_err(|e| e.to_string())?
                            .netlist
                    }
                };
                Ok(slot.insert(styled))
            }
        }
    }

    /// True when the job succeeded and every batch equals the reference.
    fn check(&mut self, plan: &Plan, key: SpecKey, result: &Result<JobOutcome, String>) -> bool {
        let Ok(outcome) = result else {
            return false;
        };
        match self.expected(plan, key) {
            Ok(Expected::Campaign(want)) => {
                outcome.batches.len() == want.len()
                    && outcome
                        .batches
                        .iter()
                        .zip(&want)
                        .all(|(got, want)| matches!(got, BatchPayload::Campaign(c) if c == want))
            }
            Ok(Expected::Evaluation(all)) => outcome.batches.len() == EVAL_STYLES.len()
                && outcome.batches.iter().zip(EVAL_STYLES).all(|(got, style)| {
                    let want = all.iter().find(|e| e.style == style);
                    matches!((got, want), (BatchPayload::Evaluation(e), Some(w)) if same_eval(e, w))
                }),
            Err(e) => {
                eprintln!("reference for job failed: {e}");
                false
            }
        }
    }

    fn expected(&mut self, plan: &Plan, key: SpecKey) -> Result<Expected, String> {
        match key.campaign_seed {
            Some(seed) => {
                if !self.campaigns.contains_key(&key) {
                    let netlist = self.netlist(plan, key.source, key.dft)?;
                    let view = TestView::new(netlist).map_err(|e| e.to_string())?;
                    let faults = enumerate_transition_faults(netlist);
                    let serial = ThreadPool::serial();
                    let results = ALL_APPLICATION_STYLES
                        .iter()
                        .map(|&style| {
                            transition_campaign_filtered(
                                &view, &faults, style, PAIRS, seed, &serial, None,
                            )
                        })
                        .collect();
                    self.campaigns.insert(key, results);
                }
                Ok(Expected::Campaign(self.campaigns[&key].clone()))
            }
            None => {
                if !self.evaluations.contains_key(&key.source) {
                    let netlist = self.netlist(plan, key.source, 0)?;
                    let all = evaluate_all(netlist, &plan.config).map_err(|e| e.to_string())?;
                    self.evaluations.insert(key.source, all);
                }
                Ok(Expected::Evaluation(self.evaluations[&key.source].clone()))
            }
        }
    }
}

enum Expected {
    Campaign(Vec<CampaignResult>),
    Evaluation(Vec<StyleEvaluation>),
}
