//! Throughput report for the compiled-IR refactor (`BENCH_compiled_ir.json`).
//!
//! Measures two hot paths on the s13207 profile and compares the compiled
//! [`flh_netlist::CompiledCircuit`] pipeline against the frozen seed path
//! (`flh_bench::seed_baseline`):
//!
//! * logic simulation — full functional cycles (settle + clock capture),
//!   reported as nominal gate evaluations per second;
//! * 64-pattern stuck-at fault simulation — one `run_batch` over the stem
//!   fault list, reported as patterns per second.
//!
//! Usage: `perf_report [--quick] [--out PATH]`. `--quick` shrinks the
//! iteration counts so `scripts/ci.sh` can run it as a smoke test; the
//! speedup target (≥ 5× on fault simulation) is only meaningful in the
//! full run. The JSON report is hand-written (no serde in this workspace).
//!
//! `--metrics-json PATH` turns the flh-obs recorder on and writes the full
//! metrics report (deterministic counters plus the nondeterministic timing
//! section); `FLH_TRACE=<path>` additionally writes a Chrome trace-event
//! file of the per-stage spans. Every `BENCH_*.json` report carries a
//! `host` block (parallelism, `FLH_THREADS`, OS) and a `metrics` section —
//! `{"recorded": false}` unless the recorder was on.

use std::fs;
use std::time::Instant;

use flh_atpg::{
    enumerate_stuck_faults, enumerate_transition_faults, order_stuck_faults,
    order_transition_faults, stuck_coverage, Fault, FaultSite, StuckSimulator, TestView,
    TransitionSimulator, PATTERN_BLOCK,
};
use flh_bench::build_circuit;
use flh_bench::replay64::{StuckSimulator64, TransitionSimulator64};
use flh_bench::seed_baseline::{BaselineStuckSimulator, BaselineView};
use flh_bench::transition_baseline::BaselineTransitionSimulator;
use flh_exec::ThreadPool;
use flh_netlist::{
    iscas89_profile, CompiledCircuit, Dual256, Dual64, LaneWord, Netlist, Packed256, Program,
};
use flh_rng::Rng;
use flh_sim::{settle_packed, CompiledSim, Logic, LogicSim};

const CIRCUIT: &str = "s13207";
/// Pattern lanes per simulation block on the compiled path (one
/// [`Packed256`] superword); the seed/legacy baselines run 64-lane words,
/// so each rep feeds them the same block as four sub-batches.
const LANES: u64 = PATTERN_BLOCK as u64;

struct Options {
    quick: bool,
    out: String,
    out_parallel: String,
    out_transition: String,
    metrics_json: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out: "BENCH_compiled_ir.json".to_string(),
        out_parallel: "BENCH_parallel_fsim.json".to_string(),
        out_transition: "BENCH_transition_fsim.json".to_string(),
        metrics_json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = args.next().expect("--out requires a path"),
            "--out-parallel" => {
                opts.out_parallel = args.next().expect("--out-parallel requires a path")
            }
            "--out-transition" => {
                opts.out_transition = args.next().expect("--out-transition requires a path")
            }
            "--metrics-json" => {
                opts.metrics_json = Some(args.next().expect("--metrics-json requires a path"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_report [--quick] [--out PATH] [--out-parallel PATH] [--out-transition PATH] [--metrics-json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The `host` block embedded in every `BENCH_*.json` report: what the
/// numbers were measured on. One line, comma-terminated.
fn host_json_block(host_threads: usize) -> String {
    let flh_threads = std::env::var("FLH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or("null".to_string(), |n| n.to_string());
    format!(
        "  \"host\": {{\"available_parallelism\": {host_threads}, \"flh_threads\": {flh_threads}, \"os\": \"{}\"}},\n",
        std::env::consts::OS
    )
}

/// The `metrics` section embedded in every `BENCH_*.json` report. Last
/// member of the document: newline-terminated, no trailing comma.
fn metrics_json_block() -> String {
    if flh_obs::enabled() {
        let snap = flh_obs::snapshot();
        format!(
            "  \"metrics\": {{\"recorded\": true, \"deterministic\": {}, \"nondeterministic\": {}}}\n",
            flh_obs::deterministic_json(&snap),
            flh_obs::nondeterministic_json(&snap)
        )
    } else {
        "  \"metrics\": {\"recorded\": false}\n".to_string()
    }
}

fn random_vector(rng: &mut Rng, width: usize) -> Vec<Logic> {
    (0..width)
        .map(|_| {
            if rng.gen::<u64>() & 1 == 0 {
                Logic::Zero
            } else {
                Logic::One
            }
        })
        .collect()
}

struct LogicSimResult {
    cycles: usize,
    nominal_events: u64,
    event_driven_s: f64,
    compiled_s: f64,
}

fn bench_logic_sim(netlist: &Netlist, compiled: &CompiledCircuit, cycles: usize) -> LogicSimResult {
    let width = netlist.inputs().len();
    let vectors: Vec<Vec<Logic>> = {
        let mut rng = Rng::seed_from_u64(0xC1C0);
        (0..cycles)
            .map(|_| random_vector(&mut rng, width))
            .collect()
    };

    let mut event_sim = LogicSim::new(netlist).expect("acyclic benchmark circuit");
    let t0 = Instant::now();
    for v in &vectors {
        event_sim.apply_vector(v);
    }
    let event_elapsed = t0.elapsed().as_secs_f64();

    let mut compiled_sim = CompiledSim::new(compiled);
    let t0 = Instant::now();
    for v in &vectors {
        compiled_sim.apply_vector(v);
    }
    let compiled_elapsed = t0.elapsed().as_secs_f64();

    // Both simulators must agree cycle-for-cycle; spot-check the end state.
    assert_eq!(
        event_sim.outputs(),
        compiled_sim.outputs(),
        "event-driven and compiled logic sim diverged"
    );

    // Nominal events: one evaluation of every levelized cell per settle, two
    // settles per applied vector (pre- and post-capture). The event-driven
    // simulator evaluates fewer cells per cycle; using the same nominal
    // count for both sides compares wall-clock per cycle directly.
    let nominal_events = (cycles as u64) * 2 * compiled.order().len() as u64;
    LogicSimResult {
        cycles,
        nominal_events,
        event_driven_s: nominal_events as f64 / event_elapsed,
        compiled_s: nominal_events as f64 / compiled_elapsed,
    }
}

struct CodegenResult {
    instructions: usize,
    micro_ops: u64,
    fused_micro_ops: u64,
    scratch_words: usize,
    batches: usize,
    dual64_lane_evals_s: f64,
    dual256_lane_evals_s: f64,
    superword_speedup: f64,
}

/// Static program statistics plus packed-settle throughput at both lane
/// widths: 64 lanes (`Dual64`) against the 256-lane `Dual256` superword.
/// The metric is per-lane cell evaluations per second, so the superword
/// speedup is the genuine throughput gain of the wider word.
fn bench_codegen_v2(compiled: &CompiledCircuit, program: &Program, iters: usize) -> CodegenResult {
    let n = compiled.cell_count();
    let mut rng = Rng::seed_from_u64(0xC0DE);
    let seed: Vec<bool> = (0..n).map(|_| rng.gen()).collect();

    let mut v64: Vec<Dual64> = seed
        .iter()
        .map(|&b| if b { Dual64::top() } else { Dual64::bot() })
        .collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        settle_packed(program, &mut v64);
    }
    let elapsed64 = t0.elapsed().as_secs_f64();

    let mut v256: Vec<Dual256> = seed
        .iter()
        .map(|&b| if b { Dual256::top() } else { Dual256::bot() })
        .collect();
    let t0 = Instant::now();
    for _ in 0..iters {
        settle_packed(program, &mut v256);
    }
    let elapsed256 = t0.elapsed().as_secs_f64();

    // Both widths settled identical stimulus; lane 0 must agree.
    for (id, (a, b)) in v64.iter().zip(&v256).enumerate() {
        assert_eq!(
            (a.one & 1, a.zero & 1),
            (b.one[0] & 1, b.zero[0] & 1),
            "Dual64 and Dual256 settle diverged at cell {id}"
        );
    }

    let evals = (iters * compiled.order().len()) as f64;
    let dual64_lane_evals_s = evals * 64.0 / elapsed64;
    let dual256_lane_evals_s = evals * 256.0 / elapsed256;
    CodegenResult {
        instructions: program.inst_count(),
        micro_ops: program.micro_ops(),
        fused_micro_ops: program.fused_micro_ops(),
        scratch_words: program.scratch_words(),
        batches: program.batches().len(),
        dual64_lane_evals_s,
        dual256_lane_evals_s,
        superword_speedup: dual256_lane_evals_s / dual64_lane_evals_s,
    }
}

struct FaultSimResult {
    faults: usize,
    reps: usize,
    seed_patterns_s: f64,
    compiled_patterns_s: f64,
    detected: usize,
}

/// Both sides process the identical 256-pattern block per rep: the seed
/// baseline as four 64-lane sub-batches (its native width), the compiled
/// simulator as one superword batch — so patterns/s compares equal work.
fn bench_fault_sim(netlist: &Netlist, faults: &[Fault], reps: usize) -> FaultSimResult {
    let view = TestView::new(netlist).expect("acyclic benchmark circuit");
    let baseline_view = BaselineView::new(netlist);
    let n = view.assignable().len();
    let subs: Vec<Vec<u64>> = {
        let mut rng = Rng::seed_from_u64(0xFA57);
        (0..4)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect()
    };
    let wide: Vec<Packed256> = (0..n)
        .map(|i| Packed256::from_limbs([subs[0][i], subs[1][i], subs[2][i], subs[3][i]]))
        .collect();

    let mut baseline = BaselineStuckSimulator::new(&baseline_view);
    let mut seed_detected = vec![false; faults.len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        seed_detected.fill(false);
        for sub in &subs {
            baseline.run_batch(sub, !0, faults, &mut seed_detected);
        }
    }
    let seed_elapsed = t0.elapsed().as_secs_f64();

    let mut sim = StuckSimulator::new(&view);
    let mut detected = vec![false; faults.len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        detected.fill(false);
        sim.run_batch(&wide, Packed256::top(), faults, &mut detected);
    }
    let compiled_elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(
        seed_detected, detected,
        "seed-path and compiled fault sim disagree on detection"
    );

    let patterns = (LANES as usize * reps) as f64;
    FaultSimResult {
        faults: faults.len(),
        reps,
        seed_patterns_s: patterns / seed_elapsed,
        compiled_patterns_s: patterns / compiled_elapsed,
        detected: detected.iter().filter(|&&d| d).count(),
    }
}

struct ParallelFsimResult {
    faults: usize,
    patterns: usize,
    workers: Vec<usize>,
    patterns_s: Vec<f64>,
}

/// Full-campaign stuck-at fault simulation ([`stuck_coverage`])
/// at several pool widths. Detection maps are asserted identical across
/// widths; throughput is whatever the host actually delivers — on a
/// single-core container the wider pools gain nothing and the numbers say
/// so.
fn bench_parallel_fsim(
    netlist: &Netlist,
    faults: &[Fault],
    patterns: usize,
    workers: &[usize],
) -> ParallelFsimResult {
    let view = TestView::new(netlist).expect("acyclic benchmark circuit");
    let n = view.assignable().len();
    let pattern_set: Vec<Vec<bool>> = {
        let mut rng = Rng::seed_from_u64(0xA11E1);
        (0..patterns)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect()
    };

    let mut reference: Option<Vec<bool>> = None;
    let mut patterns_s = Vec::with_capacity(workers.len());
    for &w in workers {
        let pool = ThreadPool::new(w);
        let t0 = Instant::now();
        let detected = stuck_coverage(&view, faults, &pattern_set, &pool);
        let elapsed = t0.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(detected),
            Some(r) => assert_eq!(&detected, r, "pooled fault sim diverged at {w} workers"),
        }
        patterns_s.push(patterns as f64 / elapsed);
    }
    ParallelFsimResult {
        faults: faults.len(),
        patterns,
        workers: workers.to_vec(),
        patterns_s,
    }
}

struct TransitionFsimResult {
    faults: usize,
    pairs: usize,
    detected: usize,
    legacy_pairs_s: f64,
    event_pairs_s: f64,
}

/// Transition-fault pattern-pair simulation: the event-driven
/// deviation-replay [`TransitionSimulator`] against the frozen full-cone
/// [`BaselineTransitionSimulator`], same fault list, same pair batches.
/// Detection maps are asserted identical before any rate is reported.
/// Both sides process the identical 256-pair block per rep: the legacy
/// full-cone baseline as four 64-lane sub-batches, the event-driven
/// simulator as one superword batch.
fn bench_transition_fsim(netlist: &Netlist, reps: usize) -> TransitionFsimResult {
    let view = TestView::new(netlist).expect("acyclic benchmark circuit");
    let faults = enumerate_transition_faults(netlist);
    let n = view.assignable().len();
    let (v1_subs, v2_subs): (Vec<Vec<u64>>, Vec<Vec<u64>>) = {
        let mut rng = Rng::seed_from_u64(0x7245);
        (0..4)
            .map(|_| {
                (
                    (0..n).map(|_| rng.gen()).collect::<Vec<u64>>(),
                    (0..n).map(|_| rng.gen()).collect::<Vec<u64>>(),
                )
            })
            .unzip()
    };
    let pack = |subs: &[Vec<u64>]| -> Vec<Packed256> {
        (0..n)
            .map(|i| Packed256::from_limbs([subs[0][i], subs[1][i], subs[2][i], subs[3][i]]))
            .collect()
    };
    let (w1, w2) = (pack(&v1_subs), pack(&v2_subs));

    let mut legacy = BaselineTransitionSimulator::new(&view);
    let mut legacy_detected = vec![false; faults.len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        legacy_detected.fill(false);
        for (v1, v2) in v1_subs.iter().zip(&v2_subs) {
            legacy.run_batch(v1, v2, !0, &faults, &mut legacy_detected);
        }
    }
    let legacy_elapsed = t0.elapsed().as_secs_f64();

    let mut event = TransitionSimulator::new(&view);
    let mut detected = vec![false; faults.len()];
    let t0 = Instant::now();
    for _ in 0..reps {
        detected.fill(false);
        event.run_batch(&w1, &w2, Packed256::top(), &faults, &mut detected);
    }
    let event_elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(
        legacy_detected, detected,
        "legacy and event-driven transition sim disagree on detection"
    );

    let pairs = (LANES as usize * reps) as f64;
    TransitionFsimResult {
        faults: faults.len(),
        pairs: LANES as usize * reps,
        detected: detected.iter().filter(|&&d| d).count(),
        legacy_pairs_s: pairs / legacy_elapsed,
        event_pairs_s: pairs / event_elapsed,
    }
}

struct ReplaySuperwordResult {
    stuck_faults: usize,
    transition_faults: usize,
    reps: usize,
    stuck_narrow_patterns_s: f64,
    stuck_wide_patterns_s: f64,
    transition_narrow_pairs_s: f64,
    transition_wide_pairs_s: f64,
}

impl ReplaySuperwordResult {
    fn stuck_speedup(&self) -> f64 {
        self.stuck_wide_patterns_s / self.stuck_narrow_patterns_s
    }
    fn transition_speedup(&self) -> f64 {
        self.transition_wide_pairs_s / self.transition_narrow_pairs_s
    }
}

/// The tentpole measurement: per-fault replay throughput of the 256-lane
/// superword engine against the *same generic engine* at 64-lane width
/// (`flh_bench::replay64`), over the identical pattern stream and the
/// identical level-ordered fault list, for both fault models.
///
/// The protocol matches how the committed per-fault replay numbers were
/// produced: every block replays the full fault list with fresh detection
/// flags — the steady-state cost of a campaign's undetected tail, where
/// every surviving fault is replayed against every block. (With flags
/// shared across blocks a narrow engine skips most of its work after the
/// first block because 64 random patterns already saturate detection —
/// that measures the pattern set, not the engine.) The narrow side pays
/// four fresh 64-lane blocks per 256 patterns; the wide side one superword
/// block; the narrow blocks' union must equal the wide detection word.
/// Each side's elapsed time is the best of `reps` passes, which strips
/// scheduler noise the same way `cargo bench` minimums do.
fn bench_replay_superword(
    netlist: &Netlist,
    stuck: &[Fault],
    reps: usize,
) -> ReplaySuperwordResult {
    let view = TestView::new(netlist).expect("acyclic benchmark circuit");
    let stuck = order_stuck_faults(view.compiled(), stuck);
    let transition =
        order_transition_faults(view.compiled(), &enumerate_transition_faults(netlist));
    let n = view.assignable().len();
    let mut rng = Rng::seed_from_u64(0x5057);
    let gen4 = |rng: &mut Rng| -> (Vec<Vec<u64>>, Vec<Packed256>) {
        let subs: Vec<Vec<u64>> = (0..4)
            .map(|_| (0..n).map(|_| rng.gen()).collect())
            .collect();
        let wide = (0..n)
            .map(|i| Packed256::from_limbs([subs[0][i], subs[1][i], subs[2][i], subs[3][i]]))
            .collect();
        (subs, wide)
    };
    let (subs, wide) = gen4(&mut rng);
    let (v1_subs, w1) = gen4(&mut rng);
    let (v2_subs, w2) = gen4(&mut rng);
    let or_into = |acc: &mut [bool], d: &[bool]| {
        for (a, &b) in acc.iter_mut().zip(d) {
            *a |= b;
        }
    };

    // Stuck-at: four fresh 64-lane blocks vs one fresh 256-lane block.
    let mut narrow = StuckSimulator64::new(&view);
    let mut d_narrow = vec![false; stuck.len()];
    let mut u_narrow = vec![false; stuck.len()];
    let mut narrow_elapsed = f64::INFINITY;
    for _ in 0..reps {
        u_narrow.fill(false);
        let t0 = Instant::now();
        for sub in &subs {
            d_narrow.fill(false);
            narrow.run_batch(sub, !0, &stuck, &mut d_narrow);
            or_into(&mut u_narrow, &d_narrow);
        }
        narrow_elapsed = narrow_elapsed.min(t0.elapsed().as_secs_f64());
    }

    let mut wide_sim = StuckSimulator::new(&view);
    let mut d_wide = vec![false; stuck.len()];
    let mut wide_elapsed = f64::INFINITY;
    for _ in 0..reps {
        d_wide.fill(false);
        let t0 = Instant::now();
        wide_sim.run_batch(&wide, Packed256::top(), &stuck, &mut d_wide);
        wide_elapsed = wide_elapsed.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        u_narrow, d_wide,
        "64-lane and 256-lane stuck replay disagree on detection"
    );

    // Transition: same comparison on pattern pairs.
    let mut tnarrow = TransitionSimulator64::new(&view);
    let mut td_narrow = vec![false; transition.len()];
    let mut tu_narrow = vec![false; transition.len()];
    let mut tnarrow_elapsed = f64::INFINITY;
    for _ in 0..reps {
        tu_narrow.fill(false);
        let t0 = Instant::now();
        for (v1, v2) in v1_subs.iter().zip(&v2_subs) {
            td_narrow.fill(false);
            tnarrow.run_batch(v1, v2, !0, &transition, &mut td_narrow);
            or_into(&mut tu_narrow, &td_narrow);
        }
        tnarrow_elapsed = tnarrow_elapsed.min(t0.elapsed().as_secs_f64());
    }

    let mut twide = TransitionSimulator::new(&view);
    let mut td_wide = vec![false; transition.len()];
    let mut twide_elapsed = f64::INFINITY;
    for _ in 0..reps {
        td_wide.fill(false);
        let t0 = Instant::now();
        twide.run_batch(&w1, &w2, Packed256::top(), &transition, &mut td_wide);
        twide_elapsed = twide_elapsed.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(
        tu_narrow, td_wide,
        "64-lane and 256-lane transition replay disagree on detection"
    );

    let patterns = LANES as f64;
    ReplaySuperwordResult {
        stuck_faults: stuck.len(),
        transition_faults: transition.len(),
        reps,
        stuck_narrow_patterns_s: patterns / narrow_elapsed,
        stuck_wide_patterns_s: patterns / wide_elapsed,
        transition_narrow_pairs_s: patterns / tnarrow_elapsed,
        transition_wide_pairs_s: patterns / twide_elapsed,
    }
}

fn main() {
    let opts = parse_args();
    let trace = flh_obs::trace_path_from_env();
    if opts.metrics_json.is_some() || trace.is_some() {
        flh_obs::install(trace.is_some());
    }
    let profile = iscas89_profile(CIRCUIT).expect("s13207 profile present");
    let netlist = build_circuit(&profile);
    let compiled = CompiledCircuit::compile(&netlist).expect("acyclic benchmark circuit");

    let stems: Vec<Fault> = enumerate_stuck_faults(&netlist)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Stem(_)))
        .collect();

    let (cycles, fault_count, reps) = if opts.quick {
        (20, 400.min(stems.len()), 1)
    } else {
        (300, stems.len(), 3)
    };
    let faults = &stems[..fault_count];

    println!(
        "perf_report: {CIRCUIT} ({} cells, depth {}), {} stem faults{}",
        compiled.cell_count(),
        compiled.depth(),
        fault_count,
        if opts.quick { " [--quick]" } else { "" }
    );

    let logic = {
        let _span = flh_obs::span("perf.logic_sim");
        bench_logic_sim(&netlist, &compiled, cycles)
    };
    let logic_speedup = logic.compiled_s / logic.event_driven_s;
    println!(
        "logic sim   ({} cycles): event-driven {:>10.0} ev/s | compiled {:>10.0} ev/s | {:.2}x",
        logic.cycles, logic.event_driven_s, logic.compiled_s, logic_speedup
    );

    let program = Program::lower(&compiled);
    let codegen = {
        let _span = flh_obs::span("perf.codegen_v2");
        bench_codegen_v2(&compiled, &program, if opts.quick { 10 } else { 100 })
    };
    println!(
        "codegen_v2  ({} insts from {} micro-ops, {} fused away; {} scratch words, {} batches):",
        codegen.instructions,
        codegen.micro_ops,
        codegen.fused_micro_ops,
        codegen.scratch_words,
        codegen.batches
    );
    println!(
        "            Dual64 {:>11.0} lane-evals/s | Dual256 {:>11.0} lane-evals/s | {:.2}x",
        codegen.dual64_lane_evals_s, codegen.dual256_lane_evals_s, codegen.superword_speedup
    );

    let fault = {
        let _span = flh_obs::span("perf.fault_sim");
        bench_fault_sim(&netlist, faults, reps)
    };
    let fault_speedup = fault.compiled_patterns_s / fault.seed_patterns_s;
    println!(
        "fault sim   ({} faults x {} lanes x {} reps, {} detected):",
        fault.faults, LANES, fault.reps, fault.detected
    );
    println!(
        "            seed path {:>8.1} patterns/s | compiled {:>8.1} patterns/s | {:.2}x",
        fault.seed_patterns_s, fault.compiled_patterns_s, fault_speedup
    );
    if !opts.quick {
        println!(
            "fault-sim speedup target (>= 5x): {}",
            if fault_speedup >= 5.0 {
                "MET"
            } else {
                "NOT MET"
            }
        );
    }

    let campaign_patterns = if opts.quick { 64 } else { 512 };
    let widths = [1usize, 2, 4];
    let par = {
        let _span = flh_obs::span("perf.parallel_fsim");
        bench_parallel_fsim(&netlist, faults, campaign_patterns, &widths)
    };
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "parallel fault-sim campaign ({} faults x {} patterns, host parallelism {}):",
        par.faults, par.patterns, host_threads
    );
    for (w, pps) in par.workers.iter().zip(&par.patterns_s) {
        println!("            {w} worker(s): {pps:>8.1} patterns/s");
    }
    let par_speedup_4 = par.patterns_s[2] / par.patterns_s[0];
    println!(
        "parallel speedup at 4 workers: {:.2}x (target >= 2x: {})",
        par_speedup_4,
        if par_speedup_4 >= 2.0 {
            "MET"
        } else {
            "NOT MET"
        }
    );
    if host_threads < 4 {
        println!(
            "            note: host exposes only {host_threads} hardware thread(s); wall-clock scaling is bounded by the hardware, not the pool"
        );
    }

    // Transition-fault section: quick mode swaps in a small profile so the
    // legacy full-cone side stays affordable as a smoke test; the 5x
    // speedup target is judged on the full s13207 run only.
    let (tr_circuit, tr_reps) = if opts.quick {
        ("s1196", 1)
    } else {
        (CIRCUIT, 3)
    };
    let tr_netlist = if tr_circuit == CIRCUIT {
        netlist.clone()
    } else {
        build_circuit(&iscas89_profile(tr_circuit).expect("quick transition profile present"))
    };
    let tr = {
        let _span = flh_obs::span("perf.transition_fsim");
        bench_transition_fsim(&tr_netlist, tr_reps)
    };
    let tr_speedup = tr.event_pairs_s / tr.legacy_pairs_s;
    println!(
        "transition fault sim ({tr_circuit}: {} faults x {} pairs, {} detected):",
        tr.faults, tr.pairs, tr.detected
    );
    println!(
        "            legacy full-cone {:>8.1} pairs/s | event-driven {:>8.1} pairs/s | {:.2}x",
        tr.legacy_pairs_s, tr.event_pairs_s, tr_speedup
    );
    if !opts.quick {
        println!(
            "transition-sim speedup target (>= 5x): {}",
            if tr_speedup >= 5.0 { "MET" } else { "NOT MET" }
        );
    }

    // Superword replay: the 256-lane engines against the live 64-lane
    // instantiation of the same generic engine, both fault models.
    let rsw = {
        let _span = flh_obs::span("perf.replay_superword");
        bench_replay_superword(&netlist, faults, if opts.quick { 1 } else { 5 })
    };
    println!(
        "superword replay ({} stuck + {} transition faults x {} lanes x {} reps):",
        rsw.stuck_faults, rsw.transition_faults, LANES, rsw.reps
    );
    println!(
        "            stuck      64-lane {:>9.1} patterns/s | 256-lane {:>9.1} patterns/s | {:.2}x",
        rsw.stuck_narrow_patterns_s,
        rsw.stuck_wide_patterns_s,
        rsw.stuck_speedup()
    );
    println!(
        "            transition 64-lane {:>9.1} pairs/s    | 256-lane {:>9.1} pairs/s    | {:.2}x",
        rsw.transition_narrow_pairs_s,
        rsw.transition_wide_pairs_s,
        rsw.transition_speedup()
    );
    let rsw_met = rsw.stuck_speedup() >= 2.5 && rsw.transition_speedup() >= 2.5;
    if !opts.quick {
        println!(
            "superword replay speedup target (>= 2.5x both models): {}",
            if rsw_met { "MET" } else { "NOT MET" }
        );
    }

    // The `replay_superword` section embedded in both fault-sim reports.
    let rsw_block = format!(
        concat!(
            "  \"replay_superword\": {{\n",
            "    \"lanes_wide\": {lw},\n",
            "    \"lanes_narrow\": 64,\n",
            "    \"reps\": {reps},\n",
            "    \"stuck_faults\": {sf},\n",
            "    \"stuck_narrow_patterns_per_s\": {snp:.2},\n",
            "    \"stuck_wide_patterns_per_s\": {swp:.2},\n",
            "    \"stuck_speedup\": {ssp:.3},\n",
            "    \"transition_faults\": {tf},\n",
            "    \"transition_narrow_pairs_per_s\": {tnp:.2},\n",
            "    \"transition_wide_pairs_per_s\": {twp:.2},\n",
            "    \"transition_speedup\": {tsp:.3},\n",
            "    \"target_2_5x_met\": {met}\n",
            "  }},\n",
        ),
        lw = LANES,
        reps = rsw.reps,
        sf = rsw.stuck_faults,
        snp = rsw.stuck_narrow_patterns_s,
        swp = rsw.stuck_wide_patterns_s,
        ssp = rsw.stuck_speedup(),
        tf = rsw.transition_faults,
        tnp = rsw.transition_narrow_pairs_s,
        twp = rsw.transition_wide_pairs_s,
        tsp = rsw.transition_speedup(),
        met = rsw_met,
    );

    // All benches have run: the host and metrics blocks are final and
    // shared by every report written below.
    let host_block = host_json_block(host_threads);
    let metrics_block = metrics_json_block();

    let tr_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"transition_fsim\",\n",
            "  \"circuit\": \"{circuit}\",\n",
            "  \"quick\": {quick},\n",
            "{host}",
            "  \"faults\": {faults},\n",
            "  \"pairs\": {pairs},\n",
            "  \"detected\": {detected},\n",
            "  \"legacy_pairs_per_s\": {lpps:.2},\n",
            "  \"event_pairs_per_s\": {epps:.2},\n",
            "  \"speedup\": {sp:.3},\n",
            "  \"target_5x_met\": {met},\n",
            "{rsw}",
            "{metrics}",
            "}}\n",
        ),
        rsw = rsw_block,
        circuit = tr_circuit,
        quick = opts.quick,
        host = host_block,
        faults = tr.faults,
        pairs = tr.pairs,
        detected = tr.detected,
        lpps = tr.legacy_pairs_s,
        epps = tr.event_pairs_s,
        sp = tr_speedup,
        met = tr_speedup >= 5.0,
        metrics = metrics_block,
    );
    fs::write(&opts.out_transition, tr_json).expect("write transition report");
    println!("wrote {}", opts.out_transition);

    let par_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"parallel_fsim\",\n",
            "  \"circuit\": \"{circuit}\",\n",
            "  \"quick\": {quick},\n",
            "{host_block}",
            "  \"available_parallelism\": {host},\n",
            "  \"faults\": {faults},\n",
            "  \"patterns\": {patterns},\n",
            "  \"workers\": [{w0}, {w1}, {w2}],\n",
            "  \"patterns_per_s\": [{p0:.2}, {p1:.2}, {p2:.2}],\n",
            "  \"speedup_4_workers\": {sp:.3},\n",
            "  \"target_2x_met\": {met},\n",
            "{rsw}",
            "{metrics}",
            "}}\n",
        ),
        rsw = rsw_block,
        circuit = CIRCUIT,
        quick = opts.quick,
        host_block = host_block,
        host = host_threads,
        faults = par.faults,
        patterns = par.patterns,
        w0 = par.workers[0],
        w1 = par.workers[1],
        w2 = par.workers[2],
        p0 = par.patterns_s[0],
        p1 = par.patterns_s[1],
        p2 = par.patterns_s[2],
        sp = par_speedup_4,
        met = par_speedup_4 >= 2.0,
        metrics = metrics_block,
    );
    fs::write(&opts.out_parallel, par_json).expect("write parallel report");
    println!("wrote {}", opts.out_parallel);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"compiled_ir\",\n",
            "  \"circuit\": \"{circuit}\",\n",
            "  \"quick\": {quick},\n",
            "{host}",
            "  \"logic_sim\": {{\n",
            "    \"cycles\": {cycles},\n",
            "    \"nominal_events\": {events},\n",
            "    \"event_driven_events_per_s\": {ev:.1},\n",
            "    \"compiled_events_per_s\": {cev:.1},\n",
            "    \"speedup\": {lsp:.3}\n",
            "  }},\n",
            "  \"codegen_v2\": {{\n",
            "    \"instructions\": {cg_insts},\n",
            "    \"micro_ops\": {cg_micro},\n",
            "    \"fused_micro_ops\": {cg_fused},\n",
            "    \"scratch_words\": {cg_scratch},\n",
            "    \"batches\": {cg_batches},\n",
            "    \"dual64_lane_evals_per_s\": {cg_d64:.1},\n",
            "    \"dual256_lane_evals_per_s\": {cg_d256:.1},\n",
            "    \"superword_speedup\": {cg_sp:.3}\n",
            "  }},\n",
            "  \"fault_sim\": {{\n",
            "    \"faults\": {faults},\n",
            "    \"lanes\": {lanes},\n",
            "    \"reps\": {reps},\n",
            "    \"detected\": {detected},\n",
            "    \"seed_patterns_per_s\": {spps:.2},\n",
            "    \"compiled_patterns_per_s\": {cpps:.2},\n",
            "    \"speedup\": {fsp:.3},\n",
            "    \"target_5x_met\": {fmet}\n",
            "  }},\n",
            "{metrics}",
            "}}\n",
        ),
        circuit = CIRCUIT,
        quick = opts.quick,
        host = host_block,
        cycles = logic.cycles,
        events = logic.nominal_events,
        ev = logic.event_driven_s,
        cev = logic.compiled_s,
        lsp = logic_speedup,
        cg_insts = codegen.instructions,
        cg_micro = codegen.micro_ops,
        cg_fused = codegen.fused_micro_ops,
        cg_scratch = codegen.scratch_words,
        cg_batches = codegen.batches,
        cg_d64 = codegen.dual64_lane_evals_s,
        cg_d256 = codegen.dual256_lane_evals_s,
        cg_sp = codegen.superword_speedup,
        faults = fault.faults,
        lanes = LANES,
        reps = fault.reps,
        detected = fault.detected,
        spps = fault.seed_patterns_s,
        cpps = fault.compiled_patterns_s,
        fsp = fault_speedup,
        fmet = fault_speedup >= 5.0,
        metrics = metrics_block,
    );
    fs::write(&opts.out, json).expect("write report");
    println!("wrote {}", opts.out);

    if let Some(path) = &opts.metrics_json {
        let snap = flh_obs::snapshot();
        fs::write(path, flh_obs::full_json(&snap)).expect("write metrics report");
        println!("wrote {path}");
    }
    if let Some(path) = &trace {
        flh_obs::write_trace(path).expect("write trace file");
        println!("wrote {path}");
    }
}
