//! `atpg_ceiling`: serial deterministic ATPG on the small profiles the
//! coverage experiments use.
//!
//! One round is a fixed list of calls: `path_delay_atpg` with K = 25 on
//! s344 and s838; broadside ATPG on one half of s344's transition faults;
//! arbitrary-pair `transition_atpg` on all eight eighths of s838's fault
//! list; and arbitrary-pair ATPG on four eighths of s1196's. Fault lists
//! are split by seeded stratified partitions (kept in list order), so each
//! round covers s838 completely and two rounds cover s344 and s1196:
//! per-round cost does not hinge on which faults a seed drew. The seed picks the
//! partitions and the X-fill seeds. Runs end on a round boundary. The mix
//! puts the median call inside the s838 group and the 90th percentile
//! inside the s1196 group, so neither quantile straddles two call kinds.
//! PODEM and the 1-lane deviation replay dominate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::{
    broadside_transition_atpg, generate_path_test, longest_paths, path_delay_atpg,
    simulate_transition_patterns, transition_atpg, transition_detects_reference,
    BroadsideAtpgResult, PathDelayFault, PathDelayReport, PathTestOutcome, Podem, PodemConfig,
    TestView, TransitionAtpgResult, TransitionFault, TransitionPattern, TransitionSimulator,
};
use flh_netlist::{generate_circuit, iscas89_profile, LaneWord, Netlist, Packed256, PatternWord};
use flh_rng::Rng;

use crate::report::{self, ms, quantile, EndToEnd, Layers, Outcome, Pace};
use crate::Args;

const PATH_K: usize = 25;
/// Faults sampled per arbitrary-pair call for the timed PODEM probe.
const PODEM_PROBE_FAULTS: usize = 48;
/// (pattern, fault) pairs spot-checked against the reference per call.
const SPOT_CHECKS: usize = 16;
/// Set-up re-timings at each round boundary of the timed phase.
const SETUP_RETIMES: usize = 12;

#[derive(Clone, Copy)]
enum Kind {
    Transition,
    Broadside,
    PathDelay,
}

const CIRCUITS: [&str; 3] = ["s344", "s838", "s1196"];
const S344: usize = 0;
const S838: usize = 1;
const S1196: usize = 2;

struct Circuit {
    netlist: Netlist,
    faults: Vec<TransitionFault>,
}

struct Call {
    circuit: usize,
    kind: Kind,
    faults: Vec<TransitionFault>,
    fill_seed: u64,
}

impl Call {
    /// Target faults handed to the call (path-delay: both polarities of
    /// the K longest paths).
    fn targets(&self) -> usize {
        match self.kind {
            Kind::PathDelay => 2 * PATH_K,
            _ => self.faults.len(),
        }
    }
}

/// What one ATPG call returned.
enum Answer {
    Transition(TransitionAtpgResult),
    Broadside(BroadsideAtpgResult),
    PathDelay(PathDelayReport),
}

fn setup() -> Result<Vec<Circuit>, String> {
    CIRCUITS
        .iter()
        .map(|name| {
            let profile = iscas89_profile(name).ok_or_else(|| format!("no profile {name}"))?;
            let netlist = generate_circuit(&profile.generator_config())
                .map_err(|e| format!("generating {name}: {e}"))?;
            let faults = enumerate_transition_faults(&netlist);
            Ok(Circuit { netlist, faults })
        })
        .collect()
}

/// The calls of round `round` (see the module docs).
fn round_calls(circuits: &[Circuit], seed: u64, round: u64) -> Vec<Call> {
    let mut fill = Rng::seed_from_u64(report::derive_seed(seed, 10, round));
    let mut call = |circuit: usize, kind: Kind, faults: Vec<TransitionFault>| Call {
        circuit,
        kind,
        faults,
        fill_seed: fill.next_u64(),
    };
    let part = |circuit: usize, epoch: u64, parts: u64, k: u64| {
        chunk(&circuits[circuit].faults, seed, circuit, epoch, parts, k)
    };
    let mut calls = vec![
        call(S344, Kind::PathDelay, Vec::new()),
        call(S838, Kind::PathDelay, Vec::new()),
        call(S344, Kind::Broadside, part(S344, round / 2, 2, round % 2)),
    ];
    for k in 0..8 {
        calls.push(call(S838, Kind::Transition, part(S838, round, 8, k)));
    }
    for k in 4 * (round % 2)..4 * (round % 2) + 4 {
        calls.push(call(S1196, Kind::Transition, part(S1196, round / 2, 8, k)));
    }
    calls
}

/// Part `k` of `parts` of seeded partition `epoch` of a fault list, in
/// list order. The partition is stratified: each run of `parts`
/// consecutive faults deals one fault to every part in a seeded order, so
/// every part samples the whole list evenly and faults that are hard for
/// PODEM (which tend to cluster in list order) do not pile up in one part.
fn chunk(
    all: &[TransitionFault],
    seed: u64,
    circuit: usize,
    epoch: u64,
    parts: u64,
    k: u64,
) -> Vec<TransitionFault> {
    let mut rng = Rng::seed_from_u64(report::derive_seed(seed, 20 + circuit as u64, epoch));
    let mut deal: Vec<u64> = (0..parts).collect();
    let mut picked = Vec::new();
    for block in all.chunks(parts as usize) {
        rng.shuffle(&mut deal);
        picked.extend(
            block
                .iter()
                .zip(&deal)
                .filter(|&(_, &p)| p == k)
                .map(|(f, _)| *f),
        );
    }
    picked
}

fn layer_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Transition => "atpg.transition",
        Kind::Broadside => "atpg.broadside",
        Kind::PathDelay => "atpg.path_delay",
    }
}

fn execute(circuits: &[Circuit], call: &Call) -> Result<Answer, String> {
    let netlist = &circuits[call.circuit].netlist;
    let config = PodemConfig::paper_default();
    Ok(match call.kind {
        Kind::Transition => {
            let view = TestView::new(netlist).map_err(|e| e.to_string())?;
            Answer::Transition(transition_atpg(
                &view,
                &call.faults,
                &config,
                call.fill_seed,
            ))
        }
        Kind::Broadside => Answer::Broadside(
            broadside_transition_atpg(netlist, &call.faults, &config, call.fill_seed)
                .map_err(|e| e.to_string())?,
        ),
        Kind::PathDelay => {
            let view = TestView::new(netlist).map_err(|e| e.to_string())?;
            Answer::PathDelay(path_delay_atpg(&view, PATH_K, &config, call.fill_seed))
        }
    })
}

struct Done {
    call: Call,
    ms: f64,
    result: Result<Answer, String>,
}

/// Runs whole rounds from round 0 until `stop(rounds done, pace)`; returns
/// the calls and each round's target faults per second.
fn run_rounds(
    circuits: &[Circuit],
    seed: u64,
    mut layers: Option<&mut Layers>,
    pace: &mut Pace,
    mut stop: impl FnMut(u64, &mut Pace) -> bool,
) -> (Vec<Done>, Vec<f64>) {
    let mut done = Vec::new();
    let mut rates = Vec::new();
    let mut round = 0;
    while !stop(round, pace) {
        let mut round_ms = 0.0;
        let calls = round_calls(circuits, seed, round);
        let targets: usize = calls.iter().map(Call::targets).sum();
        for call in calls {
            let (result, ms) = pace.time(|| match layers.as_deref_mut() {
                Some(layers) => layers.time(layer_of(call.kind), || execute(circuits, &call)),
                None => execute(circuits, &call),
            });
            round_ms += ms;
            done.push(Done { ms, call, result });
        }
        rates.push(targets as f64 * 1e3 / round_ms);
        round += 1;
    }
    (done, rates)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut pace = Pace::new(1);
    let (circuits, first_setup_ms) = pace.time(setup);
    let circuits = circuits?;
    if args.trace {
        return traced(args, &circuits);
    }
    let mut setup_s = vec![first_setup_ms / 1e3];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (done, round_rates) = run_rounds(&circuits, args.seed, None, &mut pace, |_, pace| {
        // The set-up takes milliseconds: several samples per boundary.
        for _ in 0..SETUP_RETIMES {
            setup_s.push(pace.time(setup).1 / 1e3);
        }
        start.elapsed() >= budget
    });
    let wall = start.elapsed();
    let peak_rss_mb = report::peak_rss_mb()?;
    let mut checker = Checker::new(args.seed);
    let failed = done
        .iter()
        .filter(|d| !checker.check(&circuits, d, None))
        .count() as u64;
    let targets: usize = done.iter().map(|d| d.call.targets()).sum();
    eprintln!(
        "atpg_ceiling: {} calls, {targets} target faults in {:.2} s, {failed} failed; {} PODEM aborts later detected; host {:.2}x slower than the reference speed",
        done.len(),
        wall.as_secs_f64(),
        none_later_detected(&done),
        pace.slowdown()
    );
    let op_ms: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let e2e = EndToEnd {
        round_rates,
        cold_op_ms: op_ms.clone(),
        op_ms,
        setup_s,
        peak_rss_mb,
        attempted: done.len() as u64,
        failed,
    };
    Ok(Outcome {
        attempted: e2e.attempted,
        failed,
        pinned_ok: true,
        metrics: e2e.metrics(),
    })
}

/// Faults PODEM gave up on (counted untestable) that a later pattern
/// detected anyway: `detected + untestable - total` per arbitrary-pair
/// call, the amount by which `efficiency_pct` exceeds 100%.
fn none_later_detected(done: &[Done]) -> usize {
    done.iter()
        .filter_map(|d| match &d.result {
            Ok(Answer::Transition(r)) => {
                Some((r.detected_count() + r.untestable).saturating_sub(r.detected.len()))
            }
            _ => None,
        })
        .sum()
}

fn traced(args: &Args, circuits: &[Circuit]) -> Result<Outcome, String> {
    let one_round = |round: u64, _: &mut Pace| round >= 1;
    let mut pace = Pace::new(1);
    let (off, _) = run_rounds(circuits, args.seed, None, &mut pace, one_round);

    flh_obs::install(true);
    flh_obs::reset();
    let mut layers = Layers::default();
    let (done, _) = run_rounds(circuits, args.seed, Some(&mut layers), &mut pace, one_round);
    let det = flh_obs::snapshot();
    let mut metrics = BTreeMap::new();
    report::zero_extras(&mut metrics);
    report::program_counters(&det, &mut metrics);

    let mut podem_ms = Vec::new();
    let mut podem_none = 0usize;
    for d in &done {
        if let (Kind::Transition, Ok(Answer::Transition(result))) = (d.call.kind, &d.result) {
            let view =
                TestView::new(&circuits[d.call.circuit].netlist).map_err(|e| e.to_string())?;
            podem_none += probe_podem(&mut layers, &view, &d.call, &mut podem_ms);
            probe_replay(&mut layers, &view, &d.call.faults, &result.patterns);
        }
    }
    let mut checker = Checker::new(args.seed);
    let failed = done
        .iter()
        .filter(|d| !checker.check(circuits, d, Some(&mut layers)))
        .count() as u64;

    metrics.insert("atpg.podem.call_ms.p50".into(), quantile(&podem_ms, 0.5));
    metrics.insert("atpg.podem.call_ms.p90".into(), quantile(&podem_ms, 0.9));
    metrics.insert("atpg.podem.none".into(), podem_none as f64);
    metrics.insert(
        "atpg.podem_none_later_detected".into(),
        none_later_detected(&done) as f64,
    );
    metrics.insert("trace.window_ops".into(), done.len() as f64);
    let ms_of = |d: &[Done]| d.iter().map(|d| d.ms).collect::<Vec<_>>();
    metrics.insert(
        "trace.overhead_pct".into(),
        report::overhead_pct(&ms_of(&off), &ms_of(&done)),
    );
    layers.metrics(&mut metrics);
    crate::write_trace_files(args, &det)?;
    Ok(Outcome {
        attempted: done.len() as u64,
        failed,
        pinned_ok: true,
        metrics,
    })
}

/// Times `Podem::generate` (V2 cube) and `Podem::justify` (V1 launch
/// value) per call on an evenly spaced sample of the call's faults.
/// Returns how many of them answered `None` (untestable or aborted).
fn probe_podem(
    layers: &mut Layers,
    view: &TestView<'_>,
    call: &Call,
    call_ms: &mut Vec<f64>,
) -> usize {
    let podem = Podem::new(view, PodemConfig::paper_default());
    let step = call.faults.len().div_ceil(PODEM_PROBE_FAULTS).max(1);
    let mut none = 0;
    for fault in call.faults.iter().step_by(step) {
        let start = Instant::now();
        let v2 = layers.time("atpg.podem", || podem.generate(&fault.stuck_equivalent()));
        call_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let v1 = layers.time("atpg.podem", || {
            podem.justify(fault.site, fault.initial_value())
        });
        call_ms.push(ms(start.elapsed()));
        none += usize::from(v2.is_none()) + usize::from(v1.is_none());
    }
    none
}

/// The deviation replay as transition ATPG drives it: every generated pair
/// in lane 0 of a block, simulated against the call's whole fault list
/// with dropping. Good-machine evaluation is timed separately.
fn probe_replay(
    layers: &mut Layers,
    view: &TestView<'_>,
    faults: &[TransitionFault],
    patterns: &[TransitionPattern],
) {
    let mut sim = TransitionSimulator::new(view);
    let mut detected = vec![false; faults.len()];
    let mut values = Vec::new();
    for pattern in patterns {
        let (v1, v2) = (lane0(&pattern.v1), lane0(&pattern.v2));
        let start = Instant::now();
        layers.time("sim.good_eval", || {
            view.eval_lanes_into(&v1, &mut values);
            view.eval_lanes_into(&v2, &mut values);
        });
        let good = start.elapsed();
        let _span = flh_obs::span("atpg.replay");
        let start = Instant::now();
        sim.run_batch(&v1, &v2, Packed256::lane_bit(0), faults, &mut detected);
        layers.add("atpg.replay", start.elapsed().saturating_sub(good));
    }
}

fn lane0(bits: &[bool]) -> Vec<Packed256> {
    bits.iter()
        .map(|&b| {
            if b {
                Packed256::lane_bit(0)
            } else {
                Packed256::bot()
            }
        })
        .collect()
}

/// Output checks, outside the timed phase.
struct Checker {
    rng: Rng,
}

impl Checker {
    fn new(seed: u64) -> Self {
        Checker {
            rng: Rng::seed_from_u64(report::derive_seed(seed, 40, 0)),
        }
    }

    fn check(
        &mut self,
        circuits: &[Circuit],
        done: &Done,
        mut layers: Option<&mut Layers>,
    ) -> bool {
        let netlist = &circuits[done.call.circuit].netlist;
        let Ok(view) = TestView::new(netlist) else {
            return false;
        };
        let faults = &done.call.faults;
        let mut resimulate = |patterns: &[TransitionPattern]| match layers.as_deref_mut() {
            Some(layers) => layers.time("atpg.pattern_sim", || {
                simulate_transition_patterns(&view, faults, patterns)
            }),
            None => simulate_transition_patterns(&view, faults, patterns),
        };
        match &done.result {
            Err(e) => {
                eprintln!("atpg call failed: {e}");
                false
            }
            Ok(Answer::Transition(result)) => {
                resimulate(&result.patterns) == result.detected
                    && self.spot_check(&view, faults, &result.patterns)
            }
            Ok(Answer::Broadside(result)) => {
                let pairs: Vec<TransitionPattern> = result
                    .patterns
                    .iter()
                    .map(|p| {
                        let v1: Vec<bool> = p.pi1.iter().chain(&p.state1).copied().collect();
                        let words: Vec<u64> = v1.iter().map(|&b| u64::from(b)).collect();
                        let good1 = view.eval64(&words, None);
                        let state2 = netlist
                            .flip_flops()
                            .iter()
                            .map(|&ff| good1[netlist.cell(ff).fanin()[0].index()] & 1 == 1);
                        let v2 = p.pi2.iter().copied().chain(state2).collect();
                        TransitionPattern { v1, v2 }
                    })
                    .collect();
                resimulate(&pairs) == result.detected
            }
            Ok(Answer::PathDelay(report)) => {
                let config = PodemConfig::paper_default();
                let mut recount = PathDelayReport::default();
                let mut verified = true;
                for path in longest_paths(netlist, PATH_K) {
                    for rising_launch in [false, true] {
                        let fault = PathDelayFault {
                            path: path.clone(),
                            rising_launch,
                        };
                        match generate_path_test(&view, &fault, &config, done.call.fill_seed) {
                            PathTestOutcome::Tested(pattern) => {
                                verified &= flh_atpg::verify_non_robust(&view, &fault, &pattern);
                                recount.tested += 1;
                            }
                            PathTestOutcome::Untested => recount.untested += 1,
                            PathTestOutcome::Unsupported => recount.unsupported += 1,
                        }
                    }
                }
                verified && recount == *report
            }
        }
    }

    /// Seeded (pattern, fault) pairs: the replay simulator's verdict must
    /// match the full re-evaluation reference.
    fn spot_check(
        &mut self,
        view: &TestView<'_>,
        faults: &[TransitionFault],
        patterns: &[TransitionPattern],
    ) -> bool {
        if patterns.is_empty() || faults.is_empty() {
            return true;
        }
        (0..SPOT_CHECKS).all(|_| {
            let pattern = &patterns[(self.rng.next_u64() % patterns.len() as u64) as usize];
            let fault = faults[(self.rng.next_u64() % faults.len() as u64) as usize];
            let fast =
                simulate_transition_patterns(view, &[fault], std::slice::from_ref(pattern))[0];
            let words = |bits: &[bool]| bits.iter().map(|&b| u64::from(b)).collect::<Vec<_>>();
            let reference = transition_detects_reference(
                view,
                &fault,
                &words(&pattern.v1),
                &words(&pattern.v2),
                1,
            );
            fast == (reference != 0)
        })
    }
}
