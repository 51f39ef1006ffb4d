//! `hold_mc`: Monte Carlo robustness of the FLH hold under threshold
//! variation, called exactly as the `variation_robustness` experiment calls
//! it (same σ values, same 1.5 µs window, multi-sample calls) with fewer
//! samples per call. Only the analog layer runs.
//!
//! One round is one call per σ; the seed picks each call's sample seed.
//! Runs end on a round boundary so every run has the same σ mix.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use flh_analog::{
    gated_chain, monte_carlo_hold_robustness, simulate, steady_state_initial, GatedChainConfig,
    InputStimulus, TransientConfig, VariationSample,
};
use flh_rng::Rng;
use flh_tech::Technology;

use crate::report::{self, EndToEnd, Layers, Outcome, Pace};
use crate::{Args, DEFAULT_SEED};

const SIGMAS_MV: [f64; 4] = [10.0, 20.0, 30.0, 50.0];
const SAMPLES_PER_CALL: usize = 2;
const WINDOW_NS: f64 = 1500.0;
/// The input switches 7 ns in; decay times are measured from there.
const SWITCH_NS: f64 = 7.0;
/// Set-up re-timings at each round boundary of the timed phase.
const SETUP_RETIMES: usize = 3;
/// Digest of round 0's samples at [`DEFAULT_SEED`].
const PINNED_DIGEST: u64 = 0x314e_88dc_2fb0_6869;

struct Call {
    sigma_v: f64,
    seed: u64,
}

fn round_calls(seed: u64, round: u64) -> Vec<Call> {
    SIGMAS_MV
        .iter()
        .enumerate()
        .map(|(k, &mv)| Call {
            sigma_v: mv * 1e-3,
            seed: report::derive_seed(seed, 30 + k as u64, round),
        })
        .collect()
}

/// Set-up: the technology and the nominal (variation-free) keeperless
/// decay the samples scatter around.
fn setup() -> Result<(Technology, f64), String> {
    let tech = Technology::bptm70();
    let (circuit, probes) = gated_chain(&tech, &GatedChainConfig::fig2());
    let init = steady_state_initial(&tech, &probes, &circuit);
    let trace = simulate(&circuit, &TransientConfig::for_window_ns(WINDOW_NS), &init);
    let decay = trace
        .first_time_below(probes.out1, 0.6, SWITCH_NS)
        .ok_or("nominal keeperless stage did not decay")?;
    Ok((tech, decay - SWITCH_NS))
}

struct Done {
    call: Call,
    ms: f64,
    samples: Vec<VariationSample>,
}

/// Runs whole rounds until `stop(rounds done, pace)`; returns the calls and
/// each round's samples per second.
fn run_rounds(
    tech: &Technology,
    seed: u64,
    pace: &mut Pace,
    mut stop: impl FnMut(u64, &mut Pace) -> bool,
) -> (Vec<Done>, Vec<f64>) {
    let mut done = Vec::new();
    let mut rates = Vec::new();
    let mut round = 0;
    while !stop(round, pace) {
        let mut round_ms = 0.0;
        for call in round_calls(seed, round) {
            let _span = flh_obs::span("mc.call");
            let (samples, ms) = pace.time(|| {
                monte_carlo_hold_robustness(
                    tech,
                    call.sigma_v,
                    SAMPLES_PER_CALL,
                    call.seed,
                    WINDOW_NS,
                )
            });
            round_ms += ms;
            done.push(Done { ms, call, samples });
        }
        let samples = SIGMAS_MV.len() * SAMPLES_PER_CALL;
        rates.push(samples as f64 * 1e3 / round_ms);
        round += 1;
    }
    (done, rates)
}

/// Finite values inside the simulated window and the supply rails.
fn sample_ok(tech: &Technology, s: &VariationSample) -> bool {
    let decay_ok = s
        .keeperless_decay_ns
        .is_none_or(|t| t.is_finite() && t > 0.0 && t <= WINDOW_NS - SWITCH_NS);
    decay_ok && s.kept_min_v.is_finite() && (-0.1..=tech.vdd + 0.1).contains(&s.kept_min_v)
}

/// Digest of round 0 (the first `SIGMAS_MV.len()` calls), bit-exact.
fn round0_digest(done: &[Done]) -> u64 {
    let mut bytes = Vec::new();
    for d in done.iter().take(SIGMAS_MV.len()) {
        for s in &d.samples {
            let decay = s.keeperless_decay_ns.map_or(u64::MAX, f64::to_bits);
            bytes.extend_from_slice(&decay.to_le_bytes());
            bytes.extend_from_slice(&s.kept_min_v.to_bits().to_le_bytes());
        }
    }
    flh_serve::fnv1a(&bytes)
}

fn checks(tech: &Technology, seed: u64, done: &[Done]) -> (u64, bool) {
    let failed = done
        .iter()
        .filter(|d| {
            d.samples.len() != SAMPLES_PER_CALL || !d.samples.iter().all(|s| sample_ok(tech, s))
        })
        .count() as u64;
    let digest = round0_digest(done);
    eprintln!("hold_mc: round-0 digest {digest:016x}");
    (failed, seed != DEFAULT_SEED || digest == PINNED_DIGEST)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut pace = Pace::new(1);
    let (set, first_setup_ms) = pace.time(setup);
    let (tech, nominal_decay_ns) = set?;
    if args.trace {
        return traced(args, &tech);
    }
    let mut setup_s = vec![first_setup_ms / 1e3];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (done, round_rates) = run_rounds(&tech, args.seed, &mut pace, |_, pace| {
        for _ in 0..SETUP_RETIMES {
            setup_s.push(pace.time(setup).1 / 1e3);
        }
        start.elapsed() >= budget
    });
    let wall = start.elapsed();
    let peak_rss_mb = report::peak_rss_mb()?;
    let (failed, pinned_ok) = checks(&tech, args.seed, &done);
    let samples = (done.len() * SAMPLES_PER_CALL) as f64;
    eprintln!(
        "hold_mc: {} calls, {samples} samples in {:.2} s, {failed} failed; nominal decay {nominal_decay_ns:.1} ns; host {:.2}x slower than the reference speed",
        done.len(),
        wall.as_secs_f64(),
        pace.slowdown()
    );
    let per_sample: Vec<f64> = done
        .iter()
        .map(|d| d.ms / SAMPLES_PER_CALL as f64)
        .collect();
    let e2e = EndToEnd {
        round_rates,
        cold_op_ms: per_sample.clone(),
        op_ms: per_sample,
        setup_s,
        peak_rss_mb,
        attempted: done.len() as u64,
        failed,
    };
    Ok(Outcome {
        attempted: e2e.attempted,
        failed,
        pinned_ok,
        metrics: e2e.metrics(),
    })
}

fn traced(args: &Args, tech: &Technology) -> Result<Outcome, String> {
    let one_round = |round: u64, _: &mut Pace| round >= 1;
    let mut pace = Pace::new(1);
    let (off, _) = run_rounds(tech, args.seed, &mut pace, one_round);

    flh_obs::install(true);
    flh_obs::reset();
    let (done, _) = run_rounds(tech, args.seed, &mut pace, one_round);
    let det = flh_obs::snapshot();
    let mut metrics = BTreeMap::new();
    report::zero_extras(&mut metrics);
    report::program_counters(&det, &mut metrics);

    let mut layers = Layers::default();
    let mut steps = 0usize;
    let mut probe_failures = 0u64;
    for d in &done {
        let (first, len) = probe_sample(&mut layers, tech, &d.call);
        steps += len;
        probe_failures += u64::from(d.samples.first() != Some(&first));
    }
    let (failed, pinned_ok) = checks(tech, args.seed, &done);

    metrics.insert("analog.transient.steps".into(), steps as f64);
    metrics.insert(
        "analog.transient.us_per_step".into(),
        layers.busy("analog.transient").as_secs_f64() * 1e6 / steps.max(1) as f64,
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
        failed: failed + probe_failures,
        pinned_ok,
        metrics,
    })
}

/// Replays the first sample of a call (keeperless run, then kept run)
/// through the analog layer's public calls, drawing the threshold shifts
/// from the call's seed in the same order. Returns the sample, which must
/// equal the call's first sample, and the recorded trace lengths.
fn probe_sample(layers: &mut Layers, tech: &Technology, call: &Call) -> (VariationSample, usize) {
    let mut rng = Rng::seed_from_u64(call.seed);
    let mut gaussian = move || {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let mut steps = 0;
    let mut outcome = [(None, 0.0); 2];
    for (slot, with_keeper) in [false, true].into_iter().enumerate() {
        let mut cfg = if with_keeper {
            let mut c = GatedChainConfig::fig4(1);
            c.input = InputStimulus::Step { at_ns: SWITCH_NS };
            c
        } else {
            GatedChainConfig::fig2()
        };
        cfg.sleep_start_ns = 2.0;
        let (circuit, probes, init) = layers.time("analog.build", || {
            let (mut circuit, probes) = gated_chain(tech, &cfg);
            for d in 0..circuit.device_count() {
                circuit.set_vth_shift(d, call.sigma_v * gaussian());
            }
            let init = steady_state_initial(tech, &probes, &circuit);
            (circuit, probes, init)
        });
        let trace = layers.time("analog.transient", || {
            simulate(&circuit, &TransientConfig::for_window_ns(WINDOW_NS), &init)
        });
        steps += trace.len();
        outcome[slot] = (
            trace
                .first_time_below(probes.out1, 0.6, SWITCH_NS)
                .map(|t| t - SWITCH_NS),
            trace.min_in_window(probes.out1, 2.0, WINDOW_NS),
        );
    }
    let sample = VariationSample {
        keeperless_decay_ns: outcome[0].0,
        kept_min_v: outcome[1].1,
    };
    (sample, steps)
}
