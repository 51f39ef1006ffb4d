//! Two-pattern application styles and coverage campaigns.
//!
//! The paper's introduction motivates FLH by the weaknesses of the two
//! DFT-free application styles:
//!
//! * **broadside** (launch-on-capture): V2's state part is the circuit's
//!   own response to V1 — "the broadside case can suffer from poor fault
//!   coverage";
//! * **skewed-load** (launch-on-shift): V2's state part is a 1-bit shift of
//!   V1's — "since the second pattern is highly correlated to the first
//!   one, the test generation for high fault coverage can be difficult";
//! * **arbitrary two-pattern** (enhanced scan, or FLH at a fraction of the
//!   cost): V1 and V2 are independent — best possible coverage.
//!
//! [`random_transition_campaign`] quantifies this with seeded random
//! pattern-pair campaigns under each constraint.

use flh_exec::ThreadPool;
use flh_netlist::{LaneWord, Netlist, Packed256, PatternWord};
use flh_rng::Rng;

use crate::fsim::{PATTERN_BLOCK, WINDOW_BLOCKS};
use crate::prune::{order_transition_faults_pruned, StaticFilter};
use crate::transition::{
    enumerate_transition_faults, order_transition_faults, simulate_pair_windows, TransitionFault,
};
use crate::tview::{Observation, TestView};

/// How the second pattern's state part is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ApplicationStyle {
    /// Enhanced-scan / FLH: V1 and V2 fully independent.
    ArbitraryTwoPattern,
    /// Broadside: V2's state = the flip-flop capture of the response to V1.
    Broadside,
    /// Skewed-load: V2's state = V1's state shifted by one chain position.
    SkewedLoad,
}

impl std::fmt::Display for ApplicationStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ApplicationStyle::ArbitraryTwoPattern => "arbitrary two-pattern",
            ApplicationStyle::Broadside => "broadside",
            ApplicationStyle::SkewedLoad => "skewed-load",
        })
    }
}

/// Outcome of a random campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignResult {
    /// Style used.
    pub style: ApplicationStyle,
    /// Total transition faults.
    pub total_faults: usize,
    /// Faults detected.
    pub detected: usize,
    /// Pattern pairs applied.
    pub pairs: usize,
}

impl CampaignResult {
    /// Coverage in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_faults == 0 {
            100.0
        } else {
            100.0 * self.detected as f64 / self.total_faults as f64
        }
    }
}

/// Runs a seeded random transition-fault campaign of `pairs` pattern pairs
/// under the given application style, with the fault list sharded over
/// `pool` (the result is identical at any pool size). Statically
/// untestable faults are pruned first ([`transition_campaign_filtered`]).
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn random_transition_campaign(
    netlist: &Netlist,
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
) -> flh_netlist::Result<CampaignResult> {
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    let filter = StaticFilter::from_view(&view);
    Ok(transition_campaign_filtered(
        &view,
        &faults,
        style,
        pairs,
        seed,
        pool,
        Some(&filter),
    ))
}

/// Campaign core over a prebuilt [`TestView`] and fault list — the entry
/// point for callers that cache compiled circuits (the `flh-serve`
/// `JobEngine`): a repeat campaign pays neither parse, compile nor fault
/// enumeration. The pair stream is generated and simulated one window of
/// 4096 pairs at a time, so memory does not grow with `pairs`.
///
/// `filter` prunes statically untestable faults before sharding (`None`
/// disables pruning) — the replay engine never touches them — while
/// `total_faults` still counts the full universe. On a sound filter the
/// pruned faults are exactly faults no pattern pair ever detects, so the
/// aggregate counts are identical in both modes; the bench suite asserts
/// that equality.
#[allow(clippy::too_many_arguments)]
pub fn transition_campaign_filtered(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
    filter: Option<&StaticFilter>,
) -> CampaignResult {
    // Static prune, then static fault ordering: replay seeds sorted
    // level-major walk the compiled program front-to-back. The campaign
    // result is aggregate counts, so neither the permutation nor the
    // removal of provably undetectable faults is visible to callers.
    let ordered = match filter {
        Some(f) => order_transition_faults_pruned(f, view.compiled(), faults).0,
        None => order_transition_faults(view.compiled(), faults),
    };
    let (applied, detected) = stream_campaign(view, &ordered, style, pairs, seed, pool, None);
    CampaignResult {
        style,
        total_faults: faults.len(),
        detected,
        pairs: applied,
    }
}

/// Runs windows of random pairs until `target_pct` coverage is reached or
/// `max_pairs` are spent. Coverage is checked every 64 pairs. Returns the
/// pair count and coverage at the stop point — the raw material for
/// cycles-to-coverage (test time) comparisons across application styles.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn pairs_to_reach_coverage(
    netlist: &Netlist,
    style: ApplicationStyle,
    target_pct: f64,
    max_pairs: usize,
    seed: u64,
) -> flh_netlist::Result<CampaignResult> {
    let view = TestView::new(netlist)?;
    let faults = enumerate_transition_faults(netlist);
    let total = faults.len();
    let reached = |detected: usize| 100.0 * detected as f64 / total.max(1) as f64 >= target_pct;
    let (applied, detected) = stream_campaign(
        &view,
        &faults,
        style,
        max_pairs,
        seed,
        &ThreadPool::serial(),
        Some(&reached),
    );
    Ok(CampaignResult {
        style,
        total_faults: total,
        detected,
        pairs: applied,
    })
}

/// The campaign stream over the windowed driver: generates `pairs` random
/// pairs one window at a time and simulates each window against `faults`.
/// Without a stop rule a window is [`WINDOW_BLOCKS`] 256-lane blocks;
/// with one, a window is a single 64-pair fill and `stop` sees the
/// cumulative detection count after every window. Each block is assembled
/// from four *sequential* 64-lane fills (fill `j` lands in limb `j`), so
/// the RNG stream is the same whatever the window size, and a final
/// partial block keeps only the lanes that hold real pairs in its mask.
/// Returns the pairs applied and the faults detected.
fn stream_campaign(
    view: &TestView<'_>,
    faults: &[TransitionFault],
    style: ApplicationStyle,
    pairs: usize,
    seed: u64,
    pool: &ThreadPool,
    stop: Option<&dyn Fn(usize) -> bool>,
) -> (usize, usize) {
    let window_pairs = if stop.is_some() {
        64
    } else {
        WINDOW_BLOCKS * PATTERN_BLOCK
    };
    let mut rng = Rng::seed_from_u64(seed);
    let n = view.assignable().len();
    let (mut sub1, mut sub2) = (vec![0u64; n], vec![0u64; n]);
    let mut applied = 0;
    let drops = simulate_pair_windows(view, faults, pool, |drops| {
        let stopped = applied > 0 && stop.is_some_and(|stop| stop(drops.dropped()));
        if applied == pairs || stopped {
            return None;
        }
        let window = window_pairs.min(pairs - applied);
        applied += window;
        let mut blocks = Vec::with_capacity(window.div_ceil(PATTERN_BLOCK));
        for start in (0..window).step_by(PATTERN_BLOCK) {
            let lanes = (window - start).min(PATTERN_BLOCK);
            let mut v1 = vec![Packed256::bot(); n];
            let mut v2 = vec![Packed256::bot(); n];
            for limb in 0..lanes.div_ceil(64) {
                fill_pair_batch(view, style, &mut rng, &mut sub1, &mut sub2);
                for i in 0..n {
                    v1[i].0[limb] = sub1[i];
                    v2[i].0[limb] = sub2[i];
                }
            }
            blocks.push((v1, v2, Packed256::mask_lanes(lanes)));
        }
        Some(blocks)
    });
    (applied, drops.dropped())
}

/// Fills one 64-lane batch of random (V1, V2) words under `style`. RNG
/// consumption order is fixed — all V1 words, V2 primary-input words, then
/// the style-specific state fill — and is the determinism anchor of the
/// campaign pair stream ([`stream_campaign`]) at every window size.
fn fill_pair_batch(
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
    // V2 primary inputs are always free.
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
            // State part of V2 = the flip-flop D values under V1.
            let good1 = view.eval64(v1, None);
            let mut ff_idx = 0;
            for obs in view.observations() {
                if let Observation::FfD(ff) = obs {
                    let d = view.netlist().cell(*ff).fanin()[0];
                    v2[n_pi + ff_idx] = good1[d.index()];
                    ff_idx += 1;
                }
            }
            debug_assert_eq!(ff_idx, n_ff);
        }
        ApplicationStyle::SkewedLoad => {
            // State part of V2 = V1's state shifted one position down
            // the chain (position i takes position i-1; position 0
            // takes a random scan-in bit).
            for i in (1..n_ff).rev() {
                v2[n_pi + i] = v1[n_pi + i - 1];
            }
            if n_ff > 0 {
                v2[n_pi] = rng.gen();
            }
        }
    }
}

/// Tester clock cycles to apply one two-pattern test under a style, with a
/// `load_cycles`-deep (possibly multi-chain) scan load:
///
/// * arbitrary (enhanced scan / FLH): scan V1, apply, scan V2 (overlapped
///   with the previous unload), launch + capture → `2·load + 2`;
/// * broadside: scan V1, launch clock, capture clock → `load + 2`;
/// * skewed-load: the last shift is the launch → `load + 1`.
pub fn cycles_per_pattern(style: ApplicationStyle, load_cycles: usize) -> usize {
    match style {
        ApplicationStyle::ArbitraryTwoPattern => 2 * load_cycles + 2,
        ApplicationStyle::Broadside => load_cycles + 2,
        ApplicationStyle::SkewedLoad => load_cycles + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "camp".into(),
            primary_inputs: 6,
            primary_outputs: 4,
            flip_flops: 10,
            gates: 90,
            logic_depth: 8,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 55,
        })
        .unwrap()
    }

    /// Serial [`random_transition_campaign`].
    fn campaign(n: &Netlist, style: ApplicationStyle, pairs: usize, seed: u64) -> CampaignResult {
        random_transition_campaign(n, style, pairs, seed, &ThreadPool::serial()).unwrap()
    }

    #[test]
    fn campaigns_are_deterministic() {
        let n = circuit();
        let a = campaign(&n, ApplicationStyle::Broadside, 200, 7);
        let b = campaign(&n, ApplicationStyle::Broadside, 200, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_pairs_beat_broadside() {
        let n = circuit();
        let arb = campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 500, 11);
        let brd = campaign(&n, ApplicationStyle::Broadside, 500, 11);
        assert!(
            arb.coverage_pct() > brd.coverage_pct(),
            "arbitrary {} <= broadside {}",
            arb.coverage_pct(),
            brd.coverage_pct()
        );
    }

    #[test]
    fn arbitrary_pairs_beat_skewed_load() {
        let n = circuit();
        let arb = campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 2000, 11);
        let skw = campaign(&n, ApplicationStyle::SkewedLoad, 2000, 11);
        assert!(
            arb.coverage_pct() >= skw.coverage_pct(),
            "arbitrary {} < skewed {}",
            arb.coverage_pct(),
            skw.coverage_pct()
        );
    }

    #[test]
    fn more_pairs_more_coverage() {
        let n = circuit();
        let few = campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 64, 3);
        let many = campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 1000, 3);
        assert!(many.detected >= few.detected);
        assert!(many.coverage_pct() > 50.0);
    }

    #[test]
    fn pooled_campaign_matches_serial_at_any_width() {
        // 4352 pairs = 17 blocks: the second window holds one block, so
        // detections must carry across the window boundary at every width.
        let n = circuit();
        for style in [
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
            ApplicationStyle::SkewedLoad,
        ] {
            for pairs in [300, 4352] {
                let serial = campaign(&n, style, pairs, 13);
                for workers in [2, 4, 8] {
                    let pooled =
                        random_transition_campaign(&n, style, pairs, 13, &ThreadPool::new(workers))
                            .unwrap();
                    assert_eq!(
                        pooled, serial,
                        "{style}, {pairs} pairs, workers = {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn stop_rule_windows_consume_the_same_pair_stream() {
        // The 64-pair windows of the stop-rule path and the 16-block
        // windows of the plain campaign consume the same pair stream: with
        // an unreachable target, both detect the same faults.
        let n = circuit();
        for style in [ApplicationStyle::Broadside, ApplicationStyle::SkewedLoad] {
            let full = campaign(&n, style, 700, 5);
            let stepped = pairs_to_reach_coverage(&n, style, 101.0, 700, 5).unwrap();
            assert_eq!(stepped, full, "{style}");
        }
    }

    #[test]
    fn style_display() {
        assert_eq!(ApplicationStyle::Broadside.to_string(), "broadside");
    }

    #[test]
    fn pairs_to_reach_stops_early() {
        let n = circuit();
        let full = campaign(&n, ApplicationStyle::ArbitraryTwoPattern, 2000, 21);
        let target = 0.8 * full.coverage_pct();
        let partial =
            pairs_to_reach_coverage(&n, ApplicationStyle::ArbitraryTwoPattern, target, 2000, 21)
                .unwrap();
        assert!(partial.coverage_pct() >= target);
        assert!(
            partial.pairs < full.pairs,
            "{} !< {}",
            partial.pairs,
            full.pairs
        );
        // Identical seed => the partial run is a prefix of the full run.
        assert!(partial.detected <= full.detected);
    }

    #[test]
    fn unreachable_target_spends_the_budget() {
        let n = circuit();
        let r = pairs_to_reach_coverage(&n, ApplicationStyle::Broadside, 100.0, 512, 3).unwrap();
        assert_eq!(r.pairs, 512);
        assert!(r.coverage_pct() < 100.0);
    }

    #[test]
    fn test_time_model() {
        use ApplicationStyle::*;
        assert_eq!(cycles_per_pattern(ArbitraryTwoPattern, 100), 202);
        assert_eq!(cycles_per_pattern(Broadside, 100), 102);
        assert_eq!(cycles_per_pattern(SkewedLoad, 100), 101);
    }
}
