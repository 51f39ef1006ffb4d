//! Bit-for-bit equivalence of the 256-lane superword replay engines
//! against four independent 64-lane replays of the same generic engine
//! (`flh_bench::replay64`), across all eleven ISCAS89 profiles and the
//! paper's three holding styles, for both fault models.
//!
//! The superword rebuild changes only the lane-word type threaded through
//! [`flh_atpg::DeviationReplay`] — activation, seeding, undo, detection
//! and early exit are the same code. These tests pin that: a pattern set
//! simulated in 256-lane blocks must detect exactly the faults the same
//! set detects in 64-lane batches (including a masked partial final
//! block), and the 256-lane early exit must neither invent nor lose
//! miscompares nor leave the good machine dirty.

use flh_atpg::{
    enumerate_stuck_faults, enumerate_transition_faults, simulate_transition_patterns,
    stuck_coverage, DeviationReplay, Fault, FaultSite, TestView, TransitionFault,
    TransitionPattern, PATTERN_BLOCK,
};
use flh_bench::build_circuit;
use flh_bench::replay64::{stuck_coverage64, transition_coverage64};
use flh_core::{apply_style, DftStyle};
use flh_exec::ThreadPool;
use flh_netlist::{iscas89_profiles, LaneWord, Packed256, PatternWord};
use flh_rng::Rng;

const STYLES: [DftStyle; 3] = [DftStyle::EnhancedScan, DftStyle::MuxHold, DftStyle::Flh];
/// One full 256-lane block plus a partial tail, so every run exercises
/// the masked final block on both the 64- and 256-lane side.
const PATTERNS: usize = PATTERN_BLOCK + 33;
const MAX_FAULTS: usize = 400;

/// Every k-th element, keeping the debug-build runtime bounded while still
/// spanning the whole id range.
fn subsample<T: Clone>(items: &[T], max: usize) -> Vec<T> {
    let step = items.len().div_ceil(max).max(1);
    items.iter().step_by(step).cloned().collect()
}

#[test]
fn superword_replay_matches_four_word_replays_across_profiles_and_styles() {
    for profile in iscas89_profiles() {
        let circuit = build_circuit(&profile);
        for (si, &style) in STYLES.iter().enumerate() {
            let dft = apply_style(&circuit, style)
                .unwrap_or_else(|e| panic!("{} / {style}: {e}", profile.name));
            let n = &dft.netlist;
            let view = TestView::new(n).expect("acyclic after scan insertion");
            let na = view.assignable().len();
            let mut rng = Rng::seed_from_u64(0x256 + si as u64);

            // Stuck-at: whole-set coverage, 256-lane blocks vs 64-lane
            // batches over the identical pattern list.
            let stuck: Vec<Fault> = subsample(&enumerate_stuck_faults(n), MAX_FAULTS);
            let patterns: Vec<Vec<bool>> = (0..PATTERNS)
                .map(|_| (0..na).map(|_| rng.gen()).collect())
                .collect();
            let wide = stuck_coverage(&view, &stuck, &patterns, &ThreadPool::serial());
            let narrow = stuck_coverage64(&view, &stuck, &patterns);
            assert_eq!(
                wide, narrow,
                "{} / {style}: stuck detection diverged between lane widths",
                profile.name
            );
            assert!(
                wide.iter().any(|&d| d),
                "{} / {style}: stuck campaign detected nothing",
                profile.name
            );

            // Transition: same comparison on pattern pairs.
            let faults: Vec<TransitionFault> =
                subsample(&enumerate_transition_faults(n), MAX_FAULTS);
            let pairs: Vec<TransitionPattern> = (0..PATTERNS)
                .map(|_| TransitionPattern {
                    v1: (0..na).map(|_| rng.gen()).collect(),
                    v2: (0..na).map(|_| rng.gen()).collect(),
                })
                .collect();
            let tuples: Vec<(Vec<bool>, Vec<bool>)> =
                pairs.iter().map(|p| (p.v1.clone(), p.v2.clone())).collect();
            let twide = simulate_transition_patterns(&view, &faults, &pairs);
            let tnarrow = transition_coverage64(&view, &faults, &tuples);
            assert_eq!(
                twide, tnarrow,
                "{} / {style}: transition detection diverged between lane widths",
                profile.name
            );
            assert!(
                twide.iter().any(|&d| d),
                "{} / {style}: transition campaign detected nothing",
                profile.name
            );
        }
    }
}

#[test]
fn superword_early_exit_is_sound_and_restores_the_good_machine() {
    // Engine-level check at 256-lane width on a mid-size scanned circuit:
    // for every stem fault, a replay allowed to stop at the first
    // stop-lane miscompare must report a subset of the full-propagation
    // miscompare that agrees on whether anything miscompared at all, and
    // both replays must leave the good machine bit-identical.
    let circuit = build_circuit(&iscas89_profiles()[7].clone()); // s1423
    let dft = apply_style(&circuit, DftStyle::Flh).expect("style applies");
    let n = &dft.netlist;
    let view = TestView::new(n).expect("acyclic after scan insertion");
    let na = view.assignable().len();
    let mut rng = Rng::seed_from_u64(0xEE);
    let words: Vec<Packed256> = (0..na)
        .map(|_| Packed256::from_limbs([rng.gen(), rng.gen(), rng.gen(), rng.gen()]))
        .collect();
    let mut values: Vec<Packed256> = Vec::new();
    view.eval_lanes_into(&words, &mut values);
    let good = values.clone();

    let mut engine: DeviationReplay<Packed256> =
        DeviationReplay::new(view.compiled(), view.program_arc());
    let observed = view.observed_drivers();
    let stems: Vec<Fault> = enumerate_stuck_faults(n)
        .into_iter()
        .filter(|f| matches!(f.site, FaultSite::Stem(_)))
        .collect();
    let mut checked = 0;
    for fault in subsample(&stems, 300) {
        let FaultSite::Stem(cell) = fault.site else {
            continue;
        };
        let seed = cell.index() as u32;
        let forced = if fault.stuck.as_bool() {
            Packed256::top()
        } else {
            Packed256::bot()
        };
        let full = engine.replay(
            view.compiled(),
            observed,
            &mut values,
            seed,
            forced,
            Packed256::bot(),
        );
        assert_eq!(values, good, "{fault:?}: full replay left state dirty");
        let stopped = engine.replay(
            view.compiled(),
            observed,
            &mut values,
            seed,
            forced,
            Packed256::top(),
        );
        assert_eq!(
            values, good,
            "{fault:?}: early-exit replay left state dirty"
        );
        assert!(
            !stopped.and(full.not()).any(),
            "{fault:?}: early exit invented a miscompare"
        );
        assert_eq!(
            stopped.any(),
            full.any(),
            "{fault:?}: early exit changed the detection verdict"
        );
        checked += 1;
    }
    assert!(checked > 200, "too few faults checked: {checked}");
}
