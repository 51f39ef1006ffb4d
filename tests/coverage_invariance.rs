//! Section IV of the paper as an executable property: FLH insertion does
//! not change fault models, test generation or fault coverage, and test
//! patterns generated for the bare circuit work unchanged on every DFT
//! variant.

use flh::atpg::transition::enumerate_transition_faults;
use flh::atpg::{
    collapse_faults, enumerate_stuck_faults, simulate_transition_patterns, transition_atpg,
    PodemConfig, TestView,
};
use flh::core::{apply_style, DftStyle};
use flh::netlist::{generate_circuit, GeneratorConfig};

fn circuit() -> flh::netlist::Netlist {
    generate_circuit(&GeneratorConfig {
        name: "cov_inv".into(),
        primary_inputs: 6,
        primary_outputs: 5,
        flip_flops: 9,
        gates: 80,
        logic_depth: 7,
        avg_ff_fanout: 2.3,
        unique_flg_ratio: 1.8,
        hot_ff_fanout: None,
        seed: 321,
    })
    .expect("generates")
}

#[test]
fn atpg_results_are_identical_on_base_and_flh_netlists() {
    let base = circuit();
    let flh = apply_style(&base, DftStyle::Flh).expect("flh");
    let run = |n: &flh::netlist::Netlist| {
        let view = TestView::new(n).expect("view");
        let faults = enumerate_transition_faults(n);
        let r = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 7);
        (r.coverage_pct(), r.patterns.len(), r.untestable)
    };
    // The FLH netlist is structurally the scan-converted base netlist:
    // coverage, pattern count and untestables must all match exactly.
    let scan_base = apply_style(&base, DftStyle::PlainScan).expect("scan");
    assert_eq!(run(&scan_base.netlist), run(&flh.netlist));
}

#[test]
fn patterns_generated_on_base_detect_the_same_faults_on_enhanced_scan() {
    let base = circuit();
    let scan_base = apply_style(&base, DftStyle::PlainScan).expect("scan");
    let es = apply_style(&base, DftStyle::EnhancedScan).expect("es");

    let view_base = TestView::new(&scan_base.netlist).expect("view");
    let faults_base = enumerate_transition_faults(&scan_base.netlist);
    let result = transition_atpg(&view_base, &faults_base, &PodemConfig::paper_default(), 7);

    // Replay the same patterns on the enhanced-scan netlist against the
    // corresponding fault sites (same names; hold cells add new sites that
    // are not part of the original universe).
    let view_es = TestView::new(&es.netlist).expect("view");
    let faults_es: Vec<_> = faults_base
        .iter()
        .map(|f| {
            let name = scan_base.netlist.cell(f.site).name();
            let site = es.netlist.find(name).expect("cell survives");
            flh::atpg::TransitionFault { site, ..*f }
        })
        .collect();
    let detected_es = simulate_transition_patterns(&view_es, &faults_es, &result.patterns);
    let es_count = detected_es.iter().filter(|&&d| d).count();
    assert_eq!(
        es_count,
        result.detected_count(),
        "coverage changed across DFT styles for the same test set"
    );
}

#[test]
fn stuck_at_universe_is_stable_under_flh() {
    let base = circuit();
    let scan_base = apply_style(&base, DftStyle::PlainScan).expect("scan");
    let flh = apply_style(&base, DftStyle::Flh).expect("flh");
    let a = enumerate_stuck_faults(&scan_base.netlist);
    let b = enumerate_stuck_faults(&flh.netlist);
    assert_eq!(a.len(), b.len());
    let ca = collapse_faults(&scan_base.netlist, &a);
    let cb = collapse_faults(&flh.netlist, &b);
    assert_eq!(ca.len(), cb.len());
}

/// A fault PODEM gave up on but a later pair detected is detected, not
/// untestable: detected and untestable are disjoint, so efficiency never
/// exceeds 100 %. Same circuits, DFT style and seed as `flh atpg`.
#[test]
fn atpg_never_counts_a_detected_fault_as_untestable() {
    for name in ["s344", "s838"] {
        let profile = flh::netlist::iscas89_profile(name).expect("builtin profile");
        let base = generate_circuit(&profile.generator_config()).expect("generates");
        let dft = apply_style(&base, DftStyle::Flh).expect("flh");
        let view = TestView::new(&dft.netlist).expect("view");
        let faults = enumerate_transition_faults(&dft.netlist);
        let r = transition_atpg(&view, &faults, &PodemConfig::paper_default(), 0xf1);
        assert!(
            r.detected_count() + r.untestable <= faults.len(),
            "{name}: {} detected + {} untestable > {} faults",
            r.detected_count(),
            r.untestable,
            faults.len()
        );
        assert!(
            r.efficiency_pct() <= 100.0,
            "{name}: {}",
            r.efficiency_pct()
        );
    }
}
