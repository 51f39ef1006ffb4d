//! Built-in self-test walkthrough (paper Section IV): a test-per-scan BIST
//! session with FLH holding, first on a single chain, then as a STUMPS
//! configuration with four parallel chains — same silence in the
//! combinational block, a quarter of the shift time.
//!
//! Run with `cargo run --release --example bist_selftest`.

use flh::atpg::{enumerate_stuck_faults, stuck_coverage, TestView};
use flh::bist::controller::run_test_per_scan;
use flh::bist::{run_stumps, signature_detects_fault, BistConfig};
use flh::core::{apply_style, DftStyle};
use flh::exec::ThreadPool;
use flh::netlist::{generate_circuit, iscas89_profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = iscas89_profile("s838").ok_or("profile")?;
    let circuit = generate_circuit(&profile.generator_config())?;
    let flh = apply_style(&circuit, DftStyle::Flh)?;
    let mechanism = flh.hold_mechanism();
    let config = BistConfig::with_patterns(200);
    println!("circuit: {}", flh.netlist);

    // Single-chain session.
    let single = run_test_per_scan(&flh, &mechanism, &config)?;
    println!(
        "single chain : signature {:#010x}, comb toggles during shift = {}",
        single.signature, single.comb_toggles_during_shift
    );

    // STUMPS with 4 parallel chains.
    let stumps = run_stumps(&flh, &mechanism, 4, &config)?;
    println!(
        "STUMPS x4    : signature {:#010x}, shift cycles = {} (vs {} single-chain), comb toggles = {}",
        stumps.signature,
        stumps.shift_cycles,
        (config.patterns + 1) * flh.netlist.flip_flops().len(),
        stumps.comb_toggles_during_shift
    );
    assert_eq!(single.comb_toggles_during_shift, 0);
    assert_eq!(stumps.comb_toggles_during_shift, 0);

    // What does the pseudo-random set actually catch?
    let view = TestView::new(&flh.netlist)?;
    let faults = enumerate_stuck_faults(&flh.netlist);
    let detected_flags = stuck_coverage(&view, &faults, &single.applied, &ThreadPool::serial());
    let detected = detected_flags.iter().filter(|&&d| d).count();
    println!(
        "pseudo-random stuck-at coverage: {}/{} ({:.1}%)",
        detected,
        faults.len(),
        100.0 * detected as f64 / faults.len() as f64
    );

    // Break the die with a fault the pattern set covers: the signature
    // flags it.
    let culprit = faults
        .iter()
        .zip(&detected_flags)
        .filter(|(_, &d)| d)
        .map(|(f, _)| *f)
        .nth(detected / 2)
        .ok_or("no detected fault")?;
    let caught = signature_detects_fault(&flh, &mechanism, &config, &culprit)?;
    println!(
        "injected {:?} at {} -> signature {}",
        culprit.stuck,
        flh.netlist.cell(culprit.driver(&flh.netlist)).name(),
        if caught {
            "MISCOMPARES (defect caught)"
        } else {
            "matches (escaped)"
        }
    );
    assert!(caught);
    Ok(())
}
