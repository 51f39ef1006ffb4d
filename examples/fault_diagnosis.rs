//! Fault diagnosis walkthrough: a "defective die" comes back from the
//! tester with failing responses; the diagnosis engine ranks candidate
//! stuck-at faults by how exactly they reproduce the observation — the
//! diagnosis capability the paper's introduction credits scan-based
//! structural testing with.
//!
//! Run with `cargo run --release --example fault_diagnosis`.

use flh::atpg::{
    diagnose, enumerate_stuck_faults, faulty_responses, stuck_coverage, Fault, TestView,
};
use flh::core::{apply_style, DftStyle};
use flh::exec::ThreadPool;
use flh::netlist::{generate_circuit, iscas89_profile};
use flh_rng::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = iscas89_profile("s526").ok_or("profile")?;
    let circuit = generate_circuit(&profile.generator_config())?;
    let scanned = apply_style(&circuit, DftStyle::Flh)?;
    let view = TestView::new(&scanned.netlist)?;
    println!("circuit: {}", scanned.netlist);

    // The tester applies 300 random scan patterns.
    let mut rng = Rng::seed_from_u64(0xd1a6);
    let patterns: Vec<Vec<bool>> = (0..300)
        .map(|_| (0..view.assignable().len()).map(|_| rng.gen()).collect())
        .collect();

    // Secretly break the die.
    let faults = enumerate_stuck_faults(&scanned.netlist);
    let detected = stuck_coverage(&view, &faults, &patterns, &ThreadPool::serial());
    let culprit: Fault = faults
        .iter()
        .zip(&detected)
        .filter(|(_, &d)| d)
        .nth(17)
        .map(|(f, _)| *f)
        .ok_or("no detectable fault")?;
    let observed = faulty_responses(&view, &culprit, &patterns);
    println!(
        "injected defect (hidden from the diagnoser): {:?} at {}",
        culprit.stuck,
        scanned
            .netlist
            .cell(culprit.driver(&scanned.netlist))
            .name()
    );

    // Diagnose from the observed responses alone.
    let ranking = diagnose(&view, &faults, &patterns, &observed);
    println!(
        "\ncandidates surviving the failure screen: {} of {}",
        ranking.len(),
        faults.len()
    );
    println!("\ntop candidates:");
    println!(
        "{:>4} {:>22} {:>10} {:>10} {:>8}",
        "#", "site", "matches", "explains", "perfect"
    );
    for (i, c) in ranking.iter().take(8).enumerate() {
        let site = scanned
            .netlist
            .cell(c.fault.driver(&scanned.netlist))
            .name();
        println!(
            "{:>4} {:>18}/{:?} {:>10} {:>10} {:>8}",
            i + 1,
            site,
            c.fault.stuck,
            c.matching_patterns,
            c.explained_failures,
            if c.is_perfect(patterns.len()) {
                "yes"
            } else {
                ""
            }
        );
    }

    let hit = ranking
        .iter()
        .take_while(|c| c.is_perfect(patterns.len()))
        .any(|c| c.fault == culprit);
    println!(
        "\nresult: the injected defect is {} the perfect-candidate set",
        if hit { "inside" } else { "OUTSIDE" }
    );
    assert!(hit);
    Ok(())
}
