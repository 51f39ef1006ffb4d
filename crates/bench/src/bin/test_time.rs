//! Test-application-time comparison across the three styles — the cost
//! side of the coverage argument in the paper's introduction. Arbitrary
//! two-pattern application (enhanced scan / FLH) pays two scan loads per
//! test; broadside and skewed-load pay one. The question the tester
//! economics ask: *cycles to reach a coverage target*.
//!
//! Per circuit: the broadside random campaign's coverage ceiling (at a
//! large pair budget) is the target; each style then runs until it reaches
//! that target (or exhausts the budget), and the pair counts convert to
//! tester cycles through the scan-time model.

use flh_atpg::{
    cycles_per_pattern, pairs_to_reach_coverage, random_transition_campaign, ApplicationStyle,
};
use flh_bench::{build_circuit, rule};
use flh_exec::ThreadPool;
use flh_netlist::iscas89_profiles;

fn main() {
    const BUDGET: usize = 4096;
    const SEED: u64 = 0x7e57;

    println!("CYCLES TO REACH THE BROADSIDE COVERAGE CEILING ({BUDGET}-pair budget)");
    rule(118);
    println!(
        "{:>8} {:>6} | {:>9} | {:>16} {:>16} {:>16} | {:>14}",
        "Ckt", "FFs", "target %", "arbitrary", "broadside", "skewed-load", "arb speedup"
    );
    rule(118);

    for profile in iscas89_profiles().into_iter().filter(|p| p.gates <= 3000) {
        let circuit = build_circuit(&profile);
        let load = circuit.flip_flops().len();

        // Coverage ceiling of broadside at the full budget.
        let ceiling = random_transition_campaign(
            &circuit,
            ApplicationStyle::Broadside,
            BUDGET,
            SEED,
            &ThreadPool::serial(),
        )
        .expect("campaign");
        let target = ceiling.coverage_pct();

        let mut row: Vec<(ApplicationStyle, u64)> = Vec::new();
        for style in [
            ApplicationStyle::ArbitraryTwoPattern,
            ApplicationStyle::Broadside,
            ApplicationStyle::SkewedLoad,
        ] {
            let run =
                pairs_to_reach_coverage(&circuit, style, target, BUDGET, SEED).expect("campaign");
            let reached = run.coverage_pct() >= target;
            let cycles = run.pairs as u64 * cycles_per_pattern(style, load) as u64;
            row.push((style, if reached { cycles } else { u64::MAX }));
        }
        let fmt = |c: u64| {
            if c == u64::MAX {
                "not reached".to_string()
            } else {
                format!("{c}")
            }
        };
        let arb = row[0].1;
        let brd = row[1].1;
        let speedup = if arb != u64::MAX && brd != u64::MAX {
            format!("{:.2}x", brd as f64 / arb as f64)
        } else {
            "-".into()
        };
        println!(
            "{:>8} {:>6} | {:>9.1} | {:>16} {:>16} {:>16} | {:>14}",
            profile.name,
            load,
            target,
            fmt(row[0].1),
            fmt(row[1].1),
            fmt(row[2].1),
            speedup
        );
    }

    rule(118);
    println!();
    println!("arbitrary pairs pay 2 scan loads per test but need far fewer tests for the");
    println!("same coverage — and they reach coverage broadside never can. This is the");
    println!("test-economics case for enhanced-scan-style application, which FLH provides");
    println!("at a third of the hardware cost.");
}
