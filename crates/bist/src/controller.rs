//! Cycle-accurate test-per-scan BIST sessions.

use flh_atpg::{inject_fault, Fault};
use flh_core::DftNetlist;
use flh_netlist::{CellId, Netlist};
use flh_sim::{HoldMechanism, Logic, LogicSim, ScanChain, ScanController};

use crate::lfsr::Lfsr;
use crate::misr::Misr;

/// BIST session parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BistConfig {
    /// Number of pseudo-random patterns to apply.
    pub patterns: usize,
    /// LFSR width (2–32).
    pub lfsr_width: u32,
    /// LFSR seed.
    pub lfsr_seed: u64,
    /// MISR width (2–32).
    pub misr_width: u32,
}

impl BistConfig {
    /// A useful default: 24-bit generator, 32-bit signature.
    pub fn with_patterns(patterns: usize) -> Self {
        BistConfig {
            patterns,
            lfsr_width: 24,
            lfsr_seed: 0x00c0_ffee,
            misr_width: 32,
        }
    }
}

/// Result of a BIST session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BistOutcome {
    /// Final MISR signature.
    pub signature: u64,
    /// Patterns applied.
    pub patterns_applied: usize,
    /// Combinational toggles observed during all shift phases — zero when
    /// a holding mechanism isolates the logic, large for plain scan.
    pub comb_toggles_during_shift: u64,
    /// The applied test patterns (primary inputs then chain state, i.e.
    /// `flh_atpg::TestView` assignable order), for offline coverage
    /// analysis of the pseudo-random set.
    pub applied: Vec<Vec<bool>>,
}

fn comb_toggles(sim: &LogicSim<'_>, netlist: &Netlist) -> u64 {
    netlist
        .iter()
        .filter(|(_, c)| c.kind().is_combinational() || c.kind().is_hold_element())
        .map(|(id, _)| sim.activity().toggles(id))
        .sum()
}

/// Runs a test-per-scan BIST session on a DFT netlist with its holding
/// mechanism engaged during every shift phase.
///
/// Per pattern: the LFSR fills the scan chain (previous responses stream
/// out into the MISR), the LFSR drives the primary inputs, the holding
/// releases, the response is observed at the primary outputs (absorbed into
/// the MISR) and captured into the flip-flops, and holding re-engages. A
/// final unload compacts the last response.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
///
/// # Panics
///
/// Panics if the circuit produces unknown (`X`) observation values, which
/// cannot happen once the chain and inputs carry known values.
pub fn run_test_per_scan(
    dft: &DftNetlist,
    mechanism: &HoldMechanism,
    config: &BistConfig,
) -> flh_netlist::Result<BistOutcome> {
    run_on_netlist(&dft.netlist, mechanism, config)
}

/// Same as [`run_test_per_scan`], on a raw netlist (used for faulty copies
/// where the structural fault has been baked in).
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn run_on_netlist(
    netlist: &Netlist,
    mechanism: &HoldMechanism,
    config: &BistConfig,
) -> flh_netlist::Result<BistOutcome> {
    let mut sim = LogicSim::new(netlist)?;
    let controller = ScanController::new(ScanChain::from_netlist(netlist));
    let mut lfsr = Lfsr::new(config.lfsr_width, config.lfsr_seed);
    let mut misr = Misr::new(config.misr_width);

    let engage = |sim: &mut LogicSim<'_>| match mechanism {
        HoldMechanism::HoldCells => sim.set_hold(true),
        HoldMechanism::SupplyGating(_) => sim.set_sleep(true),
        HoldMechanism::None => {}
    };
    let release = |sim: &mut LogicSim<'_>| match mechanism {
        HoldMechanism::HoldCells => sim.set_hold(false),
        HoldMechanism::SupplyGating(_) => sim.set_sleep(false),
        HoldMechanism::None => {}
    };
    if let HoldMechanism::SupplyGating(cells) = mechanism {
        sim.set_gated_cells(cells);
    }

    let n_pi = netlist.inputs().len();
    let chain_len = controller.chain().len();
    let mut shift_toggles = 0u64;
    let mut applied = Vec::with_capacity(config.patterns);

    for _ in 0..config.patterns {
        // Shift phase: load the next pattern, stream the previous response
        // into the MISR.
        engage(&mut sim);
        let before = comb_toggles(&sim, netlist);
        let load: Vec<Logic> = lfsr
            .bits(chain_len)
            .into_iter()
            .map(Logic::from_bool)
            .collect();
        let unloaded = controller.shift_in(&mut sim, &load);
        shift_toggles += comb_toggles(&sim, netlist) - before;
        let unload_bits: Vec<bool> = unloaded
            .iter()
            .map(|v| v.to_bool().unwrap_or(false))
            .collect();
        misr.absorb(&unload_bits);

        // Apply phase: LFSR drives the primary inputs, holding releases.
        let pi_bits = lfsr.bits(n_pi);
        let pis: Vec<Logic> = pi_bits.iter().map(|&b| Logic::from_bool(b)).collect();
        sim.set_inputs(&pis);
        release(&mut sim);
        sim.settle();
        let po_bits: Vec<bool> = sim
            .outputs()
            .iter()
            .map(|v| v.to_bool().expect("known PO in BIST mode"))
            .collect();
        misr.absorb(&po_bits);

        // Record the applied (PI + state) pattern for coverage analysis.
        let mut pattern = pi_bits;
        pattern.extend(
            controller
                .read_state(&sim)
                .iter()
                .map(|v| v.to_bool().expect("known chain state")),
        );
        applied.push(pattern);

        // Capture the response.
        sim.clock_capture();
    }

    // Final unload.
    engage(&mut sim);
    let before = comb_toggles(&sim, netlist);
    let flush = vec![Logic::Zero; chain_len];
    let unloaded = controller.shift_in(&mut sim, &flush);
    shift_toggles += comb_toggles(&sim, netlist) - before;
    let unload_bits: Vec<bool> = unloaded
        .iter()
        .map(|v| v.to_bool().unwrap_or(false))
        .collect();
    misr.absorb(&unload_bits);

    Ok(BistOutcome {
        signature: misr.signature(),
        patterns_applied: config.patterns,
        comb_toggles_during_shift: shift_toggles,
        applied,
    })
}

/// Golden-vs-faulty signature comparison: injects `fault` structurally and
/// reruns the identical session.
///
/// Returns `true` when the signatures differ (fault detected). The gated
/// cell set of `dft` remains valid on the injected copy because injection
/// only appends a constant cell and rewires readers.
///
/// # Errors
///
/// Fails on combinationally cyclic netlists.
pub fn signature_detects_fault(
    dft: &DftNetlist,
    mechanism: &HoldMechanism,
    config: &BistConfig,
    fault: &Fault,
) -> flh_netlist::Result<bool> {
    let golden = run_test_per_scan(dft, mechanism, config)?;
    let faulty_netlist = inject_fault(&dft.netlist, fault);
    let faulty = run_on_netlist(&faulty_netlist, mechanism, config)?;
    Ok(golden.signature != faulty.signature)
}

/// Convenience: the gated-cell list of a DFT netlist as owned ids (used by
/// callers constructing a [`HoldMechanism::SupplyGating`]).
pub fn gated_cells(dft: &DftNetlist) -> Vec<CellId> {
    dft.gated.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flh_atpg::{enumerate_stuck_faults, stuck_coverage, TestView};
    use flh_core::{apply_style, DftStyle};
    use flh_exec::ThreadPool;
    use flh_netlist::{generate_circuit, GeneratorConfig};

    fn circuit() -> Netlist {
        generate_circuit(&GeneratorConfig {
            name: "bist".into(),
            primary_inputs: 6,
            primary_outputs: 5,
            flip_flops: 9,
            gates: 80,
            logic_depth: 7,
            avg_ff_fanout: 2.3,
            unique_flg_ratio: 1.8,
            hot_ff_fanout: None,
            seed: 808,
        })
        .expect("generates")
    }

    #[test]
    fn sessions_are_deterministic() {
        let n = circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let mech = flh.hold_mechanism();
        let cfg = BistConfig::with_patterns(50);
        let a = run_test_per_scan(&flh, &mech, &cfg).unwrap();
        let b = run_test_per_scan(&flh, &mech, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn signature_is_invariant_across_holding_styles() {
        // Holding only suppresses redundant switching; the captured
        // responses — and therefore the signature — must be identical.
        let n = circuit();
        let cfg = BistConfig::with_patterns(40);
        let plain = apply_style(&n, DftStyle::PlainScan).unwrap();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let es = apply_style(&n, DftStyle::EnhancedScan).unwrap();
        let sig_plain = run_test_per_scan(&plain, &plain.hold_mechanism(), &cfg).unwrap();
        let sig_flh = run_test_per_scan(&flh, &flh.hold_mechanism(), &cfg).unwrap();
        let sig_es = run_test_per_scan(&es, &es.hold_mechanism(), &cfg).unwrap();
        assert_eq!(sig_plain.signature, sig_flh.signature);
        assert_eq!(sig_plain.signature, sig_es.signature);
        // But the shift-phase switching differs dramatically.
        assert!(sig_plain.comb_toggles_during_shift > 0);
        assert_eq!(sig_flh.comb_toggles_during_shift, 0);
        assert_eq!(sig_es.comb_toggles_during_shift, 0);
    }

    #[test]
    fn signature_detects_what_pattern_level_simulation_detects() {
        let n = circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let mech = flh.hold_mechanism();
        let cfg = BistConfig::with_patterns(60);
        let outcome = run_test_per_scan(&flh, &mech, &cfg).unwrap();

        // Which stuck-at faults should this pseudo-random set catch?
        let view = TestView::new(&flh.netlist).unwrap();
        let faults = enumerate_stuck_faults(&flh.netlist);
        let expected = stuck_coverage(&view, &faults, &outcome.applied, &ThreadPool::serial());

        // Sample the fault list and compare against signatures (aliasing
        // probability ~2^-32 is negligible at this sample size).
        for (i, fault) in faults.iter().enumerate().step_by(9) {
            let by_signature = signature_detects_fault(&flh, &mech, &cfg, fault).unwrap();
            assert_eq!(
                by_signature, expected[i],
                "fault {fault:?}: signature says {by_signature}, simulation says {}",
                expected[i]
            );
        }
    }

    #[test]
    fn coverage_grows_with_pattern_count() {
        let n = circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        let mech = flh.hold_mechanism();
        let view = TestView::new(&flh.netlist).unwrap();
        let faults = enumerate_stuck_faults(&flh.netlist);
        let coverage = |patterns: usize| -> usize {
            let cfg = BistConfig::with_patterns(patterns);
            let outcome = run_test_per_scan(&flh, &mech, &cfg).unwrap();
            stuck_coverage(&view, &faults, &outcome.applied, &ThreadPool::serial())
                .iter()
                .filter(|&&d| d)
                .count()
        };
        let few = coverage(8);
        let many = coverage(120);
        assert!(many >= few);
        assert!(
            many as f64 > 0.6 * faults.len() as f64,
            "BIST coverage too low: {many}/{}",
            faults.len()
        );
    }

    #[test]
    fn gated_cells_helper() {
        let n = circuit();
        let flh = apply_style(&n, DftStyle::Flh).unwrap();
        assert_eq!(gated_cells(&flh), flh.gated);
    }
}
