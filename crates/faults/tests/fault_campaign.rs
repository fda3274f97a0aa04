//! End-to-end properties of the fault-injection and degradation stack.

use soc_backend::PipelineExecutor;
use soc_dse::experiments::Scenario;
use soc_dse::platform::Platform;
use soc_faults::{
    run_campaign, CampaignKind, DataInjector, DeadlineConfig, DeadlineSolver, DegradeRung,
    FaultKind, FaultPlan, FaultSite,
};
use tinympc::{problems, AdmmSolver, NullExecutor, SolverSettings};

fn quadrotor_solver() -> AdmmSolver<f32> {
    let p = problems::quadrotor_hover::<f32>(10).unwrap();
    AdmmSolver::new(p, SolverSettings::default()).unwrap()
}

/// Seeded property: every single-bit scratchpad (cached-matrix) upset is
/// either detected by some layer or its effect on the applied control is
/// bounded — never an unbounded silent corruption.
#[test]
fn scratchpad_faults_detected_or_bounded() {
    let proto = quadrotor_solver();
    let problem = proto.problem();
    let bound = f64::from(0.05 * (problem.u_max - problem.u_min));
    let plan = FaultPlan::generate(1234, 40, &[FaultSite::ScratchpadWord], 6);

    for fault in &plan.faults {
        let x0 = problem.hover_offset_state(0.25);
        let u_ref = {
            let mut reference = proto.clone();
            reference
                .solve_in_place(x0.as_slice(), &mut NullExecutor)
                .unwrap();
            matlib::Vector::from_slice(reference.u0())
        };
        let mut d = DeadlineSolver::new(proto.clone(), DeadlineConfig::new(u64::MAX));
        let o = d.solve_observed(&x0, &mut NullExecutor, &mut DataInjector::new(*fault));
        assert!(o.u0.is_finite(), "fault {fault}: non-finite control");
        let detected = o.retried || !d.cache_is_pristine();
        let deviation = f64::from(o.u0.max_abs_diff(&u_ref).unwrap());
        assert!(
            detected || deviation <= bound,
            "fault {fault} escaped: deviation {deviation:.4} > {bound:.4}"
        );
    }
}

/// Regression: as the budget shrinks the ladder fires strictly in order
/// (nominal → widened checks → early exit → LQR fallback) and never
/// upgrades.
#[test]
fn ladder_fires_in_order_under_shrinking_budget() {
    let proto = quadrotor_solver();
    let x0 = proto.problem().hover_offset_state(0.3);
    // Nominal cost on the scalar reference back-end.
    let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
    let nominal = proto
        .clone()
        .solve_in_place(x0.as_slice(), &mut e)
        .unwrap()
        .total_cycles;

    let budgets = [
        nominal * 4,
        nominal,
        nominal / 2,
        nominal / 8,
        nominal / 64,
        1,
    ];
    let mut rungs = Vec::new();
    for b in budgets {
        let mut d = DeadlineSolver::new(proto.clone(), DeadlineConfig::new(b));
        let mut e = PipelineExecutor::for_platform(&Platform::rocket_eigen());
        let o = d.solve(&x0, &mut e);
        assert!(o.u0.is_finite(), "budget {b}: non-finite control");
        assert!(
            o.total_cycles <= b || o.rung == DegradeRung::LqrFallback,
            "budget {b} overrun: {} cycles on rung {}",
            o.total_cycles,
            o.rung
        );
        rungs.push(o.rung);
    }
    for pair in rungs.windows(2) {
        assert!(pair[0] <= pair[1], "ladder went backwards: {:?}", rungs);
    }
    assert_eq!(*rungs.first().unwrap(), DegradeRung::Nominal);
    assert_eq!(*rungs.last().unwrap(), DegradeRung::LqrFallback);
}

/// The same seed must reproduce the same campaign report, byte for byte.
#[test]
fn campaign_reports_are_deterministic() {
    let a = run_campaign(7, CampaignKind::Smoke, &Scenario::hover()).unwrap();
    let b = run_campaign(7, CampaignKind::Smoke, &Scenario::hover()).unwrap();
    assert_eq!(a.render(), b.render());
    assert_eq!(a.backends.len(), 3, "three back-end families swept");
}

/// Under a below-nominal budget *and* active NaN injection the solver
/// still returns a finite, in-box control and records the rung.
#[test]
fn never_nan_under_tiny_budget_and_injection() {
    let proto = quadrotor_solver();
    let problem = proto.problem();
    let x0 = problem.hover_offset_state(0.35);
    let (u_min, u_max) = (problem.u_min, problem.u_max);
    let plan = FaultPlan::generate(99, 12, &[FaultSite::DmaWord], 3);
    let platform = Platform::table1_registry()
        .into_iter()
        .find(|p| p.name == "Rocket")
        .unwrap();

    // Nominal cycles so we can pick genuinely starved budgets.
    let nominal = proto
        .clone()
        .solve_in_place(
            x0.as_slice(),
            &mut PipelineExecutor::for_platform(&platform),
        )
        .unwrap()
        .total_cycles;

    for fault in &plan.faults {
        // Force the flip into the f32 exponent so NaN/Inf actually occur.
        let fault = soc_faults::Fault {
            kind: FaultKind::BitFlip { bit: 27 },
            ..*fault
        };
        for budget in [nominal / 10, nominal / 100, 1] {
            let mut d = DeadlineSolver::new(proto.clone(), DeadlineConfig::new(budget));
            let o = d.solve_observed(
                &x0,
                &mut PipelineExecutor::for_platform(&platform),
                &mut DataInjector::new(fault),
            );
            assert!(o.u0.is_finite(), "fault {fault}, budget {budget}: NaN u0");
            for i in 0..o.u0.len() {
                assert!(
                    o.u0[i] >= u_min && o.u0[i] <= u_max,
                    "fault {fault}, budget {budget}: u0[{i}] out of box"
                );
            }
        }
    }
}
