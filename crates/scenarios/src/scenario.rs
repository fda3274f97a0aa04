//! The [`Scenario`] type and the [`ScenarioCatalog`] registry.

use crate::reference;
use matlib::rng::SplitMix64;
use matlib::{Matrix, Scalar, Vector};
use tinympc::{problems, AdmmSolver, SolverSettings, TinyMpcProblem};

/// A pluggable MPC workload: a plant constructor, a reference-trajectory
/// generator, a characteristic initial state, and closed-loop rollout
/// parameters. Scenarios are the workload axis of the design-space
/// exploration, mirroring how `Platform` is the hardware axis.
///
/// Construct the registered scenarios with the associated functions
/// ([`Scenario::hover`], [`Scenario::figure8`], …) or look them up by
/// name in a [`ScenarioCatalog`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: &'static str,
    title: String,
    kind: ScenarioKind,
    default_horizon: usize,
    rollout_steps: usize,
}

/// What plant/reference/initial-state family a scenario draws from.
/// Private on purpose: call sites select scenarios by name, never by
/// matching on the kind, so new scenarios don't ripple through them.
#[derive(Debug, Clone, PartialEq)]
enum ScenarioKind {
    Hover,
    Figure8,
    Slalom,
    Disturbance,
    Rendezvous,
    SoftLanding,
    DoubleIntegrator,
    RandomStable { nx: usize, nu: usize, seed: u64 },
}

/// Plant time step of the quadrotor scenarios (s).
const QUAD_DT: f64 = 0.01;
/// Rendezvous approach: initial radial offset (m) and steps to dock.
const APPROACH_START: f64 = 8.0;
const APPROACH_STEPS: usize = 60;
/// Soft landing: initial altitude (m), descent steps, plant dt (s).
const DESCENT_ALT: f64 = 50.0;
const DESCENT_STEPS: usize = 80;
const DESCENT_DT: f64 = 0.1;

impl Scenario {
    /// Quadrotor hover regulation — the compatibility default. Zero
    /// reference and a 0.2 m radial offset, bit-identical to the legacy
    /// hover-only solve path.
    pub fn hover() -> Self {
        Self {
            name: "hover",
            title: "Quadrotor hover regulation (12x4, compat default)".to_string(),
            kind: ScenarioKind::Hover,
            default_horizon: 10,
            rollout_steps: 40,
        }
    }

    /// Quadrotor figure-8 tracking: lemniscate position + analytic
    /// velocity references, started on-trajectory.
    pub fn figure8() -> Self {
        Self {
            name: "figure8",
            title: "Quadrotor figure-8 tracking (12x4, lemniscate)".to_string(),
            kind: ScenarioKind::Figure8,
            default_horizon: 10,
            rollout_steps: 100,
        }
    }

    /// Quadrotor waypoint slalom: square-wave setpoint switching that
    /// saturates the input box at every transition.
    pub fn slalom() -> Self {
        Self {
            name: "slalom",
            title: "Quadrotor waypoint slalom (12x4, saturating setpoints)".to_string(),
            kind: ScenarioKind::Slalom,
            default_horizon: 10,
            rollout_steps: 120,
        }
    }

    /// Quadrotor disturbance rejection: regulate to hover from a large
    /// combined position/velocity perturbation.
    pub fn disturbance() -> Self {
        Self {
            name: "disturbance",
            title: "Quadrotor disturbance rejection (12x4, gust recovery)".to_string(),
            kind: ScenarioKind::Disturbance,
            default_horizon: 10,
            rollout_steps: 60,
        }
    }

    /// Satellite rendezvous under Clohessy–Wiltshire dynamics with
    /// docking safety limits (the state box).
    pub fn rendezvous() -> Self {
        Self {
            name: "rendezvous",
            title: "Satellite rendezvous (6x3, Clohessy-Wiltshire docking)".to_string(),
            kind: ScenarioKind::Rendezvous,
            default_horizon: 10,
            rollout_steps: 80,
        }
    }

    /// Rocket soft-landing with a second-order thrust cone
    /// (Conic-TinyMPC): powered descent to touchdown.
    pub fn soft_landing() -> Self {
        Self {
            name: "soft-landing",
            title: "Rocket soft-landing (6x3, SOC thrust cone)".to_string(),
            kind: ScenarioKind::SoftLanding,
            default_horizon: 10,
            rollout_steps: 100,
        }
    }

    /// Double integrator regulation — the smallest catalog entry, used
    /// by smoke tests and CI gates.
    pub fn double_integrator() -> Self {
        Self {
            name: "double-integrator",
            title: "Double integrator regulation (2x1, smoke-test size)".to_string(),
            kind: ScenarioKind::DoubleIntegrator,
            default_horizon: 10,
            rollout_steps: 60,
        }
    }

    /// A member of the SplitMix64-seeded random stable plant family:
    /// a Gershgorin-stable contraction with random controllable input
    /// directions, deterministic in `(nx, nu, seed)`. Not in the
    /// standard catalog; used by property tests and fuzzing.
    pub fn random_stable_plant(nx: usize, nu: usize, seed: u64) -> Self {
        Self {
            name: "random",
            title: format!("Random stable plant ({nx}x{nu}, seed {seed})"),
            kind: ScenarioKind::RandomStable { nx, nu, seed },
            default_horizon: 10,
            rollout_steps: 40,
        }
    }

    /// CLI-facing name (also the lookup key in [`ScenarioCatalog`]).
    pub fn name(&self) -> &str {
        self.name
    }

    /// One-line human description for catalog listings.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Horizon used when the caller does not specify one.
    pub fn default_horizon(&self) -> usize {
        self.default_horizon
    }

    /// Closed-loop rollout length (plant steps) used by
    /// [`crate::evaluate_closed_loop`].
    pub fn rollout_steps(&self) -> usize {
        self.rollout_steps
    }

    /// State/input dimensions of the scenario's plant.
    pub fn dims(&self) -> (usize, usize) {
        match &self.kind {
            ScenarioKind::Hover
            | ScenarioKind::Figure8
            | ScenarioKind::Slalom
            | ScenarioKind::Disturbance => (12, 4),
            ScenarioKind::Rendezvous | ScenarioKind::SoftLanding => (6, 3),
            ScenarioKind::DoubleIntegrator => (2, 1),
            ScenarioKind::RandomStable { nx, nu, .. } => (*nx, *nu),
        }
    }

    /// Constructs the scenario's plant at the given horizon.
    ///
    /// # Errors
    ///
    /// Propagates [`tinympc::Error::BadProblem`] for a horizon below 2.
    pub fn problem<T: Scalar>(&self, horizon: usize) -> tinympc::Result<TinyMpcProblem<T>> {
        match &self.kind {
            ScenarioKind::Hover
            | ScenarioKind::Figure8
            | ScenarioKind::Slalom
            | ScenarioKind::Disturbance => problems::quadrotor_hover(horizon),
            ScenarioKind::Rendezvous => problems::satellite_rendezvous(horizon),
            ScenarioKind::SoftLanding => problems::rocket_soft_landing(horizon),
            ScenarioKind::DoubleIntegrator => problems::double_integrator(horizon),
            ScenarioKind::RandomStable { nx, nu, seed } => random_plant(*nx, *nu, horizon, *seed),
        }
    }

    /// The solver of this scenario's first MPC instance: its plant at
    /// `horizon`, with the reference window of rollout step 0 loaded.
    /// Solve it from [`Scenario::initial_state`].
    ///
    /// # Errors
    ///
    /// Propagates problem construction and solver setup failures.
    pub fn solver<T: Scalar>(
        &self,
        horizon: usize,
        settings: SolverSettings,
    ) -> tinympc::Result<AdmmSolver<T>> {
        let mut solver = AdmmSolver::new(self.problem(horizon)?, settings)?;
        solver.set_reference(&self.reference(horizon, 0))?;
        Ok(solver)
    }

    /// The reference window `[r(step), …, r(step + horizon − 1)]` for a
    /// receding-horizon controller at rollout step `step`.
    pub fn reference<T: Scalar>(&self, horizon: usize, step: usize) -> Vec<Vector<T>> {
        let (nx, _) = self.dims();
        match &self.kind {
            ScenarioKind::Hover | ScenarioKind::Disturbance => reference::hover(nx, horizon, step),
            ScenarioKind::Figure8 => reference::figure8(nx, horizon, step, QUAD_DT),
            ScenarioKind::Slalom => reference::slalom(nx, horizon, step, 0.5, 30),
            ScenarioKind::Rendezvous => {
                reference::approach(nx, horizon, step, APPROACH_START, APPROACH_STEPS)
            }
            ScenarioKind::SoftLanding => {
                reference::descent(nx, horizon, step, DESCENT_ALT, DESCENT_STEPS, DESCENT_DT)
            }
            ScenarioKind::DoubleIntegrator | ScenarioKind::RandomStable { .. } => {
                reference::hover(nx, horizon, step)
            }
        }
    }

    /// The characteristic initial state the scenario starts from.
    pub fn initial_state<T: Scalar>(&self) -> Vector<T> {
        let (nx, _) = self.dims();
        let mut x = Vector::zeros(nx);
        match &self.kind {
            ScenarioKind::Hover => x[0] = T::from_f64(0.2),
            ScenarioKind::Figure8 => {
                // Start exactly on the trajectory.
                return self.reference::<T>(1, 0).remove(0);
            }
            ScenarioKind::Slalom => {}
            ScenarioKind::Disturbance => {
                x[0] = T::from_f64(0.3); // blown 0.3 m off station…
                x[6] = T::from_f64(-0.5); // …while still moving backwards
            }
            ScenarioKind::Rendezvous => {
                x[0] = T::from_f64(APPROACH_START);
                x[1] = T::from_f64(1.0);
                x[2] = T::from_f64(-1.0);
            }
            ScenarioKind::SoftLanding => {
                x[2] = T::from_f64(DESCENT_ALT);
                x[5] = T::from_f64(-DESCENT_ALT / (DESCENT_STEPS as f64 * DESCENT_DT));
            }
            ScenarioKind::DoubleIntegrator => x[0] = T::from_f64(1.0),
            ScenarioKind::RandomStable { seed, .. } => {
                let mut rng = SplitMix64::new(seed ^ 0x5EED_1234);
                for i in 0..nx {
                    x[i] = T::from_f64(0.6 * (rng.unit_f64() - 0.5));
                }
            }
        }
        x
    }

    /// The state indices tracking error is measured over: the position
    /// coordinates the reference commands. Velocity/attitude transients
    /// are real controller behavior, not tracking failure, so they stay
    /// out of the error norm.
    pub fn tracked_states(&self) -> Vec<usize> {
        match &self.kind {
            ScenarioKind::Hover
            | ScenarioKind::Figure8
            | ScenarioKind::Slalom
            | ScenarioKind::Disturbance
            | ScenarioKind::Rendezvous
            | ScenarioKind::SoftLanding => vec![0, 1, 2],
            ScenarioKind::DoubleIntegrator => vec![0],
            ScenarioKind::RandomStable { nx, .. } => (0..*nx).collect(),
        }
    }

    /// Stable serialization for sweep cache keys: every field that
    /// affects the solve is spelled out, nothing else.
    pub fn cache_id(&self) -> String {
        match &self.kind {
            ScenarioKind::RandomStable { nx, nu, seed } => {
                format!("random(nx={nx},nu={nu},seed={seed})")
            }
            _ => self.name.to_string(),
        }
    }
}

/// SplitMix64-seeded random stable plant: strictly diagonally-dominant
/// contraction (Gershgorin-stable for every seed) with random input
/// directions — the scenarios-crate counterpart of
/// [`problems::random_stable`], reseeded through the shared PRNG.
fn random_plant<T: Scalar>(
    nx: usize,
    nu: usize,
    horizon: usize,
    seed: u64,
) -> tinympc::Result<TinyMpcProblem<T>> {
    let mut rng = SplitMix64::new(seed);
    let mut sym = move || rng.unit_f64() * 2.0 - 1.0;
    let off_scale = 0.08 / nx.max(1) as f64;
    let mut a = Matrix::<T>::zeros(nx, nx);
    for r in 0..nx {
        for c in 0..nx {
            let v = if r == c { 0.9 } else { off_scale * sym() };
            a[(r, c)] = T::from_f64(v);
        }
    }
    let b = Matrix::from_fn(nx, nu, |_, _| T::from_f64(0.5 * sym()));
    let problem = TinyMpcProblem {
        a,
        b,
        q_diag: Vector::from_fn(nx, |_| T::from_f64(1.0 + sym().abs())),
        r_diag: Vector::from_fn(nu, |_| T::from_f64(0.5 + sym().abs())),
        horizon,
        rho: T::ONE,
        u_min: T::from_f64(-5.0),
        u_max: T::from_f64(5.0),
        x_min: T::from_f64(-100.0),
        x_max: T::from_f64(100.0),
        input_cones: Vec::new(),
    };
    problem.validate()?;
    Ok(problem)
}

/// An ordered registry of scenarios, mirroring the back-end catalog:
/// registration rejects duplicate names, lookup is case-insensitive,
/// iteration order is registration order (so reports are stable).
#[derive(Debug, Default)]
pub struct ScenarioCatalog {
    scenarios: Vec<Scenario>,
}

impl ScenarioCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard catalog: every shipped scenario, hover first (it is
    /// the compatibility default the legacy hover-only paths map onto).
    pub fn standard() -> Self {
        let mut catalog = Self::new();
        for scenario in [
            Scenario::hover(),
            Scenario::figure8(),
            Scenario::slalom(),
            Scenario::disturbance(),
            Scenario::rendezvous(),
            Scenario::soft_landing(),
            Scenario::double_integrator(),
        ] {
            catalog
                .register(scenario)
                .expect("standard catalog has no duplicates");
        }
        catalog
    }

    /// Registers a scenario.
    ///
    /// # Errors
    ///
    /// Rejects a scenario whose name collides (case-insensitively) with
    /// an already-registered one.
    pub fn register(&mut self, scenario: Scenario) -> Result<(), String> {
        if self
            .scenarios
            .iter()
            .any(|s| s.name().eq_ignore_ascii_case(scenario.name()))
        {
            return Err(format!(
                "scenario name '{}' is already registered",
                scenario.name()
            ));
        }
        self.scenarios.push(scenario);
        Ok(())
    }

    /// All registered scenarios, in registration order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Consumes the catalog, returning the scenarios.
    pub fn into_scenarios(self) -> Vec<Scenario> {
        self.scenarios
    }

    /// Case-insensitive lookup by name.
    pub fn find(&self, name: &str) -> Option<&Scenario> {
        self.scenarios
            .iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_contents() {
        let catalog = ScenarioCatalog::standard();
        let names: Vec<&str> = catalog.scenarios().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "hover",
                "figure8",
                "slalom",
                "disturbance",
                "rendezvous",
                "soft-landing",
                "double-integrator"
            ]
        );
        assert_eq!(catalog.scenarios()[0].name(), "hover", "hover is default");
    }

    #[test]
    fn find_is_case_insensitive() {
        let catalog = ScenarioCatalog::standard();
        assert!(catalog.find("Figure8").is_some());
        assert!(catalog.find("SOFT-LANDING").is_some());
        assert!(catalog.find("warp-drive").is_none());
    }

    #[test]
    fn register_rejects_duplicates() {
        let mut catalog = ScenarioCatalog::standard();
        assert!(catalog.register(Scenario::hover()).is_err());
    }

    #[test]
    fn every_scenario_builds_a_valid_problem() {
        for scenario in ScenarioCatalog::standard().scenarios() {
            let p = scenario
                .problem::<f64>(scenario.default_horizon())
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
            assert_eq!((p.dims().nx, p.dims().nu), scenario.dims());
            let x0 = scenario.initial_state::<f64>();
            assert_eq!(x0.len(), p.dims().nx);
            let xref = scenario.reference::<f64>(p.horizon, 0);
            assert_eq!(xref.len(), p.horizon);
        }
    }

    #[test]
    fn hover_matches_the_legacy_solve_path() {
        // The compat contract: hover's problem, reference and initial
        // state must be exactly what the legacy hover-only path used —
        // quadrotor_hover, an all-zero (workspace-default) reference,
        // and hover_offset_state(0.2).
        let scenario = Scenario::hover();
        let p = scenario.problem::<f32>(10).unwrap();
        let legacy = problems::quadrotor_hover::<f32>(10).unwrap();
        assert_eq!(p.a, legacy.a);
        assert_eq!(p.b, legacy.b);
        assert_eq!(
            scenario.initial_state::<f32>(),
            legacy.hover_offset_state(0.2)
        );
        for r in scenario.reference::<f32>(10, 3) {
            assert!(r.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn soft_landing_is_the_soc_scenario() {
        let p = Scenario::soft_landing().problem::<f64>(10).unwrap();
        assert_eq!(p.input_cones.len(), 1);
    }

    #[test]
    fn random_family_is_deterministic_in_seed() {
        let a = Scenario::random_stable_plant(6, 2, 42);
        let b = Scenario::random_stable_plant(6, 2, 42);
        assert_eq!(
            a.problem::<f64>(10).unwrap().a,
            b.problem::<f64>(10).unwrap().a
        );
        assert_eq!(a.initial_state::<f64>(), b.initial_state::<f64>());
        let c = Scenario::random_stable_plant(6, 2, 43);
        assert!(
            a.problem::<f64>(10)
                .unwrap()
                .a
                .max_abs_diff(&c.problem::<f64>(10).unwrap().a)
                .unwrap()
                > 0.0
        );
        assert_eq!(a.cache_id(), "random(nx=6,nu=2,seed=42)");
    }

    #[test]
    fn cache_ids_are_unique_across_the_catalog() {
        let catalog = ScenarioCatalog::standard();
        let mut ids: Vec<String> = catalog.scenarios().iter().map(|s| s.cache_id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), catalog.scenarios().len());
    }
}
