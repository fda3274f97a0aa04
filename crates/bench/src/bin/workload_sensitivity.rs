//! The paper's thesis, tested directly: "the variation of hardware
//! architecture choices depends on workload characteristics". Price three
//! robots of very different state/input dimensions on every platform and
//! watch the best-performance-per-area design point move.

use soc_dse::platform::Platform;
use soc_dse::report::markdown_table;
use tinympc::{problems, AdmmSolver, SolverSettings, TinyMpcProblem};

fn best_per_area(rows: &[(String, f64, u64)]) -> String {
    rows.iter()
        .map(|(n, area, c)| (n, area * *c as f64))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(n, _)| n.clone())
        .unwrap_or_default()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Workload sensitivity: cycles/solve across robot sizes\n");
    let workloads: Vec<(&str, TinyMpcProblem<f32>)> = vec![
        ("cartpole 4x1", problems::cartpole::<f32>(10)?),
        ("quadrotor 12x4", problems::quadrotor_hover::<f32>(10)?),
        (
            "arm-scale 24x8 (synthetic)",
            problems::random_stable::<f32>(24, 8, 10, 11)?,
        ),
    ];

    let platforms = Platform::table1_registry();
    let mut header = vec!["configuration".to_string()];
    for (name, _) in &workloads {
        header.push(name.to_string());
    }

    let mut per_workload: Vec<Vec<(String, f64, u64)>> = vec![Vec::new(); workloads.len()];
    let mut rows = Vec::new();
    for p in &platforms {
        let mut row = vec![p.name.clone()];
        for (wi, (_, problem)) in workloads.iter().enumerate() {
            let mut solver = AdmmSolver::new(problem.clone(), SolverSettings::default())?;
            let x0 = solver.problem().hover_offset_state(0.2);
            let cycles = solver
                .solve_in_place(x0.as_slice(), p.executor().as_mut())?
                .total_cycles;
            row.push(cycles.to_string());
            per_workload[wi].push((p.name.clone(), p.area().total_mm2(), cycles));
        }
        rows.push(row);
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&header_refs, &rows));

    println!("Best performance-per-area design per workload:");
    for (wi, (name, _)) in workloads.iter().enumerate() {
        println!("  {name:<28} -> {}", best_per_area(&per_workload[wi]));
    }
    println!(
        "\nThe optimum shifts with operand size — small problems leave wide\nbackends idle (frontends dominate), larger state spaces reward the\nsystolic mesh and wide vectors: the paper's central conclusion."
    );
    Ok(())
}
