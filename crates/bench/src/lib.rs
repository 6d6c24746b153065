//! # om-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). Every binary prints its rows to stdout *and* appends them as
//! CSV under `target/experiments/` so EXPERIMENTS.md can quote them.
//!
//! Shared plumbing lives here: experiment output files, the bearing
//! workload builders, simulated speedup computation, and the timing
//! helpers (`median`, `time_batch`) the layer benches share.

use om_codegen::comm::MessagePolicy;
use om_codegen::{lpt, CodeGenerator, GenOptions, TaskGraph};
use om_models::bearing2d::{self, BearingConfig};
use om_runtime::sim::{simulate_rhs_time, simulate_serial_time, SimBreakdown};
use om_runtime::MachineSpec;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Directory where experiment CSVs land.
pub fn experiments_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
            .join("experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Write `rows` (already comma-joined) to `target/experiments/<name>.csv`
/// with a header line.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = write_csv_quiet(name, header, rows);
    println!("[csv written to {}]", path.display());
}

/// [`write_csv`] without the stdout notice — for binaries whose stdout
/// is machine-readable (`--json`). Returns the path written.
pub fn write_csv_quiet(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    path
}

/// Every built-in model as `(name, verified internal form)` — the sweep
/// set for cross-model experiments like E12b.
pub fn builtin_models() -> Vec<(&'static str, om_ir::OdeIr)> {
    let sources = [
        ("oscillator", om_models::oscillator::source()),
        ("servo", om_models::servo::source()),
        ("hydro", om_models::hydro::source()),
        (
            "heat1d",
            om_models::heat1d::source(&om_models::heat1d::HeatConfig::default()),
        ),
        ("bearing2d", bearing2d::source(&BearingConfig::default())),
        (
            "bearing3d",
            om_models::bearing3d::source(&om_models::bearing3d::Bearing3dConfig::default()),
        ),
    ];
    sources
        .into_iter()
        .map(|(name, src)| {
            (
                name,
                om_models::compile_to_ir(&src).unwrap_or_else(|e| panic!("{name}: {e}")),
            )
        })
        .collect()
}

/// The bearing task graph used by the performance experiments.
pub fn bearing_graph(cfg: &BearingConfig, merge_threshold: u64) -> TaskGraph {
    bearing_graph_opts(
        cfg,
        GenOptions {
            merge_threshold,
            ..GenOptions::default()
        },
    )
}

/// Bearing task graph with full generator options.
pub fn bearing_graph_opts(cfg: &BearingConfig, options: GenOptions) -> TaskGraph {
    let ir = bearing2d::ir(cfg);
    CodeGenerator::new(options).generate(&ir).graph
}

/// Simulated RHS timing at `workers` workers with an LPT schedule.
pub fn simulate(graph: &TaskGraph, workers: usize, machine: &MachineSpec) -> SimBreakdown {
    let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
    let sched = lpt(&costs, workers);
    simulate_rhs_time(
        graph,
        &sched.assignment,
        workers,
        machine,
        MessagePolicy::WholeState,
    )
}

/// Simulated speedup over the one-processor serial execution.
pub fn speedup(graph: &TaskGraph, workers: usize, machine: &MachineSpec) -> f64 {
    simulate_serial_time(graph, machine) / simulate(graph, workers, machine).total
}

/// Median of `xs` (mean of the middle pair for even lengths); NaN for an
/// empty input.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Time `calls` evaluations of `eval(t)` at `t = t0 + 1e-6·k`; returns
/// nanoseconds per call.
pub fn time_batch(mut eval: impl FnMut(f64), t0: f64, calls: usize) -> f64 {
    let start = Instant::now();
    for k in 0..calls {
        eval(t0 + 1e-6 * k as f64);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Pretty horizontal rule for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// One checked gate: a named measurement against a named bound.
struct GateRow {
    name: String,
    measured: String,
    required: String,
    pass: bool,
}

/// Named-column gate reporting for the bench binaries.
///
/// Each experiment registers its regression gates with
/// [`GateDiff::check`]; [`GateDiff::finish`] prints a
/// gate/measured/required/verdict table to stderr and exits nonzero if
/// any gate failed. CI logs then show *which* bound broke and by how
/// much, instead of a bare `exit 1`.
pub struct GateDiff {
    experiment: &'static str,
    rows: Vec<GateRow>,
}

impl GateDiff {
    pub fn new(experiment: &'static str) -> GateDiff {
        GateDiff {
            experiment,
            rows: Vec::new(),
        }
    }

    /// Record one gate. `measured` and `required` are display strings
    /// (e.g. `"3.2x"` vs `">= 5x"`); `pass` is the verdict. Returns
    /// `pass` so call sites can branch without re-deriving it.
    pub fn check(
        &mut self,
        name: &str,
        measured: impl std::fmt::Display,
        required: impl std::fmt::Display,
        pass: bool,
    ) -> bool {
        self.rows.push(GateRow {
            name: name.to_owned(),
            measured: measured.to_string(),
            required: required.to_string(),
            pass,
        });
        pass
    }

    /// Any gate failed so far?
    pub fn failed(&self) -> bool {
        self.rows.iter().any(|r| !r.pass)
    }

    /// Print the named-column gate table to stderr; exit 1 if any gate
    /// failed.
    pub fn finish(self) {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(["gate".len()])
            .max()
            .unwrap_or(4);
        let meas_w = self
            .rows
            .iter()
            .map(|r| r.measured.len())
            .chain(["measured".len()])
            .max()
            .unwrap_or(8);
        let req_w = self
            .rows
            .iter()
            .map(|r| r.required.len())
            .chain(["required".len()])
            .max()
            .unwrap_or(8);
        eprintln!(
            "[{}] {:<name_w$}  {:>meas_w$}  {:>req_w$}  verdict",
            self.experiment, "gate", "measured", "required"
        );
        for r in &self.rows {
            eprintln!(
                "[{}] {:<name_w$}  {:>meas_w$}  {:>req_w$}  {}",
                self.experiment,
                r.name,
                r.measured,
                r.required,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
        if self.failed() {
            let n = self.rows.iter().filter(|r| !r.pass).count();
            eprintln!("[{}] {n} gate(s) failed", self.experiment);
            std::process::exit(1);
        }
    }
}

/// Build a [`om_solver::CoSimulation`] from an internal form and a
/// grouping of its *state indices* into subsystems.
///
/// Each subsystem evaluates the full-model RHS with its own states taken
/// from the subsystem state vector and every other state supplied as a
/// (zero-order-hold) input — conservative but always correct coupling,
/// ordered as given (upstream groups first for Gauss–Seidel freshness).
pub fn cosim_from_ir(ir: &om_ir::OdeIr, groups: &[Vec<usize>]) -> om_solver::CoSimulation {
    let dim = ir.dim();
    let y0_full = ir.initial_state();
    let mut subsystems = Vec::with_capacity(groups.len());
    let mut couplings = Vec::new();
    for (g, states) in groups.iter().enumerate() {
        let others: Vec<usize> = (0..dim).filter(|i| !states.contains(i)).collect();
        // Couplings: input j of subsystem g = state `others[j]`, found in
        // whichever subsystem owns it.
        for (j, &other) in others.iter().enumerate() {
            let (src_sub, src_state) = groups
                .iter()
                .enumerate()
                .find_map(|(sg, sts)| sts.iter().position(|&s| s == other).map(|p| (sg, p)))
                .expect("every state is in some group");
            couplings.push(om_solver::Coupling {
                dst_sub: g,
                dst_input: j,
                src_sub,
                src_state,
            });
        }
        let evaluator = om_ir::IrEvaluator::new(ir).expect("verified IR");
        let own: Vec<usize> = states.clone();
        let template = y0_full.clone();
        let rhs = move |t: f64, y: &[f64], u: &[f64], d: &mut [f64]| {
            let mut full_y = template.clone();
            for (slot, &i) in own.iter().enumerate() {
                full_y[i] = y[slot];
            }
            for (slot, &i) in others.iter().enumerate() {
                full_y[i] = u[slot];
            }
            let mut full_d = vec![0.0; dim];
            evaluator.rhs(t, &full_y, &mut full_d);
            for (slot, &i) in own.iter().enumerate() {
                d[slot] = full_d[i];
            }
        };
        subsystems.push(om_solver::SubsystemSpec {
            name: format!("group{g}"),
            dim: states.len(),
            n_inputs: dim - states.len(),
            rhs: Box::new(rhs),
            y0: states.iter().map(|&i| y0_full[i]).collect(),
        });
    }
    om_solver::CoSimulation {
        subsystems,
        couplings,
    }
}

/// Group the states of `ir` by the SCC partition of its dependency
/// graph, ordered upstream-first (pipeline level order). State-free
/// subsystems (pure algebraic SCCs) are skipped.
pub fn state_groups_from_partition(ir: &om_ir::OdeIr) -> Vec<Vec<usize>> {
    let dep = om_analysis::build_dependency_graph(ir);
    let part = om_analysis::partition_by_scc(&dep);
    let index = ir.state_index();
    let mut order: Vec<&om_analysis::Subsystem> = part.subsystems.iter().collect();
    order.sort_by_key(|s| s.level);
    order
        .iter()
        .filter(|s| !s.states.is_empty())
        .map(|s| s.states.iter().map(|sym| index[sym]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_inputs() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(Vec::new()).is_nan());
    }

    #[test]
    fn bearing_graph_builds_and_simulates() {
        let g = bearing_graph(&BearingConfig::default(), 32);
        assert!(!g.tasks.is_empty());
        let m = MachineSpec::sparc_center_2000();
        let s = speedup(&g, 4, &m);
        assert!(s > 1.0, "speedup {s}");
    }

    #[test]
    fn gate_diff_tracks_named_verdicts() {
        let mut gates = GateDiff::new("selftest");
        assert!(gates.check("speedup", "6.2x", ">= 5x", true));
        assert!(!gates.failed());
        assert!(!gates.check("parity", "3.1x", "<= 2.5x", false));
        assert!(gates.failed());
        // finish() would exit(1) here, so only the bookkeeping is
        // asserted; the exit path is covered by the CI gate jobs.
    }

    #[test]
    fn csv_files_are_written() {
        write_csv("selftest", "a,b", &["1,2".to_owned(), "3,4".to_owned()]);
        let content = std::fs::read_to_string(experiments_dir().join("selftest.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }
}
