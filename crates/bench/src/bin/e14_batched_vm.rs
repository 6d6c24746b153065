//! **Experiment E14** — batched SoA VM: measured ns *per scenario* per
//! RHS call for every built-in model × lane width K, against the scalar
//! `eval_serial` baseline.
//!
//! The batched interpreter (`TaskGraph::eval_batch`) walks the bytecode
//! once per batch and executes each instruction as a tight loop over K
//! lanes, so instruction dispatch, operand decoding, and task-graph
//! bookkeeping are amortized K ways and the per-lane inner loops are
//! contiguous stride-1 candidates for auto-vectorization. The claim this
//! experiment pins down (and CI gates on): per-scenario cost drops as K
//! grows, and at K=8 it is strictly below the K=1 scalar baseline on
//! every model — while PR 7's differential suites prove the results stay
//! bitwise identical to scalar execution.
//!
//! Measurement protocol mirrors E12b: per model, warm up, calibrate the
//! batch size to a target duration, then time interleaved rounds
//! (scalar round, then each K in turn, repeat) and take the median, so
//! host drift hits every lane width symmetrically.
//!
//! Flags:
//! * `--quick` — fewer rounds / shorter batches (the CI smoke setting),
//! * `--json`  — machine-readable JSON on stdout (the human table moves
//!   to stderr; CI redirects stdout to `BENCH_7.json`),
//! * `--widths a,b,c` — override the default 1,2,4,8,16 lane sweep.

use om_bench::{median, time_batch};
use om_codegen::task::BatchScratch;
use om_codegen::{CodeGenerator, GenOptions};
use std::fmt::Write as _;

struct Cell {
    lanes: usize,
    /// ns per scenario per RHS call (batch call time / lanes).
    ns_per_scenario: f64,
}

struct ModelRow {
    name: &'static str,
    dim: usize,
    tasks: usize,
    /// Scalar `eval_serial` baseline (the K=1 oracle path), ns per call.
    serial_ns: f64,
    cells: Vec<Cell>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let widths: Vec<usize> = args
        .iter()
        .position(|a| a == "--widths")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|w| w.parse().expect("--widths takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
    let (rounds, target_batch_ns) = if quick {
        (7usize, 2_000_000.0)
    } else {
        (15usize, 10_000_000.0)
    };

    let mut rows: Vec<ModelRow> = Vec::new();
    for (name, ir) in om_bench::builtin_models() {
        let program = CodeGenerator::new(GenOptions::default()).generate(&ir);
        let graph = program.graph.clone();
        let dim = graph.dim;
        let y0 = ir.initial_state();

        // Scalar baseline.
        let serial_ns = {
            let mut dydt = vec![0.0; dim];
            let warm = time_batch(|t| graph.eval_serial(t, &y0, &mut dydt), 0.0, 30);
            let calls = ((target_batch_ns / warm) as usize).clamp(50, 20_000);
            let mut rs = Vec::with_capacity(rounds);
            for r in 0..rounds {
                rs.push(time_batch(
                    |t| graph.eval_serial(t, &y0, &mut dydt),
                    0.01 * r as f64,
                    calls,
                ));
            }
            median(rs)
        };

        // Batched: per lane width, an SoA pack of slightly perturbed
        // initial states (distinct lanes, same instruction stream).
        let mut cells = Vec::new();
        for &lanes in &widths {
            let mut ys = vec![0.0; dim * lanes];
            for l in 0..lanes {
                for i in 0..dim {
                    ys[i * lanes + l] = y0[i] + 0.001 * l as f64;
                }
            }
            let mut dydts = vec![0.0; dim * lanes];
            let mut scratch = BatchScratch::new(&graph, lanes);
            let warm = time_batch(
                |t| graph.eval_batch(t, &ys, &mut dydts, &mut scratch),
                0.0,
                30,
            );
            let calls = ((target_batch_ns / warm) as usize).clamp(50, 20_000);
            let mut rs = Vec::with_capacity(rounds);
            for r in 0..rounds {
                rs.push(time_batch(
                    |t| graph.eval_batch(t, &ys, &mut dydts, &mut scratch),
                    0.01 * r as f64,
                    calls,
                ));
            }
            cells.push(Cell {
                lanes,
                ns_per_scenario: median(rs) / lanes as f64,
            });
        }
        rows.push(ModelRow {
            name,
            dim,
            tasks: graph.tasks.len(),
            serial_ns,
            cells,
        });
    }

    // Human-readable table (stderr in --json mode so stdout stays pure).
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E14: batched SoA VM (measured ns per scenario per RHS call, \
         median of {rounds} rounds{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:<12} {:>4} {:>5} {:>12} {:>4}  {:>14} {:>10}",
        "model", "dim", "tasks", "serial(K=1)", "K", "ns/scenario", "vs serial"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        for c in &row.cells {
            let _ = writeln!(
                table,
                "{:<12} {:>4} {:>5} {:>12.0} {:>4}  {:>14.1} {:>9.2}x",
                row.name,
                row.dim,
                row.tasks,
                row.serial_ns,
                c.lanes,
                c.ns_per_scenario,
                row.serial_ns / c.ns_per_scenario,
            );
            csv_rows.push(format!(
                "{},{},{},{:.1},{},{:.1},{:.4}",
                row.name,
                row.dim,
                row.tasks,
                row.serial_ns,
                c.lanes,
                c.ns_per_scenario,
                row.serial_ns / c.ns_per_scenario,
            ));
        }
    }
    if json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e14_batched_vm",
        "model,dim,tasks,serial_ns_per_call,lanes,ns_per_scenario_per_call,speedup_vs_serial",
        &csv_rows,
    );

    if json {
        // Hand-rolled JSON (the workspace carries no serde): the CI
        // bench-smoke job redirects this to BENCH_7.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E14\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"unit\": \"ns_per_scenario_per_rhs_call\",");
        let _ = writeln!(out, "  \"baseline\": \"serial_eval_k1\",");
        let _ = writeln!(out, "  \"models\": [");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"model\": \"{}\",", row.name);
            let _ = writeln!(out, "      \"dim\": {},", row.dim);
            let _ = writeln!(out, "      \"tasks\": {},", row.tasks);
            let _ = writeln!(out, "      \"serial_ns_per_call\": {:.1},", row.serial_ns);
            let _ = writeln!(out, "      \"results\": [");
            for (j, c) in row.cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"lanes\": {}, \"ns_per_scenario_per_call\": {:.1}, \
                     \"speedup_vs_serial\": {:.4}}}{}",
                    c.lanes,
                    c.ns_per_scenario,
                    row.serial_ns / c.ns_per_scenario,
                    if j + 1 < row.cells.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        print!("{out}");
    }

    // Gate: at K=8 the per-scenario cost must be strictly below the
    // scalar K=1 baseline on every model, or batching is not paying for
    // itself — the named-column diff says which model broke the bound.
    let mut gates = om_bench::GateDiff::new("e14");
    for row in &rows {
        if let Some(c) = row.cells.iter().find(|c| c.lanes == 8) {
            let speedup = row.serial_ns / c.ns_per_scenario;
            gates.check(
                &format!("{} K=8 vs K=1", row.name),
                format!("{:.1} ns/scn ({speedup:.2}x)", c.ns_per_scenario),
                format!("< {:.1} ns/scn", row.serial_ns),
                c.ns_per_scenario < row.serial_ns,
            );
        }
    }
    gates.finish();
}
