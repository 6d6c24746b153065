//! **Experiment E12b** — barrier vs work-stealing executor: measured
//! wall-clock per RHS call for every built-in model × worker count, on
//! real threads on the host.
//!
//! This is the perf gate that seeds the benchmark trajectory
//! (`BENCH_5.json`): the dependency-driven work-stealing executor
//! (`om_runtime::exec_ws`) must be no slower than the barrier executor
//! anywhere, and visibly faster on multi-level graphs where the barrier
//! idles workers between levels (hydro's parallel gate groups, the 3D
//! bearing). Graphs are generated with `inline_algebraics = false` so
//! algebraic producers stay as tasks — the multi-level shape the barrier
//! pays for.
//!
//! Measurement protocol (single-machine, noisy-neighbour tolerant): the
//! two pools are built over the same graph and LPT/list assignment, then
//! timed in *interleaved* batches (barrier batch, ws batch, repeat) and
//! summarised by the median per-call time across rounds, so drift hits
//! both executors symmetrically.
//!
//! Every model also gets a measured *serial* baseline (`eval_serial`,
//! no pool at all), recorded as `serial_ns_per_call` and used for the
//! `barrier_vs_serial` / `ws_vs_serial` columns. `ws_speedup` is ws
//! relative to *barrier* — at 1 worker it mostly measures barrier
//! synchronization overhead, not parallel speedup (an earlier
//! BENCH_5.json reported a 10x oscillator "speedup" at 1 worker that
//! was exactly this artifact), which is why both baselines are now
//! labeled explicitly.
//!
//! Flags:
//! * `--quick` — fewer rounds / shorter batches (the CI smoke setting),
//! * `--json`  — machine-readable JSON on stdout (the human table moves
//!   to stderr; CI redirects stdout to `BENCH_5.json`),
//! * `--workers a,b,c` — override the default 1,2,4 sweep.

use om_bench::{median, time_batch};
use om_codegen::{CodeGenerator, GenOptions};
use om_runtime::{Strategy, WorkStealPool, WorkerPool};
use std::fmt::Write as _;

struct Cell {
    workers: usize,
    barrier_ns: f64,
    ws_ns: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.barrier_ns / self.ws_ns
    }
}

struct ModelRow {
    name: &'static str,
    tasks: usize,
    levels: usize,
    /// Pool-free `eval_serial` baseline, ns per RHS call.
    serial_ns: f64,
    cells: Vec<Cell>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let workers_list: Vec<usize> = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|w| w.parse().expect("--workers takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    let (rounds, target_batch_ns) = if quick {
        (7usize, 4_000_000.0)
    } else {
        (15usize, 20_000_000.0)
    };

    let mut rows: Vec<ModelRow> = Vec::new();
    for (name, ir) in om_bench::builtin_models() {
        // Keep algebraic producers as tasks: the dependent, multi-level
        // graph shape is exactly where the barrier has something to lose.
        let program = CodeGenerator::new(GenOptions {
            inline_algebraics: false,
            ..GenOptions::default()
        })
        .generate(&ir);
        let graph = program.graph.clone();
        let y0 = ir.initial_state();
        // Serial baseline: the same bytecode without any pool.
        let serial_ns = {
            let mut dydt = vec![0.0; graph.dim];
            let warm = time_batch(|t| graph.eval_serial(t, &y0, &mut dydt), 0.0, 30);
            let batch = ((target_batch_ns / warm) as usize).clamp(20, 5000);
            let mut serial_rounds = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = 0.01 * r as f64;
                serial_rounds.push(time_batch(
                    |t| graph.eval_serial(t, &y0, &mut dydt),
                    t0,
                    batch,
                ));
            }
            median(serial_rounds)
        };
        let mut cells = Vec::new();
        for &w in &workers_list {
            let sched = program.schedule(w);
            let mut barrier = WorkerPool::new(graph.clone(), w, sched.assignment.clone());
            let mut ws = WorkStealPool::new(graph.clone(), w, sched.assignment.clone());
            let mut dydt = vec![0.0; graph.dim];
            // Warmup both pools and calibrate the batch size so one batch
            // lands near the target duration.
            let warm = time_batch(|t| barrier.rhs(t, &y0, &mut dydt), 0.0, 30).min(time_batch(
                |t| ws.rhs(t, &y0, &mut dydt),
                0.0,
                30,
            ));
            let batch = ((target_batch_ns / warm) as usize).clamp(20, 5000);
            let mut barrier_rounds = Vec::with_capacity(rounds);
            let mut ws_rounds = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = 0.01 * r as f64;
                barrier_rounds.push(time_batch(|t| barrier.rhs(t, &y0, &mut dydt), t0, batch));
                ws_rounds.push(time_batch(|t| ws.rhs(t, &y0, &mut dydt), t0, batch));
            }
            cells.push(Cell {
                workers: w,
                barrier_ns: median(barrier_rounds),
                ws_ns: median(ws_rounds),
            });
        }
        rows.push(ModelRow {
            name,
            tasks: graph.tasks.len(),
            levels: graph.levels().len(),
            serial_ns,
            cells,
        });
    }

    // Human-readable table (stderr in --json mode so stdout stays pure).
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E12b: barrier vs work-stealing executor (measured ns/call, median of {rounds} rounds{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:<12} {:>5} {:>6} {:>3}  {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "model",
        "tasks",
        "levels",
        "w",
        "serial",
        "barrier",
        "ws",
        "ws/barrier",
        "bar/serial",
        "ws/serial"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        for c in &row.cells {
            let _ = writeln!(
                table,
                "{:<12} {:>5} {:>6} {:>3}  {:>10.0} {:>12.0} {:>12.0} {:>9.2}x {:>9.2}x {:>9.2}x",
                row.name,
                row.tasks,
                row.levels,
                c.workers,
                row.serial_ns,
                c.barrier_ns,
                c.ws_ns,
                c.speedup(),
                row.serial_ns / c.barrier_ns,
                row.serial_ns / c.ws_ns,
            );
            csv_rows.push(format!(
                "{},{},{},{},{:.0},{:.0},{:.0},{:.4},{:.4},{:.4}",
                row.name,
                row.tasks,
                row.levels,
                c.workers,
                row.serial_ns,
                c.barrier_ns,
                c.ws_ns,
                c.speedup(),
                row.serial_ns / c.barrier_ns,
                row.serial_ns / c.ws_ns,
            ));
        }
    }
    if json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e12b_ws_sweep",
        "model,tasks,levels,workers,serial_ns_per_call,barrier_ns_per_call,ws_ns_per_call,\
         ws_speedup_vs_barrier,barrier_vs_serial,ws_vs_serial",
        &csv_rows,
    );

    if json {
        // Hand-rolled JSON (the workspace carries no serde): the CI
        // bench-smoke job redirects this to BENCH_5.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E12b\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"unit\": \"ns_per_rhs_call\",");
        let _ = writeln!(
            out,
            "  \"strategies\": [\"{}\", \"{}\"],",
            Strategy::Barrier,
            Strategy::WorkStealing
        );
        let _ = writeln!(out, "  \"baseline\": \"serial_eval\",");
        let _ = writeln!(
            out,
            "  \"note\": \"ws_speedup is ws vs barrier (at 1 worker it measures \
             barrier overhead, not parallelism); *_vs_serial columns use the \
             measured pool-free serial baseline\","
        );
        let _ = writeln!(out, "  \"models\": [");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"model\": \"{}\",", row.name);
            let _ = writeln!(out, "      \"tasks\": {},", row.tasks);
            let _ = writeln!(out, "      \"levels\": {},", row.levels);
            let _ = writeln!(out, "      \"serial_ns_per_call\": {:.0},", row.serial_ns);
            let _ = writeln!(out, "      \"results\": [");
            for (j, c) in row.cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"workers\": {}, \"barrier_ns_per_call\": {:.0}, \
                     \"ws_ns_per_call\": {:.0}, \"ws_speedup\": {:.4}, \
                     \"barrier_vs_serial\": {:.4}, \"ws_vs_serial\": {:.4}}}{}",
                    c.workers,
                    c.barrier_ns,
                    c.ws_ns,
                    c.speedup(),
                    row.serial_ns / c.barrier_ns,
                    row.serial_ns / c.ws_ns,
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

    // Gate summary: fail loudly (named-column diff + nonzero exit) if
    // work stealing ever regresses past the barrier beyond noise.
    let mut worst: Option<(&str, usize, f64)> = None;
    for row in &rows {
        for c in &row.cells {
            let s = c.speedup();
            if worst.map(|(_, _, ws)| s < ws).unwrap_or(true) {
                worst = Some((row.name, c.workers, s));
            }
        }
    }
    let mut gates = om_bench::GateDiff::new("e12b");
    if let Some((model, w, s)) = worst {
        gates.check(
            &format!("ws_vs_barrier ({model}, {w} workers, worst cell)"),
            format!("{s:.2}x"),
            ">= 0.95x",
            s >= 0.95,
        );
    }
    gates.finish();
}
