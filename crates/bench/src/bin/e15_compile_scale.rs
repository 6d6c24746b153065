//! **Experiment E15** — array-aware compile scaling: compile time and
//! task-DAG size versus model size N, array-aware versus the fully
//! scalarized oracle pipeline.
//!
//! Array-aware flattening keeps uniform `for`-equation groups as one
//! symbolic *array class*; causalization matches one representative per
//! class and code generation emits a bounded number of loop tasks (one
//! bytecode body, per-iteration slot patching). Compile cost then scales
//! with the number of array *classes*, not *elements*: the oracle
//! pipeline simplifies and compiles N right-hand sides where the aware
//! pipeline handles one representative plus O(N) cheap bookkeeping
//! (class rows, enumerated write slots).
//!
//! Measured per N rung on the distributed-stencil heat1d model
//! (`velocity != 0`, so the interior rows classify):
//! * wall-clock compile time (parse → flatten → causalize → generate),
//! * peak task-DAG node count,
//!
//! and, on the smallest rung, bitwise identity of the aware graph's
//! serial evaluation against the oracle graph (both compiled in-process
//! from the same source).
//!
//! The bearing model's rollers are individual `part`s with per-instance
//! start angles — deliberately *not* classifiable — so it rides along as
//! the fallback-parity dataset: array-aware compilation of a
//! non-classifiable model must cost about the same as the oracle.
//!
//! Gates (CI fails on regression):
//! * aware task-DAG node count stays bounded while the oracle's grows
//!   linearly (sublinear scaling),
//! * aware compile time beats the oracle by ≥3x in `--quick` mode and
//!   ≥10x at the largest full rung,
//! * bitwise identity of the small-N derivatives,
//! * bearing fallback parity within 2.5x.
//!
//! Flags: `--quick` (CI smoke ladder), `--json` (BENCH_8.json on stdout,
//! human table on stderr).

use om_bench::median;
use om_codegen::{CodeGenerator, GenOptions};
use om_models::bearing2d::{self, BearingConfig};
use om_models::heat1d::{self, HeatConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct Rung {
    n: usize,
    oracle_ms: f64,
    aware_ms: f64,
    /// Symbolic schedule verification (lint stage 5) on the prebuilt
    /// aware graph: patterns are recognized at codegen time, so this
    /// must be N-independent.
    lint_ms: f64,
    oracle_tasks: usize,
    aware_tasks: usize,
}

/// Full pipeline: source text → compiled task graph. Returns the graph
/// so the caller can count tasks / evaluate.
fn compile_graph(source: &str, array_aware: bool) -> om_codegen::TaskGraph {
    let flat = if array_aware {
        om_lang::compile_arrays(source).expect("compiles")
    } else {
        om_lang::compile(source).expect("compiles")
    };
    let ir = om_ir::causalize(&flat).expect("causalizes");
    CodeGenerator::new(GenOptions::default())
        .generate(&ir)
        .graph
}

/// Median wall-clock of `repeats` full compiles, in milliseconds.
fn time_compile(source: &str, array_aware: bool, repeats: usize) -> f64 {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        let graph = compile_graph(source, array_aware);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(graph);
    }
    median(times)
}

/// Median wall-clock of the symbolic schedule passes over a prebuilt
/// aware graph, in milliseconds. A clean schedule must never expand, so
/// the verdict cost depends on the class count, not on N.
fn time_sym_lint(graph: &om_codegen::TaskGraph, repeats: usize) -> f64 {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        let view = om_lint::SymScheduleView::from_graph(graph);
        let mut report = om_lint::Report::default();
        let outcome = om_lint::check_schedule_sym(&view, om_lint::Granularity::Edge, &mut report);
        times.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            report.is_empty() && !outcome.expanded,
            "heat1d aware schedule must verify symbolically: {:?}",
            report.diagnostics
        );
    }
    median(times)
}

fn heat_source(n: usize) -> String {
    heat1d::source_distributed(&HeatConfig {
        cells: n,
        velocity: 0.4,
        ..HeatConfig::default()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let (ladder, repeats) = if quick {
        (vec![64usize, 256, 1024], 3usize)
    } else {
        (vec![64usize, 256, 1024, 4096, 16384], 5usize)
    };

    // Bitwise identity on the smallest rung: the aware graph (loop
    // tasks) and the oracle graph (element tasks) from the same source
    // must produce identical derivative bits.
    let n0 = ladder[0];
    let src0 = heat_source(n0);
    let aware_graph = compile_graph(&src0, true);
    let oracle_graph = compile_graph(&src0, false);
    assert!(
        aware_graph.tasks.iter().any(|t| t.loop_info.is_some()),
        "heat1d(distributed, v!=0) must produce loop tasks"
    );
    let y: Vec<f64> = (0..n0).map(|i| (0.21 * i as f64).sin() + 0.1).collect();
    let mut fa = vec![0.0; n0];
    let mut fo = vec![0.0; n0];
    aware_graph.eval_serial(0.37, &y, &mut fa);
    oracle_graph.eval_serial(0.37, &y, &mut fo);
    let bitwise_ok = fa.iter().zip(&fo).all(|(a, o)| a.to_bits() == o.to_bits());

    let mut rungs: Vec<Rung> = Vec::new();
    for &n in &ladder {
        let src = heat_source(n);
        let oracle_ms = time_compile(&src, false, repeats);
        let aware_ms = time_compile(&src, true, repeats);
        let oracle_tasks = compile_graph(&src, false).tasks.len();
        let aware_graph = compile_graph(&src, true);
        let aware_tasks = aware_graph.tasks.len();
        let lint_ms = time_sym_lint(&aware_graph, repeats);
        rungs.push(Rung {
            n,
            oracle_ms,
            aware_ms,
            lint_ms,
            oracle_tasks,
            aware_tasks,
        });
    }

    // Fallback parity: bearing rollers are individual parts, nothing
    // classifies, and the aware pipeline must not add meaningful cost.
    let bearing_src = bearing2d::source(&BearingConfig::default());
    let bearing_oracle_ms = time_compile(&bearing_src, false, repeats);
    let bearing_aware_ms = time_compile(&bearing_src, true, repeats);
    let bearing_parity = bearing_aware_ms / bearing_oracle_ms;

    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E15: array-aware compile scaling (heat1d distributed, v=0.4; \
         median of {repeats} compiles{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:>6} {:>12} {:>12} {:>8} {:>10} {:>12} {:>12} {:>8}",
        "N", "oracle_ms", "aware_ms", "speedup", "lint_ms", "oracle_tasks", "aware_tasks", "ratio"
    );
    let mut csv_rows = Vec::new();
    for r in &rungs {
        let _ = writeln!(
            table,
            "{:>6} {:>12.2} {:>12.2} {:>7.1}x {:>10.3} {:>12} {:>12} {:>7.1}x",
            r.n,
            r.oracle_ms,
            r.aware_ms,
            r.oracle_ms / r.aware_ms,
            r.lint_ms,
            r.oracle_tasks,
            r.aware_tasks,
            r.oracle_tasks as f64 / r.aware_tasks as f64,
        );
        csv_rows.push(format!(
            "{},{:.3},{:.3},{:.4},{},{}",
            r.n, r.oracle_ms, r.aware_ms, r.lint_ms, r.oracle_tasks, r.aware_tasks
        ));
    }
    let _ = writeln!(
        table,
        "bearing2d fallback parity: aware {bearing_aware_ms:.2} ms vs oracle \
         {bearing_oracle_ms:.2} ms ({bearing_parity:.2}x)"
    );
    let _ = writeln!(
        table,
        "bitwise identity at N={n0}: {}",
        if bitwise_ok { "ok" } else { "FAILED" }
    );
    if json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e15_compile_scale",
        "n,oracle_compile_ms,aware_compile_ms,sym_lint_ms,oracle_tasks,aware_tasks",
        &csv_rows,
    );

    if json {
        // Hand-rolled JSON (no serde in the workspace): CI redirects
        // stdout to BENCH_8.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E15\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"model\": \"heat1d_distributed_v0.4\",");
        let _ = writeln!(out, "  \"bitwise_identity_n\": {n0},");
        let _ = writeln!(out, "  \"bitwise_identity_ok\": {bitwise_ok},");
        let _ = writeln!(out, "  \"rungs\": [");
        for (i, r) in rungs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"n\": {}, \"oracle_compile_ms\": {:.3}, \
                 \"aware_compile_ms\": {:.3}, \"compile_speedup\": {:.2}, \
                 \"sym_lint_ms\": {:.4}, \
                 \"oracle_tasks\": {}, \"aware_tasks\": {}}}{}",
                r.n,
                r.oracle_ms,
                r.aware_ms,
                r.oracle_ms / r.aware_ms,
                r.lint_ms,
                r.oracle_tasks,
                r.aware_tasks,
                if i + 1 < rungs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"bearing_fallback_parity\": {bearing_parity:.3}");
        let _ = writeln!(out, "}}");
        print!("{out}");
    }

    // --- Gates (named-column diff; any FAIL row exits nonzero) ------
    let mut gates = om_bench::GateDiff::new("e15");
    gates.check(
        &format!("bitwise_identity N={n0}"),
        if bitwise_ok { "identical" } else { "diverged" },
        "identical",
        bitwise_ok,
    );
    // Sublinear DAG size: the oracle's task count grows with N while the
    // aware count stays bounded (boundary tasks + a capped chunk fan).
    let first = &rungs[0];
    let last = &rungs[rungs.len() - 1];
    gates.check(
        &format!("aware_tasks bounded N={}→{}", first.n, last.n),
        last.aware_tasks,
        format!("<= {}", 2 * first.aware_tasks),
        last.aware_tasks <= 2 * first.aware_tasks,
    );
    // The oracle merges ~3 element tasks per group, so its task count is
    // roughly n/3; anything under n/4 means the scaling baseline broke.
    gates.check(
        &format!("oracle_tasks baseline N={}", last.n),
        last.oracle_tasks,
        format!(">= {}", last.n / 4),
        last.oracle_tasks >= last.n / 4,
    );
    // Compile-time win at the largest rung.
    let need = if quick { 3.0 } else { 10.0 };
    let speedup = last.oracle_ms / last.aware_ms;
    gates.check(
        &format!("compile_speedup N={}", last.n),
        format!("{speedup:.1}x"),
        format!(">= {need:.0}x"),
        speedup >= need,
    );
    // Symbolic lint-time scaling: the schedule verdict at the largest N
    // must stay within 2x of the smallest rung (patterns are prebuilt at
    // codegen time, so the pass never touches O(N) data on a clean
    // schedule). A 0.5 ms noise floor keeps micro-jitter on
    // sub-millisecond timings from tripping the gate.
    let lint_bound = (2.0 * first.lint_ms).max(0.5);
    gates.check(
        &format!("sym_lint_ms N={}", last.n),
        format!("{:.4} ms", last.lint_ms),
        format!("<= {lint_bound:.4} ms"),
        last.lint_ms <= lint_bound,
    );
    gates.check(
        "bearing_fallback_parity",
        format!("{bearing_parity:.2}x"),
        "<= 2.5x",
        bearing_parity <= 2.5,
    );
    gates.finish();
}
