//! The traced run (`--trace 1`): the same generated inputs fed in process
//! through each layer's public functions, with `om_obs` spans recorded by
//! this file around every call. Spans inside the program are not relied
//! on: a layer's time is what its public entry points cost from outside.
//!
//! Every workload exercises every layer (so every per-layer metric exists
//! on every workload), sized to what that workload stresses. Passes
//! alternate untraced and traced; the difference is the tracing overhead.

use crate::checks;
use crate::inputs::{self, ServeModel, ServeRequest, ServeStream, Sizes};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::workloads::{self, Ctx};
use om_codegen::{
    BatchScratch, CodeGenerator, ModelRegistry, ParallelProgram, Schedule, TaskGraph,
};
use om_lint::{Granularity, LintOptions, ScheduleView, Severity, SymScheduleView};
use om_runtime::{
    ExecutorPool, ParallelRhs, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, ServeConfig,
    Server, Strategy, SweepConfig,
};
use om_solver::{BatchedOdeSystem, Budget, FnSystem, OdeSystem, RhsError};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span categories: `bench:<layer>`; the pass root is `bench:pass`.
const LAYERS: [&str; 10] = [
    "lang", "ir", "analysis", "codegen", "registry", "solver", "exec", "ensemble", "serve", "lint",
];

/// Run `f` inside a span of `cat`, returning its value and wall seconds.
fn timed<T>(name: &'static str, cat: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = om_obs::span(name, cat);
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Which right-hand side the workload's solver path evaluates.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rhs {
    /// `IrEvaluator` (serial `omc simulate`).
    Tree,
    /// `TaskGraph::eval_serial` (sweep and serve scenarios).
    Serial,
    /// `ParallelRhs` over two work-stealing workers.
    Ws2,
}

struct Model {
    label: String,
    source: String,
    aware: bool,
}

struct SweepPlan {
    source: String,
    state: String,
    values: Vec<f64>,
    h: f64,
    steps: usize,
    batch: usize,
}

/// What one pass feeds each layer.
struct Plan {
    models: Vec<Model>,
    /// Index into `models` of the model the RHS and solver layers run.
    primary: usize,
    rhs: Rhs,
    h: f64,
    steps: usize,
    sets: Vec<(String, f64)>,
    batch_steps: usize,
    registry: Vec<String>,
    sweep: SweepPlan,
    serve: Vec<(String, usize)>,
    /// The plain stencil is the reference for the PDE; otherwise the tree
    /// evaluator with a plain RK4 loop is.
    plain_cells: Option<usize>,
}

fn serve_lines(
    models: &[ServeModel],
    reqs: &[ServeRequest],
    sizes: &Sizes,
) -> Vec<(String, usize)> {
    reqs.iter()
        .enumerate()
        .map(|(k, r)| (r.line(&format!("t{k}"), models, sizes), r.values.len()))
        .collect()
}

/// Two small requests over one model, for workloads that do not serve.
fn two_requests(
    label: &str,
    source: &str,
    state: &'static str,
    v: f64,
    h: f64,
    sizes: &Sizes,
) -> Vec<(String, usize)> {
    let model = ServeModel {
        label: label.into(),
        source: source.into(),
        state,
        range: (v, v),
        h,
    };
    let reqs: Vec<ServeRequest> = (0..2)
        .map(|k| ServeRequest {
            model: 0,
            values: vec![v * (1.0 + 0.01 * k as f64); 2],
        })
        .collect();
    serve_lines(&[model], &reqs, sizes)
}

fn plan(ctx: &Ctx, workload: &str) -> Result<Plan, String> {
    let s = &ctx.sizes;
    Ok(match workload {
        "pde-serial" | "pde-ws2" => {
            let src = inputs::heat_source(s.pde_cells, 0.4);
            Plan {
                models: vec![Model {
                    label: format!("heat1d-{}-aware", s.pde_cells),
                    source: src.clone(),
                    aware: true,
                }],
                primary: 0,
                rhs: if workload == "pde-ws2" {
                    Rhs::Ws2
                } else {
                    Rhs::Tree
                },
                h: s.pde_h,
                steps: s.pde_steps,
                sets: inputs::pde_sets(ctx.seed, s)
                    .into_iter()
                    .map(|(k, v)| (format!("u[{k}]"), v))
                    .collect(),
                batch_steps: 2,
                registry: vec![src.clone(); 9],
                sweep: SweepPlan {
                    source: src.clone(),
                    state: "u[1]".into(),
                    values: vec![0.1, 0.2],
                    h: s.pde_h,
                    steps: 2,
                    batch: 1,
                },
                serve: two_requests("heat1d", &src, "u[1]", 0.1, s.pde_h, s),
                plain_cells: Some(s.pde_cells),
            }
        }
        "bearing-sweep" => {
            let src = inputs::bearing_source(s.bearing_rollers);
            let ys = inputs::bearing_ys(ctx.seed, s);
            Plan {
                models: vec![Model {
                    label: format!("bearing2d-{}", s.bearing_rollers),
                    source: src.clone(),
                    aware: false,
                }],
                primary: 0,
                rhs: Rhs::Serial,
                h: s.bearing_h,
                steps: s.bearing_steps,
                sets: vec![("y".into(), ys[0])],
                batch_steps: s.bearing_steps,
                registry: vec![src.clone(); 9],
                serve: two_requests("bearing2d", &src, "y", ys[0], s.bearing_h, s),
                sweep: SweepPlan {
                    source: src,
                    state: "y".into(),
                    values: ys,
                    h: s.bearing_h,
                    steps: s.bearing_steps,
                    batch: 8,
                },
                plain_cells: None,
            }
        }
        "serve-mix" => {
            let models = inputs::serve_models(s);
            let n = if s.serve_min_requests >= 1000 {
                256
            } else {
                s.serve_min_requests
            };
            let mut streams = [
                ServeStream::new(ctx.seed, 0, &models, s),
                ServeStream::new(ctx.seed, 1, &models, s),
            ];
            let reqs: Vec<ServeRequest> = (0..n).filter_map(|k| streams[k % 2].next()).collect();
            let first = &reqs[0];
            let m0 = &models[first.model];
            Plan {
                primary: first.model,
                rhs: Rhs::Serial,
                h: m0.h,
                steps: s.serve_steps,
                sets: vec![(m0.state.to_string(), first.values[0])],
                batch_steps: s.serve_steps,
                registry: reqs
                    .iter()
                    .map(|r| models[r.model].source.clone())
                    .collect(),
                sweep: SweepPlan {
                    source: m0.source.clone(),
                    state: m0.state.into(),
                    values: first.values.clone(),
                    h: m0.h,
                    steps: s.serve_steps,
                    batch: 1,
                },
                serve: serve_lines(&models, &reqs, s),
                models: models
                    .iter()
                    .map(|m| Model {
                        label: m.label.clone(),
                        source: m.source.clone(),
                        aware: false,
                    })
                    .collect(),
                plain_cells: None,
            }
        }
        "compile-lint" => {
            let models = inputs::lint_models(s, &ctx.examples());
            let src = models[0].source.clone();
            let h = 2.0 / (4.0 * ((s.lint_heat_cells + 1) as f64).powi(2));
            let mut registry: Vec<String> = models.iter().map(|m| m.source.clone()).collect();
            registry.extend(registry.clone());
            Plan {
                primary: 0,
                rhs: Rhs::Serial,
                h,
                steps: 10,
                sets: Vec::new(),
                batch_steps: 2,
                registry,
                sweep: SweepPlan {
                    source: src.clone(),
                    state: "u[1]".into(),
                    values: vec![0.1, 0.2],
                    h,
                    steps: 2,
                    batch: 1,
                },
                serve: two_requests("heat1d", &src, "u[1]", 0.1, h, s),
                models: models
                    .into_iter()
                    .map(|m| Model {
                        label: m.label,
                        source: m.source,
                        aware: m.array_aware,
                    })
                    .collect(),
                plain_cells: None,
            }
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The compiled primary model, kept from the front-end step.
struct Compiled {
    ir: om_ir::OdeIr,
    program: ParallelProgram,
    sched: Schedule,
}

/// Batched RHS over `eval_batch`, timing its own calls.
struct Batched<'a> {
    graph: &'a TaskGraph,
    scratch: BatchScratch,
    lanes: usize,
    rhs_s: f64,
}

impl BatchedOdeSystem for Batched<'_> {
    fn dim(&self) -> usize {
        self.graph.dim
    }

    fn lanes(&self) -> usize {
        self.lanes
    }

    fn rhs_batch(&mut self, t: f64, ys: &[f64], dydts: &mut [f64]) -> Result<(), RhsError> {
        let ((), dt) = timed("eval_batch", "bench:codegen", || {
            self.graph.eval_batch(t, ys, dydts, &mut self.scratch)
        });
        self.rhs_s += dt;
        Ok(())
    }
}

fn soa(y0: &[f64], lanes: usize) -> Vec<f64> {
    y0.iter()
        .flat_map(|v| std::iter::repeat_n(*v, lanes))
        .collect()
}

/// One pass over every layer. Returns the pass's wall seconds and its
/// per-layer numbers; checks go into `out`.
fn pass(plan: &Plan, sizes: &Sizes, out: &mut Outcome) -> (f64, Vec<Metric>) {
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| m.push(Metric::value(name, unit, v));
    let k = sizes.layer_rhs_calls;
    let root = om_obs::span("pass", "bench:pass");
    let started = Instant::now();

    // Front end, codegen and the lint schedule check over every model.
    let (mut parse, mut scope, mut flatten, mut causalize, mut verify) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut sccs, mut generate, mut schedule, mut lint_schedule) = (0.0, 0.0, 0.0, 0.0);
    let (mut flat_eqs, mut classes, mut tasks, mut loop_tasks, mut expansions) = (0, 0, 0, 0, 0);
    let mut primary: Option<Compiled> = None;
    for (i, model) in plan.models.iter().enumerate() {
        let compiled = (|| -> Result<Compiled, String> {
            let (unit, t) = timed("parse_unit", "bench:lang", || {
                om_lang::parse_unit(&model.source)
            });
            parse += t;
            let unit = unit.map_err(|e| e.to_string())?;
            let (r, t) = timed("scope_check", "bench:lang", || om_lang::scope::check(&unit));
            scope += t;
            r.map_err(|e| e.to_string())?;
            let (flat, t) = timed("flatten", "bench:lang", || {
                if model.aware {
                    om_lang::flatten_arrays(&unit)
                } else {
                    om_lang::flatten(&unit)
                }
            });
            flatten += t;
            let flat = flat.map_err(|e| e.to_string())?;
            flat_eqs += flat.equations.len();
            classes += flat.classes.len();
            let (ir, t) = timed("causalize", "bench:ir", || om_ir::causalize(&flat));
            causalize += t;
            let ir = ir.map_err(|e| e.to_string())?;
            let (r, t) = timed("verify", "bench:ir", || om_ir::verify_compilable(&ir));
            verify += t;
            r.map_err(|e| e.to_string())?;
            let (n_sccs, t) = timed("sccs", "bench:analysis", || {
                om_analysis::build_dependency_graph(&ir)
                    .graph
                    .tarjan_scc()
                    .components
                    .len()
            });
            sccs += t;
            std::hint::black_box(n_sccs);
            let (program, t) = timed("generate", "bench:codegen", || {
                CodeGenerator::default().generate(&ir)
            });
            generate += t;
            let (sched, t) = timed("schedule", "bench:codegen", || program.schedule(2));
            schedule += t;
            tasks += program.graph.tasks.len();
            loop_tasks += program
                .graph
                .tasks
                .iter()
                .filter(|t| t.loop_info.is_some())
                .count();
            let (expanded, t) = timed("check_schedule", "bench:lint", || {
                let mut report = om_lint::Report::default();
                if model.aware {
                    let view = SymScheduleView::from_graph(&program.graph);
                    om_lint::check_schedule_sym(&view, Granularity::Edge, &mut report).expanded
                } else {
                    let view = ScheduleView::from_graph(&program.graph);
                    om_lint::check_schedule_at(&view, Granularity::Edge, &mut report);
                    false
                }
            });
            lint_schedule += t;
            expansions += usize::from(expanded);
            Ok(Compiled { ir, program, sched })
        })();
        match compiled {
            Ok(c) if i == plan.primary => primary = Some(c),
            Ok(_) => {}
            Err(e) => out.op(&format!("layers.compile {}", model.label), Err(e)),
        }
    }
    put("lang.parse_ms", "ms", parse * 1e3);
    put("lang.scope_ms", "ms", scope * 1e3);
    put("lang.flatten_ms", "ms", flatten * 1e3);
    put("lang.flat_eqs", "count", flat_eqs as f64);
    put("lang.array_classes", "count", classes as f64);
    put("ir.causalize_ms", "ms", causalize * 1e3);
    put("ir.verify_ms", "ms", verify * 1e3);
    put("analysis.sccs_ms", "ms", sccs * 1e3);
    put("codegen.generate_ms", "ms", generate * 1e3);
    put("codegen.schedule_ms", "ms", schedule * 1e3);
    put("codegen.tasks", "count", tasks as f64);
    put("codegen.loop_tasks", "count", loop_tasks as f64);
    put("lint.schedule_ms", "ms", lint_schedule * 1e3);
    put("lint.expansions", "count", expansions as f64);
    let Some(c) = primary else {
        out.op(
            "layers.primary",
            Err("primary model did not compile".into()),
        );
        drop(root);
        return (started.elapsed().as_secs_f64(), m);
    };

    // Per-call RHS costs of each evaluator on the primary model.
    let mut y0 = c.ir.initial_state();
    for (name, v) in &plan.sets {
        if let Some(i) = c.ir.find_state(name) {
            y0[i] = *v;
        }
    }
    let dim = y0.len();
    let per_call = |cat: &'static str, f: &mut dyn FnMut()| -> f64 {
        let samples: Vec<f64> = (0..k).map(|_| timed("rhs", cat, &mut *f).1 * 1e6).collect();
        stats::median(&samples)
    };
    let (eval, t) = timed("tree_build", "bench:ir", || om_ir::IrEvaluator::new(&c.ir));
    put("ir.tree_build_ms", "ms", t * 1e3);
    let eval = match eval {
        Ok(e) => e,
        Err(e) => {
            out.op("layers.tree_build", Err(e.to_string()));
            drop(root);
            return (started.elapsed().as_secs_f64(), m);
        }
    };
    let graph = &c.program.graph;
    let (mut d_tree, mut d_serial, mut d_ws, mut d_bar) = (
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
        vec![0.0; dim],
    );
    put(
        "ir.tree_rhs_us",
        "us",
        per_call("bench:ir", &mut || eval.rhs(0.0, &y0, &mut d_tree)),
    );
    let serial_us = per_call("bench:codegen", &mut || {
        graph.eval_serial(0.0, &y0, &mut d_serial)
    });
    put("codegen.serial_rhs_us", "us", serial_us);
    let lanes = 8;
    let mut scratch = BatchScratch::new(graph, lanes);
    let ys = soa(&y0, lanes);
    let mut d_batch = vec![0.0; dim * lanes];
    let batch_us = per_call("bench:codegen", &mut || {
        graph.eval_batch(0.0, &ys, &mut d_batch, &mut scratch)
    });
    put(
        "codegen.batch8_rhs_us_per_lane",
        "us",
        batch_us / lanes as f64,
    );
    out.op(
        "layers.tree_vs_bytecode_rhs",
        match checks::max_rel_err(&d_serial, &d_tree) {
            e if e <= 1e-12 => Ok(()),
            e => Err(format!("eval_serial vs IrEvaluator: {e:.3e} > 1e-12")),
        },
    );
    for (strategy, name) in [
        (Strategy::WorkStealing, "ws2"),
        (Strategy::Barrier, "barrier2"),
    ] {
        let g = graph.clone();
        let (pool, t) = timed("pool_build", "bench:exec", || {
            ExecutorPool::build(g, 2, c.sched.assignment.clone(), strategy)
        });
        let mut pool = match pool {
            Ok(p) => p,
            Err(e) => {
                out.op(&format!("layers.{name}_pool"), Err(e.to_string()));
                continue;
            }
        };
        let d = if strategy == Strategy::WorkStealing {
            &mut d_ws
        } else {
            &mut d_bar
        };
        let us = per_call("bench:exec", &mut || pool.rhs(0.0, &y0, d));
        if strategy == Strategy::WorkStealing {
            put("exec.pool_build_ms", "ms", t * 1e3);
            put("exec.ws2_rhs_us", "us", us);
            put("exec.ws2_vs_serial", "ratio", serial_us / us);
        } else {
            put("exec.barrier2_rhs_us", "us", us);
        }
        out.op(
            &format!("layers.{name}_vs_serial_rhs"),
            if *d == d_serial {
                Ok(())
            } else {
                Err("parallel RHS differs from eval_serial".into())
            },
        );
    }

    // The solver over the workload's span, with the workload's RHS.
    let tend = plan.h * plan.steps as f64;
    let rhs_s = Cell::new(0.0);
    let solved = match plan.rhs {
        Rhs::Tree => {
            let mut sys = FnSystem::new(dim, |t, y: &[f64], d: &mut [f64]| {
                let ((), dt) = timed("rhs", "bench:ir", || eval.rhs(t, y, d));
                rhs_s.set(rhs_s.get() + dt);
            });
            timed("rk4", "bench:solver", || {
                om_solver::rk4(&mut sys, 0.0, &y0, tend, plan.h)
            })
        }
        Rhs::Serial => {
            let mut sys = FnSystem::new(dim, |t, y: &[f64], d: &mut [f64]| {
                let ((), dt) = timed("rhs", "bench:codegen", || graph.eval_serial(t, y, d));
                rhs_s.set(rhs_s.get() + dt);
            });
            timed("rk4", "bench:solver", || {
                om_solver::rk4(&mut sys, 0.0, &y0, tend, plan.h)
            })
        }
        Rhs::Ws2 => {
            let pool = ExecutorPool::build(
                graph.clone(),
                2,
                c.sched.assignment.clone(),
                Strategy::WorkStealing,
            );
            match pool {
                Ok(pool) => {
                    let mut prhs = ParallelRhs::new(pool, 16);
                    let mut sys = FnSystem::new(dim, |t, y: &[f64], d: &mut [f64]| {
                        let ((), dt) = timed("rhs", "bench:exec", || prhs.rhs(t, y, d));
                        rhs_s.set(rhs_s.get() + dt);
                    });
                    timed("rk4", "bench:solver", || {
                        om_solver::rk4(&mut sys, 0.0, &y0, tend, plan.h)
                    })
                }
                Err(e) => {
                    out.op("layers.solver_pool", Err(e.to_string()));
                    (
                        Err(om_solver::SolveError::Internal {
                            what: "no executor pool",
                        }),
                        0.0,
                    )
                }
            }
        }
    };
    let (sol, wall) = solved;
    let final_state = match sol {
        Ok(sol) => {
            put("solver.steps", "count", sol.stats.steps as f64);
            put("solver.rhs_calls", "count", sol.stats.rhs_calls as f64);
            put("solver.rejected", "count", sol.stats.rejected as f64);
            put("solver.self_ms", "ms", (wall - rhs_s.get()) * 1e3);
            Some(sol.y_end().to_vec())
        }
        Err(e) => {
            out.op("layers.solver", Err(e.to_string()));
            None
        }
    };
    let mut batched = Batched {
        graph,
        scratch: BatchScratch::new(graph, lanes),
        lanes,
        rhs_s: 0.0,
    };
    let (bsol, wall) = timed("rk4_batch", "bench:solver", || {
        om_solver::rk4_batch(
            &mut batched,
            0.0,
            &ys,
            plan.h * plan.batch_steps as f64,
            plan.h,
            &Budget::unlimited(),
        )
    });
    put("solver.batch_self_ms", "ms", (wall - batched.rhs_s) * 1e3);
    out.op(
        "layers.rk4_batch",
        match bsol {
            Ok(b) if b.completed_lanes() == lanes => Ok(()),
            Ok(b) => Err(format!(
                "{} of {lanes} lanes completed",
                b.completed_lanes()
            )),
            Err(e) => Err(e.to_string()),
        },
    );

    // Registry: misses compile, hits look up.
    let registry = ModelRegistry::with_capacity(32);
    let (mut compile_ms, mut lookup_us) = (Vec::new(), Vec::new());
    for src in &plan.registry {
        let misses = registry.misses();
        let (r, t) = timed("get_or_compile", "bench:registry", || {
            registry.get_or_compile(src)
        });
        if let Err(e) = r {
            out.op("layers.registry", Err(e.to_string()));
        } else if registry.misses() > misses {
            compile_ms.push(t * 1e3);
        } else {
            lookup_us.push(t * 1e6);
        }
    }
    let lookups = registry.hits() + registry.misses();
    put("registry.compile_ms", "ms", stats::median(&compile_ms));
    put("registry.lookup_us", "us", stats::median(&lookup_us));
    put(
        "registry.hit_ratio",
        "ratio",
        registry.hits() as f64 / lookups.max(1) as f64,
    );
    put("registry.lookups", "count", lookups as f64);
    put("registry.evictions", "count", registry.evictions() as f64);

    // Ensemble: the workload's sweep through `run_sweep`.
    let sw = &plan.sweep;
    let scenarios: Vec<ScenarioSpec> = sw
        .values
        .iter()
        .enumerate()
        .map(|(i, v)| ScenarioSpec::new(i, vec![(sw.state.clone(), *v)]))
        .collect();
    let cfg = SweepConfig {
        run: ScenarioRunConfig {
            t0: 0.0,
            tend: sw.h * sw.steps as f64,
            h: sw.h,
            ..ScenarioRunConfig::default()
        },
        concurrency: 2,
        batch: sw.batch,
        ..SweepConfig::default()
    };
    let batch_calls = om_obs::metrics().counter("solver.rhs_batch_calls");
    let before = batch_calls.get();
    let (result, t) = timed("run_sweep", "bench:ensemble", || {
        registry
            .get_or_compile(&sw.source)
            .map_err(|e| e.to_string())
            .and_then(|model| {
                om_runtime::run_sweep(&model, &scenarios, &cfg).map_err(|e| e.to_string())
            })
    });
    match result {
        Ok(res) => {
            let report = &res.report;
            let busy: f64 = report.latencies_ns.iter().map(|&ns| ns as f64 * 1e-9).sum();
            let retries: u64 = res
                .manifest
                .entries
                .iter()
                .map(|(_, o)| match o {
                    Some(ScenarioOutcome::Completed { retries, .. }) => u64::from(*retries),
                    _ => 0,
                })
                .sum();
            put(
                "ensemble.scenario_p50_ms",
                "ms",
                report.latency_percentile_ns(0.5) as f64 / 1e6,
            );
            put(
                "ensemble.batch_rhs_calls",
                "count",
                (batch_calls.get() - before) as f64,
            );
            put("ensemble.retries", "count", retries as f64);
            put(
                "ensemble.quarantined",
                "count",
                res.manifest.quarantined() as f64,
            );
            put(
                "ensemble.busy_frac",
                "ratio",
                busy / (t * cfg.concurrency as f64),
            );
            out.op(
                "layers.sweep",
                if res.manifest.completed() == scenarios.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {} completed",
                        res.manifest.completed(),
                        scenarios.len()
                    ))
                },
            );
        }
        Err(e) => out.op("layers.sweep", Err(e)),
    }

    // Serve: request lines through the transport-free entry point.
    let server = Server::new(ServeConfig {
        pool_threads: 2,
        registry_capacity: 32,
        ..ServeConfig::default()
    });
    let mut clients = [server.new_client(), server.new_client()];
    let (mut handle_us, mut accepted, mut shed, mut errors) = (Vec::new(), 0, 0, 0);
    for (i, (line, n)) in plan.serve.iter().enumerate() {
        let (lines, t) = timed("handle_line", "bench:serve", || {
            server.handle_line(line, &mut clients[i % 2], server.now_ns())
        });
        handle_us.push(t * 1e6);
        let has = |ty: &str| {
            lines
                .iter()
                .any(|l| l.starts_with(&format!("{{\"type\":\"{ty}\"")))
        };
        accepted += usize::from(has("accepted"));
        shed += usize::from(has("overloaded"));
        errors += usize::from(has("error"));
        out.op(
            "layers.serve",
            workloads::check_response(&lines, *n).map(|_| ()),
        );
    }
    drop(server);
    put(
        "serve.handle_p50_us",
        "us",
        stats::percentile(&handle_us, 0.5),
    );
    put(
        "serve.handle_p99_us",
        "us",
        stats::percentile(&handle_us, 0.99),
    );
    put("serve.accepted", "count", accepted as f64);
    put("serve.shed", "count", shed as f64);
    put("serve.errors", "count", errors as f64);

    // Lint: every model end to end.
    let mut lint_s = 0.0;
    for model in &plan.models {
        let (report, t) = timed("lint_source", "bench:lint", || {
            om_lint::lint_source_with(
                &model.source,
                LintOptions {
                    array_aware: model.aware,
                },
            )
        });
        lint_s += t;
        let (e, w) = (report.count(Severity::Error), report.count(Severity::Warn));
        out.op(
            &format!("layers.lint {}", model.label),
            if e + w == 0 {
                Ok(())
            } else {
                Err(format!("{e} error(s), {w} warning(s)"))
            },
        );
    }
    put("lint.total_ms", "ms", lint_s * 1e3);
    drop(root);
    let wall = started.elapsed().as_secs_f64();

    // Outside the pass: the solver's final state against the reference.
    if let Some(y) = final_state {
        let want = match plan.plain_cells {
            Some(cells) => {
                let sets: Vec<(usize, f64)> = plan
                    .sets
                    .iter()
                    .filter_map(|(n, v)| {
                        Some((n.strip_prefix("u[")?.strip_suffix(']')?.parse().ok()?, *v))
                    })
                    .collect();
                checks::pde_reference(cells, &sets, plan.h, plan.steps)
            }
            None => checks::rk4(&mut |t, y, d| eval.rhs(t, y, d), &y0, plan.h, plan.steps),
        };
        let err = checks::max_rel_err(&y, &want);
        out.op(
            "layers.solver_vs_reference",
            if err <= 1e-9 {
                Ok(())
            } else {
                Err(format!("max-norm relative error {err:.3e} > 1e-9"))
            },
        );
    }
    // The hand-written stencil's per-call cost: the baseline a compiled
    // PDE right-hand side is measured against.
    {
        let cells = plan.plain_cells.unwrap_or(sizes.pde_cells);
        let stencil = checks::Stencil::heat1d(cells);
        let u = checks::heat_initial(cells, &[]);
        let mut du = vec![0.0; cells];
        let samples: Vec<f64> = (0..k)
            .map(|_| {
                let t = Instant::now();
                stencil.rhs(std::hint::black_box(&u), &mut du);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        m.push(Metric::value(
            "pde.plain_rhs_us",
            "us",
            stats::median(&samples),
        ));
    }
    (wall, m)
}

/// Self time per layer from the `bench:*` spans of a trace: a span's
/// duration minus the part its child spans cover. The pass root's own
/// self time is the unattributed remainder.
fn self_times(trace: &om_obs::Trace) -> (f64, BTreeMap<String, f64>) {
    let mut per_layer: BTreeMap<String, f64> =
        LAYERS.iter().map(|l| (l.to_string(), 0.0)).collect();
    let mut stacks: BTreeMap<u64, Vec<(&str, u64, u64)>> = BTreeMap::new();
    let mut root_ns = 0u64;
    for e in &trace.events {
        let Some(layer) = e.cat.strip_prefix("bench:") else {
            continue;
        };
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            om_obs::Phase::Begin => stack.push((layer, e.ts_ns, 0)),
            om_obs::Phase::End => {
                let Some((layer, start, child)) = stack.pop() else {
                    continue;
                };
                let dur = e.ts_ns.saturating_sub(start);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
                let own = dur.saturating_sub(child) as f64 / 1e6;
                if layer == "pass" {
                    root_ns += dur;
                    *per_layer.entry("unattributed".into()).or_default() += own;
                } else {
                    *per_layer.entry(layer.to_string()).or_default() += own;
                }
            }
            _ => {}
        }
    }
    (root_ns as f64 / 1e6, per_layer)
}

/// The traced run of one workload.
pub fn traced(ctx: &Ctx, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let plan = match plan(ctx, workload) {
        Ok(p) => p,
        Err(e) => {
            out.op("layers.plan", Err(e));
            return out;
        }
    };
    out.notes.push(format!(
        "traced run: {} model(s), primary `{}`, {} registry lookups, {} sweep scenarios, {} serve requests",
        plan.models.len(),
        plan.models[plan.primary].label,
        plan.registry.len(),
        plan.sweep.values.len(),
        plan.serve.len()
    ));
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    let mut tables: Vec<(f64, BTreeMap<String, f64>)> = Vec::new();
    let mut last_trace = None;
    while traced_walls.is_empty() || ctx.elapsed() < ctx.seconds {
        om_obs::init(&om_obs::ObsConfig::disabled());
        plain_walls.push(pass(&plan, &ctx.sizes, &mut out).0);
        om_obs::init(&om_obs::ObsConfig::enabled());
        let (wall, metrics) = pass(&plan, &ctx.sizes, &mut out);
        om_obs::set_enabled(false);
        let trace = om_obs::collect();
        traced_walls.push(wall);
        runs.push(metrics);
        tables.push(self_times(&trace));
        last_trace = Some(trace);
    }

    // Per-layer numbers: medians over traced passes (counts repeat).
    let mut metrics: Vec<Metric> = Vec::new();
    for first in &runs[0] {
        let samples: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|x| x.name == first.name).map(|x| x.value))
            .collect();
        metrics.push(Metric::median(&first.name, first.unit, samples));
    }
    let root_ms: Vec<f64> = tables.iter().map(|t| t.0).collect();
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for layer in LAYERS
        .iter()
        .map(|l| l.to_string())
        .chain(["unattributed".to_string()])
    {
        let samples: Vec<f64> = tables
            .iter()
            .map(|t| t.1.get(&layer).copied().unwrap_or(0.0))
            .collect();
        table.push((layer, samples));
    }
    let unattributed: Vec<f64> = table.last().map(|t| t.1.clone()).unwrap_or_default();
    let attributed: Vec<f64> = root_ms
        .iter()
        .zip(&unattributed)
        .map(|(r, u)| if *r > 0.0 { 1.0 - u / r } else { 0.0 })
        .collect();
    out.notes.push(format!(
        "per-layer self time, {workload} (median over {} traced passes):",
        tables.len()
    ));
    let total = stats::median(&root_ms);
    for (layer, samples) in &table {
        let v = stats::median(samples);
        out.notes.push(format!(
            "  {:<14} {:>12.3} ms  {:>6.2} %",
            layer,
            v,
            100.0 * v / total.max(f64::MIN_POSITIVE)
        ));
        metrics.push(Metric::median(
            &format!("self.{layer}_ms"),
            "ms",
            samples.clone(),
        ));
    }
    out.notes
        .push(format!("  {:<14} {:>12.3} ms", "pass (traced)", total));
    metrics.push(Metric::median("trace.attributed_frac", "ratio", attributed));
    let overhead = stats::median(&traced_walls) / stats::median(&plain_walls) - 1.0;
    metrics.push(Metric::value("trace.overhead_frac", "ratio", overhead));
    out.notes.push(format!(
        "trace overhead: traced pass {:.3} s vs untraced {:.3} s (medians of {} each)",
        stats::median(&traced_walls),
        stats::median(&plain_walls),
        traced_walls.len()
    ));
    if let Some(trace) = last_trace {
        let name = format!("trace-{workload}-seed{}.json", ctx.seed);
        let path = ctx.omc.cwd.join(&name);
        match std::fs::write(&path, om_obs::chrome::to_chrome_json(&trace)) {
            Ok(()) => out.notes.push(format!(
                "chrome trace: {} ({} events)",
                path.display(),
                trace.events.len()
            )),
            Err(e) => out.op("layers.chrome_trace", Err(e.to_string())),
        }
    }
    out.metrics = metrics;
    out
}
