//! Seeded input generation. `omc` only ever sees what these functions
//! produce; the same seed always produces the same inputs.

use crate::stats::Rng;
use om_models::{bearing2d, bearing3d, heat1d, hydro, oscillator, servo};

/// Input sizes. `full` is the benchmark; `quick` is the tiny self-check.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Stand-alone service set-ups before (and again after) serve-mix's
    /// closed loop; the other workloads time one set-up per repetition.
    pub setup_reps: usize,
    /// Minimum timed repetitions, whatever `--seconds` says.
    pub min_reps: usize,
    pub pde_cells: usize,
    pub pde_h: f64,
    pub pde_steps: usize,
    pub bearing_rollers: usize,
    pub bearing_scenarios: usize,
    pub bearing_h: f64,
    pub bearing_steps: usize,
    /// Scenarios re-integrated in process to check a sweep manifest.
    pub bearing_checked: usize,
    pub serve_heat_cells: Vec<usize>,
    pub serve_bearing_rollers: Vec<usize>,
    pub serve_steps: usize,
    pub serve_scenarios: (usize, usize),
    pub serve_min_requests: usize,
    /// Requests per timed block (`wall_s` on serve-mix).
    pub serve_block: usize,
    /// Requests whose records are compared with an `omc sweep` manifest.
    pub serve_checked: usize,
    pub lint_heat_cells: usize,
    pub lint_bearing3d_rollers: usize,
    /// RHS calls per in-process micro-measurement in the traced run.
    pub layer_rhs_calls: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            setup_reps: 5,
            min_reps: 3,
            pde_cells: 16384,
            pde_h: 2e-9,
            pde_steps: 125,
            bearing_rollers: 24,
            bearing_scenarios: 1024,
            bearing_h: 1e-6,
            bearing_steps: 50,
            bearing_checked: 16,
            serve_heat_cells: (0..20).map(|k| 32 + 24 * k).collect(),
            serve_bearing_rollers: (4..=20).collect(),
            serve_steps: 10,
            serve_scenarios: (8, 32),
            serve_min_requests: 1000,
            serve_block: 1024,
            serve_checked: 4,
            lint_heat_cells: 4096,
            lint_bearing3d_rollers: 48,
            layer_rhs_calls: 20,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            setup_reps: 2,
            min_reps: 2,
            pde_cells: 64,
            pde_h: 2e-5,
            pde_steps: 5,
            bearing_rollers: 4,
            bearing_scenarios: 16,
            bearing_h: 1e-6,
            bearing_steps: 5,
            bearing_checked: 4,
            serve_heat_cells: vec![32, 56],
            serve_bearing_rollers: vec![4, 5],
            serve_steps: 3,
            serve_scenarios: (2, 4),
            serve_min_requests: 12,
            serve_block: 4,
            serve_checked: 2,
            lint_heat_cells: 64,
            lint_bearing3d_rollers: 4,
            layer_rhs_calls: 3,
        }
    }

    pub fn pde_tend(&self) -> f64 {
        self.pde_h * self.pde_steps as f64
    }

    pub fn bearing_tend(&self) -> f64 {
        self.bearing_h * self.bearing_steps as f64
    }
}

/// Shortest round-trip decimal of `v`, as both `omc`'s flag parser and
/// its JSON reader accept it.
pub fn num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The array-aware `heat1d` builtin's source (advection on), as `omc
/// heat1d --size N` generates it.
pub fn heat_source(cells: usize, velocity: f64) -> String {
    heat1d::source_distributed(&heat1d::HeatConfig {
        cells,
        velocity,
        ..Default::default()
    })
}

pub fn bearing_source(rollers: usize) -> String {
    bearing2d::source(&bearing2d::BearingConfig {
        rollers,
        ..Default::default()
    })
}

/// Start-value overrides `(cell, value)` for pde-simulate, passed as
/// `--set u[cell]=value`. They perturb the initial profile only; the
/// work per step does not depend on them.
pub fn pde_sets(seed: u64, sizes: &Sizes) -> Vec<(usize, f64)> {
    let mut rng = Rng::new(seed, 1);
    (0..4)
        .map(|_| (1 + rng.below(sizes.pde_cells), rng.uniform(0.2, 0.8)))
        .collect()
}

/// Start values of `y` for bearing-sweep, one per scenario, in E16's
/// non-quarantining range.
pub fn bearing_ys(seed: u64, sizes: &Sizes) -> Vec<f64> {
    let mut rng = Rng::new(seed, 2);
    (0..sizes.bearing_scenarios)
        .map(|_| rng.uniform(-5e-5, -3e-5))
        .collect()
}

/// `omc sweep --params` file body: one object per scenario.
pub fn params_json(state: &str, values: &[f64]) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|v| format!("{{\"{state}\":{}}}", num(*v)))
        .collect();
    format!("[{}]\n", rows.join(",\n"))
}

/// One model a serve-mix request can name.
#[derive(Clone, Debug)]
pub struct ServeModel {
    pub label: String,
    pub source: String,
    /// State whose start value each scenario overrides, and its range.
    pub state: &'static str,
    pub range: (f64, f64),
    pub h: f64,
}

/// The fixed serve-mix model set, in popularity-rank order. Families are
/// interleaved so that every popularity band mixes cheap and expensive
/// models; the seed draws from this ranking, it never reorders it, so
/// every seed sees the same cost mix.
pub fn serve_models(sizes: &Sizes) -> Vec<ServeModel> {
    let fixed = [
        ServeModel {
            label: "oscillator".into(),
            source: oscillator::source(),
            state: "x",
            range: (0.5, 1.5),
            h: 0.01,
        },
        ServeModel {
            label: "servo".into(),
            source: servo::source(),
            state: "f.y",
            range: (-0.1, 0.1),
            h: 1e-3,
        },
        ServeModel {
            label: "hydro".into(),
            source: hydro::source(),
            state: "level",
            range: (10.0, 11.0),
            h: 0.01,
        },
    ];
    let heats = sizes.serve_heat_cells.iter().map(|&n| ServeModel {
        label: format!("heat1d-{n}"),
        source: heat_source(n, 0.4),
        state: "u[1]",
        range: (0.0, 0.01),
        // RK4 is stable up to |λh| ≈ 2.78; λ_max ≈ 4/Δx².
        h: 2.0 / (4.0 * ((n + 1) as f64).powi(2)),
    });
    let bearings = sizes.serve_bearing_rollers.iter().map(|&r| ServeModel {
        label: format!("bearing2d-{r}"),
        source: bearing_source(r),
        state: "y",
        range: (-5e-5, -3e-5),
        h: 1e-6,
    });
    let mut families: Vec<Vec<ServeModel>> =
        vec![fixed.to_vec(), heats.collect(), bearings.collect()];
    let mut out = Vec::new();
    while families.iter().any(|f| !f.is_empty()) {
        for family in families.iter_mut() {
            if !family.is_empty() {
                out.push(family.remove(0));
            }
        }
    }
    out
}

/// The fixed-step span every request over `model` integrates.
pub fn serve_tend(model: &ServeModel, sizes: &Sizes) -> f64 {
    model.h * sizes.serve_steps as f64
}

/// One generated serve-mix request.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    pub model: usize,
    pub values: Vec<f64>,
}

impl ServeRequest {
    /// The JSONL line, in the same shape `omc MODEL request` sends.
    pub fn line(&self, id: &str, models: &[ServeModel], sizes: &Sizes) -> String {
        let m = &models[self.model];
        let scenarios: Vec<String> = self
            .values
            .iter()
            .map(|v| format!("{{\"{}\":{}}}", m.state, num(*v)))
            .collect();
        format!(
            "{{\"id\":\"{id}\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
             \"scenarios\":[{}],\"tend\":{},\"h\":{},\"deadline_ms\":0,\"max_rhs\":0,\
             \"retries\":2,\"workers\":1,\"executor\":\"barrier\",\"batch\":1}}",
            om_runtime::ensemble::json::escape(&m.source),
            scenarios.join(","),
            num(serve_tend(m, sizes)),
            num(m.h),
        )
    }
}

/// A client's endless request sequence: model by Zipf(1) popularity,
/// scenario count and values uniform.
pub struct ServeStream {
    rng: Rng,
    weights: Vec<f64>,
    ranges: Vec<(f64, f64)>,
    scenarios: (usize, usize),
}

impl ServeStream {
    pub fn new(seed: u64, client: u64, models: &[ServeModel], sizes: &Sizes) -> ServeStream {
        ServeStream {
            rng: Rng::new(seed, 100 + client),
            weights: (0..models.len()).map(|k| 1.0 / (k + 1) as f64).collect(),
            ranges: models.iter().map(|m| m.range).collect(),
            scenarios: sizes.serve_scenarios,
        }
    }
}

impl Iterator for ServeStream {
    type Item = ServeRequest;

    fn next(&mut self) -> Option<ServeRequest> {
        let model = self.rng.weighted(&self.weights);
        let (lo, hi) = self.scenarios;
        let count = lo + self.rng.below(hi - lo + 1);
        let (a, b) = self.ranges[model];
        let values = (0..count).map(|_| self.rng.uniform(a, b)).collect();
        Some(ServeRequest { model, values })
    }
}

/// Whether an invocation compiles (`tasks`) or lints.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Compile,
    Lint,
}

/// One cold `omc` invocation of compile-lint.
#[derive(Clone, Debug)]
pub struct Invocation {
    pub label: String,
    pub kind: Kind,
    pub args: Vec<String>,
}

/// A model of the compile-lint set: how to name it on the command line
/// and whether the array-aware pipeline applies to it.
#[derive(Clone, Debug)]
pub struct LintModel {
    pub label: String,
    /// Operand plus flags that select the model (`heat1d --size N`, a path).
    pub operand: Vec<String>,
    pub array_aware: bool,
    /// Source text, for the in-process traced run.
    pub source: String,
}

/// Source files compile-lint writes next to its other inputs.
pub fn lint_files(sizes: &Sizes) -> Vec<(&'static str, String)> {
    vec![
        ("heat1d_v0.om", heat_source(sizes.lint_heat_cells, 0.0)),
        ("hydro.om", hydro::source()),
        ("servo.om", servo::source()),
    ]
}

/// The compile-lint model set. `examples` are the repository's example
/// models, `(path, source)`.
pub fn lint_models(sizes: &Sizes, examples: &[(String, String)]) -> Vec<LintModel> {
    let n = sizes.lint_heat_cells.to_string();
    let r = sizes.lint_bearing3d_rollers.to_string();
    let builtin = |name: &str, size: &str| vec![name.to_string(), "--size".into(), size.into()];
    let mut out = vec![
        LintModel {
            label: format!("heat1d-{n}-aware"),
            operand: builtin("heat1d", &n),
            array_aware: true,
            source: heat_source(sizes.lint_heat_cells, 0.4),
        },
        LintModel {
            label: format!("heat1d-{n}-scalar"),
            operand: builtin("heat1d", &n),
            array_aware: false,
            source: heat_source(sizes.lint_heat_cells, 0.4),
        },
        LintModel {
            label: format!("heat1d-v0-{n}-aware"),
            operand: vec!["heat1d_v0.om".into()],
            array_aware: true,
            source: heat_source(sizes.lint_heat_cells, 0.0),
        },
        LintModel {
            label: format!("bearing3d-{r}"),
            operand: builtin("bearing3d", &r),
            array_aware: false,
            source: bearing3d::source(&bearing3d::Bearing3dConfig {
                rollers: sizes.lint_bearing3d_rollers,
                ..Default::default()
            }),
        },
    ];
    for (file, source) in lint_files(sizes).into_iter().skip(1) {
        out.push(LintModel {
            label: file.trim_end_matches(".om").into(),
            operand: vec![file.into()],
            array_aware: false,
            source,
        });
    }
    for (path, source) in examples {
        out.push(LintModel {
            label: format!("examples/{}", path.rsplit('/').next().unwrap_or(path)),
            operand: vec![path.clone()],
            array_aware: false,
            source: source.clone(),
        });
    }
    out
}

/// `tasks --workers 2` and `lint` for every model, in a seeded order.
pub fn lint_invocations(models: &[LintModel], seed: u64, pass: u64) -> Vec<Invocation> {
    let mut out = Vec::new();
    for m in models {
        for kind in [Kind::Compile, Kind::Lint] {
            let mut args = vec![m.operand[0].clone()];
            match kind {
                Kind::Compile => args.extend(["tasks".into(), "--workers".into(), "2".into()]),
                Kind::Lint => args.push("lint".into()),
            }
            args.extend(m.operand[1..].iter().cloned());
            if m.array_aware {
                args.push("--array-aware".into());
            }
            out.push(Invocation {
                label: m.label.clone(),
                kind,
                args,
            });
        }
    }
    Rng::new(seed, 1000 + pass).shuffle(&mut out);
    out
}
