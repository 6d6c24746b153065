//! The end-to-end runs (`--trace 0`): `omc` spawned as a user spawns it,
//! timed from this process, every output checked.
//!
//! Every workload reports the same contract metrics, each defined on the
//! workload's own unit of work (see the README). A run repeats the
//! workload's job; each repetition yields a wall time and the median and
//! tail latency of the items it contains. Across repetitions the
//! interquartile mean (`stats::midmean`) is reported:
//!
//! * `setup_s`      — time until work can start;
//! * `wall_s`       — wall time of one repetition of the job;
//! * `item_ms`      — the typical time of one item of work;
//! * `item_tail_ms` — the tail latency of the same items;
//! * `peak_rss_mb`  — highest peak RSS of any `omc` process of the run.
//!
//! Every time is scaled to the reference host speed by the probe in
//! `speed` (its factor for the interval the time was measured over).

use crate::checks::{self, SimOutput};
use crate::inputs::{self, Kind, ServeModel, ServeRequest, ServeStream, Sizes};
use crate::proc::{self, Omc, Run};
use crate::report::{Metric, Outcome};
use crate::speed::Speed;
use crate::stats::{self, Rng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What every workload runner gets.
pub struct Ctx {
    pub omc: Omc,
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    pub started: Instant,
    /// The host-speed probe; without one, times are not scaled.
    pub speed: Option<Speed>,
}

impl Ctx {
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The factor that scales a time measured from `from` to `to` to the
    /// reference host speed.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        self.speed.as_ref().map_or(1.0, |s| s.factor(from, to))
    }

    /// The factor for one finished invocation.
    fn factor_of(&self, r: &Run) -> f64 {
        let took = Duration::try_from_secs_f64(r.wall_s).unwrap_or_default();
        self.factor(r.ended.checked_sub(took).unwrap_or(r.ended), r.ended)
    }

    /// Keep repeating: fewer than the minimum so far, or time left.
    fn more(&self, done: usize) -> bool {
        done < self.sizes.min_reps || self.elapsed() < self.seconds
    }

    /// Write an input file into the working directory.
    fn write(&self, name: &str, body: &str) -> Result<(), String> {
        std::fs::write(self.omc.cwd.join(name), body).map_err(|e| format!("write {name}: {e}"))
    }

    /// The repository's example models, `(absolute path, source)`.
    pub fn examples(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = std::fs::read_dir(self.root.join("examples"))
            .map(|dir| {
                dir.flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "om"))
                    .filter_map(|p| {
                        let source = std::fs::read_to_string(&p).ok()?;
                        Some((p.display().to_string(), source))
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }
}

fn exit_ok(r: &Run) -> Result<(), String> {
    if r.exit.ok() {
        Ok(())
    } else {
        Err(format!(
            "exit {:?} after {:.3}s: {}",
            r.exit.code,
            r.wall_s,
            proc::tail(&r.stderr)
        ))
    }
}

/// The five contract metrics, in `BENCHMARK.json` order: interquartile
/// means of per-set-up and per-repetition samples (s, s, ms, ms), and the
/// peak RSS.
fn contract(
    setup: Vec<f64>,
    wall: Vec<f64>,
    item_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        Metric::midmean("setup_s", "s", setup),
        Metric::midmean("wall_s", "s", wall),
        Metric::midmean("item_ms", "ms", item_ms),
        Metric::midmean("item_tail_ms", "ms", tail_ms),
        Metric::value("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

// ---------------------------------------------------------------- pde

/// pde-serial / pde-ws2: one large array-aware PDE, integrated by the
/// serial default or by two work-stealing workers.
pub fn pde(ctx: &Ctx, ws2: bool) -> Outcome {
    let s = &ctx.sizes;
    let mut out = Outcome::default();
    let sets = inputs::pde_sets(ctx.seed, s);
    let args = |ws: bool, tend: f64| {
        let mut a: Vec<String> = [
            "heat1d",
            "simulate",
            "--size",
            &s.pde_cells.to_string(),
            "--array-aware",
            "--solver",
            "rk4",
            "--h",
            &inputs::num(s.pde_h),
            "--tend",
            &inputs::num(tend),
        ]
        .iter()
        .map(|x| x.to_string())
        .collect();
        for (cell, v) in &sets {
            a.push("--set".into());
            a.push(format!("u[{cell}]={}", inputs::num(*v)));
        }
        if ws {
            a.extend(["--workers", "2", "--executor", "ws"].map(String::from));
        }
        a
    };
    out.notes
        .push(format!("input: omc {}", args(ws2, s.pde_tend()).join(" ")));
    out.notes.push(format!(
        "input properties: state dim {}, {} RK4 steps = {} RHS calls per invocation",
        s.pde_cells,
        s.pde_steps,
        4 * s.pde_steps
    ));
    let reference = checks::pde_reference(s.pde_cells, &sets, s.pde_h, s.pde_steps);
    let mut rss = 0f64;

    // Each repetition: the invocation's set-up alone (the same invocation
    // over a one-step span, `--tend` = `--h`), then the invocation.
    let (mut walls, mut setup) = (Vec::new(), Vec::new());
    let mut first: Option<SimOutput> = None;
    while ctx.more(walls.len()) {
        let r = ctx.omc.run(&args(ws2, s.pde_h));
        rss = rss.max(r.exit.peak_rss_mb);
        setup.push(r.wall_s * ctx.factor_of(&r));
        out.op("pde.one_step", exit_ok(&r));
        let r = ctx.omc.run(&args(ws2, s.pde_tend()));
        rss = rss.max(r.exit.peak_rss_mb);
        walls.push(r.wall_s * ctx.factor_of(&r));
        let verdict = exit_ok(&r).and_then(|()| {
            let sim = checks::parse_simulate(&r.stdout)?;
            checks::check_pde(&sim, &reference, s.pde_steps, 1e-9)?;
            first.get_or_insert(sim);
            Ok(())
        });
        out.op("pde.reference", verdict);
    }

    // The other mode once, untimed: serial and ws2 must agree.
    let r = ctx.omc.run(&args(!ws2, s.pde_tend()));
    rss = rss.max(r.exit.peak_rss_mb);
    let verdict = exit_ok(&r).and_then(|()| {
        let other = checks::parse_simulate(&r.stdout)?;
        checks::check_pde(&other, &reference, s.pde_steps, 1e-9)?;
        let first = first.as_ref().ok_or("no timed output to compare")?;
        checks::check_cross(first, &other, 1e-12)
    });
    out.op("pde.serial_vs_ws2", verdict);

    // One item per repetition: an RK4 step's marginal cost, the
    // invocation's wall time less its one-step invocation's.
    let step_ms: Vec<f64> = walls
        .iter()
        .zip(&setup)
        .map(|(w, one)| (w - one) / (s.pde_steps - 1) as f64 * 1e3)
        .collect();
    let name = if ws2 { "simulate_w2_s" } else { "simulate_s" };
    out.detail.push(Metric::midmean(name, "s", walls.clone()));
    out.metrics = contract(setup, walls, step_ms.clone(), step_ms, rss);
    out
}

// ------------------------------------------------------------ bearing

/// The two report lines `omc sweep` prints, as numbers.
#[derive(Debug, PartialEq)]
struct SweepLine {
    scenarios: usize,
    completed: usize,
    p50_ms: f64,
    p99_ms: f64,
}

fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_sweep(stdout: &str) -> Result<SweepLine, String> {
    let bad = || format!("unexpected sweep report `{}`", stdout.trim());
    Ok(SweepLine {
        scenarios: number_after(stdout, "]: ").ok_or_else(bad)? as usize,
        completed: number_after(stdout, " scenarios = ").ok_or_else(bad)? as usize,
        p50_ms: number_after(stdout, "p50 ").ok_or_else(bad)?,
        p99_ms: number_after(stdout, "p99 ").ok_or_else(bad)?,
    })
}

/// In-process reference for bearing scenarios: the tree-walking
/// evaluator with a plain RK4 loop.
pub struct BearingReference {
    ir: om_ir::OdeIr,
    eval: om_ir::IrEvaluator,
    y_index: usize,
}

impl BearingReference {
    pub fn new(source: &str) -> Result<BearingReference, String> {
        let flat = om_lang::compile(source).map_err(|e| e.to_string())?;
        let ir = om_ir::causalize(&flat).map_err(|e| e.to_string())?;
        let eval = om_ir::IrEvaluator::new(&ir).map_err(|e| e.to_string())?;
        let y_index = ir
            .states
            .iter()
            .position(|s| s.sym.name() == "y")
            .ok_or("no state `y`")?;
        Ok(BearingReference { ir, eval, y_index })
    }

    pub fn final_state(&self, y: f64, h: f64, steps: usize) -> Vec<f64> {
        let mut y0 = self.ir.initial_state();
        y0[self.y_index] = y;
        checks::rk4(&mut |t, y, d| self.eval.rhs(t, y, d), &y0, h, steps)
    }
}

/// Compare a seeded sample of manifest entries with the reference.
pub fn check_bearing_sample(
    manifest: &checks::Manifest,
    ys: &[f64],
    reference: &BearingReference,
    sizes: &Sizes,
    seed: u64,
) -> Result<(), String> {
    if manifest.entries.len() != ys.len() {
        return Err(format!(
            "{} manifest entries for {} scenarios",
            manifest.entries.len(),
            ys.len()
        ));
    }
    let mut rng = Rng::new(seed, 3);
    for _ in 0..sizes.bearing_checked {
        let i = rng.below(ys.len());
        let entry = &manifest.entries[i];
        if entry.index != i || entry.status != "completed" {
            return Err(format!(
                "scenario {i}: {} at row {}",
                entry.status, entry.index
            ));
        }
        let want = reference.final_state(ys[i], sizes.bearing_h, sizes.bearing_steps);
        let err = checks::componentwise_err(&entry.y, &want);
        if err > 1e-9 {
            return Err(format!(
                "scenario {i}: componentwise relative error {err:.3e} > 1e-9"
            ));
        }
    }
    Ok(())
}

/// Scenario workers of the bearing sweep (`--concurrency`).
const BEARING_WORKERS: usize = 2;

/// bearing-sweep: ensemble throughput over one compiled model.
pub fn bearing(ctx: &Ctx) -> Outcome {
    let s = &ctx.sizes;
    let mut out = Outcome::default();
    let ys = inputs::bearing_ys(ctx.seed, s);
    if let Err(e) = ctx.write("bearing-params.json", &inputs::params_json("y", &ys)) {
        out.op("bearing.inputs", Err(e));
        return out;
    }
    let args = |tend: f64, manifest: bool| {
        let mut a: Vec<String> = [
            "bearing2d",
            "sweep",
            "--size",
            &s.bearing_rollers.to_string(),
            "--params",
            "bearing-params.json",
            "--tend",
            &inputs::num(tend),
            "--h",
            &inputs::num(s.bearing_h),
            "--concurrency",
            &BEARING_WORKERS.to_string(),
            "--batch",
            "8",
        ]
        .iter()
        .map(|x| x.to_string())
        .collect();
        if manifest {
            a.extend(["--manifest", "bearing-manifest.json"].map(String::from));
        }
        a
    };
    out.notes.push(format!(
        "input: omc {}",
        args(s.bearing_tend(), true).join(" ")
    ));
    out.notes.push(format!(
        "input properties: {} rollers, {} scenarios, y start in [-5e-5, -3e-5], {} RK4 steps, 1 distinct source",
        s.bearing_rollers, s.bearing_scenarios, s.bearing_steps
    ));
    let reference = match BearingReference::new(&inputs::bearing_source(s.bearing_rollers)) {
        Ok(r) => r,
        Err(e) => {
            out.op("bearing.reference", Err(e));
            return out;
        }
    };
    let mut rss = 0f64;
    let sweep_op = |out: &mut Outcome, r: &Run, what: &str| -> Option<SweepLine> {
        let line = exit_ok(r).and_then(|()| parse_sweep(&r.stdout));
        match line {
            Ok(l) => {
                for k in 0..l.scenarios {
                    let ok = if k < l.completed {
                        Ok(())
                    } else {
                        Err("scenario did not complete".to_string())
                    };
                    out.op(what, ok);
                }
                Some(l)
            }
            Err(e) => {
                out.op(what, Err(e));
                None
            }
        }
    };

    // Each repetition: the sweep's set-up alone (the same sweep over a
    // one-step span), then the sweep.
    let (mut walls, mut setup, mut rates, mut p50, mut p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_manifest: Option<String> = None;
    while ctx.more(walls.len()) {
        let r = ctx.omc.run(&args(s.bearing_h, false));
        rss = rss.max(r.exit.peak_rss_mb);
        setup.push(r.wall_s * ctx.factor_of(&r));
        sweep_op(&mut out, &r, "bearing.one_step");
        let _ = std::fs::remove_file(ctx.omc.cwd.join("bearing-manifest.json"));
        let r = ctx.omc.run(&args(s.bearing_tend(), true));
        rss = rss.max(r.exit.peak_rss_mb);
        let f = ctx.factor_of(&r);
        walls.push(r.wall_s * f);
        let line = sweep_op(&mut out, &r, "bearing.scenario");
        rates.push(
            line.as_ref()
                .map_or(f64::NAN, |l| l.completed as f64 / (r.wall_s * f)),
        );
        p50.push(line.as_ref().map_or(f64::NAN, |l| l.p50_ms * f));
        p99.push(line.as_ref().map_or(f64::NAN, |l| l.p99_ms * f));
        let text = std::fs::read_to_string(ctx.omc.cwd.join("bearing-manifest.json"))
            .map_err(|e| format!("manifest: {e}"));
        let verdict = text.and_then(|text| match &first_manifest {
            None => {
                let m = checks::parse_manifest(&text)?;
                check_bearing_sample(&m, &ys, &reference, s, ctx.seed)?;
                first_manifest = Some(text);
                Ok(())
            }
            Some(first) if *first == text => Ok(()),
            Some(_) => Err("manifest differs from the first repetition's".into()),
        });
        out.op("bearing.manifest", verdict);
    }

    out.detail
        .push(Metric::midmean("sweep_scen_per_s", "1/s", rates));
    out.detail
        .push(Metric::midmean("scenario_p50_ms", "ms", p50.clone()));
    out.detail
        .push(Metric::midmean("scenario_p99_ms", "ms", p99.clone()));
    // One item is one scenario: its share of the workers' time, the sweep's
    // wall time less its one-step sweep's, times the workers, over the
    // scenarios. (The sweep's own p50 is the median of its batches'
    // times, which two CPUs of different speeds split into two groups; it
    // jumps between them from one repetition to the next.)
    let item_ms: Vec<f64> = walls
        .iter()
        .zip(&setup)
        .map(|(w, one)| (w - one) * BEARING_WORKERS as f64 / s.bearing_scenarios as f64 * 1e3)
        .collect();
    out.metrics = contract(setup, walls, item_ms, p99, rss);
    out
}

// -------------------------------------------------------------- serve

/// One answered request, as its client saw and checked it. Only sampled
/// requests keep their records (for the comparison with `omc sweep`).
struct Answer {
    block: usize,
    latency_ms: f64,
    warm: bool,
    verdict: Result<(), String>,
    sampled: Option<(ServeRequest, Vec<String>)>,
}

/// Send one request line and read its response to the terminal line.
fn exchange(
    reader: &mut BufReader<UnixStream>,
    writer: &mut UnixStream,
    line: &str,
) -> Result<Vec<String>, String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut lines = Vec::new();
    loop {
        let mut reply = String::new();
        if reader
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?
            == 0
        {
            return Err("service closed the connection mid-response".into());
        }
        let reply = reply.trim_end().to_string();
        let terminal = [
            "\"type\":\"done\"",
            "\"type\":\"overloaded\"",
            "\"type\":\"error\"",
        ]
        .iter()
        .any(|t| reply.starts_with(&format!("{{{t}")));
        lines.push(reply);
        if terminal {
            return Ok(lines);
        }
    }
}

/// A request's response: one accepted line, one record per scenario,
/// and a `done` line counting every scenario completed.
pub fn check_response(lines: &[String], scenarios: usize) -> Result<Vec<String>, String> {
    let last = lines.last().ok_or("no response")?;
    if !last.starts_with("{\"type\":\"done\"") {
        return Err(format!("terminal line {last}"));
    }
    let completed = number_after(last, "\"completed\":").unwrap_or(-1.0);
    if completed != scenarios as f64 {
        return Err(format!("{completed} of {scenarios} scenarios completed"));
    }
    let records: Vec<String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"scenario\""))
        .filter_map(|l| checks::serve_record(l).map(str::to_string))
        .collect();
    if records.len() != scenarios {
        return Err(format!(
            "{} records for {scenarios} scenarios",
            records.len()
        ));
    }
    Ok(records)
}

fn connect(path: &str, within: Duration) -> Result<UnixStream, String> {
    let deadline = Instant::now() + within;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() > deadline => return Err(format!("connect {path}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A resident `omc serve` and the time its first cold request took.
struct Service {
    process: proc::Launched,
    socket: String,
    setup_s: f64,
}

impl Service {
    /// Spawn `omc serve`, connect, and send `first` (a cold,
    /// source-addressed request); set-up ends at its `done` line.
    fn start(ctx: &Ctx, socket: &str, first: &str, scenarios: usize) -> Result<Service, String> {
        let _ = std::fs::remove_file(ctx.omc.cwd.join(socket));
        let started = Instant::now();
        let process = ctx
            .omc
            .spawn(&["serve", "--socket", socket, "--concurrency", "2"])?;
        let mut service = Service {
            process,
            socket: socket.to_string(),
            setup_s: 0.0,
        };
        let answered = (|| {
            let stream = connect(socket, Duration::from_secs(20))?;
            let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(stream);
            let lines = exchange(&mut reader, &mut writer, first)?;
            check_response(&lines, scenarios).map(|_| ())
        })();
        service.setup_s = started.elapsed().as_secs_f64();
        match answered {
            Ok(()) => Ok(service),
            Err(e) => {
                service.stop();
                Err(e)
            }
        }
    }

    /// SIGTERM (graceful drain), then reap. Returns the exit.
    fn stop(&mut self) -> proc::Exit {
        self.process.stop()
    }
}

/// serve-mix: two closed-loop clients against one resident service.
pub fn serve(ctx: &Ctx) -> Outcome {
    let s = &ctx.sizes;
    let mut out = Outcome::default();
    let models = inputs::serve_models(s);
    out.notes.push(format!(
        "input: omc serve --socket serve.sock --concurrency 2 (registry cap 32); 2 closed-loop \
         clients; {} distinct sources by Zipf(1) rank: {}",
        models.len(),
        models
            .iter()
            .map(|m| m.label.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.notes.push(format!(
        "input properties: {}-{} scenarios per request, batch 1, {} RK4 steps, >= {} requests",
        s.serve_scenarios.0, s.serve_scenarios.1, s.serve_steps, s.serve_min_requests
    ));
    // The set-up request: the most popular model, cold.
    let mut rng = Rng::new(ctx.seed, 5);
    let (lo, hi) = models[0].range;
    let warmup = ServeRequest {
        model: 0,
        values: (0..s.serve_scenarios.0)
            .map(|_| rng.uniform(lo, hi))
            .collect(),
    };
    let warm_line = warmup.line("setup", &models, s);
    let mut rss = 0f64;
    let mut setup = Vec::new();
    // Stand-alone set-ups, before and after the closed loop.
    let setups =
        |out: &mut Outcome, setup: &mut Vec<f64>, rss: &mut f64, reps: std::ops::Range<usize>| {
            for rep in reps {
                let begun = Instant::now();
                match Service::start(
                    ctx,
                    &format!("setup{rep}.sock"),
                    &warm_line,
                    warmup.values.len(),
                ) {
                    Ok(mut svc) => {
                        setup.push(svc.setup_s * ctx.factor(begun, Instant::now()));
                        let exit = svc.stop();
                        *rss = rss.max(exit.peak_rss_mb);
                        out.op(
                            "serve.setup",
                            if exit.ok() {
                                Ok(())
                            } else {
                                Err(format!("serve exit {:?}", exit.code))
                            },
                        );
                    }
                    Err(e) => out.op("serve.setup", Err(e)),
                }
            }
        };
    setups(&mut out, &mut setup, &mut rss, 1..s.setup_reps);
    let begun = Instant::now();
    let mut svc = match Service::start(ctx, "serve.sock", &warm_line, warmup.values.len()) {
        Ok(svc) => svc,
        Err(e) => {
            out.op("serve.start", Err(e));
            return out;
        }
    };
    setup.push(svc.setup_s * ctx.factor(begun, Instant::now()));

    // The closed loop, in blocks: both clients send their half of a block,
    // then wait for each other, so that every block is timed whole.
    let per_client = (s.serve_block / 2).max(1);
    let barrier = Barrier::new(3);
    let stop = AtomicBool::new(false);
    let loop_start = Instant::now();
    let hard_cap = 120.0f64.max(ctx.seconds);
    let client = |c: u64| -> Result<Vec<Answer>, String> {
        let conn = connect(&svc.socket, Duration::from_secs(5)).and_then(|stream| {
            let writer = stream.try_clone().map_err(|e| e.to_string())?;
            Ok((BufReader::new(stream), writer))
        });
        let (mut io, mut failed) = match conn {
            Ok(io) => (Some(io), None),
            Err(e) => (None, Some(e)),
        };
        let mut requests = ServeStream::new(ctx.seed, c, &models, s).enumerate();
        let mut rng = Rng::new(ctx.seed, 200 + c);
        let picks: Vec<usize> = (0..s.serve_checked.div_ceil(2))
            .map(|_| rng.below(per_client))
            .collect();
        let mut answers = Vec::new();
        for block in 0.. {
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if let Some((reader, writer)) = io.as_mut() {
                for (k, req) in requests.by_ref().take(per_client) {
                    let line = req.line(&format!("c{c}-{k}"), &models, s);
                    let sent = Instant::now();
                    match exchange(reader, writer, &line) {
                        Ok(lines) => {
                            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                            let warm = lines.iter().any(|l| l.contains("\"registry\":\"warm\""));
                            let checked = check_response(&lines, req.values.len());
                            let sampled = match &checked {
                                Ok(records) if picks.contains(&k) => Some((req, records.clone())),
                                _ => None,
                            };
                            answers.push(Answer {
                                block,
                                latency_ms,
                                warm,
                                verdict: checked.map(|_| ()),
                                sampled,
                            });
                        }
                        Err(e) => {
                            failed = Some(e);
                            io = None;
                            break;
                        }
                    }
                }
            }
            barrier.wait();
        }
        failed.map_or(Ok(answers), Err)
    };
    let (mut blocks, mut block_factor) = (Vec::new(), Vec::new());
    let results: Vec<Result<Vec<Answer>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64).map(|c| scope.spawn(move || client(c))).collect();
        loop {
            let begun = Instant::now();
            barrier.wait();
            barrier.wait();
            let took = begun.elapsed().as_secs_f64();
            let f = ctx.factor(begun, Instant::now());
            blocks.push(took * f);
            block_factor.push(f);
            let enough =
                blocks.len() >= s.min_reps && blocks.len() * s.serve_block >= s.serve_min_requests;
            if (enough && ctx.elapsed() >= ctx.seconds)
                || loop_start.elapsed().as_secs_f64() > hard_cap
            {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let loop_wall = loop_start.elapsed().as_secs_f64();
    let exit = svc.stop();
    rss = rss.max(exit.peak_rss_mb);
    out.op(
        "serve.drain",
        if exit.ok() {
            Ok(())
        } else {
            Err(format!("serve exit {:?}", exit.code))
        },
    );
    setups(
        &mut out,
        &mut setup,
        &mut rss,
        s.setup_reps..2 * s.setup_reps,
    );

    let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); blocks.len()];
    let mut latencies = Vec::new();
    let mut warm = 0usize;
    let mut to_check: Vec<(ServeRequest, Vec<String>)> = Vec::new();
    for r in results {
        match r {
            Ok(answers) => {
                for a in answers {
                    let latency_ms = a.latency_ms * block_factor[a.block];
                    latencies.push(latency_ms);
                    per_block[a.block].push(latency_ms);
                    warm += usize::from(a.warm);
                    to_check.extend(a.sampled);
                    out.op("serve.request", a.verdict);
                }
            }
            Err(e) => out.op("serve.client", Err(e)),
        }
    }
    // Records against `omc sweep` manifests for the same model and scenarios.
    for (k, (req, records)) in to_check.iter().enumerate() {
        let verdict = sweep_rows(ctx, &models[req.model], req, k).and_then(|(rows, run_rss)| {
            rss = rss.max(run_rss);
            checks::check_records(records, &rows)
        });
        out.op("serve.records_vs_sweep", verdict);
    }
    if to_check.is_empty() {
        out.op(
            "serve.records_vs_sweep",
            Err("no request was sampled for the check".into()),
        );
    }

    let block_p50: Vec<f64> = per_block
        .iter()
        .map(|l| stats::percentile(l, 0.5))
        .collect();
    let block_p99: Vec<f64> = per_block
        .iter()
        .map(|l| stats::percentile(l, 0.99))
        .collect();
    let n = latencies.len();
    out.notes.push(format!(
        "serve: {n} requests in {} blocks, {loop_wall:.3}s over 2 connections, {warm} warm / {} cold registry lookups ({} checked against sweep manifests)",
        blocks.len(),
        n - warm.min(n),
        to_check.len()
    ));
    out.detail.push(Metric::percentile(
        "request_p50_ms",
        "ms",
        latencies.clone(),
        0.5,
    ));
    out.detail
        .push(Metric::percentile("request_p99_ms", "ms", latencies, 0.99));
    out.detail.push(Metric::value(
        "requests_per_s",
        "1/s",
        n as f64 / blocks.iter().sum::<f64>(),
    ));
    out.detail.push(Metric::value(
        "registry_warm_frac",
        "ratio",
        warm as f64 / n.max(1) as f64,
    ));
    out.metrics = contract(setup, blocks, block_p50, block_p99, rss);
    out
}

/// Run `omc sweep` over one request's model and scenarios; its manifest
/// rows and the sweep's peak RSS.
fn sweep_rows(
    ctx: &Ctx,
    model: &ServeModel,
    req: &ServeRequest,
    k: usize,
) -> Result<(Vec<String>, f64), String> {
    let src = format!("serve-check-{k}.om");
    let params = format!("serve-check-{k}.json");
    let manifest = format!("serve-check-{k}-manifest.json");
    ctx.write(&src, &model.source)?;
    ctx.write(&params, &inputs::params_json(model.state, &req.values))?;
    let tend = inputs::num(inputs::serve_tend(model, &ctx.sizes));
    let r = ctx.omc.run(&[
        src.as_str(),
        "sweep",
        "--params",
        &params,
        "--tend",
        &tend,
        "--h",
        &inputs::num(model.h),
        "--concurrency",
        "1",
        "--manifest",
        &manifest,
    ]);
    exit_ok(&r)?;
    let text = std::fs::read_to_string(ctx.omc.cwd.join(&manifest)).map_err(|e| e.to_string())?;
    Ok((checks::parse_manifest(&text)?.rows, r.exit.peak_rss_mb))
}

// -------------------------------------------------------- compile-lint

/// compile-lint: cold `tasks` and `lint` over a fixed model set.
pub fn compile_lint(ctx: &Ctx) -> Outcome {
    let s = &ctx.sizes;
    let mut out = Outcome::default();
    for (name, body) in inputs::lint_files(s) {
        if let Err(e) = ctx.write(name, &body) {
            out.op("compile_lint.inputs", Err(e));
            return out;
        }
    }
    let models = inputs::lint_models(s, &ctx.examples());
    out.notes.push(format!(
        "input: omc M tasks --workers 2 and omc M lint (+ --array-aware where it applies) for M in: {}",
        models.iter().map(|m| m.label.as_str()).collect::<Vec<_>>().join(" ")
    ));
    // Each invocation runs once per pass, in a seeded order, after the
    // pass's set-up (the smallest model's cold compile). An invocation's
    // time is its interquartile mean over passes; a repetition of the job is the sum of
    // those times.
    let mut rss = 0f64;
    let mut setup = Vec::new();
    let mut per_inv: HashMap<(String, Kind), Vec<f64>> = HashMap::new();
    let mut first_tasks: HashMap<String, String> = HashMap::new();
    let mut passes = 0;
    while ctx.more(passes) {
        let r = ctx.omc.run(&["servo.om", "tasks", "--workers", "2"]);
        rss = rss.max(r.exit.peak_rss_mb);
        setup.push(r.wall_s * ctx.factor_of(&r));
        out.op("compile_lint.setup", exit_ok(&r));
        for inv in inputs::lint_invocations(&models, ctx.seed, passes as u64) {
            let r = ctx.omc.run(&inv.args);
            rss = rss.max(r.exit.peak_rss_mb);
            per_inv
                .entry((inv.label.clone(), inv.kind))
                .or_default()
                .push(r.wall_s * ctx.factor_of(&r));
            let verdict = exit_ok(&r).and_then(|()| match inv.kind {
                Kind::Lint => checks::check_lint_clean(&r.stdout),
                Kind::Compile => match first_tasks.get(&inv.label) {
                    None if r.stdout.trim().is_empty() => Err("empty task listing".into()),
                    None => {
                        first_tasks.insert(inv.label.clone(), r.stdout.clone());
                        Ok(())
                    }
                    Some(first) if *first == r.stdout => Ok(()),
                    Some(_) => Err("task listing differs from the first pass's".into()),
                },
            });
            out.op(&format!("{} {}", inv.label, inv.args[1]), verdict);
        }
        passes += 1;
    }

    let mut table: Vec<_> = per_inv.into_iter().collect();
    table.sort_by(|a, b| a.0.cmp(&b.0));
    let (mut compile_s, mut lint_s, mut items_ms) = (0.0, 0.0, Vec::new());
    for ((label, kind), walls) in &table {
        let typical = stats::midmean(walls);
        match kind {
            Kind::Compile => compile_s += typical,
            Kind::Lint => lint_s += typical,
        }
        items_ms.push(typical * 1e3);
        out.notes.push(format!(
            "  {:<28} {:<6} {:>9.3} ms (interquartile mean over {})",
            label,
            if *kind == Kind::Lint { "lint" } else { "tasks" },
            typical * 1e3,
            walls.len()
        ));
    }
    out.detail.push(Metric::value("compile_s", "s", compile_s));
    out.detail.push(Metric::value("lint_s", "s", lint_s));
    out.metrics = vec![
        Metric::midmean("setup_s", "s", setup),
        Metric::value("wall_s", "s", compile_s + lint_s),
        Metric::value("item_ms", "ms", stats::median(&items_ms)),
        Metric::value("item_tail_ms", "ms", stats::tail_mean(&items_ms, 6)),
        Metric::value("peak_rss_mb", "MiB", rss),
    ];
    out
}
