//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --omc PATH --root DIR --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --omc PATH --root DIR --self-check
//! perfbench --launch REPORT PROGRAM ARGS...   (internal: see `proc`)
//! ```
//!
//! `--trace 0` spawns `omc` the way a user does and prints the end-to-end
//! metrics; `--trace 1` feeds the same generated inputs through each
//! layer's public functions in process and prints per-layer metrics. The
//! last line of standard output is always one JSON object. `run.py` in
//! this directory builds `omc` and this program and passes the paths.

mod checks;
mod inputs;
mod layers;
mod proc;
mod report;
mod selfcheck;
mod speed;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Ctx;

pub const WORKLOADS: [&str; 5] = [
    "pde-serial",
    "pde-ws2",
    "bearing-sweep",
    "serve-mix",
    "compile-lint",
];

const USAGE: &str = "usage: perfbench --omc PATH --root DIR \
    (--workload NAME --seed N --seconds S --trace 0|1 | --self-check)";

struct Args {
    omc: PathBuf,
    root: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        omc: PathBuf::new(),
        root: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--omc" => args.omc = value()?.into(),
            "--root" => args.root = value()?.into(),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.self_check && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

/// Run one workload in one mode.
pub fn run_workload(ctx: &Ctx, workload: &str, trace: bool) -> report::Outcome {
    let mut out = if trace {
        layers::traced(ctx, workload)
    } else {
        match workload {
            "pde-serial" => workloads::pde(ctx, false),
            "pde-ws2" => workloads::pde(ctx, true),
            "bearing-sweep" => workloads::bearing(ctx),
            "serve-mix" => workloads::serve(ctx),
            _ => workloads::compile_lint(ctx),
        }
    };
    if let Some(speed) = &ctx.speed {
        let ms: Vec<f64> = speed.kernel_times().iter().map(|t| t * 1e3).collect();
        out.detail
            .push(report::Metric::median("speed.probe_kernel_ms", "ms", ms));
    }
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        out.op(
            &format!("metric {name}"),
            Err("no finite value was measured".into()),
        );
    }
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().collect();
    if raw.len() >= 4 && raw[1] == "--launch" {
        return proc::launch(std::path::Path::new(&raw[2]), &raw[3], &raw[4..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let paths = (
        args.root.canonicalize(),
        args.omc.canonicalize(),
        std::env::current_exe(),
    );
    let (root, bin, launcher) = match paths {
        (Ok(root), Ok(bin), Ok(launcher)) => (root, bin, launcher),
        _ => {
            eprintln!("perfbench: --root and --omc must name an existing directory and binary");
            return ExitCode::from(1);
        }
    };
    // Inputs, manifests and traces go here; paths stay short for sockets.
    let work = root.join(".perfbench-work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    // The service's Unix socket is addressed relative to this directory.
    if let Err(e) = std::env::set_current_dir(&work) {
        eprintln!("perfbench: cannot enter {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let omc = proc::Omc {
        bin,
        cwd: work,
        launcher,
    };
    if args.self_check {
        return match selfcheck::run(&root, &omc) {
            Ok(()) => {
                println!("self-check: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("self-check: FAILED: {e}");
                ExitCode::from(1)
            }
        };
    }
    // End-to-end times are scaled by the host-speed probe (see `speed`).
    let speed = if args.trace {
        None
    } else {
        match speed::Speed::start() {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("perfbench: host-speed probe: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let ctx = Ctx {
        omc,
        root,
        seed: args.seed,
        seconds: args.seconds,
        sizes: inputs::Sizes::full(),
        started: Instant::now(),
        speed,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in report::environment(&ctx.root) {
        println!("{line}");
    }
    let out = run_workload(&ctx, &args.workload, args.trace);
    println!("run wall: {:.3} s", ctx.elapsed());
    out.print();
    ExitCode::SUCCESS
}
