//! **Experiment E16** — resident-service warm-request latency versus
//! cold process spawn.
//!
//! The point of `omc serve` is amortization: the model registry stays
//! warm across requests, so a request pays scenario execution only,
//! while every `omc sweep` invocation pays process spawn + parse +
//! flatten + causalize + codegen before the first scenario runs. This
//! experiment measures both for the same 64-scenario batch on the
//! bearing model:
//!
//! * **cold** — wall-clock of a full `omc <bearing.om> sweep` process
//!   (the `--omc PATH` binary, default `./target/release/omc`),
//! * **warm** — in-process latency of one `op:"run"` request against a
//!   [`Server`] whose registry already holds the compiled bearing model
//!   (the first, priming request is reported separately as
//!   `warm_first_ms`).
//!
//! Gate (CI fails on regression): cold spawn must cost ≥ 5x the warm
//! request — if it doesn't, either the service stopped reusing the
//! registry or the sweep binary got suspiciously fast; both deserve a
//! look.
//!
//! Flags: `--quick` (fewer repeats), `--json` (BENCH_9.json on stdout,
//! human table on stderr), `--omc PATH`.

use om_bench::median;
use om_models::bearing2d::{self, BearingConfig};
use om_runtime::ensemble::json;
use om_runtime::{ServeConfig, Server};
use std::fmt::Write as _;
use std::time::Instant;

const SCENARIOS: usize = 64;
// The bearing contact dynamics are stiff: fixed steps above ~1e-5 s
// diverge and quarantine. One step per scenario keeps the batch real
// but small — the experiment measures *amortization of spawn+compile*,
// so scenario integration must not dominate either side. Both sides
// run the identical SoA lane width (the e14-gated substrate), so the
// ratio isolates the per-invocation fixed cost.
const TEND: f64 = 1.0e-5;
const H: f64 = 1e-5;
const BATCH: usize = 8;

/// Vertical-deflection start values for the batch: micron-scale
/// perturbations around the physical `y(start = -4.0e-5)` equilibrium
/// (larger offsets blow up the contact forces and quarantine).
const Y_LO: f64 = -5.0e-5;
const Y_HI: f64 = -3.0e-5;

/// The warm-side request: 64 bearing scenarios varying the vertical
/// deflection start value, same batch shape as the cold sweep grid.
/// The priming request ships the source; steady-state requests address
/// the already-compiled model by registry key, like a real warm client.
fn request_line(id: usize, model: &str, by_key: bool) -> String {
    let scenarios: Vec<String> = (0..SCENARIOS)
        .map(|i| {
            format!(
                "{{\"y\":{}}}",
                Y_LO + (Y_HI - Y_LO) * i as f64 / (SCENARIOS - 1) as f64
            )
        })
        .collect();
    let model = if by_key {
        format!("{{\"key\":\"{model}\"}}")
    } else {
        format!("{{\"source\":\"{}\"}}", json::escape(model))
    };
    format!(
        "{{\"id\":{id},\"op\":\"run\",\"model\":{model},\
         \"scenarios\":[{}],\"tend\":{TEND},\"h\":{H},\"batch\":{BATCH}}}",
        scenarios.join(","),
    )
}

/// Pull the 16-hex `model_key` out of an `accepted` response line.
fn model_key(accepted: &str) -> String {
    let tag = "\"model_key\":\"";
    let at = accepted.find(tag).expect("accepted line carries model_key") + tag.len();
    accepted[at..at + 16].to_owned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_out = args.iter().any(|a| a == "--json");
    let omc = args
        .iter()
        .position(|a| a == "--omc")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "./target/release/omc".to_owned());
    let repeats = if quick { 5 } else { 9 };

    if !std::path::Path::new(&omc).exists() {
        eprintln!(
            "e16: omc binary not found at `{omc}` — build it first \
             (cargo build --release) or pass --omc PATH"
        );
        std::process::exit(1);
    }

    // A heavier-than-default bearing (more rollers, waviness harmonics)
    // raises the compile cost the cold path pays per invocation — the
    // very cost a resident service exists to amortize. (At the default
    // 10-roller model the whole cold sweep is ~10 ms, too small to gate
    // on reliably.)
    let source = bearing2d::source(&BearingConfig {
        rollers: 24,
        waviness: 2,
        ..BearingConfig::default()
    });
    let model_path = std::env::temp_dir().join(format!("e16_bearing_{}.om", std::process::id()));
    std::fs::write(&model_path, &source).expect("write bearing model");

    // Cold: full process per batch — spawn + compile + sweep.
    let mut cold_times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        let out = std::process::Command::new(&omc)
            .args([
                model_path.to_str().unwrap(),
                "sweep",
                "--grid",
                &format!("y={Y_LO}:{Y_HI}:{SCENARIOS}"),
                "--tend",
                &TEND.to_string(),
                "--h",
                &H.to_string(),
                "--batch",
                &BATCH.to_string(),
            ])
            .output()
            .expect("spawn omc sweep");
        cold_times.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            out.status.success(),
            "cold sweep failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let cold_ms = median(cold_times.clone());

    // Warm: resident service, registry primed by the first request.
    // Pool width matches the sweep driver's default concurrency (4) so
    // the comparison isolates spawn+compile amortization, not
    // parallelism differences.
    let server = Server::new(ServeConfig {
        pool_threads: 4,
        ..ServeConfig::default()
    });
    let mut client = server.new_client();
    let first = Instant::now();
    let lines = server.handle_line(&request_line(0, &source, false), &mut client, 0);
    let warm_first_ms = first.elapsed().as_secs_f64() * 1e3;
    assert!(
        lines
            .last()
            .map(|l| l.contains("\"type\":\"done\""))
            .unwrap_or(false),
        "priming request must complete: {lines:?}"
    );
    let key = model_key(&lines[0]);
    let mut warm_times = Vec::with_capacity(repeats);
    for rep in 1..=repeats {
        let start = Instant::now();
        let lines = server.handle_line(&request_line(rep, &key, true), &mut client, 0);
        warm_times.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(
            lines[0].contains("\"registry\":\"warm\""),
            "request {rep} must hit the warm registry: {}",
            lines[0]
        );
        assert!(
            lines
                .last()
                .map(|l| l.contains("\"type\":\"done\""))
                .unwrap_or(false),
            "request {rep} must complete"
        );
    }
    let warm_ms = median(warm_times.clone());
    let speedup = cold_ms / warm_ms;

    std::fs::remove_file(&model_path).ok();

    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E16: resident-serve warm request vs cold sweep spawn \
         (bearing2d, {SCENARIOS} scenarios, median of {repeats}{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(table, "{:>22} {:>12}", "path", "latency_ms");
    let _ = writeln!(table, "{:>22} {:>12.2}", "cold omc sweep spawn", cold_ms);
    let _ = writeln!(table, "{:>22} {:>12.2}", "warm serve request", warm_ms);
    let _ = writeln!(
        table,
        "{:>22} {:>12.2}",
        "warm first (compiles)", warm_first_ms
    );
    let _ = writeln!(table, "amortization: {speedup:.1}x");
    if json_out {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e16_serve_latency",
        "path,latency_ms",
        &[
            format!("cold_spawn,{cold_ms:.3}"),
            format!("warm_request,{warm_ms:.3}"),
            format!("warm_first,{warm_first_ms:.3}"),
        ],
    );

    if json_out {
        // Hand-rolled JSON (no serde in the workspace): CI redirects
        // stdout to BENCH_9.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E16\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"model\": \"bearing2d\",");
        let _ = writeln!(out, "  \"scenarios\": {SCENARIOS},");
        let _ = writeln!(out, "  \"repeats\": {repeats},");
        let _ = writeln!(out, "  \"cold_spawn_ms\": {cold_ms:.3},");
        let _ = writeln!(out, "  \"warm_request_ms\": {warm_ms:.3},");
        let _ = writeln!(out, "  \"warm_first_request_ms\": {warm_first_ms:.3},");
        let _ = writeln!(out, "  \"amortization\": {speedup:.2}");
        let _ = writeln!(out, "}}");
        print!("{out}");
    }

    let mut gates = om_bench::GateDiff::new("e16");
    gates.check(
        "cold_spawn_vs_warm_request",
        format!("{speedup:.1}x"),
        ">= 5x",
        speedup >= 5.0,
    );
    gates.finish();
}
