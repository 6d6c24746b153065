//! `--self-check`: the benchmark checking itself on tiny inputs.
//!
//! 1. Every workload runs in both modes at quick sizes; each must pass its
//!    own correctness checks and emit exactly the metrics `BENCHMARK.json`
//!    names for that mode, each with its unit and a finite value.
//! 2. Every correctness check is shown to reject a deliberately perturbed
//!    output, so that no check can pass vacuously.

use crate::checks;
use crate::inputs::{self, Sizes};
use crate::proc::Omc;
use crate::workloads::{self, BearingReference, Ctx};
use om_runtime::ensemble::json::{self, Json};
use std::path::Path;
use std::time::Instant;

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{key}` list"))?;
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("`{key}` entry without name or unit")),
            }
        })
        .collect()
}

fn expect_err<T>(what: &str, result: Result<T, String>) -> Result<(), String> {
    match result {
        Err(e) => {
            println!("self-check rejects {what}: {e}");
            Ok(())
        }
        Ok(_) => Err(format!("the check accepted {what}")),
    }
}

pub fn run(root: &Path, omc: &Omc) -> Result<(), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let end_to_end = listed(&doc, "end_to_end")?;
    let per_layer = listed(&doc, "per_layer")?;
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if names != crate::WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} != {:?}",
            crate::WORKLOADS
        ));
    }

    let ctx = |seed| Ctx {
        omc: omc.clone(),
        root: root.to_path_buf(),
        seed,
        seconds: 0.0,
        sizes: Sizes::quick(),
        started: Instant::now(),
        speed: None,
    };

    // 1. Every metric, with its unit, in both modes, on every workload.
    for workload in crate::WORKLOADS {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let mut run_ctx = ctx(7);
            if !trace {
                // End-to-end times go through the host-speed probe; a time
                // it cannot scale is NaN, which fails the run below.
                run_ctx.speed = Some(crate::speed::Speed::start()?);
            }
            let out = crate::run_workload(&run_ctx, workload, trace);
            if !out.correct() {
                return Err(format!(
                    "{workload} trace={}: {} of {} operations failed: {:?}",
                    u8::from(trace),
                    out.failed,
                    out.attempted,
                    out.failures
                ));
            }
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            if got != *expected {
                let missing: Vec<_> = expected.iter().filter(|m| !got.contains(m)).collect();
                let extra: Vec<_> = got.iter().filter(|m| !expected.contains(m)).collect();
                return Err(format!(
                    "{workload} trace={}: metrics differ from BENCHMARK.json \
                     (missing {missing:?}, unlisted {extra:?}, or out of order)",
                    u8::from(trace)
                ));
            }
            println!(
                "self-check {workload} trace={}: {} metrics, {} operations, all correct",
                u8::from(trace),
                got.len(),
                out.attempted
            );
        }
    }

    // 2. Each check rejects a perturbed output.
    let ctx = ctx(11);
    let s = &ctx.sizes;
    let sets = inputs::pde_sets(ctx.seed, s);
    let reference = checks::pde_reference(s.pde_cells, &sets, s.pde_h, s.pde_steps);
    let mut args: Vec<String> = ["heat1d", "simulate", "--array-aware", "--solver", "rk4"]
        .map(String::from)
        .to_vec();
    args.extend([
        "--size".into(),
        s.pde_cells.to_string(),
        "--h".into(),
        inputs::num(s.pde_h),
        "--tend".into(),
        inputs::num(s.pde_tend()),
    ]);
    for (cell, v) in &sets {
        args.extend(["--set".into(), format!("u[{cell}]={}", inputs::num(*v))]);
    }
    let run = omc.run(&args);
    let sim = checks::parse_simulate(&run.stdout)?;
    checks::check_pde(&sim, &reference, s.pde_steps, 1e-9)?;
    checks::check_cross(&sim, &sim.clone(), 1e-12)?;
    let mut bad = sim.clone();
    bad.states[s.pde_cells / 2].1 *= 1.0 + 1e-6;
    expect_err(
        "a simulate state off by 1e-6 relative",
        checks::check_pde(&bad, &reference, s.pde_steps, 1e-9),
    )?;
    let mut bad = sim.clone();
    bad.states[s.pde_cells / 3].1 *= 1.0 + 1e-8;
    expect_err(
        "serial and ws2 states 1e-8 apart",
        checks::check_cross(&sim, &bad, 1e-12),
    )?;
    let mut bad = sim.clone();
    bad.steps += 1;
    expect_err(
        "a simulate run with one step too many",
        checks::check_pde(&bad, &reference, s.pde_steps, 1e-9),
    )?;

    let ys = inputs::bearing_ys(ctx.seed, s);
    std::fs::write(
        omc.cwd.join("selfcheck-params.json"),
        inputs::params_json("y", &ys),
    )
    .map_err(|e| e.to_string())?;
    let run = omc.run(&[
        "bearing2d",
        "sweep",
        "--size",
        &s.bearing_rollers.to_string(),
        "--params",
        "selfcheck-params.json",
        "--tend",
        &inputs::num(s.bearing_tend()),
        "--h",
        &inputs::num(s.bearing_h),
        "--batch",
        "8",
        "--manifest",
        "selfcheck-manifest.json",
    ]);
    if !run.exit.ok() {
        return Err(format!("quick sweep failed: {}", run.stderr));
    }
    let text = std::fs::read_to_string(omc.cwd.join("selfcheck-manifest.json"))
        .map_err(|e| e.to_string())?;
    let manifest = checks::parse_manifest(&text)?;
    let reference = BearingReference::new(&inputs::bearing_source(s.bearing_rollers))?;
    workloads::check_bearing_sample(&manifest, &ys, &reference, s, ctx.seed)?;
    let mut bad = manifest.clone();
    for e in &mut bad.entries {
        e.y[1] *= 1.0 + 1e-6;
    }
    expect_err(
        "sweep states off by 1e-6 relative",
        workloads::check_bearing_sample(&bad, &ys, &reference, s, ctx.seed),
    )?;

    checks::check_records(&manifest.rows, &manifest.rows)?;
    let mut bad = manifest.rows.clone();
    let last = bad.len() - 1;
    bad[last] = bad[last].replacen("\"y_bits\":[\"", "\"y_bits\":[\"f", 1);
    expect_err(
        "a service record differing in one byte",
        checks::check_records(&bad, &manifest.rows),
    )?;
    let rows: Vec<String> = manifest
        .rows
        .iter()
        .map(|r| format!("{{\"type\":\"scenario\",\"id\":\"x\",\"record\":{r}}}"))
        .collect();
    let n = rows.len();
    let mut lines = rows.clone();
    lines.push(format!(
        "{{\"type\":\"done\",\"id\":\"x\",\"completed\":{n},\"quarantined\":0}}"
    ));
    let records = workloads::check_response(&lines, n)?;
    checks::check_records(&records, &manifest.rows)?;
    lines.pop();
    lines.push(format!(
        "{{\"type\":\"done\",\"id\":\"x\",\"completed\":{},\"quarantined\":1}}",
        n - 1
    ));
    expect_err(
        "a response with one scenario not completed",
        workloads::check_response(&lines, n),
    )?;
    lines.pop();
    lines.push("{\"type\":\"overloaded\",\"id\":\"x\",\"reason\":\"capacity\"}".into());
    expect_err(
        "an overloaded response",
        workloads::check_response(&lines, n),
    )?;

    let run = omc.run(&["heat1d", "lint", "--size", "16", "--array-aware"]);
    checks::check_lint_clean(&run.stdout)?;
    let bad = run.stdout.replace("0 warning(s)", "1 warning(s)");
    expect_err(
        "a lint report with a warning",
        checks::check_lint_clean(&bad),
    )?;
    let bad = run.stdout.replace("0 error(s)", "2 error(s)");
    expect_err("a lint report with errors", checks::check_lint_clean(&bad))?;
    Ok(())
}
