//! Integration tests for the `omc` compiler driver.

use std::io::Write as _;
use std::process::Command;

fn omc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_omc"))
}

fn write_model(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("omc_test_{}_{name}.om", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create model file");
    f.write_all(body.as_bytes()).expect("write model");
    path
}

const OSC: &str = "model Osc;
  Real x(start = 1.0);
  Real y;
  equation
    der(x) = y;
    der(y) = -x;
end Osc;
";

#[test]
fn analyze_reports_sccs() {
    let path = write_model("analyze", OSC);
    let out = omc().arg(&path).arg("analyze").output().expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 states"), "{text}");
    assert!(text.contains("SCC sizes"), "{text}");
}

#[test]
fn analyze_dot_is_graphviz() {
    let path = write_model("dot", OSC);
    let out = omc()
        .arg(&path)
        .args(["analyze", "--dot"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
}

#[test]
fn emit_f90_and_cpp_and_mma() {
    let path = write_model("emit", OSC);
    for (lang, needle) in [
        ("f90", "subroutine RHS"),
        ("cpp", "void rhs"),
        ("mma", "Derivative[1]"),
    ] {
        let out = omc()
            .arg(&path)
            .args(["emit", "--lang", lang])
            .output()
            .expect("run omc");
        assert!(out.status.success(), "--lang {lang}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "--lang {lang}: {text}");
    }
}

#[test]
fn simulate_solves_the_oscillator() {
    let path = write_model("simulate", OSC);
    let t = std::f64::consts::PI; // half period: x = -1
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", &t.to_string(), "--rtol", "1e-9"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let x_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("x "))
        .expect("x line");
    let value: f64 = x_line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!((value + 1.0).abs() < 1e-5, "{value}");
}

#[test]
fn simulate_with_parallel_workers_and_overrides() {
    let path = write_model("parallel", OSC);
    let out = omc()
        .arg(&path)
        .args([
            "simulate",
            "--tend",
            "1.0",
            "--workers",
            "2",
            "--set",
            "x=0.0",
            "--set",
            "y=2.0",
        ])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // x(t) = 2 sin t with x(0)=0, y(0)=2.
    let x_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("x "))
        .expect("x line");
    let value: f64 = x_line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!((value - 2.0 * 1.0f64.sin()).abs() < 1e-4, "{value}");
}

#[test]
fn tasks_prints_schedule() {
    let path = write_model("tasks", OSC);
    let out = omc()
        .arg(&path)
        .args(["tasks", "--workers", "2"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schedule on 2 workers"), "{text}");
}

#[test]
fn lint_clean_model_exits_zero() {
    let path = write_model("lint_clean", OSC);
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn lint_errors_exit_5() {
    // Unresolved reference: a lint error.
    let path = write_model(
        "lint_err",
        "model M;\n  Real x(start=1.0);\nequation\n  der(x) = -x + nope;\nend M;\n",
    );
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert_eq!(out.status.code(), Some(5));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[OM010]"), "{text}");
    assert!(text.contains("4:17"), "{text}");
}

const WARNY: &str = "model W;
  Real x(start=1.0);
  Real dead;
equation
  der(x) = -x;
  dead = x * 2.0;
end W;
";

#[test]
fn lint_deny_warnings_exits_6() {
    let path = write_model("lint_warn", WARNY);
    // Without --deny, warnings do not fail the run…
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // …with it, they do.
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "warnings"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(6));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warning[OM020]"), "{text}");
    assert!(text.contains("warning[OM021]"), "{text}");
}

#[test]
fn lint_deny_info_exits_7() {
    // A state without a start value: info-level only.
    let path = write_model(
        "lint_info",
        "model I;\n  Real x;\nequation\n  der(x) = -x;\nend I;\n",
    );
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "warnings"])
        .output()
        .expect("run omc");
    assert!(out.status.success(), "info must pass --deny warnings");
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "info"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(7));
    assert!(String::from_utf8_lossy(&out.stdout).contains("info[OM022]"));
}

#[test]
fn lint_json_is_machine_readable() {
    let path = write_model("lint_json", WARNY);
    let out = omc()
        .arg(&path)
        .args(["lint", "--json"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"file\":"), "{text}");
    assert!(text.contains("\"code\":\"OM020\""), "{text}");
    assert!(
        text.contains("\"summary\":{\"error\":0,\"warning\":2,\"info\":0}"),
        "{text}"
    );
}

#[test]
fn lint_rejects_bad_deny_class() {
    let path = write_model("lint_baddeny", OSC);
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "everything"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny"));
}

#[test]
fn bad_model_reports_position() {
    let path = write_model("bad", "model M;\n  Real ;\nend M;");
    let out = omc().arg(&path).arg("analyze").output().expect("run omc");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("2:"), "{text}");
}

#[test]
fn unknown_state_override_fails_cleanly() {
    let path = write_model("badset", OSC);
    let out = omc()
        .arg(&path)
        .args(["simulate", "--set", "nope=1.0"])
        .output()
        .expect("run omc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}

#[test]
fn simulate_trace_writes_valid_chrome_json() {
    let path = write_model("trace", OSC);
    let trace_path =
        std::env::temp_dir().join(format!("omc_test_{}.trace.json", std::process::id()));
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", "0.5", "--workers", "2", "--trace"])
        .arg(&trace_path)
        .args(["--metrics"])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("== metrics =="), "{stderr}");
    assert!(stderr.contains("runtime.rhs_calls"), "{stderr}");

    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    let check = om_obs::chrome::validate_chrome_json(&doc).expect("valid chrome trace");
    assert!(check.events > 0, "trace has no events");
    // Supervisor spans and both worker tracks are present.
    let names: Vec<&str> = check
        .tracks
        .values()
        .filter_map(|t| t.name.as_deref())
        .collect();
    // At least one worker track (the tiny model's tasks may all fuse
    // onto one worker) plus the supervisor track.
    assert!(
        names.iter().any(|n| n.starts_with("om-worker-")),
        "{names:?}"
    );
    assert!(
        check
            .tracks
            .values()
            .any(|t| t.sequence.iter().any(|(_, n)| n == "rhs.eval")),
        "no rhs.eval spans in the trace"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn metrics_without_workers_reports_solver_counters() {
    let path = write_model("metrics_serial", OSC);
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", "0.5", "--metrics"])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("solver.rhs_calls"), "{stderr}");
    assert!(stderr.contains("solver.steps_accepted"), "{stderr}");
}

/// Serial `simulate` runs the same generated bytecode as the worker
/// pools, so its printed final state is byte-identical to a 2-worker
/// work-stealing run on every builtin (scalarized and array-aware) and
/// every shipped example, under both a fixed-step and an adaptive solver.
#[test]
fn serial_simulate_matches_two_worker_ws_byte_for_byte() {
    let mut models: Vec<Vec<String>> = [
        "heat1d --size 8",
        "heat1d --size 8 --array-aware",
        "bearing2d --size 3",
        "bearing3d --size 3",
    ]
    .iter()
    .map(|m| m.split(' ').map(str::to_owned).collect())
    .collect();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "om"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no examples/*.om");
    models.extend(files.iter().map(|p| vec![p.display().to_string()]));

    for model in &models {
        for solver in [
            &["--solver", "rk4", "--h", "1e-5"][..],
            &["--solver", "dopri5"],
        ] {
            let run = |extra: &[&str]| {
                let out = omc()
                    .arg(&model[0])
                    .arg("simulate")
                    .args(&model[1..])
                    .args(["--tend", "0.01"])
                    .args(solver)
                    .args(extra)
                    .output()
                    .expect("run omc");
                assert!(
                    out.status.success(),
                    "{model:?} {solver:?} {extra:?}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                out.stdout
            };
            let serial = run(&[]);
            let ws2 = run(&["--workers", "2", "--executor", "ws"]);
            assert!(
                serial == ws2,
                "{model:?} {solver:?}: serial and ws2 differ\n{}\n---\n{}",
                String::from_utf8_lossy(&serial),
                String::from_utf8_lossy(&ws2)
            );
        }
    }
}

#[test]
fn empty_time_span_is_a_typed_solver_error() {
    for solver in ["dopri5", "rk4"] {
        let out = omc()
            .args([
                "heat1d", "simulate", "--size", "4", "--tend", "0", "--solver", solver,
            ])
            .output()
            .expect("run omc");
        assert_eq!(out.status.code(), Some(3), "--solver {solver}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("solver error"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn sweep_and_request_reject_array_aware() {
    for command in ["sweep", "request"] {
        let out = omc()
            .args(["heat1d", command, "--array-aware", "--grid", "u[1]=0:1:2"])
            .args(["--socket", "/nonexistent/omc.sock"])
            .output()
            .expect("run omc");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("does not take --array-aware") && stderr.contains("scalarized"),
            "{command}: {stderr}"
        );
    }
}
