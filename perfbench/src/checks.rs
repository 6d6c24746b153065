//! Independent references and the checks that compare `omc`'s outputs
//! with them. None of them runs the compiled code path under test: the
//! PDE reference is a hand-written stencil, the sweep reference is the
//! tree-walking evaluator with a plain RK4 loop, and the service is held
//! to the manifest rows `omc sweep` writes.

/// A right-hand side `f(t, y, dydt)`.
pub type RhsFn<'a> = dyn FnMut(f64, &[f64], &mut [f64]) + 'a;

/// Classic RK4 with a fixed step, written out the way the solver steps
/// (same stage combination), over any right-hand side.
pub fn rk4(f: &mut RhsFn<'_>, y0: &[f64], h: f64, steps: usize) -> Vec<f64> {
    let n = y0.len();
    let mut y = y0.to_vec();
    let (mut k1, mut k2, mut k3, mut k4) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut tmp = vec![0.0; n];
    let mut t = 0.0;
    for _ in 0..steps {
        f(t, &y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        f(t + 0.5 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        f(t + 0.5 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + h * k3[i];
        }
        f(t + h, &tmp, &mut k4);
        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
    }
    y
}

/// The `heat1d` builtin's method-of-lines system written as a plain
/// stencil: `du_i = c₋·u_{i−1} + c₀·u_i + c₊·u_{i+1}` with zero
/// Dirichlet boundaries, α = 1 and v = 0.4 (the values the builtin uses).
pub struct Stencil {
    prev: f64,
    mid: f64,
    next: f64,
}

impl Stencil {
    pub fn heat1d(cells: usize) -> Stencil {
        let h = 1.0 / (cells as f64 + 1.0);
        let d = 1.0 / (h * h);
        let a = 0.4 / h;
        Stencil {
            prev: d + a,
            mid: -(2.0 * d + a),
            next: d,
        }
    }

    pub fn rhs(&self, u: &[f64], du: &mut [f64]) {
        let n = u.len();
        du[0] = self.mid * u[0] + self.next * u[1];
        for i in 1..n - 1 {
            du[i] = self.prev * u[i - 1] + self.mid * u[i] + self.next * u[i + 1];
        }
        du[n - 1] = self.prev * u[n - 2] + self.mid * u[n - 1];
    }
}

/// `heat1d`'s initial profile `u_i = sin(π·i·Δx)` with `--set` overrides
/// (the generated source spells π as `3.14159265358979312`, which parses
/// to `f64::consts::PI`).
pub fn heat_initial(cells: usize, sets: &[(usize, f64)]) -> Vec<f64> {
    let h = 1.0 / (cells as f64 + 1.0);
    let mut u: Vec<f64> = (1..=cells)
        .map(|i| (std::f64::consts::PI * i as f64 * h).sin())
        .collect();
    for &(cell, v) in sets {
        u[cell - 1] = v;
    }
    u
}

/// Final state of the plain stencil integrated like pde-simulate.
pub fn pde_reference(cells: usize, sets: &[(usize, f64)], h: f64, steps: usize) -> Vec<f64> {
    let stencil = Stencil::heat1d(cells);
    let u0 = heat_initial(cells, sets);
    rk4(&mut |_, u, du| stencil.rhs(u, du), &u0, h, steps)
}

/// `omc … simulate` output: the header's step and RHS-call counts and the
/// printed final state, `(name, value)` in state order.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutput {
    pub steps: usize,
    pub rhs_calls: usize,
    pub states: Vec<(String, f64)>,
}

pub fn parse_simulate(stdout: &str) -> Result<SimOutput, String> {
    let mut lines = stdout.lines();
    let header = lines.next().ok_or("empty simulate output")?;
    // "t = 0.000000: 125 steps, 500 RHS calls"
    let counts = header
        .split_once(": ")
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("unexpected simulate header `{header}`"))?;
    let mut words = counts.split_whitespace();
    let steps = words.next().and_then(|w| w.parse().ok());
    let rhs_calls = words.nth(1).and_then(|w| w.parse().ok());
    let (Some(steps), Some(rhs_calls)) = (steps, rhs_calls) else {
        return Err(format!("unexpected simulate header `{header}`"));
    };
    let mut states = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once('=')
            .ok_or_else(|| format!("unexpected state line `{line}`"))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("state `{}`: {e}", name.trim()))?;
        states.push((name.trim().to_string(), value));
    }
    Ok(SimOutput {
        steps,
        rhs_calls,
        states,
    })
}

/// Max-norm relative error `max|a−b| / max|b|`.
pub fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    let scale = b
        .iter()
        .fold(0.0f64, |m, x| m.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    let err = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
    if a.len() == b.len() && err.is_finite() {
        err / scale
    } else {
        f64::INFINITY
    }
}

/// Componentwise relative error `max_i |a_i−b_i| / (|b_i| + 1e-6·max|b|)`:
/// small states are held to their own magnitude, not to the largest one.
pub fn componentwise_err(a: &[f64], b: &[f64]) -> f64 {
    let floor = 1e-6 * b.iter().fold(0.0f64, |m, x| m.max(x.abs())) + f64::MIN_POSITIVE;
    let err = a
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs() / (y.abs() + floor)));
    if a.len() == b.len() && err.is_finite() {
        err
    } else {
        f64::INFINITY
    }
}

/// A simulate output against the plain-stencil reference: `cells` states
/// named `u[1]…u[N]`, the expected step and call counts, and the final
/// state within `tol` relative in max norm.
pub fn check_pde(
    out: &SimOutput,
    reference: &[f64],
    steps: usize,
    tol: f64,
) -> Result<f64, String> {
    if out.steps != steps || out.rhs_calls != 4 * steps {
        return Err(format!(
            "{} steps / {} RHS calls, expected {steps} / {}",
            out.steps,
            out.rhs_calls,
            4 * steps
        ));
    }
    if out.states.len() != reference.len() {
        return Err(format!(
            "{} states printed, expected {}",
            out.states.len(),
            reference.len()
        ));
    }
    if let Some((i, (name, _))) = out
        .states
        .iter()
        .enumerate()
        .find(|(i, (name, _))| *name != format!("u[{}]", i + 1))
    {
        return Err(format!("state {} is named `{name}`", i + 1));
    }
    let values: Vec<f64> = out.states.iter().map(|(_, v)| *v).collect();
    let err = max_rel_err(&values, reference);
    if err <= tol {
        Ok(err)
    } else {
        Err(format!(
            "max-norm relative error {err:.3e} exceeds {tol:.0e}"
        ))
    }
}

/// One unit in the last digit `omc simulate` prints (`{:+.9e}`: ten
/// significant digits).
fn printed_unit(x: f64) -> f64 {
    if x == 0.0 {
        return 1e-300;
    }
    10f64.powi(x.abs().log10().floor() as i32 - 9)
}

/// Serial against parallel final states: within `rel` relative (the
/// tree-vs-bytecode contract, 1e-12), up to one unit in the last printed
/// digit, since the output carries ten significant digits.
pub fn check_cross(a: &SimOutput, b: &SimOutput, rel: f64) -> Result<(), String> {
    if a.states.len() != b.states.len() || a.steps != b.steps {
        return Err(format!(
            "shapes differ: {} states / {} steps vs {} / {}",
            a.states.len(),
            a.steps,
            b.states.len(),
            b.steps
        ));
    }
    for ((na, x), (nb, y)) in a.states.iter().zip(&b.states) {
        let tol = rel * x.abs().max(y.abs()) + printed_unit(x.abs().max(y.abs()));
        if na != nb || (x - y).abs() > tol {
            return Err(format!("`{na}` = {x:e} vs `{nb}` = {y:e}"));
        }
    }
    Ok(())
}

/// A sweep manifest: its `entries` rows verbatim, plus each row decoded.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub rows: Vec<String>,
    pub entries: Vec<Entry>,
}

#[derive(Clone, Debug)]
pub struct Entry {
    pub index: usize,
    pub status: String,
    pub y: Vec<f64>,
}

pub fn parse_record(row: &str) -> Result<Entry, String> {
    use om_runtime::ensemble::json::{self, Json};
    let doc = json::parse(row).map_err(|e| format!("manifest row: {e}"))?;
    let index = doc
        .get("index")
        .and_then(Json::as_usize)
        .ok_or("manifest row without index")?;
    let status = doc
        .get("status")
        .and_then(Json::as_str)
        .ok_or("manifest row without status")?
        .to_string();
    let mut y = Vec::new();
    for bits in doc.get("y_bits").and_then(Json::as_arr).unwrap_or(&[]) {
        let hex = bits.as_str().ok_or("y_bits entry is not a string")?;
        let raw = u64::from_str_radix(hex, 16).map_err(|e| format!("y_bits `{hex}`: {e}"))?;
        y.push(f64::from_bits(raw));
    }
    Ok(Entry { index, status, y })
}

pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let rows: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("{\"index\":"))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    let entries = rows
        .iter()
        .map(|r| parse_record(r))
        .collect::<Result<_, _>>()?;
    Ok(Manifest { rows, entries })
}

/// The `record` object of a serve `scenario` line, verbatim.
pub fn serve_record(line: &str) -> Option<&str> {
    let start = line.find("\"record\":")? + "\"record\":".len();
    let body = line.trim_end();
    body.strip_suffix('}').map(|b| &b[start..])
}

/// Service records against sweep manifest rows for the same scenarios:
/// byte-equal, row for row.
pub fn check_records(records: &[String], rows: &[String]) -> Result<(), String> {
    if records.len() != rows.len() {
        return Err(format!(
            "{} records against {} manifest rows",
            records.len(),
            rows.len()
        ));
    }
    match records.iter().zip(rows).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "scenario {i}: service record differs from sweep row"
        )),
    }
}

/// A lint report's closing summary: `PATH: E error(s), W warning(s), I info`.
/// The known answer for every model of the set is no error and no warning.
pub fn check_lint_clean(stdout: &str) -> Result<(), String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| l.contains("error(s)"))
        .ok_or("no lint summary")?;
    let counts: Vec<usize> = last
        .rsplit(": ")
        .next()
        .unwrap_or("")
        .split(',')
        .filter_map(|part| part.split_whitespace().next()?.parse().ok())
        .collect();
    match counts.as_slice() {
        [0, 0, _] => Ok(()),
        [e, w, _] => Err(format!("{e} error(s), {w} warning(s)")),
        _ => Err(format!("unexpected lint summary `{last}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_rk4_keeps_the_first_mode_nearly_unchanged() {
        let u = pde_reference(15, &[], 1e-5, 10);
        let u0 = heat_initial(15, &[]);
        assert!(max_rel_err(&u, &u0) < 1e-2);
    }

    #[test]
    fn simulate_output_parses() {
        let out = parse_simulate(
            "t = 0.000001: 1 steps, 4 RHS calls\n  u[1] = +1.5e-1\n  u[2] = -2.0e0\n",
        )
        .expect("parses");
        assert_eq!((out.steps, out.rhs_calls), (1, 4));
        assert_eq!(out.states[1], ("u[2]".to_string(), -2.0));
    }

    #[test]
    fn lint_summary_parses() {
        assert!(check_lint_clean("a.om: 0 error(s), 0 warning(s), 3 info\n").is_ok());
        assert!(check_lint_clean("a.om: 0 error(s), 1 warning(s), 0 info\n").is_err());
    }
}
