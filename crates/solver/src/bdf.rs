//! Backward differentiation formulas (the stiff half of LSODA).
//!
//! BDF-k on an equidistant history of states:
//!
//! `y₊ = Σⱼ aⱼ·y₋ⱼ + h·b·f(t₊, y₊)`
//!
//! solved by a modified Newton iteration on `G(y) = y − h·b·f(t, y) − c`.
//! The iteration matrix `I − h·b·J` is LU-factored and *reused* across
//! steps until convergence degrades — this is why a user-supplied
//! (symbolic) Jacobian "might reduce the computation time drastically"
//! (paper §3.2.1): the expensive finite-difference Jacobian sweep (n RHS
//! calls) disappears, and with partitioning the O(n³) factorization
//! shrinks quadratically/cubically (paper §2.3).
//!
//! Order starts at 1 (backward Euler) and climbs to `max_order` as the
//! history fills; a rejected step halves `h` and restarts at order 1,
//! mirroring the fixed-leading-coefficient restarts of production codes.

use crate::linalg::{LuFactors, Matrix};
use crate::ode::{
    check_finite, check_span, eval_rhs, obs_step, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};

/// `(a-coefficients, b)` for BDF-k, k = 1..=5.
const BDF_COEFFS: [(&[f64], f64); 5] = [
    (&[1.0], 1.0),
    (&[4.0 / 3.0, -1.0 / 3.0], 2.0 / 3.0),
    (&[18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0], 6.0 / 11.0),
    (
        &[48.0 / 25.0, -36.0 / 25.0, 16.0 / 25.0, -3.0 / 25.0],
        12.0 / 25.0,
    ),
    (
        &[
            300.0 / 137.0,
            -300.0 / 137.0,
            200.0 / 137.0,
            -75.0 / 137.0,
            12.0 / 137.0,
        ],
        60.0 / 137.0,
    ),
];

/// BDF driver options.
#[derive(Clone, Copy, Debug)]
pub struct BdfOptions {
    pub tol: Tolerances,
    /// Maximum order (1..=5).
    pub max_order: usize,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
}

impl Default for BdfOptions {
    fn default() -> Self {
        BdfOptions {
            tol: Tolerances::default(),
            max_order: 5,
            max_newton: 8,
        }
    }
}

/// Integrate a (possibly stiff) system with variable-step BDF.
pub fn bdf(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    opts: &BdfOptions,
) -> Result<Solution, SolveError> {
    check_span(t0, tend)?;
    assert!((1..=5).contains(&opts.max_order));
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    let tol = &opts.tol;
    let mut sol = Solution {
        ts: vec![t0],
        ys: vec![y0.to_vec()],
        stats: SolveStats::default(),
    };
    let span = tend - t0;
    let mut h = if tol.h0 > 0.0 { tol.h0 } else { span / 1000.0 };
    let mut t = t0;
    // History of accepted states, newest first.
    let mut history: Vec<Vec<f64>> = vec![y0.to_vec()];

    let mut jac: Option<JacCache> = None;
    let mut f_buf = vec![0.0; n];

    while t < tend - 1e-14 * tend.abs().max(1.0) {
        if sol.stats.steps + sol.stats.rejected > tol.max_steps {
            return Err(SolveError::TooMuchWork {
                t,
                steps: tol.max_steps,
            });
        }
        if h < 1e-14 * t.abs().max(1.0) + 1e-300 {
            return Err(SolveError::StepSizeUnderflow { t });
        }
        tol.budget.check(t, &sol.stats)?;
        if t + h > tend {
            h = tend - t;
            history.truncate(1);
            jac = None;
        }
        let order = history.len().min(opts.max_order);
        let (a, b) = BDF_COEFFS[order - 1];

        // Constant part c = Σ aⱼ y₋ⱼ and predictor (extrapolation).
        let mut c = vec![0.0; n];
        for (j, aj) in a.iter().enumerate() {
            for i in 0..n {
                c[i] += aj * history[j][i];
            }
        }
        // Predictor: polynomial extrapolation through the history. At
        // order 1 there is only one point, so use a forward-Euler
        // predictor instead — a constant predictor would make the
        // corrector-predictor error estimate O(h) and stall the solver.
        let y_pred = if order == 1 {
            eval_rhs(sys, t, &history[0], &mut f_buf, &mut sol.stats)?;
            (0..n).map(|i| history[0][i] + h * f_buf[i]).collect()
        } else {
            extrapolate(&history[..order], n)
        };

        // Modified Newton on G(y) = y − h·b·f(t₊, y) − c.
        let t_new = t + h;
        let mut y_new = y_pred.clone();
        let hb = h * b;
        let mut converged;
        let mut refreshed = jac.is_none();
        loop {
            // Ensure a factorization for the current (h, order).
            if jac.as_ref().map(|j| j.hb != hb).unwrap_or(true) {
                jac = Some(JacCache::build(sys, t_new, &y_new, hb, &mut sol.stats)?);
            }
            let Some(cache) = jac.as_ref() else {
                return Err(SolveError::Internal {
                    what: "bdf: Jacobian cache missing right after build",
                });
            };
            let mut norm_prev = f64::INFINITY;
            converged = false;
            for _ in 0..opts.max_newton {
                eval_rhs(sys, t_new, &y_new, &mut f_buf, &mut sol.stats)?;
                sol.stats.newton_iters += 1;
                // Residual G(y).
                let mut g: Vec<f64> = (0..n).map(|i| y_new[i] - hb * f_buf[i] - c[i]).collect();
                cache.lu.solve_in_place(&mut g);
                for i in 0..n {
                    y_new[i] -= g[i];
                }
                let norm = tol.error_norm(&g, &y_new);
                if norm < 0.1 {
                    converged = true;
                    break;
                }
                // Diverging Newton: bail out early.
                if norm > 0.9 * norm_prev && norm > 1.0 {
                    break;
                }
                norm_prev = norm;
            }
            if converged {
                break;
            }
            if !refreshed {
                // Retry once with a fresh Jacobian at the predictor.
                refreshed = true;
                y_new = y_pred.clone();
                jac = Some(JacCache::build(sys, t_new, &y_new, hb, &mut sol.stats)?);
                continue;
            }
            break;
        }
        if !converged {
            // Halve the step and restart at order 1.
            sol.stats.rejected += 1;
            obs_step("bdf.newton_failure", false, h);
            h *= 0.5;
            history.truncate(1);
            jac = None;
            if h < 1e-300 {
                return Err(SolveError::NewtonFailure { t });
            }
            continue;
        }

        // Local error estimate from the corrector-predictor difference.
        let mut err = vec![0.0; n];
        for i in 0..n {
            err[i] = (y_new[i] - y_pred[i]) / (order as f64 + 1.0);
        }
        let err_norm = tol.error_norm(&err, &y_new).max(1e-16);
        if err_norm <= 1.0 {
            t = t_new;
            check_finite(t, &y_new)?;
            sol.stats.steps += 1;
            obs_step("bdf.reject", true, h);
            sol.ts.push(t);
            sol.ys.push(y_new.clone());
            history.insert(0, y_new);
            history.truncate(opts.max_order);
            if err_norm < 0.01 && history.len() >= opts.max_order {
                // Confidently small error at full order: double the step.
                // Every other history point is still equidistant at the
                // new step size, so the restart keeps order ⌈k/2⌉ instead
                // of falling back to backward Euler.
                h *= 2.0;
                let subsampled: Vec<Vec<f64>> = history.iter().step_by(2).cloned().collect();
                history = subsampled;
                jac = None;
            }
        } else {
            sol.stats.rejected += 1;
            obs_step("bdf.reject", false, h);
            let factor = (0.9 / err_norm.powf(1.0 / (order as f64 + 1.0))).clamp(0.1, 0.9);
            h *= factor;
            history.truncate(1);
            jac = None;
        }
    }
    Ok(sol)
}

/// Extrapolate the next state from `m` equidistant history points by the
/// degree-(m−1) polynomial through them: coefficients are the alternating
/// binomials `(-1)ʲ·C(m, j+1)` (e.g. m=2 → 2y₀−y₁, m=3 → 3y₀−3y₁+y₂).
fn extrapolate(history: &[Vec<f64>], n: usize) -> Vec<f64> {
    let m = history.len();
    let mut coeff = Vec::with_capacity(m);
    let mut binom = m as f64; // C(m, 1)
    for j in 0..m {
        coeff.push(if j % 2 == 0 { binom } else { -binom });
        binom = binom * (m - j - 1) as f64 / (j + 2) as f64; // C(m, j+2)
    }
    (0..n)
        .map(|i| history.iter().zip(&coeff).map(|(y, c)| c * y[i]).sum())
        .collect()
}

/// Cached Newton iteration matrix `I − h·b·J`, LU-factored.
struct JacCache {
    lu: LuFactors,
    hb: f64,
}

impl JacCache {
    fn build(
        sys: &mut dyn OdeSystem,
        t: f64,
        y: &[f64],
        hb: f64,
        stats: &mut SolveStats,
    ) -> Result<JacCache, SolveError> {
        let n = y.len();
        let mut jac = vec![0.0; n * n];
        if sys.jacobian(t, y, &mut jac) {
            stats.jac_evals += 1;
        } else {
            // Finite differences: n extra RHS calls — the expensive path
            // the paper's user-supplied Jacobian avoids.
            let mut f0 = vec![0.0; n];
            eval_rhs(sys, t, y, &mut f0, stats)?;
            let mut yp = y.to_vec();
            let mut fp = vec![0.0; n];
            for col in 0..n {
                let dy = 1e-8 * y[col].abs().max(1e-8);
                yp[col] = y[col] + dy;
                eval_rhs(sys, t, &yp, &mut fp, stats)?;
                yp[col] = y[col];
                for row in 0..n {
                    jac[row * n + col] = (fp[row] - f0[row]) / dy;
                }
            }
            stats.jac_evals += 1;
        }
        // M = I − hb·J
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = -hb * jac[i * n + j];
            }
            m[(i, i)] += 1.0;
        }
        let lu = m.lu().map_err(|_| SolveError::SingularJacobian { t })?;
        stats.lu_factorizations += 1;
        Ok(JacCache { lu, hb })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn decay_matches_exact_solution() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = bdf(&mut sys, 0.0, &[1.0], 2.0, &BdfOptions::default()).unwrap();
        assert!(
            (sol.y_end()[0] - (-2.0f64).exp()).abs() < 1e-4,
            "{}",
            sol.y_end()[0]
        );
    }

    #[test]
    fn stiff_decay_needs_few_steps() {
        // y' = -1000(y - cos t) - sin t, y(0)=1; exact y = cos t.
        // Explicit methods need h ≲ 2/1000; BDF should take far fewer
        // than 1000 steps for t ∈ [0, 1].
        let mut sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -1000.0 * (y[0] - t.cos()) - t.sin();
        });
        let sol = bdf(&mut sys, 0.0, &[1.0], 1.0, &BdfOptions::default()).unwrap();
        assert!(
            (sol.y_end()[0] - 1.0f64.cos()).abs() < 1e-3,
            "{}",
            sol.y_end()[0]
        );
        assert!(
            sol.stats.steps + sol.stats.rejected < 600,
            "too many steps: {:?}",
            sol.stats
        );
    }

    #[test]
    fn user_jacobian_reduces_rhs_calls() {
        struct Stiff {
            with_jac: bool,
        }
        impl OdeSystem for Stiff {
            fn dim(&self) -> usize {
                2
            }
            fn rhs(&mut self, _t: f64, y: &[f64], d: &mut [f64]) {
                d[0] = -500.0 * y[0] + 499.0 * y[1];
                d[1] = 499.0 * y[0] - 500.0 * y[1];
            }
            fn jacobian(&mut self, _t: f64, _y: &[f64], j: &mut [f64]) -> bool {
                if !self.with_jac {
                    return false;
                }
                j.copy_from_slice(&[-500.0, 499.0, 499.0, -500.0]);
                true
            }
        }
        let run = |with_jac: bool| {
            let mut sys = Stiff { with_jac };
            bdf(&mut sys, 0.0, &[2.0, 0.0], 1.0, &BdfOptions::default())
                .unwrap()
                .stats
        };
        let with_jac = run(true);
        let without = run(false);
        assert!(
            with_jac.rhs_calls < without.rhs_calls,
            "with {:?} without {:?}",
            with_jac,
            without
        );
        // Solutions agree: y → (1, 1)·e^{-t} + decaying fast mode.
        let exact0 = (-1.0f64).exp() + (-999.0f64).exp();
        let mut sys = Stiff { with_jac: true };
        let sol = bdf(&mut sys, 0.0, &[2.0, 0.0], 1.0, &BdfOptions::default()).unwrap();
        assert!((sol.y_end()[0] - exact0).abs() < 1e-3);
    }

    #[test]
    fn van_der_pol_mildly_stiff() {
        // μ = 50 Van der Pol; just require completion and bounded state.
        let mu = 50.0;
        let mut sys = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
        });
        let sol = bdf(&mut sys, 0.0, &[2.0, 0.0], 5.0, &BdfOptions::default()).unwrap();
        assert!(sol.y_end()[0].abs() < 3.0);
        assert!(sol.stats.newton_iters > 0);
        assert!(sol.stats.lu_factorizations > 0);
    }

    #[test]
    fn order_one_only_still_works() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let opts = BdfOptions {
            max_order: 1,
            ..BdfOptions::default()
        };
        let sol = bdf(&mut sys, 0.0, &[1.0], 1.0, &opts).unwrap();
        // Backward Euler is first order: loose tolerance.
        assert!((sol.y_end()[0] - (-1.0f64).exp()).abs() < 1e-2);
    }

    #[test]
    fn reaches_tend_exactly() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = bdf(&mut sys, 0.0, &[1.0], 0.777, &BdfOptions::default()).unwrap();
        assert!((sol.t_end() - 0.777).abs() < 1e-12);
    }
}
