//! Adams–Bashforth–Moulton predictor–corrector (the non-stiff half of
//! LSODA).
//!
//! A fourth-order PECE pair on an equidistant derivative history:
//!
//! * predictor (Adams–Bashforth 4):
//!   `yᴾ = y + h/24·(55f₀ − 59f₁ + 37f₂ − 9f₃)`
//! * corrector (Adams–Moulton 4), evaluated once:
//!   `yᶜ = y + h/24·(9fᴾ + 19f₀ − 5f₁ + f₂)`
//!
//! The local error is estimated from the predictor/corrector difference
//! (Milne's device). The step size changes only by doubling/halving with
//! hysteresis, because a step change invalidates the equidistant history
//! and forces an RK4 re-bootstrap — the classical multistep trade-off
//! (paper §2.4: "extrapolation of … previously calculated points
//! (multi-step methods)").

use crate::ode::{
    check_finite, check_span, eval_rhs, obs_step, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};
use crate::rk::rk4;

/// Integrate with adaptive 4th-order Adams–Bashforth–Moulton.
pub fn abm4(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    tol: &Tolerances,
) -> Result<Solution, SolveError> {
    check_span(t0, tend)?;
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    let mut sol = Solution {
        ts: vec![t0],
        ys: vec![y0.to_vec()],
        stats: SolveStats::default(),
    };
    let span = tend - t0;
    let mut h = if tol.h0 > 0.0 { tol.h0 } else { span / 1000.0 };
    let mut t = t0;
    let mut y = y0.to_vec();

    // Derivative history: f[0] newest. Rebuilt after every step change.
    let mut history: Vec<Vec<f64>> = Vec::new();

    let mut yp = vec![0.0; n];
    let mut fp = vec![0.0; n];
    let mut yc = vec![0.0; n];
    let mut err = vec![0.0; n];

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
        // Never step past tend; if close, shrink h for the final stretch
        // (bootstrap will rebuild the history at the smaller h).
        if t + 4.0 * h > tend && t + h < tend {
            h = (tend - t) / (((tend - t) / h).ceil());
            history.clear();
        } else if t + h > tend {
            h = tend - t;
            history.clear();
        }

        // (Re)bootstrap the history with RK4 when invalid.
        if history.len() < 4 {
            history.clear();
            let mut f = vec![0.0; n];
            eval_rhs(sys, t, &y, &mut f, &mut sol.stats)?;
            history.push(f);
            // Three RK4 priming steps (only if room remains).
            let mut prime_t = t;
            let mut prime_y = y.clone();
            for _ in 0..3 {
                if prime_t + h > tend + 1e-14 {
                    break;
                }
                let step = rk4(sys, prime_t, &prime_y, prime_t + h, h)?;
                sol.stats.rhs_calls += step.stats.rhs_calls;
                prime_t = step.t_end();
                prime_y = step.y_end().to_vec();
                check_finite(prime_t, &prime_y)?;
                sol.stats.steps += 1;
                sol.ts.push(prime_t);
                sol.ys.push(prime_y.clone());
                let mut f = vec![0.0; n];
                eval_rhs(sys, prime_t, &prime_y, &mut f, &mut sol.stats)?;
                history.insert(0, f);
            }
            t = prime_t;
            y = prime_y;
            if history.len() < 4 {
                // Not enough room before tend: finish with RK4.
                if t < tend - 1e-14 {
                    let step = rk4(sys, t, &y, tend, h.min(tend - t))?;
                    sol.stats.rhs_calls += step.stats.rhs_calls;
                    sol.stats.steps += step.stats.steps;
                    for (ts, ys) in step.ts.iter().zip(&step.ys).skip(1) {
                        sol.ts.push(*ts);
                        sol.ys.push(ys.clone());
                    }
                }
                break;
            }
            continue;
        }

        // Predict (AB4).
        let (f0, f1, f2, f3) = (&history[0], &history[1], &history[2], &history[3]);
        for i in 0..n {
            yp[i] = y[i] + h / 24.0 * (55.0 * f0[i] - 59.0 * f1[i] + 37.0 * f2[i] - 9.0 * f3[i]);
        }
        // Evaluate.
        eval_rhs(sys, t + h, &yp, &mut fp, &mut sol.stats)?;
        // Correct (AM4).
        for i in 0..n {
            yc[i] = y[i] + h / 24.0 * (9.0 * fp[i] + 19.0 * f0[i] - 5.0 * f1[i] + f2[i]);
        }
        // Milne error estimate.
        for i in 0..n {
            err[i] = 19.0 / 270.0 * (yc[i] - yp[i]);
        }
        let err_norm = tol.error_norm(&err, &yc).max(1e-16);
        if err_norm <= 1.0 {
            t += h;
            y.copy_from_slice(&yc);
            check_finite(t, &y)?;
            sol.stats.steps += 1;
            obs_step("abm4.reject", true, h);
            sol.ts.push(t);
            sol.ys.push(y.clone());
            // Final evaluation for the history (PECE).
            let mut f_new = vec![0.0; n];
            eval_rhs(sys, t, &y, &mut f_new, &mut sol.stats)?;
            history.insert(0, f_new);
            history.truncate(4);
            // Hysteretic step doubling.
            if err_norm < 0.01 {
                h *= 2.0;
                history.clear();
            }
        } else {
            sol.stats.rejected += 1;
            obs_step("abm4.reject", false, h);
            h *= 0.5;
            history.clear();
        }
    }
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn decay_is_accurate() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = abm4(&mut sys, 0.0, &[1.0], 2.0, &Tolerances::default()).unwrap();
        assert!((sol.y_end()[0] - (-2.0f64).exp()).abs() < 1e-6);
        assert!((sol.t_end() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn oscillator_period_is_preserved() {
        let mut sys = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let tol = Tolerances {
            rtol: 1e-8,
            atol: 1e-10,
            ..Tolerances::default()
        };
        let sol = abm4(&mut sys, 0.0, &[1.0, 0.0], 2.0 * std::f64::consts::PI, &tol).unwrap();
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-5, "{:?}", sol.y_end());
    }

    #[test]
    fn uses_about_one_rhs_call_per_step_asymptotically() {
        // The multistep advantage: ~2 RHS calls per step (PECE) vs 6 for
        // DOPRI5.
        let mut sys = FnSystem::new(1, |t: f64, _y: &[f64], d: &mut [f64]| {
            d[0] = (0.5 * t).sin()
        });
        let sol = abm4(&mut sys, 0.0, &[0.0], 50.0, &Tolerances::default()).unwrap();
        let per_step = sol.stats.rhs_calls as f64 / sol.stats.steps as f64;
        assert!(per_step < 4.0, "rhs/step = {per_step}");
    }

    #[test]
    fn time_dependent_rhs() {
        // y' = 3t² → y = t³.
        let mut sys = FnSystem::new(1, |t: f64, _y: &[f64], d: &mut [f64]| d[0] = 3.0 * t * t);
        let sol = abm4(&mut sys, 0.0, &[0.0], 2.0, &Tolerances::default()).unwrap();
        assert!((sol.y_end()[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn short_interval_falls_back_to_rk4() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let tol = Tolerances {
            h0: 0.5,
            ..Tolerances::default()
        };
        // Span of 1.0 with h0 = 0.5: not enough room for 4 priming steps.
        let sol = abm4(&mut sys, 0.0, &[1.0], 1.0, &tol).unwrap();
        assert!((sol.t_end() - 1.0).abs() < 1e-12);
        assert!((sol.y_end()[0] - (-1.0f64).exp()).abs() < 1e-3);
    }
}
