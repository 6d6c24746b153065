//! Batched lockstep RK4: advance K ensemble members (lanes) through the
//! same fixed-step grid with one structure-of-arrays state vector.
//!
//! All lanes share `t0`, `tend`, and `h`, so every lane sees exactly the
//! RHS call sequence of a scalar [`crate::rk4_budgeted`] run, and every
//! elementwise update replicates the scalar expression per lane — no
//! cross-lane arithmetic exists anywhere in the stepper. That makes each
//! lane's trajectory bitwise identical to its own scalar integration
//! (IEEE-754 operations are deterministic), which is the property the
//! ensemble driver's differential tests enforce.
//!
//! Failure semantics are per-lane where physics allows and batch-global
//! where wall-clock does not:
//!
//! * A lane whose state goes non-finite is *masked*: its status records
//!   the same [`SolveError::NonFiniteState`] its scalar run would hit
//!   (same `t`, bit for bit), and the remaining lanes continue. Masked
//!   lanes keep riding along in the SoA buffers — NaN propagates only
//!   within the lane, and dropping them would change nothing for the
//!   healthy lanes' arithmetic.
//! * An exhausted RHS-call budget is deterministic and lane-uniform
//!   (every lane has made the same number of calls), so it fails every
//!   still-active lane with the scalar-identical error.
//! * A missed wall-clock deadline or an RHS failure is batch-global:
//!   the cost was shared by all lanes, so no per-lane attribution is
//!   possible and the whole solve returns `Err`. Callers that need
//!   per-lane deadline semantics (the ensemble driver) fall back to
//!   scalar reruns with fresh envelopes.
//!
//! Adaptive and stiff methods are deliberately not batched: their step
//! sequences diverge per lane, which destroys both the lockstep grid and
//! the amortization. Scenarios needing those paths run scalar.

use crate::ode::{check_fixed_step, Budget, RhsError, SolveError, SolveStats};

/// A batched initial value problem: `dim()` states × `lanes()` ensemble
/// members evaluated per RHS call, structure-of-arrays with the lane
/// index innermost (`ys[state * lanes + lane]`).
pub trait BatchedOdeSystem {
    /// Number of state variables (per lane).
    fn dim(&self) -> usize;

    /// Number of ensemble members advanced in lockstep.
    fn lanes(&self) -> usize;

    /// Compute all lanes' derivatives: `dydts = f(ys, t)` elementwise
    /// per lane. An `Err` is batch-global (e.g. an executor substrate
    /// dying); lane-local numeric trouble is expressed as NaN in that
    /// lane's columns and caught by the stepper's per-lane finite check.
    fn rhs_batch(&mut self, t: f64, ys: &[f64], dydts: &mut [f64]) -> Result<(), RhsError>;
}

/// The terminal state of a batched solve that ran to completion (some
/// lanes may still have failed individually — see `lane_status`).
#[derive(Clone, Debug)]
pub struct BatchSolution {
    /// Final integration time reached by the surviving lanes. When every
    /// lane failed before `tend` this is the time of the last step taken.
    pub t_end: f64,
    /// Structure-of-arrays final state (`y_end[state * lanes + lane]`);
    /// meaningful only for lanes whose status is `Ok`.
    pub y_end: Vec<f64>,
    /// Per-lane outcome: `Ok(())` for lanes that reached `tend`, the
    /// scalar-identical [`SolveError`] for lanes that failed.
    pub lane_status: Vec<Result<(), SolveError>>,
    /// Work counters in *per-lane-equivalent* units: `rhs_calls` counts
    /// batched call events, which equals the calls any single lane's
    /// scalar run would have made (all lanes step in lockstep).
    pub stats: SolveStats,
}

impl BatchSolution {
    /// Gather one lane's final state out of the SoA buffer.
    pub fn lane_y_end(&self, lane: usize) -> Vec<f64> {
        let lanes = self.lane_status.len();
        let dim = self.y_end.len().checked_div(lanes).unwrap_or(0);
        (0..dim).map(|i| self.y_end[i * lanes + lane]).collect()
    }

    /// Number of lanes that reached `tend`.
    pub fn completed_lanes(&self) -> usize {
        self.lane_status.iter().filter(|s| s.is_ok()).count()
    }
}

/// One batched RHS call event: counts per-lane-equivalent work and maps
/// a batch-global [`RhsError`] into [`SolveError::RhsFailure`] (mirrors
/// the scalar steppers' `eval_rhs`).
fn eval_rhs_batch(
    sys: &mut dyn BatchedOdeSystem,
    t: f64,
    ys: &[f64],
    dydts: &mut [f64],
    stats: &mut SolveStats,
) -> Result<(), SolveError> {
    stats.rhs_calls += 1;
    if om_obs::is_enabled() {
        om_obs::metrics().counter("solver.rhs_batch_calls").inc();
    }
    sys.rhs_batch(t, ys, dydts)
        .map_err(|e| SolveError::RhsFailure {
            t,
            reason: e.reason,
        })
}

/// Integrate `lanes` ensemble members with classic RK4 in lockstep under
/// a resource [`Budget`]. Per-lane numeric failures are masked into
/// [`BatchSolution::lane_status`]; only batch-global failures (deadline,
/// RHS failure) return `Err`.
pub fn rk4_batch(
    sys: &mut dyn BatchedOdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    h: f64,
    budget: &Budget,
) -> Result<BatchSolution, SolveError> {
    check_fixed_step(t0, tend, h)?;
    let lanes = sys.lanes();
    assert!(lanes > 0, "batch must have at least one lane");
    let n = sys.dim();
    assert_eq!(y0.len(), n * lanes, "state batch length mismatch");
    let width = n * lanes;
    let mut stats = SolveStats::default();
    let mut t = t0;
    let mut y = y0.to_vec();
    let mut k1 = vec![0.0; width];
    let mut k2 = vec![0.0; width];
    let mut k3 = vec![0.0; width];
    let mut k4 = vec![0.0; width];
    let mut tmp = vec![0.0; width];
    let mut status: Vec<Result<(), SolveError>> = vec![Ok(()); lanes];
    let mut active = vec![true; lanes];
    let mut n_active = lanes;
    while t < tend - 1e-14 * tend.abs().max(1.0) {
        if let Err(e) = budget.check(t, &stats) {
            match e {
                // Wall clock is shared by the whole batch: global.
                SolveError::DeadlineExceeded { .. } => return Err(e),
                // The call budget is lane-uniform (lockstep): every lane
                // still integrating fails exactly as its scalar run.
                other => {
                    for (st, a) in status.iter_mut().zip(&mut active) {
                        if *a {
                            *st = Err(other.clone());
                            *a = false;
                        }
                    }
                    break;
                }
            }
        }
        let h_step = h.min(tend - t);
        // The four stages replicate rk4_budgeted's expressions per lane:
        // same literal f64 operations, same order, lane index innermost.
        eval_rhs_batch(sys, t, &y, &mut k1, &mut stats)?;
        for i in 0..width {
            tmp[i] = y[i] + 0.5 * h_step * k1[i];
        }
        eval_rhs_batch(sys, t + 0.5 * h_step, &tmp, &mut k2, &mut stats)?;
        for i in 0..width {
            tmp[i] = y[i] + 0.5 * h_step * k2[i];
        }
        eval_rhs_batch(sys, t + 0.5 * h_step, &tmp, &mut k3, &mut stats)?;
        for i in 0..width {
            tmp[i] = y[i] + h_step * k3[i];
        }
        eval_rhs_batch(sys, t + h_step, &tmp, &mut k4, &mut stats)?;
        for i in 0..width {
            y[i] += h_step / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h_step;
        stats.steps += 1;
        // Per-lane finite check (the scalar stepper's check_finite,
        // applied lane by lane so one lane's NaN masks only that lane).
        for l in 0..lanes {
            if !active[l] {
                continue;
            }
            let finite = (0..n).all(|i| y[i * lanes + l].is_finite());
            if !finite {
                status[l] = Err(SolveError::NonFiniteState { t });
                active[l] = false;
                n_active -= 1;
            }
        }
        if n_active == 0 {
            break;
        }
    }
    Ok(BatchSolution {
        t_end: t,
        y_end: y,
        lane_status: status,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;
    use crate::rk::rk4_budgeted;

    /// Lift a scalar closure system to a batched SoA system by looping
    /// the scalar RHS per lane (the reference lifting for tests).
    struct BatchedFn<F: FnMut(f64, &[f64], &mut [f64])> {
        dim: usize,
        lanes: usize,
        f: F,
        y_lane: Vec<f64>,
        d_lane: Vec<f64>,
    }

    impl<F: FnMut(f64, &[f64], &mut [f64])> BatchedFn<F> {
        fn new(dim: usize, lanes: usize, f: F) -> Self {
            BatchedFn {
                dim,
                lanes,
                f,
                y_lane: vec![0.0; dim],
                d_lane: vec![0.0; dim],
            }
        }
    }

    impl<F: FnMut(f64, &[f64], &mut [f64])> BatchedOdeSystem for BatchedFn<F> {
        fn dim(&self) -> usize {
            self.dim
        }
        fn lanes(&self) -> usize {
            self.lanes
        }
        fn rhs_batch(&mut self, t: f64, ys: &[f64], dydts: &mut [f64]) -> Result<(), RhsError> {
            for l in 0..self.lanes {
                for i in 0..self.dim {
                    self.y_lane[i] = ys[i * self.lanes + l];
                }
                (self.f)(t, &self.y_lane, &mut self.d_lane);
                for i in 0..self.dim {
                    dydts[i * self.lanes + l] = self.d_lane[i];
                }
            }
            Ok(())
        }
    }

    fn osc(t: f64, y: &[f64], d: &mut [f64]) {
        let _ = t;
        d[0] = y[1];
        d[1] = -y[0];
    }

    fn soa_from_lanes(lane_y0: &[Vec<f64>]) -> Vec<f64> {
        let lanes = lane_y0.len();
        let dim = lane_y0[0].len();
        let mut soa = vec![0.0; dim * lanes];
        for (l, y) in lane_y0.iter().enumerate() {
            for i in 0..dim {
                soa[i * lanes + l] = y[i];
            }
        }
        soa
    }

    /// Every lane of a batched solve is bitwise identical to its own
    /// scalar rk4 run — the headline guarantee, at several lane counts.
    #[test]
    fn batched_lanes_match_scalar_rk4_bitwise() {
        for lanes in [1usize, 2, 3, 8, 17] {
            let lane_y0: Vec<Vec<f64>> = (0..lanes)
                .map(|l| vec![1.0 + 0.05 * l as f64, -0.2 * l as f64])
                .collect();
            let y0 = soa_from_lanes(&lane_y0);
            let mut sys = BatchedFn::new(2, lanes, osc);
            let sol = rk4_batch(&mut sys, 0.0, &y0, 1.3, 0.01, &Budget::unlimited())
                .expect("batched solve");
            assert_eq!(sol.completed_lanes(), lanes);
            for (l, y0_lane) in lane_y0.iter().enumerate() {
                let mut scalar_sys = FnSystem::new(2, osc);
                let scalar = rk4_budgeted(
                    &mut scalar_sys,
                    0.0,
                    y0_lane,
                    1.3,
                    0.01,
                    &Budget::unlimited(),
                )
                .expect("scalar solve");
                assert_eq!(
                    scalar.t_end().to_bits(),
                    sol.t_end.to_bits(),
                    "lanes={lanes} lane={l}: t_end bits"
                );
                let batched_y = sol.lane_y_end(l);
                for (i, (s, b)) in scalar.y_end().iter().zip(&batched_y).enumerate() {
                    assert_eq!(s.to_bits(), b.to_bits(), "lanes={lanes} lane={l} state={i}");
                }
                assert_eq!(scalar.stats.rhs_calls, sol.stats.rhs_calls);
            }
        }
    }

    /// A lane that blows up is masked with the scalar-identical error
    /// while its batch-mates finish bitwise-clean.
    #[test]
    fn nonfinite_lane_is_masked_not_contagious() {
        let lanes = 4;
        // Lane 2 integrates y' = y² from 1.5 — finite-time blowup; the
        // others are harmless oscillators (second state unused).
        let blowup = |t: f64, y: &[f64], d: &mut [f64]| {
            let _ = t;
            d[0] = y[0] * y[0];
            d[1] = 0.0;
        };
        let lane_y0: Vec<Vec<f64>> = (0..lanes)
            .map(|l| {
                if l == 2 {
                    vec![1.5, 0.0]
                } else {
                    vec![0.1 * (l as f64 + 1.0), 0.0]
                }
            })
            .collect();
        let y0 = soa_from_lanes(&lane_y0);
        let mut sys = BatchedFn::new(2, lanes, blowup);
        let sol =
            rk4_batch(&mut sys, 0.0, &y0, 2.0, 0.01, &Budget::unlimited()).expect("batched solve");
        assert_eq!(sol.completed_lanes(), lanes - 1);
        // The failing lane reports the scalar-identical error.
        let mut scalar_sys = FnSystem::new(2, blowup);
        let scalar_err = rk4_budgeted(
            &mut scalar_sys,
            0.0,
            &lane_y0[2],
            2.0,
            0.01,
            &Budget::unlimited(),
        )
        .expect_err("blowup must fail");
        assert_eq!(sol.lane_status[2], Err(scalar_err));
        // Healthy lanes are bitwise identical to their scalar runs.
        for l in [0usize, 1, 3] {
            let mut scalar_sys = FnSystem::new(2, blowup);
            let scalar = rk4_budgeted(
                &mut scalar_sys,
                0.0,
                &lane_y0[l],
                2.0,
                0.01,
                &Budget::unlimited(),
            )
            .expect("healthy lane");
            let batched_y = sol.lane_y_end(l);
            for (s, b) in scalar.y_end().iter().zip(&batched_y) {
                assert_eq!(s.to_bits(), b.to_bits());
            }
        }
    }

    /// An exhausted RHS-call budget fails every active lane with the
    /// scalar-identical typed error (lane-uniform, deterministic).
    #[test]
    fn rhs_budget_fails_all_lanes_identically() {
        let lanes = 3;
        let lane_y0: Vec<Vec<f64>> = (0..lanes).map(|l| vec![1.0 + l as f64, 0.0]).collect();
        let y0 = soa_from_lanes(&lane_y0);
        let budget = Budget::unlimited().with_max_rhs_calls(10);
        let mut sys = BatchedFn::new(2, lanes, osc);
        let sol = rk4_batch(&mut sys, 0.0, &y0, 5.0, 0.01, &budget).expect("masked, not global");
        assert_eq!(sol.completed_lanes(), 0);
        let mut scalar_sys = FnSystem::new(2, osc);
        let scalar_err = rk4_budgeted(&mut scalar_sys, 0.0, &lane_y0[0], 5.0, 0.01, &budget)
            .expect_err("budget must fire");
        for st in &sol.lane_status {
            assert_eq!(st, &Err(scalar_err.clone()));
        }
    }

    /// A wall-clock deadline is batch-global: the whole solve errors.
    #[test]
    fn deadline_is_batch_global() {
        let lanes = 2;
        let y0 = soa_from_lanes(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        let budget = Budget::deadline_in(std::time::Duration::ZERO);
        let mut sys = BatchedFn::new(2, lanes, osc);
        let err = rk4_batch(&mut sys, 0.0, &y0, 1.0, 0.01, &budget).expect_err("deadline");
        assert!(
            matches!(err, SolveError::DeadlineExceeded { .. }),
            "{err:?}"
        );
    }

    /// A batch-global RHS failure surfaces as `Err`, not a lane mask.
    #[test]
    fn rhs_failure_is_batch_global() {
        struct Dying;
        impl BatchedOdeSystem for Dying {
            fn dim(&self) -> usize {
                1
            }
            fn lanes(&self) -> usize {
                2
            }
            fn rhs_batch(&mut self, _t: f64, _ys: &[f64], _d: &mut [f64]) -> Result<(), RhsError> {
                Err(RhsError::new("substrate died"))
            }
        }
        let err = rk4_batch(&mut Dying, 0.0, &[1.0, 2.0], 1.0, 0.1, &Budget::unlimited())
            .expect_err("rhs failure");
        match err {
            SolveError::RhsFailure { reason, .. } => assert!(reason.contains("substrate died")),
            other => panic!("expected RhsFailure, got {other:?}"),
        }
    }
}
