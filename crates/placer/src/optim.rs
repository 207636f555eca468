//! The first-order optimizer for the placement objective.
//!
//! The update rule is the DREAMPlace/ePlace choice: Nesterov's accelerated
//! gradient with a Barzilai–Borwein step-size estimate and per-cell Jacobi
//! preconditioning.

/// State for the Nesterov/BB update over the concatenated (x, y) vector.
#[derive(Debug, Clone)]
pub struct NesterovOptimizer {
    /// Major solution u_k.
    u: Vec<f64>,
    /// Reference (lookahead) solution v_k — gradients are taken here.
    v: Vec<f64>,
    /// Previous reference solution and its gradient, for the BB step.
    v_prev: Vec<f64>,
    g_prev: Vec<f64>,
    /// Previous major solution, for the adaptive restart test.
    u_prev: Vec<f64>,
    /// Momentum coefficient a_k.
    a: f64,
    /// Current step size.
    step: f64,
    /// Number of updates taken.
    t: usize,
    /// Per-coordinate trust region: hard cap on |u_new − v| per step.
    max_move: f64,
}

impl NesterovOptimizer {
    /// Creates an optimizer starting from `x0` with an initial step size.
    pub fn new(x0: Vec<f64>, initial_step: f64) -> Self {
        let n = x0.len();
        Self {
            u: x0.clone(),
            v: x0.clone(),
            v_prev: vec![0.0; n],
            g_prev: vec![0.0; n],
            u_prev: x0,
            a: 1.0,
            step: initial_step,
            t: 0,
            max_move: f64::INFINITY,
        }
    }

    /// Caps the per-coordinate displacement of each update (a trust
    /// region). Placement engines set this to about one density bin; the
    /// BB estimate is noisy and unbounded steps can destabilize the
    /// overflow/λ feedback loop.
    pub fn set_max_move(&mut self, max_move: f64) {
        assert!(max_move > 0.0, "max_move must be positive");
        self.max_move = max_move;
    }

    /// The point at which the caller must evaluate the gradient.
    pub fn query_point(&self) -> &[f64] {
        &self.v
    }

    /// Current major solution (the placement to report).
    pub fn solution(&self) -> &[f64] {
        &self.u
    }

    /// Mutable access to the major solution, e.g. to clamp into the die.
    /// The reference point is kept consistent by the next [`Self::step`].
    pub fn solution_mut(&mut self) -> &mut [f64] {
        &mut self.u
    }

    /// Current step length (diagnostics).
    pub fn step_size(&self) -> f64 {
        self.step
    }

    /// Performs one update given the (preconditioned) gradient at
    /// [`Self::query_point`]. `clamp` is applied to each new major iterate
    /// component (die clamping is done by the engine via index knowledge).
    pub fn step(&mut self, grad: &[f64]) {
        assert_eq!(grad.len(), self.u.len(), "gradient length mismatch");
        self.t += 1;
        if self.t > 1 {
            // Barzilai-Borwein 2 step estimate over consecutive lookahead
            // points: (dv.dg)/(dg.dg), the curvature-weighted inverse
            // Lipschitz constant.
            let mut dvdg = 0.0;
            let mut dg2 = 0.0;
            let mut g_dot_du = 0.0;
            #[allow(clippy::needless_range_loop)] // lockstep over several arrays
            for i in 0..self.v.len() {
                let dv = self.v[i] - self.v_prev[i];
                let dg = grad[i] - self.g_prev[i];
                dvdg += dv * dg;
                dg2 += dg * dg;
                g_dot_du += grad[i] * (self.u[i] - self.u_prev[i]);
            }
            if dg2 > 1e-30 && dvdg.abs() > 0.0 {
                let est = dvdg.abs() / dg2;
                // Safeguard: limit per-iteration step growth.
                self.step = est.clamp(self.step * 0.1, self.step * 10.0);
            }
            // Adaptive (gradient) restart: if the last move opposes the
            // current descent direction, kill the momentum.
            if g_dot_du > 0.0 {
                self.a = 1.0;
            }
        }

        // One pass: save this iterate as the next step's "previous" state,
        // then update it.
        let a_next = (1.0 + (4.0 * self.a * self.a + 1.0).sqrt()) / 2.0;
        let momentum = (self.a - 1.0) / a_next;
        #[allow(clippy::needless_range_loop)] // lockstep over several arrays
        for i in 0..self.u.len() {
            self.v_prev[i] = self.v[i];
            self.g_prev[i] = grad[i];
            let u_old = self.u[i];
            self.u_prev[i] = u_old;
            let delta = (self.step * grad[i]).clamp(-self.max_move, self.max_move);
            let u_new = self.v[i] - delta;
            self.u[i] = u_new;
            self.v[i] = u_new + momentum * (u_new - u_old);
        }
        self.a = a_next;
    }

    /// Re-synchronizes the lookahead point with the (externally clamped)
    /// major solution. Call after mutating [`Self::solution_mut`].
    pub fn resync(&mut self) {
        self.v.copy_from_slice(&self.u);
        self.a = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = ½ Σ c_i (x_i − t_i)²; gradient c_i (x_i − t_i).
    fn quad_grad(x: &[f64], c: &[f64], t: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(c)
            .zip(t)
            .map(|((&x, &c), &t)| c * (x - t))
            .collect()
    }

    fn quad_value(x: &[f64], c: &[f64], t: &[f64]) -> f64 {
        x.iter()
            .zip(c)
            .zip(t)
            .map(|((&x, &c), &t)| 0.5 * c * (x - t) * (x - t))
            .sum()
    }

    #[test]
    fn nesterov_converges_on_quadratic() {
        let c = vec![1.0, 10.0, 0.5, 4.0];
        let t = vec![3.0, -2.0, 7.0, 0.0];
        let mut opt = NesterovOptimizer::new(vec![0.0; 4], 0.05);
        for _ in 0..1500 {
            let g = quad_grad(opt.query_point(), &c, &t);
            opt.step(&g);
        }
        let v = quad_value(opt.solution(), &c, &t);
        assert!(v < 1e-6, "residual {v}, solution {:?}", opt.solution());
    }

    #[test]
    fn bb_step_adapts_upward_on_flat_function() {
        // Very flat quadratic: the initial tiny step should grow.
        let c = vec![1e-3; 2];
        let t = vec![100.0, -50.0];
        let mut opt = NesterovOptimizer::new(vec![0.0; 2], 1e-3);
        for _ in 0..10 {
            let g = quad_grad(opt.query_point(), &c, &t);
            opt.step(&g);
        }
        assert!(
            opt.step_size() > 1e-3,
            "step did not adapt: {}",
            opt.step_size()
        );
    }

    #[test]
    fn resync_resets_lookahead() {
        let mut opt = NesterovOptimizer::new(vec![0.0; 2], 0.1);
        opt.step(&[1.0, -1.0]);
        opt.solution_mut()[0] = 42.0;
        opt.resync();
        assert_eq!(opt.query_point()[0], 42.0);
    }
}
