//! Minimal spectral kernels: radix-2 FFT, DCT-II/III and the shifted sine
//! transform the ePlace Poisson solver needs, run in place through a
//! per-length [`Plan`].
//!
//! Conventions (N = transform length, a power of two):
//!
//! * `dct2(x)[k]  = Σ_n x[n]·cos(πk(2n+1)/2N)` — forward DCT-II.
//! * `idct(X)[n] = (2/N)·Σ_k α_k·X[k]·cos(πk(2n+1)/2N)`, α₀ = ½, αₖ = 1 —
//!   the exact inverse: `idct(dct2(x)) == x`.
//! * `idxst(X)[n] = (2/N)·Σ_k X[k]·sin(πk(2n+1)/2N)` — inverse shifted DST,
//!   computed through `idct` via the identity
//!   `sin(πu(2n+1)/2N) = (−1)ⁿ·cos(π(N−u)(2n+1)/2N)`.
//!
//! # Why a table does not move a bit
//!
//! A [`Plan`] caches numbers instead of recomputing them, never a
//! different formula for them:
//!
//! * The FFT's twiddle at butterfly `k` of stage `len` is the running
//!   product `cur ← cur·w` (`w = e^{−2πi/len}`) after `k` steps. That
//!   sequence depends only on `(len, k)`, so the plan replays the very
//!   recurrence once per stage and stores every `cur` it visits; the
//!   butterflies then read the same values the recurrence would produce.
//! * The DCT post-twiddles `cos/sin(−πk/2N)` and the IDCT pre-twiddles
//!   `cos/sin(πk/2N)` are stored from the same expressions.
//! * The bit-reversal swaps are disjoint transpositions, so storing them
//!   changes nothing about the permutation.
//!
//! Every butterfly and every pre/post step keeps its operand order, so a
//! plan's transforms equal the per-call recomputation bit for bit. A
//! table built from a *different* formula (say `cos(2πk/len)` directly)
//! would not.

use std::f64::consts::PI;

/// The FFT's stored butterfly schedule for one length.
#[derive(Debug, Clone)]
struct FftTables {
    n: usize,
    /// Bit-reversal transpositions `(i, j)` with `i < j`.
    swaps: Vec<(usize, usize)>,
    /// Twiddles stage after stage: stage `len` keeps its `len / 2`
    /// values of the `cur` recurrence at offset `len / 2 − 1`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl FftTables {
    fn new(n: usize) -> Self {
        let mut swaps = Vec::new();
        if n > 1 {
            let bits = n.trailing_zeros();
            for i in 0..n {
                let j = ((i as u32).reverse_bits() >> (32 - bits)) as usize;
                if i < j {
                    swaps.push((i, j));
                }
            }
        }
        let mut tw_re = Vec::with_capacity(n.saturating_sub(1));
        let mut tw_im = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * PI / len as f64;
            let (wr, wi) = (ang.cos(), ang.sin());
            let mut cur_r = 1.0;
            let mut cur_i = 0.0;
            for _ in 0..len / 2 {
                tw_re.push(cur_r);
                tw_im.push(cur_i);
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            len <<= 1;
        }
        Self {
            n,
            swaps,
            tw_re,
            tw_im,
        }
    }

    /// In-place iterative radix-2 complex FFT.
    fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        let n = self.n;
        assert!(re.len() == n && im.len() == n, "FFT row length mismatch");
        for &(i, j) in &self.swaps {
            re.swap(i, j);
            im.swap(i, j);
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let tw_re = &self.tw_re[half - 1..len - 1];
            let tw_im = &self.tw_im[half - 1..len - 1];
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let (cur_r, cur_i) = (tw_re[k], tw_im[k]);
                    let a = start + k;
                    let b = start + k + half;
                    let tr = re[b] * cur_r - im[b] * cur_i;
                    let ti = re[b] * cur_i + im[b] * cur_r;
                    re[b] = re[a] - tr;
                    im[b] = im[a] - ti;
                    re[a] += tr;
                    im[a] += ti;
                }
            }
            len <<= 1;
        }
    }

    /// Inverse complex FFT (scaled by 1/N).
    fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        for v in im.iter_mut() {
            *v = -*v;
        }
        self.forward(re, im);
        let n = re.len() as f64;
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            *r /= n;
            *i = -*i / n;
        }
    }
}

/// Everything one transform length needs: the replayed FFT schedule, the
/// DCT twiddles and two work rows. After [`Plan::new`] no transform
/// allocates.
#[derive(Debug, Clone)]
pub struct Plan {
    fft: FftTables,
    /// `dct2` post-twiddles `cos(−πk/2N)`, `sin(−πk/2N)`.
    post_cos: Vec<f64>,
    post_sin: Vec<f64>,
    /// `idct` pre-twiddles `cos(πk/2N)`, `sin(πk/2N)`.
    pre_cos: Vec<f64>,
    pre_sin: Vec<f64>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Plan {
    /// Builds the plan for rows of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let post = |k: usize| -PI * k as f64 / (2.0 * n as f64);
        let pre = |k: usize| PI * k as f64 / (2.0 * n as f64);
        Self {
            fft: FftTables::new(n),
            post_cos: (0..n).map(|k| post(k).cos()).collect(),
            post_sin: (0..n).map(|k| post(k).sin()).collect(),
            pre_cos: (0..n).map(|k| pre(k).cos()).collect(),
            pre_sin: (0..n).map(|k| pre(k).sin()).collect(),
            re: vec![0.0; n],
            im: vec![0.0; n],
        }
    }

    /// The row length this plan transforms.
    pub(crate) fn len(&self) -> usize {
        self.fft.n
    }

    /// In-place complex FFT of `(re, im)`.
    ///
    /// # Panics
    ///
    /// Panics if either part's length differs from the plan's.
    pub fn fft(&self, re: &mut [f64], im: &mut [f64]) {
        self.fft.forward(re, im);
    }

    /// In-place inverse complex FFT (scaled by 1/N).
    pub fn ifft(&self, re: &mut [f64], im: &mut [f64]) {
        self.fft.inverse(re, im);
    }

    /// Forward DCT-II of `x`, in place, via Makhoul's single-FFT
    /// reordering. O(N log N).
    pub fn dct2(&mut self, x: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n, "DCT row length mismatch");
        if n == 1 {
            return;
        }
        // v[k] = x[2k], v[N-1-k] = x[2k+1].
        for k in 0..n / 2 {
            self.re[k] = x[2 * k];
            self.re[n - 1 - k] = x[2 * k + 1];
        }
        self.im.fill(0.0);
        self.fft.forward(&mut self.re, &mut self.im);
        for (k, o) in x.iter_mut().enumerate() {
            *o = self.re[k] * self.post_cos[k] - self.im[k] * self.post_sin[k];
        }
    }

    /// Inverse of [`Plan::dct2`] (a scaled DCT-III), in place:
    /// `idct(dct2(x)) == x`.
    pub fn idct(&mut self, x: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n, "DCT row length mismatch");
        if n == 1 {
            return;
        }
        // V[k] = (X[k] - i·X[N-k]) · exp(iπk/2N), with X[N] ≡ 0 for k = 0.
        for k in 0..n {
            let xk = x[k];
            let xnk = if k == 0 { 0.0 } else { x[n - k] };
            self.pre_twiddle(k, xk, xnk);
        }
        self.inverse_reorder(x);
    }

    /// Inverse shifted discrete sine transform, in place:
    /// `idxst(X)[n] = (2/N)·Σ_{k=0}^{N−1} X[k]·sin(πk(2n+1)/2N)`.
    ///
    /// Used for the electric-field reconstruction: differentiating the
    /// cosine series of the potential produces a sine series.
    pub fn idxst(&mut self, x: &mut [f64]) {
        let n = self.len();
        assert_eq!(x.len(), n, "DCT row length mismatch");
        if n == 1 {
            // The only coefficient multiplies sin(0).
            x[0] = 0.0;
            return;
        }
        // An IDCT of the reversed coefficients d[k] = X[N−k] (d[0] = 0):
        // the u-th sine basis equals (−1)ⁿ times the (N−u)-th cosine basis.
        // The α₀ = ½ convention would halve d[0]; d[0] = 0 so the mapping
        // is exact.
        for k in 0..n {
            let (dk, dnk) = if k == 0 { (0.0, 0.0) } else { (x[n - k], x[k]) };
            self.pre_twiddle(k, dk, dnk);
        }
        self.inverse_reorder(x);
        for v in x.iter_mut().skip(1).step_by(2) {
            *v = -*v;
        }
    }

    /// Writes `V[k] = (xk − i·xnk)·exp(iπk/2N)` into the work rows.
    fn pre_twiddle(&mut self, k: usize, xk: f64, xnk: f64) {
        let (c, s) = (self.pre_cos[k], self.pre_sin[k]);
        self.re[k] = xk * c + xnk * s;
        self.im[k] = -xnk * c + xk * s;
    }

    /// Runs the inverse FFT over the work rows and undoes the even/odd
    /// reordering into `out`. The IFFT's 1/N factor already supplies the
    /// inverse normalization: for X = dct2(x) this reproduces x exactly,
    /// which equals the 2/N, α₀ = ½ convention by linearity.
    fn inverse_reorder(&mut self, out: &mut [f64]) {
        self.fft.inverse(&mut self.re, &mut self.im);
        let n = self.len();
        for k in 0..n / 2 {
            out[2 * k] = self.re[k];
            out[2 * k + 1] = self.re[n - 1 - k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        v * (PI * k as f64 * (2 * i + 1) as f64 / (2.0 * n as f64)).cos()
                    })
                    .sum()
            })
            .collect()
    }

    fn naive_idct(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                (2.0 / n as f64)
                    * x.iter()
                        .enumerate()
                        .map(|(k, &v)| {
                            let alpha = if k == 0 { 0.5 } else { 1.0 };
                            alpha
                                * v
                                * (PI * k as f64 * (2 * i + 1) as f64 / (2.0 * n as f64)).cos()
                        })
                        .sum::<f64>()
            })
            .collect()
    }

    fn naive_idxst(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| {
                (2.0 / n as f64)
                    * x.iter()
                        .enumerate()
                        .map(|(k, &v)| {
                            v * (PI * k as f64 * (2 * i + 1) as f64 / (2.0 * n as f64)).sin()
                        })
                        .sum::<f64>()
            })
            .collect()
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        // xorshift-based deterministic data, no external deps.
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 10_000) as f64 / 1_000.0 - 5.0
            })
            .collect()
    }

    /// Applies one in-place plan transform to a copy of `x`.
    fn run(op: fn(&mut Plan, &mut [f64]), x: &[f64]) -> Vec<f64> {
        let mut out = x.to_vec();
        op(&mut Plan::new(x.len()), &mut out);
        out
    }

    #[test]
    fn fft_matches_naive_dft() {
        let n = 16;
        let xr = pseudo_random(n, 7);
        let xi = pseudo_random(n, 11);
        let mut re = xr.clone();
        let mut im = xi.clone();
        Plan::new(n).fft(&mut re, &mut im);
        for k in 0..n {
            let mut sr = 0.0;
            let mut si = 0.0;
            for t in 0..n {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                sr += xr[t] * ang.cos() - xi[t] * ang.sin();
                si += xr[t] * ang.sin() + xi[t] * ang.cos();
            }
            assert!((re[k] - sr).abs() < 1e-8, "re[{k}]");
            assert!((im[k] - si).abs() < 1e-8, "im[{k}]");
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        for n in [2usize, 8, 64] {
            let xr = pseudo_random(n, 3);
            let xi = pseudo_random(n, 5);
            let mut re = xr.clone();
            let mut im = xi.clone();
            let plan = Plan::new(n);
            plan.fft(&mut re, &mut im);
            plan.ifft(&mut re, &mut im);
            for i in 0..n {
                assert!((re[i] - xr[i]).abs() < 1e-9);
                assert!((im[i] - xi[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dct2_matches_naive() {
        for n in [2usize, 4, 32] {
            let x = pseudo_random(n, 13);
            let fast = run(Plan::dct2, &x);
            let slow = naive_dct2(&x);
            for i in 0..n {
                assert!((fast[i] - slow[i]).abs() < 1e-8, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn idct_matches_naive_and_inverts() {
        for n in [2usize, 8, 64] {
            let x = pseudo_random(n, 17);
            let fast = run(Plan::idct, &x);
            let slow = naive_idct(&x);
            for i in 0..n {
                assert!((fast[i] - slow[i]).abs() < 1e-8, "n={n} i={i}");
            }
            let round = run(Plan::idct, &run(Plan::dct2, &x));
            for i in 0..n {
                assert!((round[i] - x[i]).abs() < 1e-8, "round-trip n={n} i={i}");
            }
        }
    }

    #[test]
    fn idxst_matches_naive() {
        for n in [1usize, 2, 8, 32] {
            let x = pseudo_random(n, 23);
            let fast = run(Plan::idxst, &x);
            let slow = naive_idxst(&x);
            for i in 0..n {
                assert!((fast[i] - slow[i]).abs() < 1e-8, "n={n} i={i}");
            }
        }
    }

    /// A reused plan keeps no state between rows.
    #[test]
    fn plan_reuse_is_stateless() {
        let mut plan = Plan::new(16);
        let a = pseudo_random(16, 29);
        let b = pseudo_random(16, 31);
        let mut first = b.clone();
        plan.idxst(&mut first);
        let mut other = a.clone();
        plan.dct2(&mut other);
        let mut again = b.clone();
        plan.idxst(&mut again);
        assert_eq!(first, again);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        Plan::new(6);
    }
}
