//! Host-speed normalization.
//!
//! On a shared host the speed of a core changes by up to 1.8× for seconds
//! at a time (a neighbour on the sibling hyper-thread, for instance), so
//! raw timings of the same build differ between runs far more than any
//! change worth catching. The benchmark therefore times a fixed reference
//! kernel, its own code that no change to the program touches, between
//! chunks of the workload, and divides each chunk's timings by the host's
//! slowness around it: reference time over [`NOMINAL_NS`]. Every
//! end-to-end timing is reported at that nominal speed; the raw timings
//! and the slowness are printed beside them.

use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time that defines nominal speed (slowness 1.0): about
/// its time on an uncontended core of a 2-core AVX-512 x86-64 host.
const NOMINAL_NS: f64 = 250_000.0;

const M: usize = 64;
const K: usize = 96;
const N: usize = 64;
/// Kernel runs per reading; the reading is their median.
const REPS: usize = 5;

/// The reference kernel and its operands.
#[derive(Debug)]
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            a: (0..M * K).map(|i| (i % 7) as f32 * 0.125).collect(),
            b: (0..K * N).map(|i| (i % 5) as f32 * 0.25).collect(),
            c: vec![0.0; M * N],
        }
    }
}

impl Reference {
    /// A naive `[64, 96] @ [96, 64]` product.
    fn kernel(&mut self) {
        let (a, b) = (black_box(&self.a), black_box(&self.b));
        for i in 0..M {
            for j in 0..N {
                let mut s = 0.0f32;
                for k in 0..K {
                    s += a[i * K + k] * b[k * N + j];
                }
                self.c[i * N + j] = s;
            }
        }
        black_box(&mut self.c);
    }

    /// The host's current slowness: the median of [`REPS`] kernel times
    /// over [`NOMINAL_NS`]; 2.0 means half the nominal speed.
    pub fn slowness(&mut self) -> f64 {
        let mut t: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                self.kernel();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[REPS / 2] / NOMINAL_NS
    }

    /// Slowness of the whole host: one reading per hardware thread, all
    /// taken at once, averaged. The program's kernels fan out over every
    /// hardware thread, so one slow core slows them too.
    pub fn host_slowness(&mut self) -> f64 {
        let helpers = timekd_tensor::parallel::hardware_threads() - 1;
        std::thread::scope(|s| {
            let others: Vec<_> = (0..helpers)
                .map(|_| s.spawn(|| Reference::default().slowness()))
                .collect();
            let own = self.slowness();
            let sum: f64 = others
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .sum();
            (own + sum) / (helpers + 1) as f64
        })
    }

    /// Runs `f`, returning its result, its raw seconds and the mean host
    /// slowness read just before and just after it.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.host_slowness();
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64();
        let after = self.host_slowness();
        (out, raw, (before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_and_kernel_is_deterministic() {
        let mut r = Reference::default();
        let s = r.slowness();
        assert!(s.is_finite() && s > 0.0, "slowness {s}");
        let first = r.c.clone();
        r.kernel();
        assert_eq!(r.c, first);
        // Row 0, column 0: sum over k of (k % 7) / 8 * (64k % 5) / 4.
        let want: f32 = (0..K)
            .map(|k| (k % 7) as f32 * 0.125 * ((k * N) % 5) as f32 * 0.25)
            .sum();
        assert_eq!(r.c[0], want);
    }

    #[test]
    fn around_reports_raw_time_and_slowness() {
        let mut r = Reference::default();
        let (v, raw, s) = r.around(|| 7);
        assert_eq!(v, 7);
        assert!(raw >= 0.0 && s > 0.0);
    }
}
