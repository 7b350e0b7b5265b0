//! Host speed calibration. On a shared VM, neighbours slow this core by
//! up to ~70 % for minutes at a time, and the guest cannot see it (steal
//! time stays near zero; there are no hardware counters). The run
//! therefore times a fixed arithmetic loop, compiled here and independent
//! of the library, after every measured operation, and converts its host
//! times to *reference seconds*: seconds on a core that runs the loop in
//! [`REFERENCE_LOOP_S`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The loop's time on an uncontended core of the Xeon VM the benchmark
/// was tuned on; it only sets the scale of reference seconds.
pub const REFERENCE_LOOP_S: f64 = 0.005;

/// Calibration time spent after an operation, as a share of its time.
const SHARE: f64 = 0.125;

/// Loop timings of one run.
#[derive(Debug, Default)]
pub struct Speed {
    loops: Vec<f64>,
}

impl Speed {
    /// Time calibration loops for about [`SHARE`] of `op` (at least one),
    /// so they sample the same stretch of machine load as the operation.
    pub fn sample_after(&mut self, op: Duration) {
        let until = Instant::now() + op.mul_f64(SHARE);
        loop {
            self.loops.push(calibration_loop());
            if Instant::now() >= until {
                break;
            }
        }
    }

    /// Reference seconds per host second: the reference loop time over
    /// the median loop time of this run. NaN before any sample.
    pub fn factor(&self) -> f64 {
        REFERENCE_LOOP_S / crate::stats::median(&self.loops)
    }

    /// Loops timed so far.
    pub fn samples(&self) -> usize {
        self.loops.len()
    }
}

/// One pass of the calibration loop (about 5 ms of integer and
/// floating-point arithmetic in registers); returns its host seconds.
fn calibration_loop() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
    let mut acc = 0.0f64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_scale_with_the_operation_and_give_a_finite_factor() {
        let mut speed = Speed::default();
        assert!(speed.factor().is_nan());
        speed.sample_after(Duration::ZERO);
        assert_eq!(speed.samples(), 1);
        speed.sample_after(Duration::from_millis(400));
        assert!(speed.samples() >= 5, "50 ms of ~5 ms loops");
        let f = speed.factor();
        assert!(f.is_finite() && f > 0.0, "factor {f}");
    }
}
