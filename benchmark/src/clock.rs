//! The benchmark's clock: wall time, scaled by how fast the host is
//! running at that moment.
//!
//! The reference host is a small guest on shared hardware. For seconds at
//! a time it runs everything up to twice as slowly (a fixed
//! multiply-accumulate loop read 1.2 ms, then 2.0 ms for five seconds,
//! then 1.2 ms again), and signature checks and hashing slow down by the
//! same factor within 2 % (README.md, "Steadiness"). No statistic over
//! ten seconds of wall time removes that. So every duration the benchmark
//! reports is measured on this clock instead: at least every [`TICK_US`]
//! it times a fixed calibration kernel of its own, and wall time between
//! two readings counts as `REFERENCE_KERNEL_US / reading` calibrated
//! microseconds per microsecond. On an undisturbed reference host one
//! calibrated second is one second; a number read on a disturbed or on a
//! different host is what the reference host would have shown.
//!
//! The kernel lives here, not in the program, so a change to the program
//! cannot move it.

use std::cell::RefCell;
use std::time::Instant;

/// What one kernel pass takes on the undisturbed reference host.
pub const REFERENCE_KERNEL_US: f64 = 400.0;
const KERNEL_ITERS: u64 = 40_000;
/// A reading is the fastest of this many passes: an interrupt can only
/// make a pass slower, a slow host makes all of them slower.
const KERNEL_PASSES: usize = 3;
/// Wall time after which the next clock read takes a new reading first.
const TICK_US: f64 = 20_000.0;

/// 256-bit schoolbook multiply-accumulate, the instruction mix of the
/// modular arithmetic the program spends most of its time in.
#[inline(never)]
fn kernel(seed: u64) -> u64 {
    let mut a = [
        seed | 1,
        seed.rotate_left(13) | 1,
        seed.rotate_left(29) | 1,
        seed.rotate_left(43) | 1,
    ];
    let b = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
    ];
    for _ in 0..KERNEL_ITERS {
        let mut r = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = (a[i] as u128) * (b[j] as u128) + r[i + j] as u128 + carry;
                r[i + j] = t as u64;
                carry = t >> 64;
            }
            r[i + 4] = carry as u64;
        }
        a = [r[0] ^ r[4], r[1] ^ r[5], r[2] ^ r[6], (r[3] ^ r[7]) | 1];
    }
    a[0] ^ a[1] ^ a[2] ^ a[3]
}

fn read_kernel_us() -> f64 {
    (0..KERNEL_PASSES)
        .map(|pass| {
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(pass as u64 + 3)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

struct Clock {
    /// When the last reading ended, and the calibrated time it was then.
    knot: Instant,
    knot_us: f64,
    /// The last reading.
    kernel_us: f64,
    /// Wall time from the knot to the latest clock read after it. Time
    /// already handed out was scaled by the knot's reading alone and
    /// stays so; the stretch nobody looked into (one long call into the
    /// program) is scaled by the mean of the readings at its two ends.
    read_up_to_us: f64,
    /// Wall time covered so far, the kernel's own time left out.
    wall_us: f64,
    readings: Vec<f64>,
}

impl Clock {
    fn new() -> Clock {
        let kernel_us = read_kernel_us();
        Clock {
            knot: Instant::now(),
            knot_us: 0.0,
            kernel_us,
            read_up_to_us: 0.0,
            wall_us: 0.0,
            readings: vec![kernel_us],
        }
    }

    fn now_us(&mut self) -> f64 {
        let mut gap = self.knot.elapsed().as_secs_f64() * 1e6;
        if gap > TICK_US {
            let reading = read_kernel_us();
            let unread_us = gap - self.read_up_to_us;
            self.knot_us += self.read_up_to_us * REFERENCE_KERNEL_US / self.kernel_us
                + unread_us * REFERENCE_KERNEL_US / ((self.kernel_us + reading) / 2.0);
            self.wall_us += gap;
            self.kernel_us = reading;
            self.readings.push(reading);
            self.knot = Instant::now();
            gap = 0.0;
        }
        self.read_up_to_us = gap;
        self.knot_us + gap * REFERENCE_KERNEL_US / self.kernel_us
    }
}

thread_local! {
    // Only the driver thread reads the clock.
    static CLOCK: RefCell<Clock> = RefCell::new(Clock::new());
}

/// A point in calibrated time.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(f64);

impl Stamp {
    pub fn now() -> Stamp {
        Stamp(CLOCK.with(|c| c.borrow_mut().now_us()))
    }

    /// Calibrated microseconds from `earlier` to `self`.
    pub fn us_after(self, earlier: Stamp) -> f64 {
        self.0 - earlier.0
    }
}

/// Calibrated microseconds since `t`.
pub fn us_since(t: Stamp) -> f64 {
    Stamp::now().us_after(t)
}

/// Wall microseconds per calibrated microsecond over the run so far: 1 on
/// an undisturbed reference host, more on a slower or disturbed one. A
/// timed loop multiplies its calibrated time by this to know how much
/// wall time it has used.
pub fn wall_per_calibrated() -> f64 {
    CLOCK.with(|c| {
        let c = c.borrow();
        if c.knot_us > 0.0 {
            c.wall_us / c.knot_us
        } else {
            c.kernel_us / REFERENCE_KERNEL_US
        }
    })
}

/// Every kernel reading so far, in wall microseconds.
pub fn readings() -> Vec<f64> {
    CLOCK.with(|c| c.borrow().readings.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_runs_forward_and_covers_no_more_than_wall_time() {
        let wall = Instant::now();
        let start = Stamp::now();
        let mut last = start;
        // Until the clock has taken three more readings of its own.
        let first_readings = readings().len();
        while readings().len() < first_readings + 3 {
            let now = Stamp::now();
            assert!(now.us_after(last) >= 0.0);
            last = now;
        }
        let calibrated = last.us_after(start);
        let ratio = wall_per_calibrated();
        // Whatever the host's speed, calibrated time times the ratio is
        // the wall time the clock covered (the kernel's own time left out).
        assert!(calibrated > 0.0 && ratio > 0.0);
        assert!(calibrated * ratio <= wall.elapsed().as_secs_f64() * 1e6);
    }

    #[test]
    fn kernel_depends_on_its_seed() {
        assert_ne!(kernel(3), kernel(4));
    }
}
