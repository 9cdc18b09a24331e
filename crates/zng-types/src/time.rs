//! Simulation time: cycles, nanoseconds and clock frequencies.
//!
//! The simulator's master clock counts GPU core cycles. Device timing
//! parameters are naturally expressed in nanoseconds or microseconds and
//! converted once, at configuration time, through [`Freq`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, measured in GPU core cycles.
///
/// `Cycle` is an ordinary unsigned counter with saturating-free arithmetic;
/// overflowing a `u64` cycle counter is unreachable in practice
/// (2^64 cycles ≈ 487 years at 1.2 GHz).
///
/// # Examples
///
/// ```
/// use zng_types::Cycle;
/// let start = Cycle(1_000);
/// let latency = Cycle(3_600);
/// assert_eq!(start + latency, Cycle(4_600));
/// assert_eq!((start + latency) - start, latency);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);
    /// The far future; used as the initial "next event" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Difference `self - earlier`, saturating at zero.
    ///
    /// Useful for "time remaining" computations where a stale timestamp
    /// must not underflow.
    #[inline]
    pub fn saturating_since(self, earlier: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(earlier.0))
    }

    /// Converts this span to nanoseconds under clock `freq`.
    #[inline]
    pub fn to_nanos(self, freq: Freq) -> Nanos {
        Nanos(self.0 as f64 * 1e9 / freq.hz())
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// # Panics
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn mul(self, rhs: u64) -> Cycle {
        Cycle(self.0 * rhs)
    }
}

impl Div<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn div(self, rhs: u64) -> Cycle {
        Cycle(self.0 / rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Cycle {
        Cycle(v)
    }
}

/// A duration in nanoseconds (fractional, for sub-cycle device timings).
///
/// # Examples
///
/// ```
/// use zng_types::{Freq, Nanos};
/// let gpu = Freq::ghz(1.2);
/// // A 3 µs Z-NAND read is 3600 GPU cycles.
/// assert_eq!(Nanos(3_000.0).to_cycles(gpu).raw(), 3_600);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Nanos(pub f64);

impl Nanos {
    /// Constructs from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Nanos {
        Nanos(us * 1_000.0)
    }

    /// Converts to whole cycles under clock `freq`, rounding up so that a
    /// non-zero duration never becomes a free (0-cycle) operation.
    #[inline]
    pub fn to_cycles(self, freq: Freq) -> Cycle {
        Cycle((self.0 * freq.hz() / 1e9).ceil() as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl Mul<f64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: f64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}ns", self.0)
    }
}

/// A clock frequency.
///
/// # Examples
///
/// ```
/// use zng_types::Freq;
/// let core = Freq::ghz(1.2);
/// assert_eq!(core.hz(), 1.2e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Freq(f64);

impl Freq {
    /// Frequency in hertz. Panics if non-positive.
    pub fn hz_new(hz: f64) -> Freq {
        assert!(hz > 0.0, "frequency must be positive, got {hz}");
        Freq(hz)
    }

    /// Frequency in gigahertz.
    pub fn ghz(ghz: f64) -> Freq {
        Freq::hz_new(ghz * 1e9)
    }

    /// Returns the frequency in hertz.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0
    }
}

impl Default for Freq {
    /// The GPU core clock from Table I (1.2 GHz).
    fn default() -> Freq {
        Freq::ghz(1.2)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}GHz", self.0 / 1e9)
        } else {
            write!(f, "{:.0}MHz", self.0 / 1e6)
        }
    }
}

/// The default GPU core clock (Table I: 1.2 GHz).
pub const GPU_FREQ_GHZ: f64 = 1.2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        let b = Cycle(4);
        assert_eq!(a + b, Cycle(14));
        assert_eq!(a - b, Cycle(6));
        assert_eq!(a * 3, Cycle(30));
        assert_eq!(a / 2, Cycle(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycle_saturating_since() {
        assert_eq!(Cycle(5).saturating_since(Cycle(10)), Cycle::ZERO);
        assert_eq!(Cycle(10).saturating_since(Cycle(4)), Cycle(6));
    }

    #[test]
    fn cycle_sum() {
        let total: Cycle = [Cycle(1), Cycle(2), Cycle(3)].into_iter().sum();
        assert_eq!(total, Cycle(6));
    }

    #[test]
    fn nanos_to_cycles_rounds_up() {
        let f = Freq::ghz(1.2);
        // 1 ns at 1.2 GHz is 1.2 cycles -> must round to 2.
        assert_eq!(Nanos(1.0).to_cycles(f), Cycle(2));
        // Zero stays zero.
        assert_eq!(Nanos(0.0).to_cycles(f), Cycle(0));
    }

    #[test]
    fn znand_read_latency_in_cycles() {
        // Paper: 3 us read at 1.2 GHz core clock = 3600 cycles.
        let f = Freq::default();
        assert_eq!(Nanos::from_micros(3.0).to_cycles(f), Cycle(3_600));
        // 100 us program = 120_000 cycles.
        assert_eq!(Nanos::from_micros(100.0).to_cycles(f), Cycle(120_000));
    }

    #[test]
    fn roundtrip_cycles_nanos() {
        let f = Freq::ghz(1.0);
        let c = Cycle(1_000);
        let ns = c.to_nanos(f);
        assert!((ns.0 - 1_000.0).abs() < 1e-9);
        assert_eq!(ns.to_cycles(f), c);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_freq_rejected() {
        let _ = Freq::hz_new(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycle(7).to_string(), "7cy");
        assert_eq!(Freq::ghz(1.2).to_string(), "1.20GHz");
        assert_eq!(Freq::hz_new(8e8).to_string(), "800MHz");
        assert_eq!(Nanos(3.25).to_string(), "3.2ns");
    }
}
