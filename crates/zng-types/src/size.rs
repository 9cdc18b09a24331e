//! Data-size constants and helpers.
//!
//! All sizes are plain `usize` byte counts. [`CACHE_LINE`] is the GPU
//! memory access size (128 B) the paper's analysis revolves around
//! (§III-A): a 32nd of the Z-NAND minimum access granularity (a 4 KB
//! page), the mismatch that wastes 97 % of flash bandwidth when flash is
//! accessed directly.

/// One kibibyte.
pub const KIB: usize = 1024;
/// One mebibyte.
pub const MIB: usize = 1024 * KIB;
/// One gibibyte.
pub const GIB: usize = 1024 * MIB;

/// GPU memory access (cache line / sector) size: 128 B.
///
/// This is the granularity produced by the coalescing unit and tracked by
/// the L1/L2 caches.
pub const CACHE_LINE: usize = 128;

/// Formats a byte count with a binary-unit suffix.
///
/// # Examples
///
/// ```
/// assert_eq!(zng_types::size::format_bytes(6 * 1024 * 1024), "6.0MiB");
/// assert_eq!(zng_types::size::format_bytes(512), "512B");
/// ```
pub fn format_bytes(bytes: usize) -> String {
    if bytes >= GIB {
        format!("{:.1}GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Integer division rounding up; used for sizing sector/page spans.
///
/// # Examples
///
/// ```
/// assert_eq!(zng_types::size::div_ceil(4097, 4096), 2);
/// ```
pub const fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_units() {
        assert_eq!(format_bytes(0), "0B");
        assert_eq!(format_bytes(2048), "2.0KiB");
        assert_eq!(format_bytes(24 * MIB), "24.0MiB");
        assert_eq!(format_bytes(3 * GIB), "3.0GiB");
    }

    #[test]
    fn div_ceil_edges() {
        assert_eq!(div_ceil(1, 4096), 1);
        assert_eq!(div_ceil(4096, 4096), 1);
        assert_eq!(div_ceil(4097, 4096), 2);
        assert_eq!(div_ceil(8192, 4096), 2);
    }
}
