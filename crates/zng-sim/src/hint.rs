//! Host cache hints for the request path.
//!
//! The modelled L2 of a Table I GPU is 4.5 MiB of host state, more than
//! a host core's own L2, so the first load of a cache set or of a warp's
//! next trace op is usually a host cache miss. [`prefetch`] lets a caller
//! start that load as soon as it knows the address and overlap it with
//! the work that comes before the read. A hint changes no simulated state.

/// Host cache line size the hints step by.
const HOST_LINE: usize = 64;

/// Hints the host to load every 64 B line `items` spans into its cache.
///
/// On x86-64 this issues one `prefetcht0` per line; on other targets it
/// does nothing. It never reads, writes or faults, so hinting stale or
/// unused data is only a wasted load.
///
/// # Examples
///
/// ```
/// let ways = [0u64; 8];
/// zng_sim::prefetch(&ways);
/// ```
#[inline]
#[allow(unsafe_code)]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let bytes = std::mem::size_of_val(items);
        if bytes == 0 {
            return;
        }
        let start = items.as_ptr().cast::<i8>();
        let skew = start as usize % HOST_LINE;
        let first = start.wrapping_sub(skew);
        for off in (0..skew + bytes).step_by(HOST_LINE) {
            // SAFETY: a prefetch is a hint, not an access: it never
            // faults, reads into a register or writes, whatever the
            // address. The pointer is formed with wrapping arithmetic and
            // is never dereferenced.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(off)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_leave_the_data_unchanged() {
        let data: Vec<u32> = (0..100).collect();
        prefetch(&data);
        prefetch(&data[3..7]);
        prefetch::<u32>(&[]);
        prefetch::<()>(&[(); 4]);
        assert!(data.iter().copied().eq(0..100));
    }
}
