//! Hardware and software entity identifiers.
//!
//! All ids are thin `u16`/`u32`/`u64` newtypes so that, e.g., a plane index
//! can never be passed where a die index is expected (C-NEWTYPE).

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident($inner:ty), $tag:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw id value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Returns the id as a `usize` index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> $name {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $tag, self.0)
            }
        }
    };
}

id_newtype!(
    /// A streaming multiprocessor (Table I: 16 SMs).
    SmId(u16),
    "sm"
);
id_newtype!(
    /// A warp, unique within the whole simulation (SM-qualified by the GPU).
    WarpId(u32),
    "w"
);
id_newtype!(
    /// A co-running application (multi-app workloads, paper §V-D).
    AppId(u16),
    "app"
);
id_newtype!(
    /// An L2 cache bank (Table I: 6 banks).
    BankId(u16),
    "bank"
);
id_newtype!(
    /// A flash channel (Table I: 16 channels, one package each).
    ChannelId(u16),
    "ch"
);
id_newtype!(
    /// A flash package.
    PackageId(u16),
    "pkg"
);
id_newtype!(
    /// A die within a package (Table I: 8 dies).
    DieId(u16),
    "die"
);
id_newtype!(
    /// A plane within a die (Table I: 8 planes).
    PlaneId(u16),
    "pl"
);

/// A program-counter address of a LD/ST instruction.
///
/// The read-prefetch predictor (paper §IV-B) indexes its table by PC: all
/// memory requests born from the same static load exhibit the same access
/// pattern. Four bytes hold any kernel's static instruction addresses
/// and keep a `zng_gpu::WarpOp` at 16 bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pc(pub u32);

impl Pc {
    /// Returns the raw PC value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        // Compile-time property: a function taking DieId cannot take PlaneId.
        fn wants_die(d: DieId) -> usize {
            d.index()
        }
        assert_eq!(wants_die(DieId(3)), 3);
    }

    #[test]
    fn display_tags() {
        assert_eq!(SmId(2).to_string(), "sm2");
        assert_eq!(ChannelId(15).to_string(), "ch15");
        assert_eq!(Pc(0xabc).to_string(), "pc0xabc");
        assert_eq!(AppId(1).to_string(), "app1");
    }

    #[test]
    fn index_conversion() {
        assert_eq!(WarpId(80).index(), 80);
        assert_eq!(PlaneId(7).raw(), 7);
        let c: ChannelId = 4u16.into();
        assert_eq!(c, ChannelId(4));
    }
}
