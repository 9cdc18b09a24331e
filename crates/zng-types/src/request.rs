//! The kind of a memory access.

use std::fmt;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AccessKind {
    /// A load.
    #[default]
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "R"),
            AccessKind::Write => write!(f, "W"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(AccessKind::Read.to_string(), "R");
        assert_eq!(AccessKind::Write.to_string(), "W");
    }
}
