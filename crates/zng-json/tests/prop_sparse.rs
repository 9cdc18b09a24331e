//! Property tests: a sparse array prints, parses and indexes exactly as
//! the dense array of the same numbers.

use proptest::prelude::*;
use zng_json::{SparseU64, Value};

/// Turns `(slot, value)` draws into a dense array of `len` numbers.
/// Slot 0 and 1 pin the first and the last element, other slots land
/// anywhere; a value of 0 (one draw in four) clears the element, and
/// odd values are scaled up to cover wide numbers.
fn dense_of(len: usize, draws: &[(usize, u64)]) -> Vec<u64> {
    let mut dense = vec![0u64; len];
    if len == 0 {
        return dense;
    }
    for &(slot, v) in draws {
        let i = match slot {
            0 => 0,
            1 => len - 1,
            s => s % len,
        };
        dense[i] = if v % 2 == 1 { v << 40 } else { v / 2 };
    }
    dense
}

proptest! {
    #[test]
    fn sparse_text_equals_dense_text(
        len in 0usize..40,
        draws in prop::collection::vec((0usize..64, 0u64..8), 0..24),
        nest in 0u64..3,
    ) {
        let dense = dense_of(len, &draws);
        let nonzero = dense.iter().enumerate().filter(|&(_, &v)| v != 0).map(|(i, &v)| (i, v));
        let sparse = Value::Sparse(SparseU64::new(len, nonzero));
        let dense = Value::from(dense);
        // Nested under an object and an array too, where pretty
        // printing indents the elements deeper.
        let (sparse, dense) = match nest {
            0 => (sparse, dense),
            1 => (
                Value::object(vec![("s", sparse), ("k", Value::Null)]),
                Value::object(vec![("s", dense), ("k", Value::Null)]),
            ),
            _ => (Value::Array(vec![sparse]), Value::Array(vec![dense])),
        };
        let compact = sparse.to_string_compact();
        prop_assert_eq!(&compact, &dense.to_string_compact());
        let pretty = sparse.to_string_pretty();
        prop_assert_eq!(&pretty, &dense.to_string_pretty());
        prop_assert_eq!(Value::parse(&compact).unwrap(), dense.clone());
        prop_assert_eq!(Value::parse(&pretty).unwrap(), dense);
    }

    #[test]
    fn sparse_indexes_as_dense(
        len in 0usize..40,
        draws in prop::collection::vec((0usize..64, 0u64..8), 0..24),
    ) {
        let dense = dense_of(len, &draws);
        let nonzero = dense.iter().enumerate().filter(|&(_, &v)| v != 0).map(|(i, &v)| (i, v));
        let sparse = Value::Sparse(SparseU64::new(len, nonzero));
        let stored = dense.iter().filter(|&&v| v != 0).count();
        let dense = Value::from(dense);
        for i in 0..len + 2 {
            prop_assert_eq!(&sparse[i], &dense[i]);
        }
        let a = sparse.as_sparse().unwrap();
        prop_assert_eq!((a.len(), a.stored()), (len, stored));
    }
}
