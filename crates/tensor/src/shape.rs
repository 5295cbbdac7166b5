//! Shape utilities: validation, broadcasting and reduction bookkeeping.
//!
//! Tensors in this crate are row-major with rank ≤ 3. Broadcasting follows
//! NumPy's right-aligned rule restricted to those ranks: two shapes are
//! compatible if, after right-aligning, every dimension pair is equal or one
//! of them is `1` (a missing leading dimension behaves like `1`).

/// Maximum tensor rank supported by the crate.
pub const MAX_RANK: usize = 3;

/// Returns the number of elements implied by `shape`.
#[inline]
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Validates that `shape` has an acceptable rank and no zero-sized dimension
/// unless the whole tensor is empty.
pub fn validate(shape: &[usize]) {
    assert!(
        shape.len() <= MAX_RANK,
        "tensor rank {} exceeds supported maximum {MAX_RANK}",
        shape.len()
    );
}

/// Computes the broadcast result shape of `a` and `b`, or panics with a
/// descriptive message when the shapes are incompatible.
pub fn broadcast_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = dim_from_right(a, i);
        let db = dim_from_right(b, i);
        out[rank - 1 - i] = match (da, db) {
            (x, y) if x == y => x,
            (1, y) => y,
            (x, 1) => x,
            #[expect(
                clippy::panic,
                reason = "shape contract — incompatible broadcast shapes are a caller bug, same class as the rank asserts"
            )]
            _ => panic!("shapes {a:?} and {b:?} are not broadcast-compatible"),
        };
    }
    out
}

/// Dimension `i` counted from the right, treating missing dims as 1.
#[inline]
pub fn dim_from_right(shape: &[usize], i: usize) -> usize {
    if i < shape.len() {
        shape[shape.len() - 1 - i]
    } else {
        1
    }
}

/// Row-major strides for `shape`.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Strides used to *read* a tensor of `shape` as if broadcast to `target`:
/// broadcast dimensions get stride 0 so the same element is revisited.
pub fn broadcast_strides(shape: &[usize], target: &[usize]) -> Vec<usize> {
    let own = strides(shape);
    let rank = target.len();
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let d = dim_from_right(shape, i);
        let t = dim_from_right(target, i);
        assert!(d == t || d == 1, "cannot broadcast {shape:?} to {target:?}");
        out[rank - 1 - i] = if d == 1 && t != 1 {
            0
        } else if i < shape.len() {
            own[shape.len() - 1 - i]
        } else {
            0
        };
    }
    out
}

/// True when `from` can be reduced (by summation) back to `to`; used when
/// propagating gradients through broadcasting ops.
pub fn reducible(from: &[usize], to: &[usize]) -> bool {
    if to.len() > from.len() {
        return false;
    }
    (0..from.len()).all(|i| {
        let f = dim_from_right(from, i);
        let t = dim_from_right(to, i);
        f == t || t == 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shape(&[2, 3], &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn broadcast_row_vector() {
        assert_eq!(broadcast_shape(&[4, 3], &[3]), vec![4, 3]);
        assert_eq!(broadcast_shape(&[3], &[4, 3]), vec![4, 3]);
    }

    #[test]
    fn broadcast_column_vector() {
        assert_eq!(broadcast_shape(&[4, 3], &[4, 1]), vec![4, 3]);
    }

    #[test]
    fn broadcast_scalar() {
        assert_eq!(broadcast_shape(&[4, 3], &[1]), vec![4, 3]);
        assert_eq!(broadcast_shape(&[1], &[1]), vec![1]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn broadcast_incompatible_panics() {
        broadcast_shape(&[4, 3], &[2, 3]);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert!(strides(&[]).is_empty());
    }

    #[test]
    fn broadcast_strides_zeroes_broadcast_dims() {
        assert_eq!(broadcast_strides(&[3], &[4, 3]), vec![0, 1]);
        assert_eq!(broadcast_strides(&[4, 1], &[4, 3]), vec![1, 0]);
        assert_eq!(broadcast_strides(&[1], &[4, 3]), vec![0, 0]);
    }

    #[test]
    fn reducible_checks() {
        assert!(reducible(&[4, 3], &[3]));
        assert!(reducible(&[4, 3], &[4, 1]));
        assert!(reducible(&[4, 3], &[1]));
        assert!(!reducible(&[3], &[4, 3]));
    }
}
