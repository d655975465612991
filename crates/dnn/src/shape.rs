//! NCHW tensor shapes.

use serde::{Deserialize, Serialize};

/// The shape of an activation tensor in NCHW layout.
///
/// Fully connected activations use `h == w == 1`.
///
/// # Example
///
/// ```
/// use sgprs_dnn::TensorShape;
///
/// let input = TensorShape::new(1, 3, 224, 224);
/// assert_eq!(input.elements(), 3 * 224 * 224);
/// assert_eq!(input.bytes(), input.elements() * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TensorShape {
    /// Batch size.
    pub n: u64,
    /// Channels.
    pub c: u64,
    /// Height.
    pub h: u64,
    /// Width.
    pub w: u64,
}

impl TensorShape {
    /// Creates an NCHW shape.
    #[must_use]
    pub const fn new(n: u64, c: u64, h: u64, w: u64) -> Self {
        TensorShape { n, c, h, w }
    }

    /// A flat (fully connected) shape: `n × c × 1 × 1`.
    #[must_use]
    pub const fn flat(n: u64, c: u64) -> Self {
        TensorShape::new(n, c, 1, 1)
    }

    /// Total number of elements.
    #[must_use]
    pub const fn elements(&self) -> u64 {
        self.n * self.c * self.h * self.w
    }

    /// Size in bytes at FP32 (4 bytes/element).
    #[must_use]
    pub const fn bytes(&self) -> u64 {
        self.elements() * 4
    }

    /// The spatial output size of a convolution/pool window with the given
    /// kernel size, stride, and symmetric padding, in one dimension.
    #[must_use]
    pub const fn conv_out_dim(input: u64, kernel: u64, stride: u64, padding: u64) -> u64 {
        (input + 2 * padding - kernel) / stride + 1
    }
}

impl core::fmt::Display for TensorShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_bytes() {
        let s = TensorShape::new(2, 3, 4, 5);
        assert_eq!(s.elements(), 120);
        assert_eq!(s.bytes(), 480);
    }

    #[test]
    fn conv_out_dim_matches_pytorch_convention() {
        // 224, k=7, s=2, p=3 → 112 (ResNet18 stem).
        assert_eq!(TensorShape::conv_out_dim(224, 7, 2, 3), 112);
        // 112, k=3, s=2, p=1 → 56 (stem max-pool).
        assert_eq!(TensorShape::conv_out_dim(112, 3, 2, 1), 56);
        // Same-padding 3×3 stride 1 keeps the size.
        assert_eq!(TensorShape::conv_out_dim(56, 3, 1, 1), 56);
    }

    #[test]
    fn flat_shapes_have_unit_spatial_dims() {
        let s = TensorShape::flat(1, 1000);
        assert_eq!(s.h, 1);
        assert_eq!(s.w, 1);
        assert_eq!(s.elements(), 1000);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TensorShape::new(1, 3, 224, 224).to_string(), "1x3x224x224");
    }
}
