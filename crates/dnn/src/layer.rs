//! Layer definitions: shape inference and FLOP/byte accounting.

use crate::{DnnError, TensorShape};
use serde::{Deserialize, Serialize};
use sgprs_gpu_sim::OpClass;

/// The operator a layer performs, with its hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LayerKind {
    /// 2-D convolution with square kernels and symmetric padding.
    Conv2d {
        /// Output channel count.
        out_channels: u64,
        /// Kernel size (k×k).
        kernel: u64,
        /// Stride.
        stride: u64,
        /// Padding.
        padding: u64,
        /// Channel groups (1 = dense, `in_channels` = depthwise).
        groups: u64,
    },
    /// Max pooling.
    MaxPool {
        /// Kernel size (k×k).
        kernel: u64,
        /// Stride.
        stride: u64,
        /// Padding.
        padding: u64,
    },
    /// Global average pooling to 1×1.
    GlobalAvgPool,
    /// Batch normalisation (inference form: scale + shift).
    BatchNorm,
    /// ReLU activation.
    Relu,
    /// Elementwise residual addition of two same-shape inputs.
    Add,
    /// Fully connected layer.
    Linear {
        /// Output feature count.
        out_features: u64,
    },
    /// Softmax over channels.
    Softmax,
}

impl LayerKind {
    /// Number of inputs the operator consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            LayerKind::Add => 2,
            _ => 1,
        }
    }

    /// The speedup-model operation class this operator belongs to.
    #[must_use]
    pub fn op_class(&self) -> OpClass {
        match self {
            LayerKind::Conv2d { .. } => OpClass::Convolution,
            LayerKind::MaxPool { .. } => OpClass::MaxPool,
            LayerKind::GlobalAvgPool => OpClass::AvgPool,
            LayerKind::BatchNorm => OpClass::BatchNorm,
            LayerKind::Relu => OpClass::Activation,
            LayerKind::Add => OpClass::ElementwiseAdd,
            LayerKind::Linear { .. } => OpClass::Linear,
            LayerKind::Softmax => OpClass::Softmax,
        }
    }

    /// Infers the output shape from the input shapes.
    ///
    /// # Errors
    ///
    /// [`DnnError::ArityMismatch`] or [`DnnError::ShapeMismatch`] when the
    /// inputs do not fit the operator.
    pub fn infer_shape(&self, name: &str, inputs: &[TensorShape]) -> Result<TensorShape, DnnError> {
        if inputs.len() != self.arity() {
            return Err(DnnError::ArityMismatch {
                layer: name.to_owned(),
                expected: self.arity(),
                got: inputs.len(),
            });
        }
        let x = inputs[0];
        match *self {
            LayerKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
                groups,
            } => {
                if x.h + 2 * padding < kernel || x.w + 2 * padding < kernel {
                    return Err(DnnError::ShapeMismatch {
                        layer: name.to_owned(),
                        detail: format!("kernel {kernel} larger than padded input {x}"),
                    });
                }
                if groups == 0
                    || !x.c.is_multiple_of(groups)
                    || !out_channels.is_multiple_of(groups)
                {
                    return Err(DnnError::ShapeMismatch {
                        layer: name.to_owned(),
                        detail: format!(
                            "groups {groups} must divide in={} and out={out_channels}",
                            x.c
                        ),
                    });
                }
                Ok(TensorShape::new(
                    x.n,
                    out_channels,
                    TensorShape::conv_out_dim(x.h, kernel, stride, padding),
                    TensorShape::conv_out_dim(x.w, kernel, stride, padding),
                ))
            }
            LayerKind::MaxPool {
                kernel,
                stride,
                padding,
            } => {
                if x.h + 2 * padding < kernel || x.w + 2 * padding < kernel {
                    return Err(DnnError::ShapeMismatch {
                        layer: name.to_owned(),
                        detail: format!("pool window {kernel} larger than padded input {x}"),
                    });
                }
                Ok(TensorShape::new(
                    x.n,
                    x.c,
                    TensorShape::conv_out_dim(x.h, kernel, stride, padding),
                    TensorShape::conv_out_dim(x.w, kernel, stride, padding),
                ))
            }
            LayerKind::GlobalAvgPool => Ok(TensorShape::new(x.n, x.c, 1, 1)),
            LayerKind::BatchNorm | LayerKind::Relu | LayerKind::Softmax => Ok(x),
            LayerKind::Add => {
                let y = inputs[1];
                if x != y {
                    return Err(DnnError::ShapeMismatch {
                        layer: name.to_owned(),
                        detail: format!("add inputs differ: {x} vs {y}"),
                    });
                }
                Ok(x)
            }
            LayerKind::Linear { out_features } => Ok(TensorShape::flat(x.n, out_features)),
        }
    }

    /// Floating-point operations performed for the given input/output
    /// shapes (multiply-accumulate counted as two FLOPs).
    #[must_use]
    pub fn flops(&self, input: TensorShape, output: TensorShape) -> u64 {
        match *self {
            LayerKind::Conv2d { kernel, groups, .. } => {
                // 2 · k² · (Cin/groups) · Cout · Hout · Wout · N
                2 * kernel * kernel * (input.c / groups) * output.c * output.h * output.w * output.n
            }
            LayerKind::MaxPool { kernel, .. } => kernel * kernel * output.elements(),
            LayerKind::GlobalAvgPool => input.elements() + output.elements(),
            LayerKind::BatchNorm => 2 * output.elements(),
            LayerKind::Relu => output.elements(),
            LayerKind::Add => output.elements(),
            LayerKind::Linear { .. } => 2 * input.elements() * output.elements() / output.n,
            LayerKind::Softmax => 5 * output.elements(),
        }
    }

    /// Parameter (weight) count of the operator.
    #[must_use]
    pub fn params(&self, input: TensorShape, output: TensorShape) -> u64 {
        match *self {
            LayerKind::Conv2d { kernel, groups, .. } => {
                kernel * kernel * (input.c / groups) * output.c + output.c
            }
            LayerKind::BatchNorm => 2 * output.c,
            LayerKind::Linear { .. } => {
                (input.elements() / input.n) * (output.elements() / output.n)
                    + output.elements() / output.n
            }
            _ => 0,
        }
    }

    /// Bytes moved to/from device memory: activations in and out plus
    /// parameters, at FP32.
    #[must_use]
    pub fn bytes(&self, inputs: &[TensorShape], output: TensorShape) -> u64 {
        let act: u64 = inputs.iter().map(TensorShape::bytes).sum::<u64>() + output.bytes();
        act + 4 * self.params(inputs[0], output)
    }
}

/// A placed layer in a [`crate::Network`]: kind + resolved shapes + costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// Layer name, unique within its network.
    pub name: String,
    /// The operator.
    pub kind: LayerKind,
    /// Input shapes (one per predecessor).
    pub inputs: Vec<TensorShape>,
    /// Inferred output shape.
    pub output: TensorShape,
    /// FLOPs per inference.
    pub flops: u64,
    /// Bytes moved per inference.
    pub bytes: u64,
}

impl Layer {
    /// The speedup-model class of this layer.
    #[must_use]
    pub fn op_class(&self) -> OpClass {
        self.kind.op_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(out: u64, k: u64, s: u64, p: u64) -> LayerKind {
        LayerKind::Conv2d {
            out_channels: out,
            kernel: k,
            stride: s,
            padding: p,
            groups: 1,
        }
    }

    #[test]
    fn resnet_stem_conv_shape_and_flops() {
        let input = TensorShape::new(1, 3, 224, 224);
        let kind = conv(64, 7, 2, 3);
        let out = kind.infer_shape("conv1", &[input]).unwrap();
        assert_eq!(out, TensorShape::new(1, 64, 112, 112));
        // 2·49·3·64·112·112 = 236 MFLOPs.
        assert_eq!(kind.flops(input, out), 2 * 49 * 3 * 64 * 112 * 112);
    }

    #[test]
    fn depthwise_conv_divides_flops_by_groups() {
        let input = TensorShape::new(1, 32, 56, 56);
        let dense = LayerKind::Conv2d {
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 1,
        };
        let depthwise = LayerKind::Conv2d {
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 32,
        };
        let out = dense.infer_shape("d", &[input]).unwrap();
        assert_eq!(dense.flops(input, out) / depthwise.flops(input, out), 32);
    }

    #[test]
    fn invalid_groups_are_rejected() {
        let input = TensorShape::new(1, 30, 8, 8);
        let bad = LayerKind::Conv2d {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            groups: 7,
        };
        assert!(matches!(
            bad.infer_shape("g", &[input]),
            Err(DnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn add_requires_matching_shapes() {
        let a = TensorShape::new(1, 64, 56, 56);
        let b = TensorShape::new(1, 64, 28, 28);
        assert!(matches!(
            LayerKind::Add.infer_shape("add", &[a, b]),
            Err(DnnError::ShapeMismatch { .. })
        ));
        assert_eq!(LayerKind::Add.infer_shape("add", &[a, a]).unwrap(), a);
    }

    #[test]
    fn add_arity_is_two() {
        let a = TensorShape::new(1, 64, 56, 56);
        assert!(matches!(
            LayerKind::Add.infer_shape("add", &[a]),
            Err(DnnError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn linear_flattens_and_counts_weights() {
        let input = TensorShape::flat(1, 512);
        let kind = LayerKind::Linear { out_features: 1000 };
        let out = kind.infer_shape("fc", &[input]).unwrap();
        assert_eq!(out, TensorShape::flat(1, 1000));
        assert_eq!(kind.flops(input, out), 2 * 512 * 1000);
        assert_eq!(kind.params(input, out), 512 * 1000 + 1000);
    }

    #[test]
    fn pool_too_large_is_rejected() {
        let input = TensorShape::new(1, 64, 2, 2);
        let kind = LayerKind::MaxPool {
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert!(matches!(
            kind.infer_shape("p", &[input]),
            Err(DnnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_layers_preserve_shape() {
        let x = TensorShape::new(1, 128, 28, 28);
        for kind in [LayerKind::BatchNorm, LayerKind::Relu, LayerKind::Softmax] {
            assert_eq!(kind.infer_shape("e", &[x]).unwrap(), x);
        }
    }

    #[test]
    fn global_avg_pool_collapses_spatial_dims() {
        let x = TensorShape::new(1, 512, 7, 7);
        let out = LayerKind::GlobalAvgPool.infer_shape("gap", &[x]).unwrap();
        assert_eq!(out, TensorShape::new(1, 512, 1, 1));
    }

    #[test]
    fn bytes_include_weights() {
        let input = TensorShape::flat(1, 512);
        let kind = LayerKind::Linear { out_features: 1000 };
        let out = kind.infer_shape("fc", &[input]).unwrap();
        let bytes = kind.bytes(&[input], out);
        assert!(bytes > 4 * 512 * 1000, "weights dominate fc traffic");
    }

    #[test]
    fn op_class_mapping_is_total() {
        let kinds = [
            conv(8, 3, 1, 1),
            LayerKind::MaxPool {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
            LayerKind::GlobalAvgPool,
            LayerKind::BatchNorm,
            LayerKind::Relu,
            LayerKind::Add,
            LayerKind::Linear { out_features: 10 },
            LayerKind::Softmax,
        ];
        let classes: std::collections::HashSet<_> = kinds.iter().map(|k| k.op_class()).collect();
        assert_eq!(
            classes.len(),
            kinds.len(),
            "each kind maps to its own class"
        );
    }
}
