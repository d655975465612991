//! Reference network architectures.
//!
//! [`resnet18`] is the paper's benchmark network; the other architectures
//! exist for extension experiments (heterogeneous multi-tenant workloads)
//! and to exercise the graph substrate on different topologies.

use crate::{LayerKind, Network, NetworkBuilder, NodeId, TensorShape};

fn conv(out_channels: u64, kernel: u64, stride: u64, padding: u64) -> LayerKind {
    LayerKind::Conv2d {
        out_channels,
        kernel,
        stride,
        padding,
        groups: 1,
    }
}

fn depthwise(channels: u64, stride: u64) -> LayerKind {
    LayerKind::Conv2d {
        out_channels: channels,
        kernel: 3,
        stride,
        padding: 1,
        groups: channels,
    }
}

/// Adds `conv → bn → relu` and returns the relu node.
fn conv_bn_relu(
    b: &mut NetworkBuilder,
    name: &str,
    kind: LayerKind,
    input: Option<NodeId>,
) -> NodeId {
    let preds: Vec<NodeId> = input.into_iter().collect();
    let c = b
        .layer(format!("{name}.conv"), kind, &preds)
        .expect("architecture shapes are statically correct");
    let n = b
        .layer_on(format!("{name}.bn"), LayerKind::BatchNorm, c)
        .expect("bn keeps shape");
    b.layer_on(format!("{name}.relu"), LayerKind::Relu, n)
        .expect("relu keeps shape")
}

/// A ResNet basic block: two 3×3 convolutions plus identity (or strided
/// 1×1 projection) shortcut.
fn basic_block(
    b: &mut NetworkBuilder,
    name: &str,
    input: NodeId,
    out_channels: u64,
    stride: u64,
) -> NodeId {
    let c1 = b
        .layer_on(
            format!("{name}.conv1"),
            conv(out_channels, 3, stride, 1),
            input,
        )
        .expect("block conv1");
    let n1 = b
        .layer_on(format!("{name}.bn1"), LayerKind::BatchNorm, c1)
        .expect("block bn1");
    let r1 = b
        .layer_on(format!("{name}.relu1"), LayerKind::Relu, n1)
        .expect("block relu1");
    let c2 = b
        .layer_on(format!("{name}.conv2"), conv(out_channels, 3, 1, 1), r1)
        .expect("block conv2");
    let n2 = b
        .layer_on(format!("{name}.bn2"), LayerKind::BatchNorm, c2)
        .expect("block bn2");
    let shortcut = if stride != 1 {
        let sc = b
            .layer_on(
                format!("{name}.downsample.conv"),
                conv(out_channels, 1, stride, 0),
                input,
            )
            .expect("downsample conv");
        b.layer_on(format!("{name}.downsample.bn"), LayerKind::BatchNorm, sc)
            .expect("downsample bn")
    } else {
        input
    };
    let add = b
        .layer(format!("{name}.add"), LayerKind::Add, &[n2, shortcut])
        .expect("residual add");
    b.layer_on(format!("{name}.relu2"), LayerKind::Relu, add)
        .expect("block relu2")
}

fn resnet(name: &str, batch: u64, resolution: u64, blocks_per_stage: [usize; 4]) -> Network {
    let mut b = NetworkBuilder::new(name, TensorShape::new(batch, 3, resolution, resolution));
    let stem = conv_bn_relu(&mut b, "stem", conv(64, 7, 2, 3), None);
    let mut x = b
        .layer_on(
            "stem.maxpool",
            LayerKind::MaxPool {
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            stem,
        )
        .expect("stem pool");
    let widths = [64u64, 128, 256, 512];
    for (stage, (&width, &blocks)) in widths.iter().zip(blocks_per_stage.iter()).enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            x = basic_block(
                &mut b,
                &format!("layer{}.{block}", stage + 1),
                x,
                width,
                stride,
            );
        }
    }
    let gap = b.layer_on("gap", LayerKind::GlobalAvgPool, x).expect("gap");
    let fc = b
        .layer_on("fc", LayerKind::Linear { out_features: 1000 }, gap)
        .expect("fc");
    b.layer_on("softmax", LayerKind::Softmax, fc)
        .expect("softmax");
    b.finish()
}

/// ResNet18 (He et al., 2016) — the paper's benchmark DNN.
///
/// `resolution` is the square input size (224 in the evaluation).
#[must_use]
pub fn resnet18(batch: u64, resolution: u64) -> Network {
    resnet("resnet18", batch, resolution, [2, 2, 2, 2])
}

/// ResNet34 — a deeper sibling for heterogeneous-workload experiments.
#[must_use]
pub fn resnet34(batch: u64, resolution: u64) -> Network {
    resnet("resnet34", batch, resolution, [3, 4, 6, 3])
}

/// VGG16 — a plain, convolution-heavy chain (no residuals), much heavier
/// than ResNet18.
#[must_use]
pub fn vgg16(batch: u64, resolution: u64) -> Network {
    let mut b = NetworkBuilder::new("vgg16", TensorShape::new(batch, 3, resolution, resolution));
    let stage_widths: [(u64, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut x: Option<NodeId> = None;
    for (stage, &(width, convs)) in stage_widths.iter().enumerate() {
        for i in 0..convs {
            let name = format!("conv{}_{}", stage + 1, i + 1);
            let preds: Vec<NodeId> = x.into_iter().collect();
            let c = b
                .layer(&name, conv(width, 3, 1, 1), &preds)
                .expect("vgg conv");
            x = Some(
                b.layer_on(format!("{name}.relu"), LayerKind::Relu, c)
                    .expect("vgg relu"),
            );
        }
        x = Some(
            b.layer_on(
                format!("pool{}", stage + 1),
                LayerKind::MaxPool {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                x.expect("at least one conv per stage"),
            )
            .expect("vgg pool"),
        );
    }
    let mut x = x.expect("stages built");
    for (i, width) in [4096u64, 4096].into_iter().enumerate() {
        let fc = b
            .layer_on(
                format!("fc{}", i + 1),
                LayerKind::Linear {
                    out_features: width,
                },
                x,
            )
            .expect("vgg fc");
        x = b
            .layer_on(format!("fc{}.relu", i + 1), LayerKind::Relu, fc)
            .expect("vgg fc relu");
    }
    let fc3 = b
        .layer_on("fc3", LayerKind::Linear { out_features: 1000 }, x)
        .expect("vgg fc3");
    b.layer_on("softmax", LayerKind::Softmax, fc3)
        .expect("softmax");
    b.finish()
}

/// An AlexNet-style network: large early kernels, light total cost.
#[must_use]
pub fn alexnet(batch: u64, resolution: u64) -> Network {
    let mut b = NetworkBuilder::new(
        "alexnet",
        TensorShape::new(batch, 3, resolution, resolution),
    );
    let c1 = b.layer("conv1", conv(96, 11, 4, 2), &[]).expect("conv1");
    let r1 = b.layer_on("relu1", LayerKind::Relu, c1).expect("relu1");
    let p1 = b
        .layer_on(
            "pool1",
            LayerKind::MaxPool {
                kernel: 3,
                stride: 2,
                padding: 0,
            },
            r1,
        )
        .expect("pool1");
    let c2 = b.layer_on("conv2", conv(256, 5, 1, 2), p1).expect("conv2");
    let r2 = b.layer_on("relu2", LayerKind::Relu, c2).expect("relu2");
    let p2 = b
        .layer_on(
            "pool2",
            LayerKind::MaxPool {
                kernel: 3,
                stride: 2,
                padding: 0,
            },
            r2,
        )
        .expect("pool2");
    let c3 = b.layer_on("conv3", conv(384, 3, 1, 1), p2).expect("conv3");
    let r3 = b.layer_on("relu3", LayerKind::Relu, c3).expect("relu3");
    let c4 = b.layer_on("conv4", conv(384, 3, 1, 1), r3).expect("conv4");
    let r4 = b.layer_on("relu4", LayerKind::Relu, c4).expect("relu4");
    let c5 = b.layer_on("conv5", conv(256, 3, 1, 1), r4).expect("conv5");
    let r5 = b.layer_on("relu5", LayerKind::Relu, c5).expect("relu5");
    let p5 = b
        .layer_on(
            "pool5",
            LayerKind::MaxPool {
                kernel: 3,
                stride: 2,
                padding: 0,
            },
            r5,
        )
        .expect("pool5");
    let mut x = p5;
    for (i, width) in [4096u64, 4096].into_iter().enumerate() {
        let fc = b
            .layer_on(
                format!("fc{}", i + 6),
                LayerKind::Linear {
                    out_features: width,
                },
                x,
            )
            .expect("alexnet fc");
        x = b
            .layer_on(format!("relu{}", i + 6), LayerKind::Relu, fc)
            .expect("alexnet fc relu");
    }
    let fc8 = b
        .layer_on("fc8", LayerKind::Linear { out_features: 1000 }, x)
        .expect("fc8");
    b.layer_on("softmax", LayerKind::Softmax, fc8)
        .expect("softmax");
    b.finish()
}

/// A MobileNetV1-style network built from depthwise-separable blocks —
/// memory-bound and poorly scaling, a stress test for the speedup model.
#[must_use]
pub fn mobilenet(batch: u64, resolution: u64) -> Network {
    let mut b = NetworkBuilder::new(
        "mobilenet",
        TensorShape::new(batch, 3, resolution, resolution),
    );
    let mut x = conv_bn_relu(&mut b, "stem", conv(32, 3, 2, 1), None);
    // (output channels of the pointwise conv, stride of the depthwise conv)
    let blocks: [(u64, u64); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    let mut channels = 32u64;
    for (i, &(out, stride)) in blocks.iter().enumerate() {
        let dw = conv_bn_relu(
            &mut b,
            &format!("dw{i}"),
            depthwise(channels, stride),
            Some(x),
        );
        x = conv_bn_relu(&mut b, &format!("pw{i}"), conv(out, 1, 1, 0), Some(dw));
        channels = out;
    }
    let gap = b.layer_on("gap", LayerKind::GlobalAvgPool, x).expect("gap");
    let fc = b
        .layer_on("fc", LayerKind::Linear { out_features: 1000 }, gap)
        .expect("fc");
    b.layer_on("softmax", LayerKind::Softmax, fc)
        .expect("softmax");
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgprs_gpu_sim::OpClass;

    #[test]
    fn resnet18_matches_published_flops() {
        let net = resnet18(1, 224);
        // ~1.8 GFLOPs for 224x224 ResNet18 (3.6 GMACs counted as 2 FLOPs
        // would be double; the accepted figure with MAC=2FLOP is ~3.6G,
        // with MAC=1FLOP ~1.8G; our convention is MAC=2FLOP).
        let gflops = net.total_flops() as f64 / 1e9;
        assert!(
            (3.2..=4.0).contains(&gflops),
            "resnet18 should be ~3.6 GFLOPs (MAC=2), got {gflops:.2}"
        );
        assert_eq!(net.output_shape().unwrap().elements(), 1000);
    }

    #[test]
    fn resnet18_has_expected_structure() {
        let net = resnet18(1, 224);
        let convs = net
            .layers()
            .iter()
            .filter(|l| l.op_class() == OpClass::Convolution)
            .count();
        // 1 stem + 16 block convs + 3 downsample projections = 20.
        assert_eq!(convs, 20);
        let adds = net
            .layers()
            .iter()
            .filter(|l| l.op_class() == OpClass::ElementwiseAdd)
            .count();
        assert_eq!(adds, 8, "eight residual blocks");
    }

    #[test]
    fn resnet34_is_deeper_than_resnet18() {
        let n18 = resnet18(1, 224);
        let n34 = resnet34(1, 224);
        assert!(n34.len() > n18.len());
        assert!(n34.total_flops() > n18.total_flops());
    }

    #[test]
    fn vgg16_is_much_heavier_than_resnet18() {
        let vgg = vgg16(1, 224);
        let rn = resnet18(1, 224);
        // VGG16 ≈ 15.5 GMACs ⇒ ~31 GFLOPs with our convention.
        let gflops = vgg.total_flops() as f64 / 1e9;
        assert!(
            (28.0..=34.0).contains(&gflops),
            "vgg16 should be ~31 GFLOPs, got {gflops:.2}"
        );
        assert!(vgg.total_flops() > 7 * rn.total_flops());
    }

    #[test]
    fn mobilenet_is_lighter_than_resnet18() {
        let mb = mobilenet(1, 224);
        let rn = resnet18(1, 224);
        // ~0.57 GMACs ⇒ ~1.1 GFLOPs.
        let gflops = mb.total_flops() as f64 / 1e9;
        assert!(
            (0.9..=1.5).contains(&gflops),
            "mobilenet should be ~1.1 GFLOPs, got {gflops:.2}"
        );
        assert!(mb.total_flops() < rn.total_flops());
    }

    #[test]
    fn alexnet_builds_and_classifies() {
        let net = alexnet(1, 224);
        assert_eq!(net.output_shape().unwrap().elements(), 1000);
        let gflops = net.total_flops() as f64 / 1e9;
        assert!(
            (1.0..=2.5).contains(&gflops),
            "alexnet ~1.4 GFLOPs, got {gflops:.2}"
        );
    }

    #[test]
    fn all_models_end_in_softmax_over_1000_classes() {
        for net in [
            resnet18(1, 224),
            resnet34(1, 224),
            vgg16(1, 224),
            alexnet(1, 224),
            mobilenet(1, 224),
        ] {
            let last = net.layers().last().unwrap();
            assert_eq!(last.kind, LayerKind::Softmax, "{}", net.name);
            assert_eq!(last.output.elements(), 1000, "{}", net.name);
        }
    }

    #[test]
    fn resolution_scales_flops_quadratically() {
        let big = resnet18(1, 224);
        let small = resnet18(1, 112);
        let ratio = big.total_flops() as f64 / small.total_flops() as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "halving resolution should quarter conv flops, ratio {ratio:.2}"
        );
    }

    #[test]
    fn batch_scales_flops_linearly() {
        let b1 = resnet18(1, 224);
        let b4 = resnet18(4, 224);
        let ratio = b4.total_flops() as f64 / b1.total_flops() as f64;
        assert!((3.9..=4.1).contains(&ratio));
    }
}
