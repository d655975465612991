//! Error type for network construction.

use core::fmt;

/// Errors produced while building or partitioning networks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DnnError {
    /// A layer referenced a node id that does not exist yet.
    UnknownNode {
        /// The offending node index.
        node: usize,
    },
    /// A layer received inputs whose shapes are incompatible with it.
    ShapeMismatch {
        /// The layer's name.
        layer: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A layer expected a different number of inputs.
    ArityMismatch {
        /// The layer's name.
        layer: String,
        /// Inputs expected.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// A partition was requested with zero stages or more stages than
    /// layers.
    InvalidPartition {
        /// Requested stage count.
        stages: usize,
        /// Available layer count.
        layers: usize,
    },
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::UnknownNode { node } => write!(f, "unknown node id {node}"),
            DnnError::ShapeMismatch { layer, detail } => {
                write!(f, "shape mismatch at layer `{layer}`: {detail}")
            }
            DnnError::ArityMismatch {
                layer,
                expected,
                got,
            } => write!(f, "layer `{layer}` expects {expected} input(s), got {got}"),
            DnnError::InvalidPartition { stages, layers } => {
                write!(f, "cannot split {layers} layer(s) into {stages} stage(s)")
            }
        }
    }
}

impl std::error::Error for DnnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DnnError::ArityMismatch {
            layer: "add1".into(),
            expected: 2,
            got: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("add1") && msg.contains('2') && msg.contains('1'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DnnError>();
    }
}
