//! Error type for device-simulator operations.

use crate::StreamClass;
use core::fmt;

/// Errors returned by [`crate::GpuEngine`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GpuSimError {
    /// The referenced context does not exist in the pool.
    UnknownContext {
        /// The out-of-range context index.
        context: usize,
    },
    /// Every stream of the requested class in the context is busy.
    NoIdleStream {
        /// The context index.
        context: usize,
        /// The requested stream class.
        class: StreamClass,
    },
    /// The kernel would take no time: its work is empty and it has
    /// neither launch overhead nor extra overhead.
    ZeroTimeKernel {
        /// The context index.
        context: usize,
    },
}

impl fmt::Display for GpuSimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuSimError::UnknownContext { context } => {
                write!(f, "unknown context index {context}")
            }
            GpuSimError::NoIdleStream { context, class } => {
                write!(f, "no idle {class}-priority stream in context {context}")
            }
            GpuSimError::ZeroTimeKernel { context } => {
                write!(
                    f,
                    "kernel for context {context} would take no time: empty work, no overhead"
                )
            }
        }
    }
}

impl std::error::Error for GpuSimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_the_context() {
        let e = GpuSimError::NoIdleStream {
            context: 2,
            class: StreamClass::High,
        };
        assert!(e.to_string().contains("context 2"));
        assert!(e.to_string().contains("high"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GpuSimError>();
    }
}
