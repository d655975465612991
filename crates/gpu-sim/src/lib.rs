//! Discrete-event GPU device simulator for the SGPRS reproduction.
//!
//! The paper runs on an NVIDIA RTX 2080 Ti partitioned into CUDA contexts
//! (spatial partitioning à la MPS) each exposing prioritised CUDA streams
//! (temporal partitioning). This crate replaces that hardware with a
//! calibrated processor-sharing simulator:
//!
//! * [`GpuSpec`] — the device: number of SMs (68 for the 2080 Ti preset).
//! * [`SpeedupModel`] / [`SpeedupCurve`] — per-operation Amdahl speedup
//!   curves fitted to the paper's Figure 1 (convolution 32×, max-pool 14×,
//!   every other op ≤ 7× at 68 SMs).
//! * [`WorkProfile`] / [`KernelDesc`] — the unit of device work: a stage's
//!   mix of operation classes with per-class single-SM execution time.
//! * [`GpuEngine`] — the discrete-event engine: contexts with SM
//!   allocations, prioritised stream slots, weighted processor sharing
//!   within a context, and a global contention model when the context pool
//!   over-subscribes the physical SMs.
//! * [`TraceRecorder`] — optional timeline capture with Chrome-trace JSON
//!   export for debugging schedules visually.
//!
//! # Example
//!
//! ```
//! use sgprs_gpu_sim::{
//!     ContextConfig, ContextId, GpuEngine, GpuSpec, KernelDesc, OpClass, StreamClass,
//!     WorkProfile,
//! };
//!
//! let mut engine = GpuEngine::builder(GpuSpec::rtx_2080_ti())
//!     .context(ContextConfig::new(34))
//!     .context(ContextConfig::new(34))
//!     .build();
//! let work = WorkProfile::single(OpClass::Convolution, 1_000_000.0);
//! let k = engine
//!     .submit(ContextId(0), StreamClass::High, KernelDesc::new("conv", work))
//!     .expect("submit");
//! let event = engine.run_next().expect("one kernel in flight");
//! assert_eq!(event.kernel, k);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod engine;
mod error;
mod kernel;
mod spec;
mod speedup;
mod trace;

pub use contention::ContentionModel;
pub use engine::{
    ContextConfig, ContextId, ContextSnapshot, DeviceEvent, GpuEngine, GpuEngineBuilder,
    KernelHandle, StreamClass, StreamId, DEFAULT_SEED,
};
pub use error::GpuSimError;
pub use kernel::{KernelDesc, WorkProfile, WorkSegment};
pub use spec::GpuSpec;
pub use speedup::{OpClass, SpeedupCurve, SpeedupModel};
pub use trace::{KernelSpan, TraceRecorder};
