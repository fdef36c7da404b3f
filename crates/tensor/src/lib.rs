//! # mixmatch-tensor
//!
//! Dense tensor substrate for the Mix-and-Match reproduction.
//!
//! This crate provides the numerical foundation that every other crate in the
//! workspace builds on: an owned, row-major, `f32` [`Tensor`] with shape/stride
//! bookkeeping, a blocked [`gemm`](crate::gemm::gemm) kernel, `im2col`/`col2im`
//! transforms for convolution, a seeded random-number facade, and the
//! statistics helpers (mean, variance, percentiles, histograms) that the
//! row-wise scheme-assignment algorithm of the paper relies on.
//!
//! # Example
//!
//! ```
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(42);
//! let a = Tensor::randn(&[4, 8], &mut rng);
//! let b = Tensor::randn(&[8, 3], &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape().dims(), &[4, 3]);
//! ```

// Index-heavy numerical kernels read more clearly with explicit loops.
#![allow(clippy::needless_range_loop)]
// `deny`, not `forbid`: the sanctioned exceptions are the scoped-task
// lifetime transmute in `pool::WorkerPool::run` (see its SAFETY comment),
// the AVX2 intrinsic island in `simd::avx2`, and the calls into the AVX2
// builds of `im2col`'s gather and bordered-map copy, each carrying a local
// `#[allow(unsafe_code)]`. Everything else is safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod stats;
pub mod tensor;

pub use error::TensorError;
pub use rng::TensorRng;
pub use shape::Shape;
pub use tensor::Tensor;
