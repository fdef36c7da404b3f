//! # mixmatch-quant
//!
//! The core contribution of the Mix-and-Match reproduction: the paper's
//! quantization schemes and the FPGA-centric mixed-scheme quantization (MSQ)
//! training framework.
//!
//! * [`schemes`] — fixed-point (Eq. 1), power-of-2 (Eq. 4) and the proposed
//!   **SP2** sum-of-power-of-2 scheme (Eq. 8) as level codebooks.
//! * [`codes`] — hardware weight codes with bit-exact integer MACs (DSP
//!   multiply vs LUT shift/add) and Table I's operation-cost analysis.
//! * [`alpha`] — MSE-optimal scaling-factor search.
//! * [`rowwise`] — Algorithm 2's variance-ranked row partitioning plus
//!   ablation variants (random, kurtosis).
//! * [`msq`] — row-wise projection `proj_S` under a [`msq::MsqPolicy`].
//! * [`admm`] — Algorithm 1's ADMM training loop state (`Z`, `U`, proximal
//!   penalty, final hard projection).
//! * [`qat`] — a model-agnostic quantization-aware training driver.
//! * [`integer`] — deployment-form [`integer::QuantizedMatrix`] running
//!   entirely in integer arithmetic, validated bit-exact against the float
//!   path.
//! * [`engine`] — [`engine::BatchEngine`], the batched multi-threaded
//!   integer inference runtime (persistent worker pool, precompiled row
//!   plans, per-worker scratch) bit-identical to the single-image kernels.
//! * [`baselines`] — DoReFa / PACT comparators and the published reference
//!   rows of Tables III–IV.
//! * [`analysis`] — distribution statistics and the Figure 1 data series.
//! * [`pipeline`] — **the entry point**: [`pipeline::QuantPipeline`], the
//!   builder chaining device characterization → policy → ADMM training →
//!   bit-exact deployment, with [`pipeline::HardwareTarget`] as the bridge
//!   the FPGA crate implements.
//! * [`error`] — the unified [`error::QuantError`] the pipeline path
//!   returns instead of panicking.
//! * [`verify`] — the static plan verifier: the one authority proving SSA
//!   discipline, buffer safety, shape/geometry flow and reachability over
//!   an [`ExecutionPlan`] without executing it, run wherever a plan is
//!   built ([`ExecutionPlan::from_parts`]) and at model load (artifact
//!   import, model serving, `mmcheck`).
//! * [`optimize`] — the plan optimizer: epilogue fusion and `Flatten`/copy
//!   elimination, each pass leaving the plan `verify`-clean and its
//!   logits bit-identical
//!   (on by default in the pipeline; see
//!   [`pipeline::QuantPipeline::with_plan_optimizer`]).
//!
//! # Example: quantize a weight matrix the MSQ way
//!
//! ```
//! use mixmatch_quant::msq::{project_with_policy, MsqPolicy};
//! use mixmatch_quant::schemes::Scheme;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let w = Tensor::randn(&[16, 64], &mut rng);
//! let (quantized, info) = project_with_policy(&w, &MsqPolicy::msq_optimal());
//! assert_eq!(quantized.dims(), w.dims());
//! // The optimal XC7Z045 ratio assigns 2/3 of rows to SP2.
//! let sp2_rows = info.iter().filter(|i| i.scheme == Scheme::Sp2).count();
//! assert_eq!(sp2_rows, 11);
//! ```

// Index-heavy numerical kernels read more clearly with explicit loops.
#![allow(clippy::needless_range_loop)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admm;
pub mod alpha;
pub mod analysis;
pub mod baselines;
pub mod codes;
pub mod deploy;
pub mod engine;
pub mod error;
pub mod export;
pub mod graph;
pub mod integer;
pub mod msq;
pub mod optimize;
pub mod pipeline;
pub mod profile;
pub mod qat;
pub mod rowwise;
pub mod schemes;
pub mod verify;

pub use admm::{AdmmConfig, AdmmQuantizer};
pub use error::QuantError;
pub use graph::{Epilogue, ExecutionPlan, PlanStep, PostOp, StepOp};
pub use msq::{MsqPolicy, SchemeChoice};
pub use optimize::{OptPass, PassStats};
pub use pipeline::{
    CompiledModel, HardwareSummary, HardwareTarget, PipelineReport, QuantPipeline, QuantizedModel,
};
pub use rowwise::{PartitionRatio, RowAssignment};
pub use schemes::{Codebook, Scheme};
pub use verify::{Diagnostic, Rule, VerifyReport};
