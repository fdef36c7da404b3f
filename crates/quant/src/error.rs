//! Unified error type for the quantization pipeline.
//!
//! Historically every constructor in this crate `assert!`-panicked on bad
//! input, which is fine for experiment scripts but not for a library entry
//! point. The [`QuantError`] enum covers every failure the pipeline path can
//! hit — bit-width range, shape/geometry mismatches, missing parameters and
//! corrupt packed streams ([`UnpackError`] folds in via `From`). The legacy
//! panicking constructors remain as thin wrappers over the `try_` variants.

use crate::export::UnpackError;
use crate::verify::VerifyReport;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong while building or deploying a quantized
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// Weight bit-width outside the supported `2..=8` range.
    BitWidth {
        /// Offending bit-width.
        bits: u32,
    },
    /// A tensor's shape disagrees with what the operation requires.
    ShapeMismatch {
        /// What the shape describes (e.g. `"weight must be in GEMM form"`).
        context: String,
        /// Expected dimensions.
        expected: Vec<usize>,
        /// Actual dimensions.
        got: Vec<usize>,
    },
    /// A convolution geometry is incompatible with the requested deployment
    /// form.
    Geometry {
        /// Human-readable description of the conflict.
        context: String,
    },
    /// A layer descriptor referenced a parameter the model does not expose.
    MissingParam {
        /// The parameter name looked up.
        name: String,
    },
    /// The model exposes no quantizable layers at all.
    NoQuantizableLayers,
    /// The model did not lower to a dataflow graph, so no execution plan
    /// can be compiled (`QuantizableModel::lower` returned `None`).
    NoLoweredGraph,
    /// A serialized compiled-model artifact is malformed.
    Artifact {
        /// Human-readable description of the corruption.
        context: String,
    },
    /// A packed weight stream failed to decode.
    Unpack(UnpackError),
    /// An activation quantizer the integer engine cannot run: `bits`
    /// outside `2..=16` or a `clip` that is not finite and positive.
    /// [`ActQuantizer::new`](crate::integer::ActQuantizer::new) asserts
    /// this, but its fields are public, so
    /// [`GemmPlan::check_act`](crate::integer::GemmPlan::check_act) checks
    /// it again before any engine fan-out.
    ActQuantizer {
        /// Offending activation bit-width.
        bits: u32,
        /// Offending clip threshold.
        clip: f32,
    },
    /// Executing a compiled GEMM plan could overflow its integer
    /// accumulator: the static worst-case bound `Σ|numerator| × max_level`
    /// derived at plan build exceeds what the accumulator holds. Raised at
    /// plan compile / activation binding instead of silently wrapping at
    /// run time on adversarial artifacts.
    /// Boxed so the 128-bit bound arithmetic doesn't widen every
    /// `Result` on the serving path.
    Overflow(Box<OverflowBound>),
    /// An execution plan failed static verification (see
    /// [`crate::verify`]): the bytes parsed, but the plan violates an IR
    /// invariant the runtime depends on.
    Verify {
        /// The full diagnostic report from the verifier run.
        report: VerifyReport,
    },
}

/// The failing static accumulator bound carried by
/// [`QuantError::Overflow`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowBound {
    /// Matrix row whose bound fails.
    pub row: usize,
    /// The row's worst-case accumulator magnitude.
    pub bound: u128,
    /// The largest magnitude the accumulator can hold.
    pub limit: u128,
}

impl QuantError {
    /// Builds the boxed [`QuantError::Overflow`] variant.
    pub fn overflow(row: usize, bound: u128, limit: u128) -> Self {
        QuantError::Overflow(Box::new(OverflowBound { row, bound, limit }))
    }
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::BitWidth { bits } => {
                write!(f, "bit-width {bits} out of range 2..=8")
            }
            QuantError::ShapeMismatch {
                context,
                expected,
                got,
            } => write!(f, "{context}: expected {expected:?}, got {got:?}"),
            QuantError::Geometry { context } => f.write_str(context),
            QuantError::MissingParam { name } => {
                write!(f, "model exposes no parameter named {name:?}")
            }
            QuantError::NoQuantizableLayers => f.write_str("model has no quantizable layers"),
            QuantError::NoLoweredGraph => f.write_str("model does not lower to a dataflow graph"),
            QuantError::Artifact { context } => {
                write!(f, "compiled-model artifact corrupt: {context}")
            }
            QuantError::Unpack(e) => write!(f, "packed stream corrupt: {e}"),
            QuantError::ActQuantizer { bits, clip } => write!(
                f,
                "activation quantizer out of range: {bits} bits (need 2..=16), clip {clip} (need finite, > 0)"
            ),
            QuantError::Overflow(o) => write!(
                f,
                "integer accumulator overflow: row {} worst-case |acc| {} exceeds {}",
                o.row, o.bound, o.limit
            ),
            QuantError::Verify { report } => write!(f, "{report}"),
        }
    }
}

impl Error for QuantError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QuantError::Unpack(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnpackError> for QuantError {
    fn from(e: UnpackError) -> Self {
        QuantError::Unpack(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpack_error_folds_in() {
        let e: QuantError = UnpackError::InvalidCode { nibble: 0x8 }.into();
        assert!(matches!(e, QuantError::Unpack(_)));
        assert!(e.to_string().contains("corrupt"));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_messages_carry_context() {
        let e = QuantError::ShapeMismatch {
            context: "weight must be in GEMM form".into(),
            expected: vec![8, 27],
            got: vec![8, 26],
        };
        let msg = e.to_string();
        assert!(
            msg.contains("GEMM form") && msg.contains("[8, 26]"),
            "{msg}"
        );
        assert!(QuantError::BitWidth { bits: 12 }
            .to_string()
            .contains("out of range"));
    }
}
