//! Robustness fuzzing for `import_compiled`: arbitrary corruption of an
//! `MMCM` artifact — truncation at every boundary, corrupted section
//! lengths/counts (every 4-byte window forced to `u32::MAX`), and random
//! bit flips — must fail with typed `QuantError::Artifact`, never panic,
//! and never allocate from an untrusted count. The serving stack feeds
//! caller-supplied bytes straight into this parser, so this is its trust
//! boundary.
//!
//! Corruptions that happen to land in weight payload bytes may legally
//! still import (the stream stays structurally valid); the invariant is
//! "typed error or valid model", never a crash.
//!
//! Behind the byte-level parser sits the static verifier: corruption that
//! yields a parseable stream with a malformed *plan* fails typed as
//! `QuantError::Verify` with rule-level diagnostics, and anything that
//! imports successfully is verifier-clean — corruption can never defer its
//! failure to runtime.

mod common;

use mixmatch::nn::models::{ResNet, ResNetConfig};
use mixmatch::prelude::*;
use mixmatch::quant::export::{export_compiled, import_compiled};
use mixmatch::quant::verify;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Dense-only artifact (fast; exercises Gemm plan steps and layer tables).
fn mlp_artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| common::mlp_artifact(1))
}

/// Convolutional artifact (exercises geometry records, Conv/Pool/Residual
/// plan steps and the buffer-size validation).
fn resnet_artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut rng = TensorRng::seed_from(2);
        let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[3, 8, 8])
            .quantize(&mut model)
            .expect("quantize resnet-mini");
        export_compiled(&compiled).expect("export resnet")
    })
}

/// The importer's whole error contract: a verifier-clean model, a typed
/// `Artifact` (byte-level) rejection, or a typed `Verify` rejection whose
/// report names at least one rule — never anything else, never a panic,
/// and never a model whose plan would fail at runtime.
fn assert_typed(result: Result<CompiledModel, QuantError>, what: &str) {
    match result {
        Ok(compiled) => {
            // Survived byte-level parsing: the plan must prove out against
            // the decoded layer table, or the importer had no business
            // returning it.
            let plan = compiled.plan().expect("imported artifacts carry a plan");
            let report = verify::verify(plan, &compiled.layer_descs());
            assert!(
                report.is_clean(),
                "{what}: imported unverifiable plan: {report}"
            );
        }
        Err(QuantError::Artifact { .. }) => {}
        Err(QuantError::Verify { report }) => {
            assert!(
                !report.is_clean(),
                "{what}: Verify rejection with an empty report"
            );
        }
        Err(other) => panic!("{what}: unexpected error {other:?}"),
    }
}

#[test]
fn every_truncation_fails_typed() {
    for (name, artifact, stride) in [
        ("mlp", mlp_artifact(), 1usize),
        ("resnet", resnet_artifact(), 7),
    ] {
        for len in (0..artifact.len()).step_by(stride) {
            match import_compiled(&artifact[..len]) {
                Err(QuantError::Artifact { .. }) => {}
                Err(other) => panic!("{name} truncated at {len}: non-artifact error {other:?}"),
                Ok(_) => panic!("{name} truncated at {len} imported successfully"),
            }
        }
    }
}

#[test]
fn u32_max_in_every_window_never_panics_or_overallocates() {
    // Every length, count, dimension and geometry field is some 4-byte
    // little-endian window; forcing each window to u32::MAX sweeps every
    // "absurd count" corruption. A parser that pre-allocated from any of
    // these would abort on a multi-gigabyte reservation; overflow in any
    // derived product (gemm_k, element counts) would panic.
    for (name, artifact, stride) in [
        ("mlp", mlp_artifact(), 1usize),
        ("resnet", resnet_artifact(), 3),
    ] {
        let mut bytes = artifact.to_vec();
        for offset in (0..bytes.len().saturating_sub(4)).step_by(stride) {
            let saved: [u8; 4] = bytes[offset..offset + 4].try_into().unwrap();
            bytes[offset..offset + 4].copy_from_slice(&[0xFF; 4]);
            assert_typed(import_compiled(&bytes), &format!("{name} @ {offset}"));
            bytes[offset..offset + 4].copy_from_slice(&saved);
        }
    }
}

#[test]
fn header_bit_flips_fail_typed() {
    // Magic + version: any single-bit corruption must be rejected.
    for artifact in [mlp_artifact(), resnet_artifact()] {
        let mut bytes = artifact.to_vec();
        for offset in 0..8 {
            for bit in 0..8 {
                bytes[offset] ^= 1 << bit;
                match import_compiled(&bytes) {
                    Err(QuantError::Artifact { .. }) => {}
                    other => panic!(
                        "header flip at byte {offset} bit {bit}: {:?}",
                        other.map(|_| "imported")
                    ),
                }
                bytes[offset] ^= 1 << bit;
            }
        }
    }
}

#[test]
fn valid_artifacts_still_import_after_the_sweeps() {
    // Guard against the fixtures silently becoming invalid.
    assert!(import_compiled(mlp_artifact()).is_ok());
    assert!(import_compiled(resnet_artifact()).is_ok());
}

/// An artifact that is *byte-level* valid but whose plan lies about a GEMM
/// output: the plan section parses, and only the verifier, run against the
/// decoded layer table, can catch the disagreement. It rejects the artifact
/// at import with rule-level diagnostics instead of letting the failure
/// surface mid-batch.
#[test]
fn byte_valid_but_unverifiable_artifact_is_rejected_with_diagnostics() {
    match import_compiled(&common::unverifiable_mlp_artifact()) {
        Err(QuantError::Verify { report }) => {
            assert!(!report.is_clean());
            assert!(
                report
                    .diagnostics()
                    .iter()
                    .any(|d| d.rule == verify::Rule::GeomGemm),
                "expected geom-gemm diagnostics, got: {report}"
            );
        }
        Ok(_) => panic!("unverifiable artifact imported"),
        Err(other) => panic!("expected Verify rejection, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random single-bit flips anywhere in either artifact: typed error or
    /// a structurally valid import, never a panic.
    #[test]
    fn random_bit_flips_never_panic(
        which in 0usize..2,
        pos in 0usize..1_000_000,
        bit in 0usize..8,
    ) {
        let artifact = if which == 0 { mlp_artifact() } else { resnet_artifact() };
        let mut bytes = artifact.to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert_typed(import_compiled(&bytes), &format!("bit {bit} at {pos}"));
    }

    /// Random multi-byte stomps (length fields, floats, payload alike).
    #[test]
    fn random_byte_stomps_never_panic(
        which in 0usize..2,
        pos in 0usize..1_000_000,
        len in 1usize..16,
        value in 0usize..256,
    ) {
        let artifact = if which == 0 { mlp_artifact() } else { resnet_artifact() };
        let mut bytes = artifact.to_vec();
        let pos = pos % bytes.len();
        let end = (pos + len).min(bytes.len());
        for b in &mut bytes[pos..end] {
            *b = value as u8;
        }
        assert_typed(import_compiled(&bytes), &format!("stomp {pos}..{end}"));
    }
}
