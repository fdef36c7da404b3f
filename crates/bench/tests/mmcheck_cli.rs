//! End-to-end contract of the `mmcheck` lint binary: exit 0 with a clean
//! summary on verifiable targets, exit 1 with a structured rule-level
//! report on corrupted artifacts, exit 2 on usage errors.

use mixmatch_nn::layers::Linear;
use mixmatch_nn::module::Sequential;
use mixmatch_quant::export::{export_compiled, import_compiled};
use mixmatch_quant::graph::{ExecutionPlan, StepOp};
use mixmatch_quant::msq::MsqPolicy;
use mixmatch_quant::pipeline::{CompiledModel, QuantPipeline};
use mixmatch_tensor::TensorRng;
use std::process::Command;

fn mmcheck(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmcheck"))
        .args(args)
        .output()
        .expect("run mmcheck");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A clean single-layer MLP artifact and a byte-valid tampered variant
/// whose GEMM step lies about its output width.
fn artifacts() -> (Vec<u8>, Vec<u8>) {
    let mut rng = TensorRng::seed_from(47);
    let mut model = Sequential::new();
    model.push(Linear::with_name("fc", 8, 4, false, &mut rng));
    let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
        .with_input_shape(&[8])
        .quantize(&mut model)
        .expect("quantize");
    let clean = export_compiled(&compiled).expect("export clean");

    let plan = compiled.plan().expect("plan");
    let mut steps = plan.steps().to_vec();
    let mut sizes = vec![0usize; plan.buffer_count()];
    sizes[plan.input_buffer()] = plan.input_dims().iter().product();
    for s in &mut steps {
        assert!(
            matches!(s.op, StepOp::Gemm { .. }),
            "1-layer MLP is one GEMM"
        );
        s.dims = vec![s.dims[0] + 1];
        sizes[s.dst] = sizes[s.dst].max(s.dims.iter().product());
    }
    let output_dims = steps.last().expect("step").dims.clone();
    let lying = ExecutionPlan::from_parts(
        plan.input_dims().to_vec(),
        output_dims,
        steps,
        sizes,
        plan.input_buffer(),
        plan.output_buffer(),
        None,
    )
    .expect("structurally valid lie");
    let tampered = export_compiled(&CompiledModel::from_parts(
        compiled.into_model(),
        Some(lying),
    ))
    .expect("export tampered");
    assert!(import_compiled(&tampered).is_err(), "import must refuse it");
    (clean, tampered)
}

#[test]
fn lints_clean_and_corrupted_artifacts_with_matching_exit_codes() {
    let dir = std::env::temp_dir().join(format!("mmcheck-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clean_path = dir.join("clean.mmcm");
    let tampered_path = dir.join("tampered.mmcm");
    let truncated_path = dir.join("truncated.mmcm");
    let (clean, tampered) = artifacts();
    std::fs::write(&clean_path, &clean).expect("write clean");
    std::fs::write(&tampered_path, &tampered).expect("write tampered");
    std::fs::write(&truncated_path, &clean[..clean.len() / 2]).expect("write truncated");

    // Clean artifact: exit 0, per-target ok line.
    let (code, stdout, _) = mmcheck(&[clean_path.to_str().unwrap()]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 diagnostics"), "{stdout}");

    // Byte-valid but unverifiable: exit 1 with the rule id in the report.
    let (code, stdout, _) = mmcheck(&[tampered_path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("geom-gemm"), "{stdout}");
    assert!(stdout.contains("fails verification"), "{stdout}");

    // Byte-level corruption: exit 1 with a parse rejection.
    let (code, stdout, _) = mmcheck(&[truncated_path.to_str().unwrap()]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("artifact rejected"), "{stdout}");

    // A mixed run fails overall but still lints every target.
    let (code, stdout, _) = mmcheck(&[
        clean_path.to_str().unwrap(),
        tampered_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("1/2 targets verify clean"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fresh_models_lint_clean_and_usage_errors_exit_two() {
    let (code, stdout, _) = mmcheck(&["--model", "mlp"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("model:mlp: ok"), "{stdout}");

    let (code, _, stderr) = mmcheck(&[]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Flag-only invocations still have nothing to lint.
    let (code, _, stderr) = mmcheck(&["--dump"]);
    assert_eq!(code, 2, "{stderr}");

    let (code, _, stderr) = mmcheck(&["--model", "vgg"]);
    assert_eq!(code, 2, "{stderr}");

    let (code, _, stderr) = mmcheck(&["--bogus"]);
    assert_eq!(code, 2, "{stderr}");
}

/// `--no-opt` lints the raw lowering (3 MLP steps, separate activation),
/// the default lints the optimizer's output (2 steps, fused epilogue),
/// and `--dump` pretty-prints both with buffer table and high-water mark.
#[test]
fn dump_and_no_opt_expose_raw_and_optimized_plans() {
    let (code, raw, _) = mmcheck(&["--dump", "--no-opt", "--model", "mlp"]);
    assert_eq!(code, 0, "{raw}");
    assert!(raw.contains("3 steps"), "{raw}");
    assert!(raw.contains("act(relu)"), "{raw}");
    assert!(raw.contains("high water 40 elems"), "{raw}");

    let (code, opt, _) = mmcheck(&["--dump", "--model", "mlp"]);
    assert_eq!(code, 0, "{opt}");
    assert!(opt.contains("2 steps"), "{opt}");
    assert!(opt.contains("fused-gemm(layer 0+relu)"), "{opt}");
    assert!(opt.contains("high water 32 elems"), "{opt}");
    assert!(!opt.contains("act(relu)"), "{opt}");
}
