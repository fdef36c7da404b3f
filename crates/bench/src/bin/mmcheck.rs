//! `mmcheck` — the static plan linter: runs `mixmatch_quant::verify` over
//! `MMCM` artifacts and/or freshly-lowered models and prints the
//! diagnostic report, without executing a single inference step.
//!
//! ```text
//! mmcheck model.mmcm other.mmcm     # lint artifact files
//! mmcheck --model resnet            # lower+quantize a model, lint its plan
//! mmcheck --model mlp --model yolo model.mmcm
//! mmcheck --dump --model resnet     # also pretty-print the plan
//! mmcheck --no-opt --model resnet   # lint the raw (pre-optimizer) plan
//! ```
//!
//! `--model` accepts `resnet`, `mlp`, `yolo` or `mobilenet` (the mini
//! configs the test tree exercises). `--dump` prints every linted plan
//! step by step — op, source/destination buffers, shapes — plus the
//! buffer table and its high-water mark. `--no-opt` builds `--model`
//! targets with the plan optimizer disabled, so raw and optimized plans
//! can be diffed side by side. Exit status: 0 when every target verifies
//! clean, 1 when any target fails parsing or verification, 2 on usage or
//! I/O errors.
//!
//! Artifact targets go through `import_compiled`, which verifies the decoded
//! plan once against the decoded layer table: a verifier refusal is printed
//! rule by rule, byte-level corruption as a parse rejection. Fresh models
//! are verified against their own layer table.

use mixmatch_fpga::bridge::FpgaTarget;
use mixmatch_fpga::device::FpgaDevice;
use mixmatch_nn::layers::{Linear, Relu};
use mixmatch_nn::lower::{ActKind, PoolKind};
use mixmatch_nn::models::{
    MobileNetConfig, MobileNetV2, ResNet, ResNetConfig, YoloConfig, YoloDetector,
};
use mixmatch_nn::module::Sequential;
use mixmatch_quant::export::import_compiled;
use mixmatch_quant::graph::{Epilogue, ExecutionPlan, PostOp, StepOp};
use mixmatch_quant::msq::MsqPolicy;
use mixmatch_quant::pipeline::{CompiledModel, QuantPipeline};
use mixmatch_quant::{verify, QuantError};
use mixmatch_tensor::TensorRng;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mmcheck [--dump] [--no-opt] [--model resnet|mlp|yolo|mobilenet]... [ARTIFACT.mmcm]...";

/// One thing to lint: where it came from, and the compiled model if it got
/// that far.
struct Target {
    label: String,
    compiled: Result<CompiledModel, QuantError>,
}

/// Lowers and quantizes one of the known mini models. `opt` is the plan
/// optimizer knob — `--no-opt` lints the raw lowering instead.
fn fresh_model(name: &str, opt: bool) -> Result<Target, String> {
    let mut rng = TensorRng::seed_from(17);
    let compiled = match name {
        "resnet" => {
            QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(16))
                .with_plan_optimizer(opt)
                .quantize(&mut ResNet::new(
                    ResNetConfig::mini(10).with_act_bits(4),
                    &mut rng,
                ))
        }
        "yolo" => QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
            .with_input_shape(&[3, 32, 32])
            .with_plan_optimizer(opt)
            .quantize(&mut YoloDetector::new(YoloConfig::mini(3), &mut rng)),
        "mobilenet" => QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z020))
            .with_input_shape(&[3, 16, 16])
            .with_plan_optimizer(opt)
            .quantize(&mut MobileNetV2::new(MobileNetConfig::mini(10), &mut rng)),
        "mlp" => {
            let mut model = Sequential::new();
            model.push(Linear::with_name("fc1", 12, 20, true, &mut rng));
            model.push(Relu::new());
            model.push(Linear::with_name("fc2", 20, 4, false, &mut rng));
            QuantPipeline::from_policy(MsqPolicy::msq_half())
                .with_plan_optimizer(opt)
                .quantize(&mut model)
        }
        other => {
            return Err(format!(
                "unknown --model {other:?} (want resnet|mlp|yolo|mobilenet)"
            ))
        }
    };
    Ok(Target {
        label: format!("model:{name}"),
        compiled,
    })
}

/// Reads and imports one artifact file.
fn artifact(path: &str) -> Result<Target, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(Target {
        label: path.to_string(),
        compiled: import_compiled(&bytes),
    })
}

fn act_name(kind: ActKind) -> &'static str {
    match kind {
        ActKind::Relu => "relu",
        ActKind::Relu6 => "relu6",
        ActKind::LeakyRelu => "leaky-relu",
    }
}

/// `+relu+requant` — the fused epilogue as a compact suffix.
fn epilogue_suffix(epilogue: &Epilogue) -> String {
    epilogue
        .iter()
        .map(|op| match op {
            PostOp::Activation(kind) => format!("+{}", act_name(kind)),
            PostOp::Requantize => "+requant".to_string(),
        })
        .collect()
}

fn op_name(op: &StepOp) -> String {
    match op {
        StepOp::Conv { layer } => format!("conv(layer {layer})"),
        StepOp::Gemm { layer } => format!("gemm(layer {layer})"),
        StepOp::FusedConv { layer, epilogue } => {
            format!("fused-conv(layer {layer}{})", epilogue_suffix(epilogue))
        }
        StepOp::FusedGemm { layer, epilogue } => {
            format!("fused-gemm(layer {layer}{})", epilogue_suffix(epilogue))
        }
        StepOp::Pool(PoolKind::GlobalAvg) => "pool(global-avg)".to_string(),
        StepOp::Pool(PoolKind::Max { window }) => format!("pool(max {window}x{window})"),
        StepOp::Pool(PoolKind::Avg { window }) => format!("pool(avg {window}x{window})"),
        StepOp::Activation(kind) => format!("act({})", act_name(*kind)),
        StepOp::ResidualAdd => "residual-add".to_string(),
        StepOp::Flatten => "flatten".to_string(),
        StepOp::Requantize => "requantize".to_string(),
    }
}

fn dims_str(dims: &[usize]) -> String {
    let parts: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
    format!("[{}]", parts.join("x"))
}

/// `--dump`: the whole plan, step by step, plus the buffer table.
fn dump_plan(plan: &ExecutionPlan) {
    println!(
        "  input  {} @ b{}   output {} @ b{}",
        dims_str(plan.input_dims()),
        plan.input_buffer(),
        dims_str(plan.output_dims()),
        plan.output_buffer()
    );
    for (i, step) in plan.steps().iter().enumerate() {
        let srcs: Vec<String> = step.srcs.iter().map(|b| format!("b{b}")).collect();
        println!(
            "  #{i:<3} {:<34} {} -> b{} {}",
            op_name(&step.op),
            srcs.join("+"),
            step.dst,
            dims_str(&step.dims)
        );
    }
    let sizes: Vec<String> = plan
        .buffer_sizes()
        .iter()
        .enumerate()
        .map(|(b, n)| format!("b{b}={n}"))
        .collect();
    println!(
        "  buffers {} — high water {} elems",
        sizes.join(" "),
        plan.buffer_sizes().iter().sum::<usize>()
    );
}

/// Lints one target, printing its verdict. Returns whether it is clean.
fn lint(target: &Target, dump: bool) -> bool {
    match &target.compiled {
        Ok(compiled) => {
            let plan = match compiled.plan() {
                Some(plan) => plan,
                None => {
                    println!("{}: FAIL — carries no execution plan", target.label);
                    return false;
                }
            };
            let report = verify::verify(plan, &compiled.layer_descs());
            if report.is_clean() {
                println!(
                    "{}: ok — {} steps, {} buffers, 0 diagnostics",
                    target.label,
                    plan.steps().len(),
                    plan.buffer_count()
                );
                if dump {
                    dump_plan(plan);
                }
                true
            } else {
                println!("{}: FAIL — {}", target.label, report);
                if dump {
                    dump_plan(plan);
                }
                false
            }
        }
        // import_compiled already verifies; surface its verifier report the
        // same structured way, and byte-level corruption as a parse error.
        Err(QuantError::Verify { report }) => {
            println!("{}: FAIL — {}", target.label, report);
            false
        }
        Err(e) => {
            println!("{}: FAIL — artifact rejected: {e}", target.label);
            false
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // Mode flags apply to the whole run, wherever they appear.
    let dump = args.iter().any(|a| a == "--dump");
    let opt = !args.iter().any(|a| a == "--no-opt");
    let mut targets = Vec::new();
    let mut it = args.iter().filter(|a| *a != "--dump" && *a != "--no-opt");
    while let Some(arg) = it.next() {
        let built = if arg == "--model" {
            match it.next() {
                Some(name) => fresh_model(name, opt),
                None => Err("--model needs a name".to_string()),
            }
        } else if arg.starts_with('-') {
            Err(format!("unknown flag {arg:?}"))
        } else {
            artifact(arg)
        };
        match built {
            Ok(target) => targets.push(target),
            Err(e) => {
                eprintln!("mmcheck: {e}");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if targets.is_empty() {
        eprintln!("mmcheck: nothing to lint");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let clean = targets
        .iter()
        .map(|t| lint(t, dump))
        .filter(|&ok| ok)
        .count();
    println!("mmcheck: {clean}/{} targets verify clean", targets.len());
    if clean == targets.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
