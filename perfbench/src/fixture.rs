//! Models, artifacts, inputs and reference outputs, all derived from the
//! command-line seed.

use crate::stats::SplitMix64;
use mixmatch_fpga::bridge::FpgaTarget;
use mixmatch_fpga::device::FpgaDevice;
use mixmatch_nn::models::{ResNet, ResNetConfig};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::export::{export_compiled, import_compiled};
use mixmatch_quant::pipeline::{CompiledModel, QuantPipeline};
use mixmatch_tensor::{Tensor, TensorRng};

/// The name every workload serves its model under.
pub const MODEL: &str = "resnet";

/// Offline batches are 16×16 images; both serving workloads send 8×8.
pub const OFFLINE_HW: usize = 16;
pub const SERVE_HW: usize = 8;

/// A sub-seed for one purpose, so model weights, images and arrival
/// schedules never share a random stream.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

pub const MODEL_A: u64 = 1;
pub const MODEL_B: u64 = 2;
pub const IMAGES: u64 = 3;
pub const SCHEDULE: u64 = 4;

/// The deployment target every workload quantizes for.
pub fn target(device: FpgaDevice, hw: usize) -> FpgaTarget {
    FpgaTarget::new(device).with_input_size(hw)
}

/// resnet18-mini with weights from `model_seed`, quantized for XC7Z045 at
/// `hw`-pixel inputs.
pub fn quantize(model_seed: u64, hw: usize) -> CompiledModel {
    let mut rng = TensorRng::seed_from(model_seed);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(target(FpgaDevice::XC7Z045, hw))
        .quantize(&mut model)
        .expect("quantize resnet18-mini")
}

pub fn export(compiled: &CompiledModel) -> Vec<u8> {
    export_compiled(compiled).expect("export artifact")
}

pub fn import(bytes: &[u8]) -> CompiledModel {
    import_compiled(bytes).expect("import artifact")
}

/// `n` distinct `[3, hw, hw]` inputs in `[0, 1)`.
pub fn images(seed: u64, hw: usize, n: usize) -> Vec<Tensor> {
    let mut rng = TensorRng::seed_from(derive(seed, IMAGES));
    (0..n)
        .map(|_| Tensor::rand_uniform(&[3, hw, hw], 0.0, 1.0, &mut rng))
        .collect()
}

/// Reference outputs, one per input, from `BatchEngine::run_plan`.
pub fn references(compiled: &CompiledModel, inputs: &[Tensor]) -> Vec<Tensor> {
    let engine = BatchEngine::new();
    let plan = compiled.require_plan().expect("artifact carries a plan");
    inputs
        .chunks(32)
        .flat_map(|chunk| {
            engine
                .run_plan(compiled.model(), plan, chunk)
                .expect("reference run")
                .outputs
        })
        .collect()
}

/// Bit-for-bit equality of two outputs.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_purpose_and_repeat_by_seed() {
        assert_eq!(derive(7, MODEL_A), derive(7, MODEL_A));
        assert_ne!(derive(7, MODEL_A), derive(7, MODEL_B));
        assert_ne!(derive(7, MODEL_A), derive(8, MODEL_A));
    }

    #[test]
    fn same_bits_distinguishes_signed_zero_and_shape() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[2]).expect("tensor");
        let b = Tensor::from_vec(vec![-0.0, 1.0], &[2]).expect("tensor");
        let c = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).expect("tensor");
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &b));
        assert!(!same_bits(&a, &c));
    }
}
