//! Model lowering: the dataflow IR between a float model and the compiled
//! integer [`ExecutionPlan`](https://docs.rs/mixmatch-quant) —
//! `mixmatch-quant`'s plan compiler consumes this graph.
//!
//! The paper's accelerator executes a network as a topologically-ordered
//! list of dataflow steps (DeepBurning-MixQ and FINN center on the same
//! lowered per-layer graph); [`LoweredGraph`] is that list on the model
//! side. Each node is an [`LoweredOp`] in SSA form: it reads value ids
//! produced by earlier nodes (value `0` is the network input) and defines
//! exactly one new value. GEMM-bearing ops (`Conv`/`Gemm`) reference their
//! weight by parameter name — the same dotted path that keys
//! [`QuantLayerDesc`](crate::quantize::QuantLayerDesc)s — so the plan
//! compiler can join graph nodes to deployment forms without this crate
//! depending on the quantization crate.
//!
//! Models implement [`QuantizableModel::lower`](crate::quantize::QuantizableModel::lower)
//! by walking their own structure through a [`GraphBuilder`];
//! [`Sequential`](crate::module::Sequential) lowers generically through the
//! per-layer [`Layer::lowering`](crate::module::Layer::lowering) hook.

/// SSA value id inside a [`LoweredGraph`]. Value `0` is the network input.
pub type ValueId = usize;

/// Pooling variants the integer path executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Non-overlapping max pooling, stride == window.
    Max {
        /// Square window edge.
        window: usize,
    },
    /// Non-overlapping average pooling, stride == window.
    Avg {
        /// Square window edge.
        window: usize,
    },
    /// Global average pooling to a `[C, 1, 1]` map.
    GlobalAvg,
}

/// Elementwise activations the integer path executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    /// `max(0, x)`.
    Relu,
    /// `clamp(x, 0, 6)`.
    Relu6,
    /// `x > 0 ? x : 0.1·x` (the YOLO backbone slope).
    LeakyRelu,
}

impl ActKind {
    /// Applies the activation to one value — the single definition both the
    /// float layers and the plan executor share. Inlined across crates, so
    /// a loop over it with a fixed kind vectorises.
    #[inline]
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            ActKind::Relu => x.max(0.0),
            ActKind::Relu6 => x.clamp(0.0, 6.0),
            ActKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.1 * x
                }
            }
        }
    }
}

/// One lowered operation. `Conv`/`Gemm` carry the weight parameter name;
/// everything else is weight-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoweredOp {
    /// im2col-driven integer convolution (dense or depthwise — the
    /// referenced layer's geometry decides).
    Conv {
        /// Weight parameter name (joins to a `QuantLayerDesc`).
        name: String,
    },
    /// Integer matrix–vector product (linear layer, no bias on the integer
    /// path).
    Gemm {
        /// Weight parameter name.
        name: String,
    },
    /// Spatial pooling on a `[C, H, W]` map.
    Pool(PoolKind),
    /// Elementwise two-input addition (residual/skip connections).
    ResidualAdd,
    /// Elementwise activation.
    Activation(ActKind),
    /// Collapse any shape to a rank-1 vector.
    Flatten,
    /// Activation-quantizer round trip (quantize → dequantize) with the
    /// deployed model's `ActQuantizer` — the integer twin of a `FakeQuant`
    /// layer.
    Requantize,
}

/// One node: an op reading `inputs` and defining `output`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredNode {
    /// The operation.
    pub op: LoweredOp,
    /// Value ids consumed (1 for most ops, 2 for `ResidualAdd`).
    pub inputs: Vec<ValueId>,
    /// Value id defined.
    pub output: ValueId,
}

/// A topologically-ordered lowered dataflow graph in SSA form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredGraph {
    nodes: Vec<LoweredNode>,
    output: ValueId,
    values: usize,
}

impl LoweredGraph {
    /// Nodes in execution order.
    pub fn nodes(&self) -> &[LoweredNode] {
        &self.nodes
    }

    /// The value id holding the network output.
    pub fn output(&self) -> ValueId {
        self.output
    }

    /// Total number of SSA values (input + one per node).
    pub fn values(&self) -> usize {
        self.values
    }
}

/// Builder for a [`LoweredGraph`]; see the module docs for the flow.
///
/// # Example
///
/// ```
/// use mixmatch_nn::lower::{ActKind, GraphBuilder};
///
/// let mut g = GraphBuilder::new();
/// let x = g.input();
/// let y = g.conv("stem.weight", x);
/// let y = g.activation(ActKind::Relu, y);
/// let graph = g.finish(y);
/// assert_eq!(graph.nodes().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<LoweredNode>,
    values: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder {
            nodes: Vec::new(),
            values: 0,
        }
    }

    /// The network-input value (id 0). Idempotent.
    pub fn input(&mut self) -> ValueId {
        if self.values == 0 {
            self.values = 1;
        }
        0
    }

    /// Appends a node computing `op` from `inputs`, returning its value.
    pub fn push(&mut self, op: LoweredOp, inputs: Vec<ValueId>) -> ValueId {
        let output = self.values;
        self.values += 1;
        self.nodes.push(LoweredNode { op, inputs, output });
        output
    }

    /// Appends an integer convolution referencing weight `name`.
    pub fn conv(&mut self, name: &str, x: ValueId) -> ValueId {
        self.push(LoweredOp::Conv { name: name.into() }, vec![x])
    }

    /// Appends an integer matrix–vector product referencing weight `name`.
    pub fn gemm(&mut self, name: &str, x: ValueId) -> ValueId {
        self.push(LoweredOp::Gemm { name: name.into() }, vec![x])
    }

    /// Appends an elementwise activation.
    pub fn activation(&mut self, kind: ActKind, x: ValueId) -> ValueId {
        self.push(LoweredOp::Activation(kind), vec![x])
    }

    /// Appends a pooling step.
    pub fn pool(&mut self, kind: PoolKind, x: ValueId) -> ValueId {
        self.push(LoweredOp::Pool(kind), vec![x])
    }

    /// Appends an elementwise `a + b`.
    pub fn residual_add(&mut self, a: ValueId, b: ValueId) -> ValueId {
        self.push(LoweredOp::ResidualAdd, vec![a, b])
    }

    /// Appends a flatten-to-vector step.
    pub fn flatten(&mut self, x: ValueId) -> ValueId {
        self.push(LoweredOp::Flatten, vec![x])
    }

    /// Appends an activation-quantizer round trip.
    pub fn requantize(&mut self, x: ValueId) -> ValueId {
        self.push(LoweredOp::Requantize, vec![x])
    }

    /// Seals the graph with `output` as the network output.
    ///
    /// # Panics
    ///
    /// Panics when `output` is not a defined value.
    pub fn finish(self, output: ValueId) -> LoweredGraph {
        assert!(output < self.values, "output value {output} is undefined");
        LoweredGraph {
            nodes: self.nodes,
            output,
            values: self.values,
        }
    }
}

/// How one [`Layer`](crate::module::Layer) participates in lowering — the
/// hook [`Sequential`](crate::module::Sequential) lowering dispatches on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerLowering {
    /// The layer is one lowered step.
    Step(LoweredOp),
    /// The layer is an identity on the deployed integer path and is skipped
    /// (dropout at inference; batch-norm, whose folding into conv weights
    /// is future work — today's per-layer deployment path omits it the same
    /// way).
    Transparent,
    /// The layer cannot be lowered; the containing model has no plan.
    Opaque,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_ssa_values_in_order() {
        let mut g = GraphBuilder::new();
        let x = g.input();
        assert_eq!(x, 0);
        let a = g.conv("c1.weight", x);
        let b = g.conv("c2.weight", a);
        let s = g.residual_add(b, x);
        let graph = g.finish(s);
        assert_eq!(graph.values(), 4);
        assert_eq!(graph.output(), 3);
        assert_eq!(graph.nodes()[2].inputs, vec![2, 0]);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn finishing_on_undefined_value_panics() {
        let g = GraphBuilder::new();
        let _ = g.finish(5);
    }

    #[test]
    fn act_kinds_match_their_float_layers() {
        assert_eq!(ActKind::Relu.apply(-1.0), 0.0);
        assert_eq!(ActKind::Relu6.apply(9.0), 6.0);
        assert_eq!(ActKind::LeakyRelu.apply(-2.0), -0.2);
        assert_eq!(ActKind::LeakyRelu.apply(3.0), 3.0);
    }
}
