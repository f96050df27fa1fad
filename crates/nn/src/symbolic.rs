//! Symbolic mirrors of the nn building blocks.
//!
//! Each `Sym*` type reproduces the exact op sequence of its real
//! counterpart's `forward` on [`SymbolicTensor`]s — same ops, same order,
//! same node counts — so a symbolic trace type-checks shapes and gradient
//! flow for any configuration, and its graph statistics can be compared
//! one-to-one against a dynamic [`GraphAudit`](timekd_tensor::GraphAudit)
//! of the executed model.
//!
//! Constructors register parameters on the [`SymCtx`] under the same
//! component paths the real modules use in `Module::params` order, which is
//! what lets the verifier's gradient-flow pass name parameters like
//! `student.encoder.layer0.attn.wq.weight` in findings.

use timekd_tensor::{ShapeError, SymCtx, SymDim, SymbolicTensor};

use crate::encoder::Activation;

type SymResult = Result<SymbolicTensor, ShapeError>;

/// Symbolic [`Linear`](crate::Linear): `y = x W (+ b)` over the last axis.
#[derive(Debug)]
pub struct SymLinear {
    ctx: SymCtx,
    label: String,
    weight: SymbolicTensor,
    bias: Option<SymbolicTensor>,
    in_features: usize,
}

impl SymLinear {
    /// Linear layer with bias, registered under `name`.
    pub fn new(ctx: &SymCtx, name: &str, in_features: usize, out_features: usize) -> SymLinear {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymLinear {
            ctx: ctx.clone(),
            label: label.clone(),
            weight: ctx.param(
                "weight",
                vec![
                    SymDim::new("in", in_features),
                    SymDim::new("out", out_features),
                ],
            ),
            bias: Some(ctx.param("bias", vec![SymDim::new("out", out_features)])),
            in_features,
        })
    }

    /// Bias-free linear layer (attention projections).
    pub fn new_no_bias(
        ctx: &SymCtx,
        name: &str,
        in_features: usize,
        out_features: usize,
    ) -> SymLinear {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymLinear {
            ctx: ctx.clone(),
            label: label.clone(),
            weight: ctx.param(
                "weight",
                vec![
                    SymDim::new("in", in_features),
                    SymDim::new("out", out_features),
                ],
            ),
            bias: None,
            in_features,
        })
    }

    /// Mirrors `Linear::forward` (rank 2 or 3, last dim = `in_features`).
    pub fn forward(&self, x: &SymbolicTensor) -> SymResult {
        self.ctx.with_label(&self.label, || self.forward_inner(x))
    }

    fn forward_inner(&self, x: &SymbolicTensor) -> SymResult {
        let rank = x.dims().len();
        if !(rank == 2 || rank == 3) || x.dims()[rank - 1].size != self.in_features {
            // The real layer asserts; symbolically this is a shape error
            // with provenance.
            return Err(shape_err(
                x,
                "linear",
                format!(
                    "Linear expects rank-2/3 input with last dim {}, got {}",
                    self.in_features,
                    timekd_tensor::render_dims(x.dims())
                ),
            ));
        }
        let y = x.matmul(&self.weight)?;
        match &self.bias {
            Some(b) => y.add(b),
            None => Ok(y),
        }
    }
}

fn shape_err(x: &SymbolicTensor, op: &str, message: String) -> ShapeError {
    // Route through an impossible broadcast to reuse ShapeError plumbing is
    // uglier than constructing directly:
    ShapeError {
        op: op.to_string(),
        label: x.label().to_string(),
        message,
        provenance: x.provenance_lines(8),
    }
}

/// Symbolic [`LayerNorm`](crate::LayerNorm): 11 nodes per forward.
#[derive(Debug)]
pub struct SymLayerNorm {
    ctx: SymCtx,
    label: String,
    gamma: SymbolicTensor,
    beta: SymbolicTensor,
    dim: usize,
}

impl SymLayerNorm {
    /// Layer norm over a last axis of width `dim`, registered under `name`.
    pub fn new(ctx: &SymCtx, name: &str, dim: usize) -> SymLayerNorm {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymLayerNorm {
            ctx: ctx.clone(),
            label: label.clone(),
            gamma: ctx.param("gamma", vec![SymDim::new("d", dim)]),
            beta: ctx.param("beta", vec![SymDim::new("d", dim)]),
            dim,
        })
    }

    /// Mirrors `LayerNorm::forward`: mean_axis, sub, square, mean_axis,
    /// add_scalar, rsqrt, mul, mul, add.
    pub fn forward(&self, x: &SymbolicTensor) -> SymResult {
        self.ctx.with_label(&self.label, || self.forward_inner(x))
    }

    fn forward_inner(&self, x: &SymbolicTensor) -> SymResult {
        let rank = x.dims().len();
        if x.dims()[rank - 1].size != self.dim {
            return Err(shape_err(
                x,
                "layer_norm",
                format!(
                    "LayerNorm({}) applied to {}",
                    self.dim,
                    timekd_tensor::render_dims(x.dims())
                ),
            ));
        }
        let mu = x.mean_axis(rank - 1, true)?;
        let centered = x.sub(&mu)?;
        let var = centered.square().mean_axis(rank - 1, true)?;
        // Same epsilon as `LayerNorm::new`, so a compiled plan replays the
        // real kernel bitwise.
        let inv_std = var.add_scalar(1e-5).rsqrt();
        centered.mul(&inv_std)?.mul(&self.gamma)?.add(&self.beta)
    }
}

/// Symbolic [`FeedForward`](crate::FeedForward).
#[derive(Debug)]
pub struct SymFeedForward {
    fc1: SymLinear,
    fc2: SymLinear,
    activation: Activation,
}

impl SymFeedForward {
    /// FFN expanding `dim` to `hidden` and back, registered under `name`.
    pub fn new(
        ctx: &SymCtx,
        name: &str,
        dim: usize,
        hidden: usize,
        activation: Activation,
    ) -> SymFeedForward {
        ctx.scoped(name, || SymFeedForward {
            fc1: SymLinear::new(ctx, "fc1", dim, hidden),
            fc2: SymLinear::new(ctx, "fc2", hidden, dim),
            activation,
        })
    }

    /// Mirrors `FeedForward::forward`.
    pub fn forward(&self, x: &SymbolicTensor) -> SymResult {
        let h = self.fc1.forward(x)?;
        let h = match self.activation {
            Activation::Relu => h.relu(),
            Activation::Gelu => h.gelu(),
        };
        self.fc2.forward(&h)
    }
}

/// Symbolic [`MultiHeadAttention`](crate::MultiHeadAttention).
#[derive(Debug)]
pub struct SymMultiHeadAttention {
    ctx: SymCtx,
    label: String,
    wq: SymLinear,
    wk: SymLinear,
    wv: SymLinear,
    wo: SymLinear,
    num_heads: usize,
    head_dim: usize,
}

/// Output of a symbolic attention call.
#[derive(Debug)]
pub struct SymAttentionOutput {
    /// Attended values `[T_q, D]`.
    pub output: SymbolicTensor,
    /// Head-averaged attention `[T_q, T_k]`.
    pub attention: SymbolicTensor,
}

impl SymMultiHeadAttention {
    /// Attention block over width `dim` with `num_heads` heads.
    pub fn new(ctx: &SymCtx, name: &str, dim: usize, num_heads: usize) -> SymMultiHeadAttention {
        Self::with_head_dim(ctx, name, dim, num_heads, dim / num_heads)
    }

    /// As [`SymMultiHeadAttention::new`] but with an explicit head dim —
    /// the hook the verifier's fault injection uses to model an
    /// off-by-one head dimension (the real constructor asserts
    /// divisibility; the symbolic reshape catches it as a shape error).
    pub fn with_head_dim(
        ctx: &SymCtx,
        name: &str,
        dim: usize,
        num_heads: usize,
        head_dim: usize,
    ) -> SymMultiHeadAttention {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymMultiHeadAttention {
            ctx: ctx.clone(),
            label: label.clone(),
            wq: SymLinear::new_no_bias(ctx, "wq", dim, dim),
            wk: SymLinear::new_no_bias(ctx, "wk", dim, dim),
            wv: SymLinear::new_no_bias(ctx, "wv", dim, dim),
            wo: SymLinear::new_no_bias(ctx, "wo", dim, dim),
            num_heads,
            head_dim,
        })
    }

    fn split_heads(&self, x: &SymbolicTensor) -> SymResult {
        let t = x.dims()[0].clone();
        x.reshape(vec![
            t,
            SymDim::new("H", self.num_heads),
            SymDim::new("dh", self.head_dim),
        ])?
        .permute(&[1, 0, 2])
    }

    /// Mirrors `MultiHeadAttention::attend` node-for-node.
    pub fn attend(
        &self,
        q_in: &SymbolicTensor,
        kv_in: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<SymAttentionOutput, ShapeError> {
        self.ctx
            .with_label(&self.label, || self.attend_inner(q_in, kv_in, mask))
    }

    fn attend_inner(
        &self,
        q_in: &SymbolicTensor,
        kv_in: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<SymAttentionOutput, ShapeError> {
        let tq = q_in.dims()[0].clone();
        let tk = kv_in.dims()[0].clone();
        if let Some(m) = mask {
            if m.sizes() != vec![tq.size, tk.size] {
                return Err(shape_err(
                    m,
                    "attention_mask",
                    format!(
                        "mask {} does not match scores [{tq}, {tk}]",
                        timekd_tensor::render_dims(m.dims())
                    ),
                ));
            }
        }
        let q = self.split_heads(&self.wq.forward(q_in)?)?;
        let k = self.split_heads(&self.wk.forward(kv_in)?)?;
        let v = self.split_heads(&self.wv.forward(kv_in)?)?;
        let (ctx_t, attention) = SymbolicTensor::fused_attention(&q, &k, &v, mask)?;
        let output = self.wo.forward(&ctx_t)?;
        Ok(SymAttentionOutput { output, attention })
    }

    /// Self-attention shorthand.
    pub fn forward(
        &self,
        x: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<SymAttentionOutput, ShapeError> {
        self.attend(x, x, mask)
    }
}

/// Symbolic [`EncoderLayer`](crate::EncoderLayer) (Pre-LN).
#[derive(Debug)]
pub struct SymEncoderLayer {
    ctx: SymCtx,
    label: String,
    ln1: SymLayerNorm,
    attn: SymMultiHeadAttention,
    ln2: SymLayerNorm,
    ffn: SymFeedForward,
}

impl SymEncoderLayer {
    /// One Pre-LN layer registered under `name`.
    pub fn new(
        ctx: &SymCtx,
        name: &str,
        dim: usize,
        num_heads: usize,
        head_dim: usize,
        ffn_hidden: usize,
        activation: Activation,
    ) -> SymEncoderLayer {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymEncoderLayer {
            ctx: ctx.clone(),
            label: label.clone(),
            ln1: SymLayerNorm::new(ctx, "ln1", dim),
            attn: SymMultiHeadAttention::with_head_dim(ctx, "attn", dim, num_heads, head_dim),
            ln2: SymLayerNorm::new(ctx, "ln2", dim),
            ffn: SymFeedForward::new(ctx, "ffn", dim, ffn_hidden, activation),
        })
    }

    /// Mirrors `EncoderLayer::forward`.
    pub fn forward(
        &self,
        x: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<(SymbolicTensor, SymbolicTensor), ShapeError> {
        let h = self.ln1.forward(x)?;
        self.residual_block(x, &h, &h, mask)
    }

    /// Mirrors `EncoderLayer::forward_last_row`: the output `[1, D]` for
    /// the last row of `x`, keys and values over every row.
    pub(crate) fn forward_last_row(
        &self,
        x: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> SymResult {
        let last = x.sizes()[0] - 1;
        let h = self.ln1.forward(x)?;
        let (x_q, h_q, mask) = self.ctx.with_label(&self.label, || {
            let mask = mask.map(|m| m.slice(0, last, 1, "last")).transpose()?;
            Ok((
                x.slice(0, last, 1, "last")?,
                h.slice(0, last, 1, "last")?,
                mask,
            ))
        })?;
        Ok(self.residual_block(&x_q, &h_q, &h, mask.as_ref())?.0)
    }

    /// Mirrors `EncoderLayer::residual_block`.
    fn residual_block(
        &self,
        x_q: &SymbolicTensor,
        h_q: &SymbolicTensor,
        h_kv: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<(SymbolicTensor, SymbolicTensor), ShapeError> {
        let attended = self.attn.attend(h_q, h_kv, mask)?;
        self.ctx.with_label(&self.label, || {
            let y = attended.output.add(x_q)?;
            let z = self.ffn.forward(&self.ln2.forward(&y)?)?.add(&y)?;
            Ok((z, attended.attention))
        })
    }
}

/// Symbolic [`TransformerEncoder`](crate::TransformerEncoder).
#[derive(Debug)]
pub struct SymTransformerEncoder {
    layers: Vec<SymEncoderLayer>,
    final_ln: SymLayerNorm,
}

/// Output of a symbolic encoder forward pass.
#[derive(Debug)]
pub struct SymEncoderOutput {
    /// Encoded sequence `[T, D]`.
    pub output: SymbolicTensor,
    /// Last layer's head-averaged attention `[T, T]`.
    pub last_attention: SymbolicTensor,
}

impl SymTransformerEncoder {
    /// Encoder stack registered under `name` (layers named `layer{i}`).
    pub fn new(
        ctx: &SymCtx,
        name: &str,
        dim: usize,
        num_layers: usize,
        num_heads: usize,
        ffn_hidden: usize,
        activation: Activation,
    ) -> SymTransformerEncoder {
        Self::with_head_dim(
            ctx,
            name,
            dim,
            num_layers,
            num_heads,
            dim / num_heads.max(1),
            ffn_hidden,
            activation,
        )
    }

    /// As [`SymTransformerEncoder::new`] but with an explicit per-head dim
    /// (fault-injection hook).
    #[allow(clippy::too_many_arguments)]
    pub fn with_head_dim(
        ctx: &SymCtx,
        name: &str,
        dim: usize,
        num_layers: usize,
        num_heads: usize,
        head_dim: usize,
        ffn_hidden: usize,
        activation: Activation,
    ) -> SymTransformerEncoder {
        ctx.scoped(name, || SymTransformerEncoder {
            layers: (0..num_layers)
                .map(|i| {
                    SymEncoderLayer::new(
                        ctx,
                        &format!("layer{i}"),
                        dim,
                        num_heads,
                        head_dim,
                        ffn_hidden,
                        activation,
                    )
                })
                .collect(),
            final_ln: SymLayerNorm::new(ctx, "final_ln", dim),
        })
    }

    /// Mirrors `TransformerEncoder::forward`.
    pub fn forward(
        &self,
        x: &SymbolicTensor,
        mask: Option<&SymbolicTensor>,
    ) -> Result<SymEncoderOutput, ShapeError> {
        let mut h = x.clone();
        let mut last_attention = None;
        for layer in &self.layers {
            let (out, attn) = layer.forward(&h, mask)?;
            h = out;
            last_attention = Some(attn);
        }
        Ok(SymEncoderOutput {
            output: self.final_ln.forward(&h)?,
            last_attention: last_attention.expect("at least one layer"),
        })
    }

    /// Mirrors `TransformerEncoder::forward_last_row`.
    pub fn forward_last_row(&self, x: &SymbolicTensor, mask: Option<&SymbolicTensor>) -> SymResult {
        let (last, body) = self.layers.split_last().expect("at least one layer");
        let mut h = x.clone();
        for layer in body {
            h = layer.forward(&h, mask)?.0;
        }
        self.final_ln.forward(&last.forward_last_row(&h, mask)?)
    }
}

/// Symbolic [`RevIn`](crate::RevIn).
#[derive(Debug)]
pub struct SymRevIn {
    label: String,
    gamma: SymbolicTensor,
    beta: SymbolicTensor,
    num_vars: usize,
}

impl SymRevIn {
    /// RevIN over `num_vars` channels registered under `name`.
    pub fn new(ctx: &SymCtx, name: &str, num_vars: usize) -> SymRevIn {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymRevIn {
            label: label.clone(),
            gamma: ctx.param("gamma", vec![SymDim::new("N", num_vars)]),
            beta: ctx.param("beta", vec![SymDim::new("N", num_vars)]),
            num_vars,
        })
    }

    fn stats(&self, ctx: &SymCtx) -> (SymbolicTensor, SymbolicTensor) {
        // Instance statistics are computed outside autograd in the real
        // layer and enter the graph as constant [1, N] leaves.
        let dims = vec![SymDim::anon(1), SymDim::new("N", self.num_vars)];
        (ctx.constant("mu", dims.clone()), ctx.constant("std", dims))
    }

    /// Mirrors `RevIn::normalize` (4 ops + 2 constant stat leaves).
    pub fn normalize(&self, ctx: &SymCtx, x: &SymbolicTensor) -> SymResult {
        ctx.with_label(&self.label, || self.normalize_inner(ctx, x))
    }

    fn normalize_inner(&self, ctx: &SymCtx, x: &SymbolicTensor) -> SymResult {
        if x.dims().len() != 2 || x.dims()[1].size != self.num_vars {
            return Err(shape_err(
                x,
                "revin_normalize",
                format!(
                    "RevIn({}) expects [T, N], got {}",
                    self.num_vars,
                    timekd_tensor::render_dims(x.dims())
                ),
            ));
        }
        let (mu, std) = self.stats(ctx);
        x.sub(&mu)?.div(&std)?.mul(&self.gamma)?.add(&self.beta)
    }

    /// Mirrors `RevIn::denormalize`.
    pub fn denormalize(&self, ctx: &SymCtx, y: &SymbolicTensor) -> SymResult {
        ctx.with_label(&self.label, || self.denormalize_inner(ctx, y))
    }

    fn denormalize_inner(&self, ctx: &SymCtx, y: &SymbolicTensor) -> SymResult {
        if y.dims().len() != 2 || y.dims()[1].size != self.num_vars {
            return Err(shape_err(
                y,
                "revin_denormalize",
                format!(
                    "RevIn({}) expects [M, N], got {}",
                    self.num_vars,
                    timekd_tensor::render_dims(y.dims())
                ),
            ));
        }
        let (mu, std) = self.stats(ctx);
        y.sub(&self.beta)?.div(&self.gamma)?.mul(&std)?.add(&mu)
    }
}

/// Mirrors [`smooth_l1_loss`](crate::smooth_l1_loss): `smooth_l1` + `mean`
/// (3 nodes).
pub fn sym_smooth_l1_loss(pred: &SymbolicTensor, target: &SymbolicTensor) -> SymResult {
    Ok(pred.smooth_l1(target)?.mean())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{smooth_l1_loss, LayerNorm, Module, MultiHeadAttention, TransformerEncoder};
    use timekd_tensor::{graph_stats, seeded_rng, GraphAudit, SymCtx, SymDim, Tensor};

    fn d(name: &str, size: usize) -> SymDim {
        SymDim::new(name, size)
    }

    #[test]
    fn layernorm_node_count_matches_dynamic() {
        let ctx = SymCtx::new();
        let ln = SymLayerNorm::new(&ctx, "ln", 8);
        let x = ctx.param("x", vec![d("t", 4), d("d", 8)]);
        let y = ln.forward(&x).unwrap().sum();

        let mut rng = seeded_rng(0);
        let real_ln = LayerNorm::new(8);
        let real_x = Tensor::randn_param([4, 8], 1.0, &mut rng);
        let real_y = real_ln.forward(&real_x).sum();

        let sym = graph_stats(&y);
        let dynamic = GraphAudit::run(&real_y).stats;
        assert_eq!(sym.nodes, dynamic.nodes);
        assert_eq!(sym.edges, dynamic.edges);
        assert_eq!(sym.leaves, dynamic.leaves);
        assert_eq!(sym.params, dynamic.params);
        assert_eq!(sym.max_depth, dynamic.max_depth);
    }

    #[test]
    fn attention_graph_matches_dynamic() {
        let ctx = SymCtx::new();
        let mha = SymMultiHeadAttention::new(&ctx, "attn", 8, 2);
        let x = ctx.param("x", vec![d("t", 5), d("d", 8)]);
        let out = mha.forward(&x, None).unwrap();
        let loss = sym_smooth_l1_loss(
            &out.output,
            &ctx.constant("tgt", vec![d("t", 5), d("d", 8)]),
        )
        .unwrap();

        let mut rng = seeded_rng(0);
        let real = MultiHeadAttention::new(8, 2, &mut rng);
        let real_x = Tensor::randn_param([5, 8], 1.0, &mut rng);
        let real_out = real.forward(&real_x, None);
        let real_loss = smooth_l1_loss(&real_out.output, &Tensor::zeros([5, 8]));

        let sym = graph_stats(&loss);
        let dynamic = GraphAudit::run(&real_loss).stats;
        assert_eq!(sym.nodes, dynamic.nodes);
        assert_eq!(sym.edges, dynamic.edges);
        assert_eq!(sym.params, dynamic.params);
        assert_eq!(sym.max_depth, dynamic.max_depth);
    }

    #[test]
    fn encoder_stack_matches_dynamic() {
        let ctx = SymCtx::new();
        let enc = SymTransformerEncoder::new(&ctx, "enc", 8, 2, 2, 16, Activation::Relu);
        let x = ctx.constant("x", vec![d("t", 6), d("d", 8)]);
        let out = enc.forward(&x, None).unwrap();
        let loss = out.output.sum();

        let mut rng = seeded_rng(1);
        let real = TransformerEncoder::new(8, 2, 2, 16, Activation::Relu, &mut rng);
        let real_x = Tensor::randn([6, 8], 1.0, &mut rng);
        let real_loss = real.forward(&real_x, None).output.sum();

        let sym = graph_stats(&loss);
        let dynamic = GraphAudit::run(&real_loss).stats;
        assert_eq!(sym.nodes, dynamic.nodes);
        assert_eq!(sym.edges, dynamic.edges);
        assert_eq!(sym.leaves, dynamic.leaves);
        assert_eq!(sym.params, dynamic.params);
        assert_eq!(sym.max_depth, dynamic.max_depth);
        // Param registry mirrors Module::params.
        assert_eq!(ctx.params().len(), real.params().len());
    }

    #[test]
    fn bad_head_dim_caught_at_reshape() {
        let ctx = SymCtx::new();
        // 8 not divisible by 3: real constructor panics; symbolically the
        // split-heads reshape reports the element-count mismatch.
        let mha = SymMultiHeadAttention::with_head_dim(&ctx, "attn", 8, 3, 3);
        let x = ctx.constant("x", vec![d("t", 5), d("d", 8)]);
        let err = mha.forward(&x, None).unwrap_err();
        assert_eq!(err.op, "reshape");
        assert!(err.label.contains("attn"), "{}", err.label);
    }

    #[test]
    fn linear_width_mismatch_is_error() {
        let ctx = SymCtx::new();
        let lin = SymLinear::new(&ctx, "proj", 4, 3);
        let x = ctx.constant("x", vec![d("t", 5), d("d", 5)]);
        assert!(lin.forward(&x).is_err());
    }

    #[test]
    fn revin_roundtrip_shapes() {
        let ctx = SymCtx::new();
        let revin = SymRevIn::new(&ctx, "revin", 7);
        let x = ctx.constant("x", vec![d("L", 96), d("N", 7)]);
        let normed = revin.normalize(&ctx, &x).unwrap();
        assert_eq!(normed.sizes(), vec![96, 7]);
        let y = ctx.constant("y", vec![d("M", 24), d("N", 7)]);
        assert_eq!(revin.denormalize(&ctx, &y).unwrap().sizes(), vec![24, 7]);
        assert!(revin.normalize(&ctx, &y.transpose_last().unwrap()).is_err());
    }
}
