//! Position-wise feed-forward networks and the Pre-LN Transformer encoder
//! (Xiong et al. 2020) used by both `PTEncoder` and `TSTEncoder` in the
//! paper (Eq. 10–14 and 19–21).

use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::attention::MultiHeadAttention;
use crate::linear::Linear;
use crate::module::Module;
use crate::norm::LayerNorm;

/// Activation used inside feed-forward blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)` — the paper's FFN (Eq. 7).
    Relu,
    /// GELU — the GPT backbone convention.
    Gelu,
}

/// Two-layer position-wise FFN: `act(x W₁ + b₁) W₂ + b₂`.
pub struct FeedForward {
    fc1: Linear,
    fc2: Linear,
    activation: Activation,
}

impl FeedForward {
    /// FFN expanding `dim` to `hidden` and back.
    pub fn new(
        dim: usize,
        hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> FeedForward {
        FeedForward {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
            activation,
        }
    }

    /// Applies the FFN to the last axis.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let h = self.fc1.forward(x);
        let h = match self.activation {
            Activation::Relu => h.relu(),
            Activation::Gelu => h.gelu(),
        };
        self.fc2.forward(&h)
    }
}

impl Module for FeedForward {
    fn params(&self) -> Vec<Tensor> {
        let mut v = self.fc1.params();
        v.extend(self.fc2.params());
        v
    }
}

/// One Pre-LN encoder layer:
/// `y = x + Att(LN(x))`, `z = y + FFN(LN(y))`.
pub struct EncoderLayer {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
}

/// Output of an encoder forward pass.
pub struct EncoderOutput {
    /// Encoded sequence `[T, D]`.
    pub output: Tensor,
    /// Head-averaged attention of the **last** layer, `[T, T]`,
    /// differentiable (consumed by correlation distillation).
    pub last_attention: Tensor,
}

impl EncoderLayer {
    /// Creates one layer with `num_heads` heads and an FFN hidden width of
    /// `ffn_hidden`.
    pub fn new(
        dim: usize,
        num_heads: usize,
        ffn_hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> EncoderLayer {
        EncoderLayer {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, num_heads, rng),
            ln2: LayerNorm::new(dim),
            ffn: FeedForward::new(dim, ffn_hidden, activation, rng),
        }
    }

    /// Applies the layer; returns the output and this layer's attention map.
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>) -> (Tensor, Tensor) {
        let h = self.ln1.forward(x);
        self.residual_block(x, &h, &h, mask)
    }

    /// The layer's output `[1, D]` for the last row of `x` `[T, D]` only.
    ///
    /// Keys and values still span every row; the query, residual, FFN and
    /// `mask` (`[T, T]`, of which the last row is used) cover the last
    /// row. Every other op is row-wise, so the result is bitwise equal to
    /// the last row of [`forward`](Self::forward)'s output.
    pub(crate) fn forward_last_row(&self, x: &Tensor, mask: Option<&Tensor>) -> Tensor {
        let last = x.dims()[0] - 1;
        let h = self.ln1.forward(x);
        let mask = mask.map(|m| m.slice(0, last, 1));
        let (x_q, h_q) = (x.slice(0, last, 1), h.slice(0, last, 1));
        self.residual_block(&x_q, &h_q, &h, mask.as_ref()).0
    }

    /// `y = x_q + Att(h_q, h_kv)`, `z = y + FFN(LN(y))` for query rows
    /// `x_q` whose pre-norm is `h_q`, attending over the pre-normed rows
    /// `h_kv`.
    fn residual_block(
        &self,
        x_q: &Tensor,
        h_q: &Tensor,
        h_kv: &Tensor,
        mask: Option<&Tensor>,
    ) -> (Tensor, Tensor) {
        let attended = self.attn.attend(h_q, h_kv, mask);
        let y = attended.output.add(x_q);
        let z = self.ffn.forward(&self.ln2.forward(&y)).add(&y);
        (z, attended.attention)
    }
}

impl Module for EncoderLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut v = self.ln1.params();
        v.extend(self.attn.params());
        v.extend(self.ln2.params());
        v.extend(self.ffn.params());
        v
    }
}

/// Stack of Pre-LN encoder layers with a final layer norm.
///
/// This is the shared architecture of the paper's `PTEncoder` (teacher) and
/// `TSTEncoder` (student); both are "lightweight Pre-LN Transformer
/// encoders" with identical structure (§IV-A).
pub struct TransformerEncoder {
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
    dim: usize,
}

impl TransformerEncoder {
    /// Creates a stack of `num_layers` encoder layers of width `dim`.
    pub fn new(
        dim: usize,
        num_layers: usize,
        num_heads: usize,
        ffn_hidden: usize,
        activation: Activation,
        rng: &mut SeededRng,
    ) -> TransformerEncoder {
        assert!(num_layers > 0, "encoder needs at least one layer");
        TransformerEncoder {
            layers: (0..num_layers)
                .map(|_| EncoderLayer::new(dim, num_heads, ffn_hidden, activation, rng))
                .collect(),
            final_ln: LayerNorm::new(dim),
            dim,
        }
    }

    /// Encodes `x` `[T, D]`; exports the last layer's attention map.
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>) -> EncoderOutput {
        let _span = timekd_obs::span("nn.encoder");
        let mut h = x.clone();
        let mut last_attention = None;
        for layer in &self.layers {
            let (out, attn) = layer.forward(&h, mask);
            h = out;
            last_attention = Some(attn);
        }
        EncoderOutput {
            output: self.final_ln.forward(&h),
            last_attention: last_attention.expect("at least one layer"),
        }
    }

    /// The encoded last row `[1, D]` of `x`: every layer but the last
    /// runs in full, the last one for its last row only
    /// ([`EncoderLayer::forward_last_row`]). Bitwise equal to the last row
    /// of [`forward`](Self::forward)'s output.
    pub fn forward_last_row(&self, x: &Tensor, mask: Option<&Tensor>) -> Tensor {
        let _span = timekd_obs::span("nn.encoder");
        let (last, body) = self.layers.split_last().expect("at least one layer");
        let h = body
            .iter()
            .fold(x.clone(), |h, layer| layer.forward(&h, mask).0);
        self.final_ln.forward(&last.forward_last_row(&h, mask))
    }

    /// Model width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Tensor> {
        let mut v = Vec::new();
        for l in &self.layers {
            v.extend(l.params());
        }
        v.extend(self.final_ln.params());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_tensor::seeded_rng;

    #[test]
    fn ffn_shapes_and_relu_kink() {
        let mut rng = seeded_rng(0);
        let ffn = FeedForward::new(4, 16, Activation::Relu, &mut rng);
        let x = Tensor::randn([5, 4], 1.0, &mut rng);
        assert_eq!(ffn.forward(&x).dims(), &[5, 4]);
    }

    #[test]
    fn encoder_preserves_shape() {
        let mut rng = seeded_rng(1);
        let enc = TransformerEncoder::new(8, 2, 2, 32, Activation::Relu, &mut rng);
        let x = Tensor::randn([6, 8], 1.0, &mut rng);
        let out = enc.forward(&x, None);
        assert_eq!(out.output.dims(), &[6, 8]);
        assert_eq!(out.last_attention.dims(), &[6, 6]);
    }

    #[test]
    fn last_row_pass_is_bitwise_last_row_of_forward() {
        let mut rng = seeded_rng(6);
        let enc = TransformerEncoder::new(8, 3, 2, 16, Activation::Relu, &mut rng);
        for t in [1, 2, 7] {
            let x = Tensor::randn([t, 8], 1.0, &mut rng);
            let mask = crate::attention::causal_mask(t);
            for m in [None, Some(&mask)] {
                let full = enc.forward(&x, m).output.to_vec();
                let last = enc.forward_last_row(&x, m);
                assert_eq!(last.dims(), &[1, 8]);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&last.to_vec()), bits(&full[(t - 1) * 8..]), "t = {t}");
            }
        }
    }

    #[test]
    fn encoder_param_count_scales_with_layers() {
        let mut rng = seeded_rng(2);
        let e1 = TransformerEncoder::new(8, 1, 2, 32, Activation::Relu, &mut rng);
        let e2 = TransformerEncoder::new(8, 2, 2, 32, Activation::Relu, &mut rng);
        let per_layer = e1.num_params() - 16; // minus final LN (2*8)
        assert_eq!(e2.num_params(), 2 * per_layer + 16);
    }

    #[test]
    fn residual_path_dominates_at_init() {
        // With Pre-LN and small init, output should stay correlated with
        // input (the residual stream), not explode.
        let mut rng = seeded_rng(3);
        let enc = TransformerEncoder::new(8, 2, 2, 16, Activation::Gelu, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let y = enc.forward(&x, None).output;
        assert!(y.max_value().is_finite());
        assert!(y.to_vec().iter().all(|v| v.abs() < 50.0));
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // Sanity: one encoder + readout can fit a fixed random mapping.
        let mut rng = seeded_rng(4);
        let enc = TransformerEncoder::new(8, 1, 2, 16, Activation::Relu, &mut rng);
        let head = crate::linear::Linear::new(8, 1, &mut rng);
        let x = Tensor::randn([6, 8], 1.0, &mut rng);
        let target = Tensor::randn([6, 1], 1.0, &mut rng);
        let mut params = enc.params();
        params.extend(head.params());
        let mut opt = crate::optim::AdamW::new(0.01, Default::default());
        let loss0 = {
            let out = enc.forward(&x, None);
            head.forward(&out.output)
                .sub(&target)
                .square()
                .mean()
                .item()
        };
        for _ in 0..60 {
            let out = enc.forward(&x, None);
            let loss = head.forward(&out.output).sub(&target).square().mean();
            for p in &params {
                p.zero_grad();
            }
            loss.backward();
            opt.step(&params);
        }
        let loss1 = {
            let out = enc.forward(&x, None);
            head.forward(&out.output)
                .sub(&target)
                .square()
                .mean()
                .item()
        };
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn attention_export_differentiable_through_stack() {
        let mut rng = seeded_rng(5);
        let enc = TransformerEncoder::new(8, 2, 2, 16, Activation::Relu, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let out = enc.forward(&x, None);
        out.last_attention.square().mean().backward();
        // Gradients must reach at least the first layer's parameters.
        assert!(enc.params().iter().any(|p| p.grad().is_some()));
    }
}
