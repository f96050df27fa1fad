//! Symbolic trace of the calibrated language model.
//!
//! [`SymCausalLm`] mirrors [`CausalLm`](crate::CausalLm) op-for-op on the
//! symbolic IR so the verifier can type-check the CLM interior for every
//! [`LmSize`](crate::LmSize) preset and prompt length without running a
//! forward pass. A prompt longer than `max_seq_len` surfaces as a shape
//! error on the positional-embedding slice — the same place the real model
//! asserts.
//!
//! [`trace_frozen_lm`] is the [`FrozenLm`](crate::FrozenLm)-shaped entry
//! point: it builds the LM inside [`SymCtx::frozen`] (so its parameters are
//! provably frozen) and traces the embedding under
//! [`SymCtx::no_grad`], mirroring how `FrozenLm::embed` executes — the
//! returned node is a gradient frontier exactly like the constant leaf the
//! real cache hands out.

use timekd_nn::symbolic::SymTransformerEncoder;
use timekd_nn::Activation;
use timekd_tensor::{ShapeError, SymCtx, SymDim, SymbolicTensor};

use crate::config::LmConfig;

/// Symbolic mirror of [`CausalLm`](crate::CausalLm).
#[derive(Debug)]
pub struct SymCausalLm {
    ctx: SymCtx,
    label: String,
    config: LmConfig,
    tok_table: SymbolicTensor,
    pos_embedding: SymbolicTensor,
    encoder: SymTransformerEncoder,
}

impl SymCausalLm {
    /// Registers the LM's parameters under `name` and returns the mirror.
    pub fn new(ctx: &SymCtx, name: &str, vocab_size: usize, config: LmConfig) -> SymCausalLm {
        let label = ctx.label_for(name);
        ctx.scoped(name, || SymCausalLm {
            ctx: ctx.clone(),
            label: label.clone(),
            config,
            tok_table: ctx.param(
                "tok_embedding.weight",
                vec![
                    SymDim::new("V", vocab_size),
                    SymDim::new("lm_dim", config.dim),
                ],
            ),
            pos_embedding: ctx.param(
                "pos_embedding",
                vec![
                    SymDim::new("max_seq_len", config.max_seq_len),
                    SymDim::new("lm_dim", config.dim),
                ],
            ),
            encoder: SymTransformerEncoder::new(
                ctx,
                "encoder",
                config.dim,
                config.num_layers,
                config.num_heads,
                config.ffn_hidden,
                Activation::Gelu,
            ),
        })
    }

    /// Mirrors `CausalLm::hidden_states` for a prompt of `seq_len` tokens.
    /// The calibrated/causal mask is a constant `[S, S]` leaf either way.
    pub fn hidden_states(&self, seq_len: usize) -> Result<SymbolicTensor, ShapeError> {
        self.ctx.with_label(&self.label, || {
            let (x, mask) = self.prompt_input(seq_len)?;
            Ok(self.encoder.forward(&x, Some(&mask))?.output)
        })
    }

    /// Mirrors `CausalLm::last_token_embedding`: the encoder's last-row
    /// pass, reshaped to `[lm_dim]`.
    pub fn last_token_embedding(&self, seq_len: usize) -> Result<SymbolicTensor, ShapeError> {
        self.ctx.with_label(&self.label, || {
            let (x, mask) = self.prompt_input(seq_len)?;
            self.encoder
                .forward_last_row(&x, Some(&mask))?
                .reshape(vec![SymDim::new("lm_dim", self.config.dim)])
        })
    }

    /// Mirrors `CausalLm::prompt_input`: `I⁰ = I + PE` and the mask leaf.
    fn prompt_input(&self, seq_len: usize) -> Result<(SymbolicTensor, SymbolicTensor), ShapeError> {
        let tok = self.tok_table.index_select_rows(seq_len, "S")?;
        let pos = self.pos_embedding.slice(0, 0, seq_len, "S")?;
        let x = tok.add(&pos)?;
        let mask = self.ctx.constant(
            "mask",
            vec![SymDim::new("S", seq_len), SymDim::new("S", seq_len)],
        );
        Ok((x, mask))
    }
}

/// Traces one frozen-LM embedding call as the teacher sees it: parameters
/// registered inside a frozen scope, the forward run under `no_grad`.
///
/// The returned tensor requires no grad and exposes no gradient edges —
/// the symbolic analogue of the constant leaf `FrozenLm::embed` returns —
/// while shape inference still covers the whole LM interior.
pub fn trace_frozen_lm(
    ctx: &SymCtx,
    name: &str,
    vocab_size: usize,
    config: LmConfig,
    seq_len: usize,
) -> Result<SymbolicTensor, ShapeError> {
    let lm = ctx.frozen(|| SymCausalLm::new(ctx, name, vocab_size, config));
    ctx.no_grad(|| lm.last_token_embedding(seq_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CausalLm, LmSize, PromptTokenizer};
    use timekd_nn::Module;
    use timekd_tensor::{graph_stats, reachable_params, seeded_rng, GraphAudit};

    #[test]
    fn lm_graph_matches_dynamic() {
        let tok = PromptTokenizer::new();
        let cfg = LmConfig::for_size(LmSize::Small);
        let mut rng = seeded_rng(0);
        let real = CausalLm::new(tok.vocab_size(), cfg, &mut rng);
        let toks = tok.encode(&[
            crate::PromptPiece::Word("the"),
            crate::PromptPiece::Word("values"),
            crate::PromptPiece::Word("were"),
            crate::PromptPiece::Number(1.5),
            crate::PromptPiece::Number(-2.0),
            crate::PromptPiece::Word("forecast"),
        ]);
        let real_out = real.last_token_embedding(&toks, true).sum();

        let ctx = SymCtx::new();
        let lm = SymCausalLm::new(&ctx, "clm", tok.vocab_size(), cfg);
        let out = lm.last_token_embedding(toks.len()).unwrap().sum();

        let sym = graph_stats(&out);
        let dynamic = GraphAudit::run(&real_out).stats;
        assert_eq!(sym.nodes, dynamic.nodes);
        assert_eq!(sym.edges, dynamic.edges);
        assert_eq!(sym.leaves, dynamic.leaves);
        assert_eq!(sym.params, dynamic.params);
        assert_eq!(sym.max_depth, dynamic.max_depth);
        assert_eq!(ctx.params().len(), real.params().len());
    }

    #[test]
    fn overlong_prompt_is_shape_error() {
        let ctx = SymCtx::new();
        let mut cfg = LmConfig::for_size(LmSize::Small);
        cfg.max_seq_len = 8;
        let lm = SymCausalLm::new(&ctx, "clm", 50, cfg);
        let err = lm.last_token_embedding(9).unwrap_err();
        assert_eq!(err.op, "slice");
        assert!(err.message.contains("out of bounds"), "{}", err.message);
    }

    #[test]
    fn frozen_trace_is_gradient_frontier() {
        let ctx = SymCtx::new();
        let cfg = LmConfig::for_size(LmSize::Small);
        let emb = trace_frozen_lm(&ctx, "clm", 50, cfg, 5).unwrap();
        assert!(!emb.requires_grad());
        assert!(emb.is_leaf());
        assert!(reachable_params(&emb.sum()).is_empty());
        // Every LM parameter is marked frozen.
        assert!(ctx.params().iter().all(|p| p.is_frozen()));
        assert!(!ctx.params().is_empty());
    }
}
