//! In-process pretraining of the causal LM on a synthetic prompt corpus.
//!
//! The paper plugs in GPT-2 pretrained on WebText, and relies on one
//! property of that model: *the last-token embedding of a prompt encodes
//! the numeric values written in the prompt* (that is what the teacher's
//! reconstruction head decodes). Offline, a tiny LM pretrained for a few
//! dozen steps with the plain next-token objective does not acquire that
//! property, so pretraining here is multi-task:
//!
//! 1. **next-token cross-entropy** over ground-truth-style prompts drawn
//!    from the Fig. 2 grammar (teaches the prompt syntax and digit
//!    statistics), and
//! 2. **value regression**: a throw-away linear head must recover the
//!    prompt's future values from the last-token embedding (instils the
//!    value-encoding property the teacher depends on).
//!
//! The regression head is discarded after pretraining; the frozen LM keeps
//! only what GPT-2 would have had anyway. See DESIGN.md ("Substitutions").

use timekd_nn::{AdamW, AdamWConfig, Linear, Module};
use timekd_tensor::SeededRng;
use timekd_tensor::{sample_standard_normal, seeded_rng, Tensor};

use crate::config::LmConfig;
use crate::model::CausalLm;
use crate::tokenizer::{PromptPiece, PromptTokenizer, Token};

/// Pretraining hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PretrainConfig {
    /// Number of optimisation steps.
    pub steps: usize,
    /// Series length embedded in each sampled prompt (history and future
    /// halves).
    pub series_len: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight of the auxiliary value-regression loss.
    pub value_regression_weight: f32,
    /// RNG seed for the corpus and init.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 400,
            series_len: 12,
            lr: 3e-3,
            value_regression_weight: 3.0,
            seed: 1234,
        }
    }
}

/// One corpus example: a ground-truth-style prompt (history + future
/// values, Fig. 2a) plus the future values as regression targets.
pub struct CorpusExample {
    /// Tokenised prompt.
    pub tokens: Vec<Token>,
    /// The future values written in the prompt (regression targets).
    pub future_values: Vec<f32>,
}

/// Samples one corpus example: a standardised AR(1) series rendered through
/// the ground-truth prompt template.
pub fn sample_corpus_example(
    tokenizer: &PromptTokenizer,
    series_len: usize,
    rng: &mut SeededRng,
) -> CorpusExample {
    let mut pieces = vec![
        PromptPiece::Word("from"),
        PromptPiece::Number(1.0),
        PromptPiece::Word("to"),
        PromptPiece::Number(series_len as f32),
        PromptPiece::Word(","),
        PromptPiece::Word("values"),
        PromptPiece::Word("were"),
    ];
    // Standardised AR(1): matches the distribution of scaled dataset
    // windows the teacher will feed through the frozen model.
    let mut v = sample_standard_normal(rng);
    let mut sample_next = |rng: &mut SeededRng| {
        v = 0.85 * v + 0.5 * sample_standard_normal(rng);
        v
    };
    for _ in 0..series_len {
        let val = sample_next(rng);
        pieces.push(PromptPiece::Number(val));
        pieces.push(PromptPiece::Word(","));
    }
    pieces.push(PromptPiece::Word("every"));
    pieces.push(PromptPiece::Number(rng.gen_range(1..=60) as f32));
    pieces.push(PromptPiece::Word("minutes"));
    pieces.push(PromptPiece::Word("."));
    pieces.push(PromptPiece::Word("next"));
    pieces.push(PromptPiece::Number(series_len as f32));
    pieces.push(PromptPiece::Word("steps"));
    pieces.push(PromptPiece::Word(":"));
    let mut future_values = Vec::with_capacity(series_len);
    for i in 0..series_len {
        let val = sample_next(rng);
        // Regress what is actually written in the prompt (the bin center),
        // not the unquantized sample.
        let written = tokenizer.quantize(val);
        future_values.push(written);
        pieces.push(PromptPiece::Number(val));
        if i + 1 < series_len {
            pieces.push(PromptPiece::Word(","));
        }
    }
    // End on the final value token, matching the Fig. 2a template: the
    // extracted last token must be numeric so calibrated attention does not
    // penalise its view of the other value tokens.
    CorpusExample {
        tokens: tokenizer.encode(&pieces),
        future_values,
    }
}

/// Backwards-compatible helper returning only the tokens (used by the
/// kernel microbenchmarks).
pub fn sample_corpus_prompt(
    tokenizer: &PromptTokenizer,
    series_len: usize,
    rng: &mut SeededRng,
) -> Vec<Token> {
    sample_corpus_example(tokenizer, series_len, rng).tokens
}

/// Initialises the numeric-bin token embeddings with a smooth value
/// encoding: each bin's row is `v·u₁ + |v|·u₂ + ε`, with fixed random unit
/// directions `u₁, u₂` and small noise `ε`.
///
/// Large pretrained LMs demonstrably embed numerals so that magnitude is
/// (approximately) linearly decodable; a from-scratch tiny LM starts with
/// i.i.d. rows and has to *discover* that structure, which dominates the
/// pretraining budget. Installing the prior reproduces the property the
/// teacher actually relies on (see DESIGN.md "Substitutions"); the rows
/// remain trainable.
pub fn install_numeracy_prior(lm: &CausalLm, vocab: &PromptTokenizer, rng: &mut SeededRng) {
    let dim = lm.config().dim;
    let unit = |rng: &mut SeededRng| {
        let mut u: Vec<f32> = (0..dim).map(|_| sample_standard_normal(rng)).collect();
        let norm = u.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut u {
            *x /= norm;
        }
        u
    };
    let u1 = unit(rng);
    let u2 = unit(rng);
    let table = lm.token_embedding_table();
    let vocab_size = table.dims()[0];
    let mut data = table.to_vec();
    for id in 0..vocab_size {
        let token = Token {
            id,
            modality: crate::tokenizer::Modality::Numeric,
        };
        if let Some(v) = vocab.token_value(token) {
            let v_scaled = v / crate::tokenizer::BIN_MAX; // in [-1, 1]
            for d in 0..dim {
                data[id * dim + d] = 0.5 * v_scaled * u1[d]
                    + 0.25 * v_scaled.abs() * u2[d]
                    + 0.02 * sample_standard_normal(rng);
            }
        }
    }
    table.copy_from_slice(&data);
}

/// Report of a pretraining run.
#[derive(Debug, Clone, Copy)]
pub struct PretrainReport {
    /// LM loss on a held-out prompt before training.
    pub initial_loss: f32,
    /// Held-out LM loss after training.
    pub final_loss: f32,
    /// Value-regression MSE on the held-out prompt before training.
    pub initial_value_mse: f32,
    /// Held-out value-regression MSE after training.
    pub final_value_mse: f32,
    /// Steps actually taken.
    pub steps: usize,
}

/// The value-regression input `[1, D]`: the last row of the full hidden
/// states. Pretraining keeps the whole graph rather than
/// [`CausalLm::last_token_embedding`]'s last-row pass: the two forwards are
/// bitwise equal, but the gradients they send back into the LM are not.
fn value_embedding(lm: &CausalLm, tokens: &[Token]) -> Tensor {
    lm.hidden_states(tokens, true).slice(0, tokens.len() - 1, 1)
}

/// Pretrains a fresh LM on the synthetic prompt corpus and returns it
/// together with a loss report. The returned model should be treated as
/// frozen by callers (see [`crate::FrozenLm`]).
pub fn pretrain_lm(
    vocab: &PromptTokenizer,
    lm_config: LmConfig,
    config: PretrainConfig,
) -> (CausalLm, PretrainReport) {
    let mut rng = seeded_rng(config.seed);
    let lm = CausalLm::new(vocab.vocab_size(), lm_config, &mut rng);
    install_numeracy_prior(&lm, vocab, &mut rng);
    let value_head = Linear::new(lm_config.dim, config.series_len, &mut rng);
    let mut params = lm.params();
    params.extend(value_head.params());
    let mut opt = AdamW::new(
        config.lr,
        AdamWConfig {
            weight_decay: 0.0,
            ..Default::default()
        },
    );
    let mut holdout_rng = seeded_rng(config.seed ^ 0xdead_beef);
    let holdouts: Vec<CorpusExample> = (0..8)
        .map(|_| sample_corpus_example(vocab, config.series_len, &mut holdout_rng))
        .collect();
    let eval = |lm: &CausalLm, head: &Linear| {
        timekd_tensor::no_grad(|| {
            let mut lm_loss = 0.0f32;
            let mut value_mse = 0.0f32;
            for h in &holdouts {
                lm_loss += lm.next_token_loss(&h.tokens, true).item();
                let emb = value_embedding(lm, &h.tokens);
                let target = Tensor::from_vec(h.future_values.clone(), [1, config.series_len]);
                value_mse += head.forward(&emb).sub(&target).square().mean().item();
            }
            (
                lm_loss / holdouts.len() as f32,
                value_mse / holdouts.len() as f32,
            )
        })
    };
    let (initial_loss, initial_value_mse) = eval(&lm, &value_head);
    for _ in 0..config.steps {
        let example = sample_corpus_example(vocab, config.series_len, &mut rng);
        for p in &params {
            p.zero_grad();
        }
        let lm_loss = lm.next_token_loss(&example.tokens, true);
        let emb = value_embedding(&lm, &example.tokens);
        let target = Tensor::from_vec(example.future_values.clone(), [1, config.series_len]);
        let value_loss = value_head.forward(&emb).sub(&target).square().mean();
        let loss = lm_loss.add(&value_loss.mul_scalar(config.value_regression_weight));
        loss.backward();
        timekd_nn::clip_grad_norm(&params, 1.0);
        opt.step(&params);
    }
    let (final_loss, final_value_mse) = eval(&lm, &value_head);
    // The model is handed out as frozen: leave no stale gradients behind.
    lm.zero_grad();
    (
        lm,
        PretrainReport {
            initial_loss,
            final_loss,
            initial_value_mse,
            final_value_mse,
            steps: config.steps,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_example_well_formed() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(0);
        let e = sample_corpus_example(&tok, 8, &mut rng);
        assert!(e.tokens.len() > 30);
        assert_eq!(e.tokens[0], tok.bos());
        assert_eq!(e.future_values.len(), 8);
        assert!(e.tokens.iter().all(|t| t.id < tok.vocab_size()));
    }

    #[test]
    fn regression_targets_match_rendered_precision() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(1);
        let e = sample_corpus_example(&tok, 6, &mut rng);
        for v in &e.future_values {
            // One decimal place exactly.
            assert!((v * 10.0 - (v * 10.0).round()).abs() < 1e-4);
        }
    }

    #[test]
    fn corpus_examples_vary() {
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(0);
        let a = sample_corpus_example(&tok, 8, &mut rng);
        let b = sample_corpus_example(&tok, 8, &mut rng);
        assert_ne!(a.tokens, b.tokens);
    }

    #[test]
    fn pretraining_reduces_holdout_losses() {
        let tok = PromptTokenizer::new();
        let cfg = PretrainConfig {
            steps: 60,
            series_len: 8,
            ..Default::default()
        };
        let (_lm, report) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        assert!(
            report.final_loss < report.initial_loss,
            "LM loss must fall on held-out prompt: {} -> {}",
            report.initial_loss,
            report.final_loss
        );
        assert!(
            report.final_value_mse < report.initial_value_mse,
            "value regression must improve: {} -> {}",
            report.initial_value_mse,
            report.final_value_mse
        );
    }

    #[test]
    fn numeracy_prior_makes_value_linearly_decodable() {
        // After installing the prior (before any training), a least-squares
        // readout along u1 recovers bin values: check that embedding dot
        // products correlate with value differences.
        let tok = PromptTokenizer::new();
        let mut rng = seeded_rng(3);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(crate::LmSize::Small),
            &mut rng,
        );
        install_numeracy_prior(&lm, &tok, &mut rng);
        let emb = |v: f32| {
            let t = tok.number(v)[0];
            let table = lm.token_embedding_table();
            let d = table.dims()[1];
            table.to_vec()[t.id * d..(t.id + 1) * d].to_vec()
        };
        let a = emb(-3.0);
        let b = emb(0.0);
        let c = emb(3.0);
        // -3 and +3 should be near-opposite along the value direction,
        // both far from 0's embedding.
        let dot = |x: &[f32], y: &[f32]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f32>();
        assert!(dot(&a, &c) < dot(&a, &b), "value direction not monotone");
        let dist = |x: &[f32], y: &[f32]| {
            x.iter()
                .zip(y)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        };
        assert!(
            dist(&a, &c) > dist(&a, &b),
            "distance not monotone in value gap"
        );
    }

    #[test]
    fn pretraining_deterministic_per_seed() {
        let tok = PromptTokenizer::new();
        let cfg = PretrainConfig {
            steps: 5,
            series_len: 6,
            ..Default::default()
        };
        let (_lm1, r1) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        let (_lm2, r2) = pretrain_lm(&tok, LmConfig::for_size(crate::LmSize::Small), cfg);
        assert_eq!(r1.final_loss, r2.final_loss);
        assert_eq!(r1.final_value_mse, r2.final_value_mse);
    }
}
