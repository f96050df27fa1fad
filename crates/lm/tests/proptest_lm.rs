//! Randomised property tests for the language-model crate: tokenizer
//! totality, calibrated-mask structure, and causal-LM invariants.

use timekd_lm::{
    calibrated_mask, causal_only_mask, CausalLm, LmConfig, LmSize, Modality, PromptPiece,
    PromptTokenizer, NEG_INF,
};
use timekd_tensor::seeded_rng;

const CASES: u64 = 48;

#[test]
fn any_finite_number_tokenises() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-1e9f32..1e9);
        let toks = tok.number(v);
        assert_eq!(toks.len(), 1, "seed {seed}");
        assert!(toks.iter().all(|t| t.id < tok.vocab_size()), "seed {seed}");
        assert!(
            toks.iter().all(|t| t.modality == Modality::Numeric),
            "seed {seed}"
        );
    }
}

#[test]
fn tokenisation_deterministic() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-1e5f32..1e5);
        assert_eq!(tok.number(v), tok.number(v), "seed {seed}");
    }
}

#[test]
fn quantization_error_bounded() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(-6.3f32..6.3);
        let t = tok.number(v)[0];
        let back = tok.token_value(t).expect("numeric token has a value");
        assert!(
            (back - v).abs() <= 0.05 + 1e-5,
            "seed {seed}: {v} -> {back}"
        );
    }
}

#[test]
fn bin_symmetric_under_negation() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let v = rng.gen_range(0.0f32..6.3);
        let pos = tok.token_value(tok.number(v)[0]).expect("value");
        let neg = tok.token_value(tok.number(-v)[0]).expect("value");
        assert!((pos + neg).abs() < 1e-5, "seed {seed}");
    }
}

#[test]
fn calibrated_mask_structure() {
    let tok = PromptTokenizer::new();
    for seed in 0..CASES {
        let mut rng = seeded_rng(seed);
        let delta = rng.gen_range(0.0f32..10.0);
        let len = rng.gen_range(2usize..12);
        // First `split` tokens Text, rest Numeric.
        let split = rng.gen_range(1usize..11).min(len - 1);
        let mut tokens = Vec::new();
        for i in 0..len {
            if i < split {
                tokens.push(tok.word("values"));
            } else {
                tokens.push(tok.number(1.0)[0]);
            }
        }
        let m = calibrated_mask(&tokens, delta, true);
        for i in 0..len {
            for j in 0..len {
                let v = m.at(&[i, j]);
                if j > i {
                    assert_eq!(v, NEG_INF, "seed {seed}");
                } else if (i < split) == (j < split) {
                    assert_eq!(v, 0.0, "seed {seed} intra pair ({i}, {j})");
                } else {
                    assert_eq!(v, -delta, "seed {seed} cross pair ({i}, {j})");
                }
            }
        }
    }
}

#[test]
fn zero_delta_equals_plain_causal() {
    let tok = PromptTokenizer::new();
    for len in 1usize..10 {
        let tokens: Vec<_> = (0..len)
            .map(|i| {
                if i % 2 == 0 {
                    tok.word("next")
                } else {
                    tok.number(2.0)[0]
                }
            })
            .collect();
        assert_eq!(
            calibrated_mask(&tokens, 0.0, true).to_vec(),
            causal_only_mask(len).to_vec(),
            "len {len}"
        );
    }
}

#[test]
fn lm_hidden_states_finite() {
    let tok = PromptTokenizer::new();
    for seed in 0..8 {
        let mut rng = seeded_rng(seed);
        let n_vals = rng.gen_range(1usize..6);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(LmSize::Small),
            &mut rng,
        );
        let mut pieces = vec![PromptPiece::Word("values"), PromptPiece::Word("were")];
        for i in 0..n_vals {
            pieces.push(PromptPiece::Number(i as f32 * 1.5 - 2.0));
        }
        let toks = tok.encode(&pieces);
        let h = lm.hidden_states(&toks, true);
        assert!(h.to_vec().iter().all(|v| v.is_finite()), "seed {seed}");
    }
}

#[test]
fn lm_prefix_embeddings_stable_under_suffix_edits() {
    // Causality: appending tokens never changes earlier hidden states.
    let tok = PromptTokenizer::new();
    for seed in 0..4 {
        let mut rng = seeded_rng(seed);
        let lm = CausalLm::new(
            tok.vocab_size(),
            LmConfig::for_size(LmSize::Small),
            &mut rng,
        );
        let base = tok.encode(&[PromptPiece::Word("forecast"), PromptPiece::Number(1.0)]);
        let mut extended = base.clone();
        extended.extend(tok.number(42.0));
        let hb = lm.hidden_states(&base, true);
        let he = lm.hidden_states(&extended, true);
        let d = lm.config().dim;
        let prefix_b = &hb.to_vec()[..base.len() * d];
        let prefix_e = &he.to_vec()[..base.len() * d];
        for (a, b) in prefix_b.iter().zip(prefix_e) {
            assert!((a - b).abs() < 1e-5, "seed {seed}");
        }
    }
}

#[test]
fn last_token_embedding_is_bitwise_last_hidden_row() {
    // The last-row pass through the final layer is an oracle-checked
    // shortcut: for every backbone size, every prompt length from 1 (the
    // only row is the last) to 80, and either mask, it must equal the last
    // row of the full hidden states bit for bit.
    let tok = PromptTokenizer::new();
    for (i, size) in [LmSize::Small, LmSize::Base, LmSize::Large]
        .into_iter()
        .enumerate()
    {
        let mut rng = seeded_rng(100 + i as u64);
        let lm = CausalLm::new(tok.vocab_size(), LmConfig::for_size(size), &mut rng);
        let d = lm.config().dim;
        for len in 1usize..=80 {
            let tokens: Vec<_> = (0..len)
                .map(|_| {
                    if rng.gen::<f32>() < 0.5 {
                        tok.word("values")
                    } else {
                        tok.number(rng.gen_range(-6.0f32..6.0))[0]
                    }
                })
                .collect();
            for calibrated in [true, false] {
                let full = lm.hidden_states(&tokens, calibrated).to_vec();
                let last = lm.last_token_embedding(&tokens, calibrated).to_vec();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&last),
                    bits(&full[(len - 1) * d..]),
                    "{size:?}, length {len}, calibrated {calibrated}"
                );
            }
        }
    }
}
