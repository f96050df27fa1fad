//! The cross-modality teacher model (paper §IV-B, Fig. 3 left, Alg. 1).
//!
//! Pipeline: ground-truth and historical prompts → frozen calibrated LM
//! (last-token embeddings, cached) → projection into teacher width →
//! subtractive cross attention → privileged Transformer encoder
//! (`PTEncoder`) → reconstruction head. The encoder output `E_GT` and its
//! attention map `A_PE` are the privileged knowledge handed to the student.

use std::rc::Rc;

use timekd_data::WindowPrompts;
use timekd_lm::{FrozenLm, Token};
use timekd_nn::{Activation, Linear, Module, TransformerEncoder};
use timekd_tensor::SeededRng;
use timekd_tensor::Tensor;

use crate::config::TimeKdConfig;
use crate::sca::SubtractiveCrossAttention;

/// Everything the teacher produces for one window.
pub struct TeacherOutput {
    /// Privileged embeddings `E_GT` `[N, D]` (Eq. 14).
    pub embedding: Tensor,
    /// Head-averaged attention `A_PE` `[N, N]` of the last `PTEncoder`
    /// layer (consumed by correlation distillation).
    pub attention: Tensor,
    /// Reconstructed ground truth `X̂_G` `[M, N]` (Eq. 15).
    pub reconstruction: Tensor,
}

/// The LUPI teacher. Trainable parts: the LM projection, SCA, `PTEncoder`
/// and the reconstruction head; the CLM itself stays frozen.
pub struct CrossModalityTeacher {
    frozen_lm: Rc<FrozenLm>,
    lm_proj: Linear,
    // `w/o_CLM` path: value sequences embedded directly, no language model.
    hist_value_proj: Linear,
    gt_value_proj: Linear,
    sca: SubtractiveCrossAttention,
    pt_encoder: TransformerEncoder,
    recon_head: Linear,
    config: TimeKdConfig,
    input_len: usize,
    horizon: usize,
}

impl CrossModalityTeacher {
    /// Builds the teacher for windows of `input_len` history steps and
    /// `horizon` future steps.
    pub fn new(
        frozen_lm: Rc<FrozenLm>,
        config: TimeKdConfig,
        input_len: usize,
        horizon: usize,
        rng: &mut SeededRng,
    ) -> CrossModalityTeacher {
        let lm_dim = frozen_lm.model().config().dim;
        CrossModalityTeacher {
            frozen_lm,
            lm_proj: Linear::new(lm_dim, config.dim, rng),
            hist_value_proj: Linear::new(input_len, config.dim, rng),
            gt_value_proj: Linear::new(input_len + horizon, config.dim, rng),
            sca: SubtractiveCrossAttention::new(config.dim, config.ffn_hidden, rng),
            pt_encoder: TransformerEncoder::new(
                config.dim,
                config.num_layers,
                config.num_heads,
                config.ffn_hidden,
                Activation::Relu,
                rng,
            ),
            recon_head: Linear::new(config.dim, horizon, rng),
            config,
            input_len,
            horizon,
        }
    }

    /// Last-token prompt embeddings `[N, D]` via the frozen CLM + trainable
    /// projection.
    fn clm_embeddings(&self, prompts: &[Vec<Token>]) -> Tensor {
        let _span = timekd_obs::span("teacher.clm_embed");
        let calibrated = self.config.ablation.calibrated_attention;
        let lm_dim = self.frozen_lm.model().config().dim;
        let n = prompts.len();
        let rows: Vec<Tensor> = prompts
            .iter()
            .map(|p| self.frozen_lm.embed(p, calibrated).reshape([1, lm_dim]))
            .collect();
        let stacked = Tensor::concat(&rows, 0);
        debug_assert_eq!(stacked.dims(), &[n, lm_dim]);
        self.lm_proj.forward(&stacked)
    }

    /// The prompt lists [`forward`](Self::forward) embeds with the frozen
    /// LM, ground truth first; `None` under `w/o_CLM`.
    fn lm_prompts<'a>(&self, prompts: &'a WindowPrompts) -> Option<[&'a [Vec<Token>]; 2]> {
        let ab = self.config.ablation;
        let gt = if ab.privileged_info {
            &prompts.ground_truth
        } else {
            // w/o_PI: the "traditional teacher" only ever sees history.
            &prompts.historical
        };
        ab.use_clm.then_some([gt, &prompts.historical])
    }

    /// Embeds every prompt [`forward`](Self::forward) will look up for
    /// these windows with one [`FrozenLm::fill`], so the forwards that
    /// follow are all cache hits. Bitwise the same embeddings as letting
    /// each forward miss in turn.
    pub(crate) fn fill_lm_cache(&self, windows: &[WindowPrompts]) {
        let prompts = windows
            .iter()
            .filter_map(|w| self.lm_prompts(w))
            .flatten()
            .flatten()
            .map(Vec::as_slice);
        self.frozen_lm
            .fill(prompts, self.config.ablation.calibrated_attention);
    }

    /// Teacher forward for one window.
    ///
    /// `x` is the history `[H, N]`, `y` the ground truth `[M, N]`
    /// (privileged, training only), and `prompts` their textual renderings.
    pub fn forward(&self, x: &Tensor, y: &Tensor, prompts: &WindowPrompts) -> TeacherOutput {
        let _span = timekd_obs::span("teacher.forward");
        let ab = self.config.ablation;
        let n = x.dims()[1];
        assert_eq!(x.dims()[0], self.input_len, "history length mismatch");
        assert_eq!(y.dims()[0], self.horizon, "horizon mismatch");
        let (l_gt, l_hd) = if let Some([gt_prompts, hist_prompts]) = self.lm_prompts(prompts) {
            (
                self.clm_embeddings(gt_prompts),
                self.clm_embeddings(hist_prompts),
            )
        } else {
            // w/o_CLM: embed raw value sequences per variable.
            let xt = x.transpose_last(); // [N, H]
            let l_hd = self.hist_value_proj.forward(&xt);
            let l_gt = if ab.privileged_info {
                let yt = y.transpose_last(); // [N, M]
                let joint = Tensor::concat(&[xt, yt], 1); // [N, H+M]
                self.gt_value_proj.forward(&joint)
            } else {
                self.hist_value_proj.forward(&x.transpose_last())
            };
            (l_gt, l_hd)
        };
        debug_assert_eq!(l_gt.dims(), &[n, self.config.dim]);
        let refined = {
            let _span = timekd_obs::span("teacher.sca");
            if ab.use_sca {
                self.sca.forward(&l_gt, &l_hd)
            } else {
                self.sca.forward_direct(&l_gt, &l_hd)
            }
        };
        let enc = self.pt_encoder.forward(&refined, None);
        let recon = self.recon_head.forward(&enc.output).transpose_last(); // [M, N]
        TeacherOutput {
            embedding: enc.output,
            attention: enc.last_attention,
            reconstruction: recon,
        }
    }

    /// The frozen language model (for cache statistics).
    pub fn frozen_lm(&self) -> &FrozenLm {
        &self.frozen_lm
    }

    /// Forecast horizon.
    pub fn horizon(&self) -> usize {
        self.horizon
    }
}

impl Module for CrossModalityTeacher {
    /// Trainable parameters only — the frozen CLM is deliberately absent.
    fn params(&self) -> Vec<Tensor> {
        let ab = self.config.ablation;
        let mut v = Vec::new();
        if ab.use_clm {
            v.extend(self.lm_proj.params());
        } else {
            v.extend(self.hist_value_proj.params());
            if ab.privileged_info {
                v.extend(self.gt_value_proj.params());
            }
        }
        v.extend(self.sca.params());
        v.extend(self.pt_encoder.params());
        v.extend(self.recon_head.params());
        v
    }
}

/// Renders the window prompts the teacher consumes (standalone helper so
/// callers can cache them per window).
pub fn render_prompts(
    tokenizer: &timekd_lm::PromptTokenizer,
    x: &Tensor,
    y: &Tensor,
    config: &TimeKdConfig,
) -> WindowPrompts {
    timekd_data::window_prompts(tokenizer, x, y, &config.prompt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AblationConfig;
    use timekd_lm::{pretrain_lm, LmConfig, LmSize, PretrainConfig, PromptTokenizer};
    use timekd_tensor::seeded_rng;

    fn tiny_teacher(
        ablation: AblationConfig,
    ) -> (CrossModalityTeacher, PromptTokenizer, TimeKdConfig) {
        let tok = PromptTokenizer::new();
        let mut cfg = TimeKdConfig::with_ablation(ablation);
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = LmConfig::for_size(LmSize::Small);
        cfg.prompt.max_history = 4;
        cfg.prompt.max_future = 4;
        let (lm, _) = pretrain_lm(
            &tok,
            cfg.lm,
            PretrainConfig {
                steps: 2,
                ..Default::default()
            },
        );
        let mut rng = seeded_rng(0);
        let teacher = CrossModalityTeacher::new(Rc::new(FrozenLm::new(lm)), cfg, 8, 4, &mut rng);
        (teacher, tok, cfg)
    }

    fn window(rng: &mut timekd_tensor::SeededRng) -> (Tensor, Tensor) {
        (
            Tensor::randn([8, 3], 1.0, rng),
            Tensor::randn([4, 3], 1.0, rng),
        )
    }

    #[test]
    fn forward_shapes() {
        let (teacher, tok, cfg) = tiny_teacher(AblationConfig::full());
        let mut rng = seeded_rng(1);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let out = teacher.forward(&x, &y, &prompts);
        assert_eq!(out.embedding.dims(), &[3, 16]);
        assert_eq!(out.attention.dims(), &[3, 3]);
        assert_eq!(out.reconstruction.dims(), &[4, 3]);
    }

    #[test]
    fn clm_stays_frozen() {
        let (teacher, tok, cfg) = tiny_teacher(AblationConfig::full());
        let mut rng = seeded_rng(2);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let out = teacher.forward(&x, &y, &prompts);
        timekd_nn::smooth_l1_loss(&out.reconstruction, &y).backward();
        // Teacher's trainable params get gradients …
        assert!(teacher.params().iter().any(|p| p.grad().is_some()));
        // … but the frozen LM does not.
        for p in teacher.frozen_lm().model().params() {
            assert!(p.grad().is_none(), "frozen LM received a gradient");
        }
    }

    #[test]
    fn prompt_cache_reused_across_steps() {
        let (teacher, tok, cfg) = tiny_teacher(AblationConfig::full());
        let mut rng = seeded_rng(3);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let _ = teacher.forward(&x, &y, &prompts);
        let (h1, m1) = teacher.frozen_lm().cache_stats();
        let _ = teacher.forward(&x, &y, &prompts);
        let (h2, m2) = teacher.frozen_lm().cache_stats();
        assert_eq!(m1, m2, "second pass must not re-run the CLM");
        assert!(h2 > h1);
    }

    #[test]
    fn privileged_info_changes_output() {
        let (full, tok, cfg) = tiny_teacher(AblationConfig::full());
        let mut rng = seeded_rng(4);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let with_pi = full.forward(&x, &y, &prompts);
        // Same teacher, but pretend it never saw ground truth: use the
        // w/o_PI variant built with the same seed.
        let (wo, tok2, cfg2) = tiny_teacher(AblationConfig::without_privileged_info());
        let prompts2 = render_prompts(&tok2, &x, &y, &cfg2);
        let without = wo.forward(&x, &y, &prompts2);
        assert_ne!(with_pi.embedding.to_vec(), without.embedding.to_vec());
    }

    #[test]
    fn wo_clm_path_runs_without_lm_calls() {
        let (teacher, tok, cfg) = tiny_teacher(AblationConfig::without_clm());
        let mut rng = seeded_rng(5);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let out = teacher.forward(&x, &y, &prompts);
        assert_eq!(out.reconstruction.dims(), &[4, 3]);
        let (_, misses) = teacher.frozen_lm().cache_stats();
        assert_eq!(misses, 0, "w/o_CLM must not touch the language model");
    }

    #[test]
    fn reconstruction_trainable() {
        let (teacher, tok, cfg) = tiny_teacher(AblationConfig::full());
        let mut rng = seeded_rng(6);
        let (x, y) = window(&mut rng);
        let prompts = render_prompts(&tok, &x, &y, &cfg);
        let params = teacher.params();
        let mut opt = timekd_nn::AdamW::new(
            0.005,
            timekd_nn::AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let before =
            timekd_nn::smooth_l1_loss(&teacher.forward(&x, &y, &prompts).reconstruction, &y).item();
        for _ in 0..40 {
            teacher.zero_grad();
            let loss =
                timekd_nn::smooth_l1_loss(&teacher.forward(&x, &y, &prompts).reconstruction, &y);
            loss.backward();
            opt.step(&params);
        }
        let after =
            timekd_nn::smooth_l1_loss(&teacher.forward(&x, &y, &prompts).reconstruction, &y).item();
        assert!(
            after < before * 0.7,
            "reconstruction did not improve: {before} -> {after}"
        );
    }
}
