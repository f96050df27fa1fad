//! TimeKD end-to-end: teacher + student + PKD, jointly optimised per
//! Eq. 30 and Algorithms 1–2.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use timekd_data::{ForecastWindow, WindowPrompts};
use timekd_lm::{pretrain_lm, FrozenLm, PretrainConfig, PromptTokenizer};
use timekd_nn::{clip_grad_norm, smooth_l1_loss, AdamW, AdamWConfig, Module};
use timekd_tensor::{seeded_rng, PlanOptimizer, Tensor};

use crate::config::TimeKdConfig;
use crate::distill::pkd_losses;
use crate::forecaster::Forecaster;
use crate::plan::PlannedBatchTrainer;
use crate::student::Student;
use crate::teacher::{render_prompts, CrossModalityTeacher};

/// Loss breakdown of one training epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Mean total loss (Eq. 30).
    pub total: f32,
    /// Mean reconstruction loss `L_recon`, unscaled by `λ_recon`.
    pub reconstruction: f32,
    /// Mean correlation distillation loss `L_cd`.
    pub correlation: f32,
    /// Mean feature distillation loss `L_fd`.
    pub feature: f32,
    /// Mean forecasting loss `L_fcst`.
    pub forecast: f32,
}

/// The full TimeKD model: a cross-modality teacher distilled into a
/// lightweight student. Construct with [`TimeKd::new`] (pretrains a fresh
/// CLM) or [`TimeKd::with_frozen_lm`] (shares one across models — the
/// pattern the experiment harness uses).
pub struct TimeKd {
    config: TimeKdConfig,
    tokenizer: Rc<PromptTokenizer>,
    teacher: CrossModalityTeacher,
    student: Student,
    optimizer: AdamW,
    warmup_done: bool,
    /// The batched planned student trainer, built lazily on the first
    /// student epoch and reused for every following one (it owns the
    /// fused AdamW moment state, so it must survive across epochs). It is
    /// rebuilt when the student's weights change under it.
    planned: Option<PlannedBatchTrainer>,
    /// The teacher's distillation targets, stored per window by the
    /// planned student epoch.
    targets: TeacherTargets,
}

/// The frozen teacher's distillation targets, stored per training window:
/// the teacher's outputs are *stored* privileged information (§IV-B2), so
/// a student epoch after the first stages them instead of re-rendering the
/// prompts and re-running the teacher.
///
/// An entry is served only while both of these hold:
/// - every trainable teacher parameter is bitwise equal to the snapshot
///   taken when the store was filled. The check runs at the start of each
///   epoch rather than in a `&mut` hook, because [`load_checkpoint`]
///   writes teacher weights through `&TimeKd`;
/// - the window's `x` and `y` are bitwise equal to the stored copy. A
///   digest finds the entry and a full compare decides the hit, as in
///   [`FrozenLm::embed`].
///
/// Entries an epoch did not touch are dropped when it ends, so the store
/// never holds more than one epoch's windows: per window `N² + N·D` target
/// floats plus `(L + M)·N` key floats. The frozen LM is assumed immutable,
/// as its embedding cache already assumes.
///
/// [`load_checkpoint`]: crate::load_checkpoint
#[derive(Default)]
struct TeacherTargets {
    /// Every trainable teacher parameter, concatenated, when filled.
    teacher: Vec<f32>,
    entries: HashMap<u64, TargetEntry>,
    /// The current epoch; entries stamped with an older one are evicted.
    epoch: u64,
    hits: u64,
    misses: u64,
}

struct TargetEntry {
    x: Vec<f32>,
    y: Vec<f32>,
    attention: Tensor,
    embedding: Tensor,
    epoch: u64,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn window_digest(x: &[f32], y: &[f32]) -> u64 {
    let mut h = DefaultHasher::new();
    x.len().hash(&mut h);
    for v in x.iter().chain(y) {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

impl TeacherTargets {
    /// Opens an epoch, dropping every entry if a teacher parameter changed
    /// since the store was filled.
    fn begin_epoch(&mut self, teacher: &[Tensor]) {
        self.epoch += 1;
        let mut off = 0;
        let unchanged = teacher.iter().all(|p| {
            let data = p.data();
            let end = off + data.len();
            let same = self
                .teacher
                .get(off..end)
                .is_some_and(|s| same_bits(s, &data));
            off = end;
            same
        }) && off == self.teacher.len();
        if !unchanged {
            self.entries.clear();
            self.teacher = teacher.iter().flat_map(|p| p.to_vec()).collect();
        }
    }

    /// The targets of window `(x, y)`: stored ones on a hit, otherwise
    /// `teacher()`'s `(attention, embedding)`, which are then stored.
    fn get(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        teacher: impl FnOnce() -> (Tensor, Tensor),
    ) -> &TargetEntry {
        let (x, y) = (x.data(), y.data());
        let entry = match self.entries.entry(window_digest(&x, &y)) {
            Entry::Occupied(e) if same_bits(&e.get().x, &x) && same_bits(&e.get().y, &y) => {
                self.hits += 1;
                e.into_mut()
            }
            slot => {
                self.misses += 1;
                let (attention, embedding) = teacher();
                slot.insert_entry(TargetEntry {
                    x: x.to_vec(),
                    y: y.to_vec(),
                    attention,
                    embedding,
                    epoch: 0,
                })
                .into_mut()
            }
        };
        entry.epoch = self.epoch;
        entry
    }

    /// Closes the epoch, dropping every entry it did not touch.
    fn end_epoch(&mut self) {
        let epoch = self.epoch;
        self.entries.retain(|_, e| e.epoch == epoch);
    }
}

impl TimeKd {
    /// Builds TimeKD with an internally pretrained CLM.
    pub fn new(config: TimeKdConfig, input_len: usize, horizon: usize, num_vars: usize) -> TimeKd {
        let tokenizer = Rc::new(PromptTokenizer::new());
        let (lm, _report) = pretrain_lm(
            &tokenizer,
            config.lm,
            PretrainConfig {
                seed: config.seed,
                ..Default::default()
            },
        );
        Self::with_frozen_lm(
            Rc::new(FrozenLm::new(lm)),
            tokenizer,
            config,
            input_len,
            horizon,
            num_vars,
        )
    }

    /// Builds TimeKD around an existing frozen language model.
    pub fn with_frozen_lm(
        frozen_lm: Rc<FrozenLm>,
        tokenizer: Rc<PromptTokenizer>,
        config: TimeKdConfig,
        input_len: usize,
        horizon: usize,
        num_vars: usize,
    ) -> TimeKd {
        let mut rng = seeded_rng(config.seed);
        let teacher = CrossModalityTeacher::new(frozen_lm, config, input_len, horizon, &mut rng);
        let student = Student::new(&config, input_len, horizon, num_vars, &mut rng);
        let optimizer = AdamW::new(
            config.lr,
            AdamWConfig {
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        TimeKd {
            config,
            tokenizer,
            teacher,
            student,
            optimizer,
            warmup_done: false,
            planned: None,
            targets: TeacherTargets::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &TimeKdConfig {
        &self.config
    }

    /// The student (inference) model.
    pub fn student(&self) -> &Student {
        &self.student
    }

    /// The teacher model.
    pub fn teacher(&self) -> &CrossModalityTeacher {
        &self.teacher
    }

    /// The prompt tokenizer.
    pub fn tokenizer(&self) -> &PromptTokenizer {
        &self.tokenizer
    }

    /// (hits, misses) of the stored teacher targets so far: each planned
    /// student epoch counts one per window.
    pub fn teacher_target_stats(&self) -> (u64, u64) {
        (self.targets.hits, self.targets.misses)
    }

    fn prompts_for(&self, w: &ForecastWindow) -> WindowPrompts {
        render_prompts(&self.tokenizer, &w.x, &w.y, &self.config)
    }

    /// Applies the configured LR schedule for the upcoming optimizer step.
    fn apply_lr_schedule(&mut self) {
        let factor = self.config.lr_schedule.factor(self.optimizer.steps());
        self.optimizer.set_lr(self.config.lr * factor);
    }

    /// All trainable parameters (teacher heads + student; CLM excluded).
    pub fn trainable_params(&self) -> Vec<Tensor> {
        let mut v = self.teacher.params();
        v.extend(self.student.params());
        v
    }

    /// Frozen-parameter invariant (Eqs. 18–30): the calibrated LM must
    /// stay frozen while PKD trains the teacher heads and student —
    /// no backward pass may accumulate a gradient into an LM parameter,
    /// and the optimizer must never have stepped one.
    ///
    /// Called after every backward in the training loops; panics with the
    /// offending parameter's identity on violation.
    pub fn assert_frozen_lm_invariant(&self) {
        for p in self.teacher.frozen_lm().model().params() {
            assert!(
                !p.has_grad(),
                "frozen LM parameter #{} {} accumulated a gradient: the CLM must stay \
                 frozen during PKD training",
                p.id(),
                p.shape()
            );
            assert!(
                !self.optimizer.has_stepped(p.id()),
                "optimizer stepped frozen LM parameter #{} {}",
                p.id(),
                p.shape()
            );
        }
    }

    /// **Algorithm 1**: one pass training the cross-modality teacher on
    /// the reconstruction objective (Eq. 16), scaled by `λ_recon`. Returns
    /// the mean unscaled `L_recon`.
    ///
    /// The epoch first fills the frozen LM's cache with every prompt its
    /// windows look up ([`CrossModalityTeacher::fill_lm_cache`]), so a cold
    /// epoch runs the LM across the worker pool rather than one prompt at
    /// a time; once the cache is warm the fill only checks it.
    pub fn train_teacher_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        let _span = timekd_obs::span("epoch.teacher");
        assert!(!windows.is_empty(), "no training windows");
        let params = self.teacher.params();
        let prompts: Vec<WindowPrompts> = windows.iter().map(|w| self.prompts_for(w)).collect();
        self.teacher.fill_lm_cache(&prompts);
        let mut total = 0.0f32;
        for (w, prompts) in windows.iter().zip(&prompts) {
            for p in &params {
                p.zero_grad();
            }
            let out = self.teacher.forward(&w.x, &w.y, prompts);
            let recon = smooth_l1_loss(&out.reconstruction, &w.y);
            total += recon.item();
            recon.mul_scalar(self.config.lambda_recon).backward();
            self.assert_frozen_lm_invariant();
            clip_grad_norm(&params, self.config.grad_clip);
            self.apply_lr_schedule();
            self.optimizer.step(&params);
        }
        total / windows.len() as f32
    }

    /// **Algorithm 2** + Eq. 29: one pass training the student on
    /// `λ_p·(λ_c·L_cd + λ_e·L_fd) + λ_f·L_fcst` against the (frozen for
    /// this pass) teacher's privileged outputs. The teacher runs only for
    /// windows whose targets are not stored yet, or whose stored targets a
    /// changed teacher parameter or window tensor made stale.
    ///
    /// The whole step — forward, backward, gradient reduction, clipping,
    /// fused AdamW — replays a compiled batched training plan
    /// ([`PlannedBatchTrainer`]): windows are processed in micro-batches
    /// of [`TimeKdConfig::micro_batch`] with one optimizer step per batch.
    /// At `micro_batch == 1` (the default) this is bitwise identical to
    /// the dynamic per-window loop
    /// ([`train_student_epoch_dynamic`](Self::train_student_epoch_dynamic)),
    /// which stays as the equivalence oracle.
    pub fn train_student_epoch(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        let batch = self.config.micro_batch.max(1);
        // A student whose weights no longer match the trainer's copy was
        // written since the last epoch, e.g. by a checkpoint load: bind a
        // fresh trainer to it, as a model newly loaded from that checkpoint
        // gets.
        if self
            .planned
            .as_ref()
            .is_some_and(|t| t.batch() != batch || !t.params_in_sync())
        {
            self.planned = None;
        }
        let mut trainer = match self.planned.take() {
            Some(t) => t,
            None => {
                // Mirror the dynamic optimizer exactly: AdamW at the base
                // LR with decoupled weight decay disabled.
                let cfg = AdamWConfig {
                    weight_decay: 0.0,
                    ..Default::default()
                };
                PlannedBatchTrainer::new(
                    &self.student,
                    &self.config,
                    PlanOptimizer::AdamW {
                        lr: self.config.lr,
                        beta1: cfg.beta1,
                        beta2: cfg.beta2,
                        eps: cfg.eps,
                        weight_decay: cfg.weight_decay,
                    },
                    batch,
                )
                .unwrap_or_else(|e| panic!("batched student training plan: {e}"))
            }
        };
        let mut agg = EpochStats {
            total: 0.0,
            reconstruction: 0.0,
            correlation: 0.0,
            feature: 0.0,
            forecast: 0.0,
        };
        self.targets.begin_epoch(&self.teacher.params());
        for chunk in windows.chunks(batch) {
            let count = chunk.len();
            for (lane, w) in chunk.iter().enumerate() {
                let t_out = self.targets.get(&w.x, &w.y, || {
                    let prompts = render_prompts(&self.tokenizer, &w.x, &w.y, &self.config);
                    // Teacher provides targets only: no graph, no update.
                    let out = timekd_tensor::no_grad(|| self.teacher.forward(&w.x, &w.y, &prompts));
                    (out.attention, out.embedding)
                });
                trainer.stage_window(lane, &w.x, &w.y);
                let _stage = timekd_obs::span("pkd.stage");
                trainer.stage_teacher(lane, &t_out.attention, &t_out.embedding);
            }
            let lr = self.config.lr * self.config.lr_schedule.factor(self.optimizer.steps());
            self.optimizer.set_lr(lr);
            trainer.set_lr(lr);
            trainer.set_step_count(self.optimizer.steps());
            {
                let _batch = timekd_obs::span("plan.student_batch");
                trainer.run_batch(count);
            }
            self.optimizer.note_external_step();
            self.assert_frozen_lm_invariant();
            for lane in 0..count {
                agg.total += trainer.lane_total(lane);
                agg.correlation += trainer.lane_correlation(lane);
                agg.feature += trainer.lane_feature(lane);
                agg.forecast += trainer.lane_forecast(lane);
            }
        }
        self.targets.end_epoch();
        trainer.write_back();
        self.planned = Some(trainer);
        let k = windows.len() as f32;
        agg.total /= k;
        agg.correlation /= k;
        agg.feature /= k;
        agg.forecast /= k;
        agg
    }

    /// The dynamic per-window reference implementation of
    /// [`train_student_epoch`](Self::train_student_epoch): one graph
    /// build, backward, clip, and optimizer step per window. Kept as the
    /// equivalence oracle for the planned path. Calling it invalidates
    /// any live planned trainer (its bound parameters would go stale), so
    /// use one path per model instance when comparing.
    pub fn train_student_epoch_dynamic(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let _span = timekd_obs::span("epoch.student");
        assert!(!windows.is_empty(), "no training windows");
        self.planned = None;
        let params = self.student.params();
        let mut agg = EpochStats {
            total: 0.0,
            reconstruction: 0.0,
            correlation: 0.0,
            feature: 0.0,
            forecast: 0.0,
        };
        for w in windows {
            for p in &params {
                p.zero_grad();
            }
            let prompts = self.prompts_for(w);
            // Teacher provides targets only: no graph, no teacher update.
            let teacher_out = timekd_tensor::no_grad(|| self.teacher.forward(&w.x, &w.y, &prompts));
            let student_out = self.student.forward(&w.x);
            let pkd = pkd_losses(
                &teacher_out.attention,
                &teacher_out.embedding,
                &student_out.attention,
                &student_out.embedding,
                &self.config,
            );
            let fcst = smooth_l1_loss(&student_out.forecast, &w.y);
            let loss = pkd
                .combined
                .mul_scalar(self.config.lambda_pkd)
                .add(&fcst.mul_scalar(self.config.lambda_fcst));
            agg.total += loss.item();
            agg.correlation += pkd.correlation.item();
            agg.feature += pkd.feature.item();
            agg.forecast += fcst.item();
            loss.backward();
            self.assert_frozen_lm_invariant();
            clip_grad_norm(&params, self.config.grad_clip);
            self.apply_lr_schedule();
            self.optimizer.step(&params);
        }
        let k = windows.len() as f32;
        agg.total /= k;
        agg.correlation /= k;
        agg.feature /= k;
        agg.forecast /= k;
        agg
    }

    /// One full TimeKD epoch: teacher reconstruction pass (Alg. 1) then
    /// student distillation + forecasting pass (Alg. 2). Returns the loss
    /// breakdown with the teacher's reconstruction loss included: unscaled
    /// in `reconstruction`, as `λ_recon·L_recon` in `total`.
    pub fn train_epoch_detailed(&mut self, windows: &[ForecastWindow]) -> EpochStats {
        let recon = if !self.warmup_done {
            // Algorithm 1: train the teacher to convergence once. Its
            // outputs are then *stored* privileged information (§IV-B2) —
            // a stationary distillation target for every student epoch.
            let mut last = f32::INFINITY;
            for _ in 0..self.config.teacher_warmup_epochs.max(1) {
                last = self.train_teacher_epoch(windows);
            }
            self.warmup_done = true;
            last
        } else {
            0.0
        };
        let mut stats = self.train_student_epoch(windows);
        stats.reconstruction = recon;
        stats.total += recon * self.config.lambda_recon;
        stats
    }

    /// Teacher vs student attention maps for one window (Fig. 8).
    pub fn attention_maps(&self, w: &ForecastWindow) -> (Tensor, Tensor) {
        timekd_tensor::no_grad(|| {
            let prompts = self.prompts_for(w);
            let t = self.teacher.forward(&w.x, &w.y, &prompts);
            let s = self.student.forward(&w.x);
            (t.attention, s.attention)
        })
    }

    /// Teacher vs student self-relation feature matrices `E·Eᵀ` (Fig. 9).
    pub fn feature_maps(&self, w: &ForecastWindow) -> (Tensor, Tensor) {
        timekd_tensor::no_grad(|| {
            let prompts = self.prompts_for(w);
            let t = self.teacher.forward(&w.x, &w.y, &prompts);
            let s = self.student.forward(&w.x);
            let tg = t.embedding.matmul(&t.embedding.transpose_last());
            let sg = s.embedding.matmul(&s.embedding.transpose_last());
            (tg, sg)
        })
    }
}

impl Forecaster for TimeKd {
    fn name(&self) -> String {
        self.config.ablation.label().to_string()
    }

    fn train_epoch(&mut self, windows: &[ForecastWindow]) -> f32 {
        self.train_epoch_detailed(windows).total
    }

    fn predict(&self, x: &Tensor) -> Tensor {
        self.student.predict(x)
    }

    /// Counts what the paper counts: everything updated by
    /// backpropagation (teacher heads + student), excluding the frozen LM.
    fn num_trainable_params(&self) -> usize {
        self.trainable_params()
            .iter()
            .map(Tensor::num_elements)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekd_data::{DatasetKind, Split, SplitDataset};
    use timekd_lm::{LmConfig, LmSize};

    #[allow(clippy::field_reassign_with_default)]
    fn tiny_config() -> TimeKdConfig {
        let mut cfg = TimeKdConfig::default();
        cfg.dim = 16;
        cfg.ffn_hidden = 32;
        cfg.num_heads = 2;
        cfg.lm = LmConfig::for_size(LmSize::Small);
        cfg.prompt.max_history = 4;
        cfg.prompt.max_future = 4;
        cfg.lr = 3e-3;
        cfg
    }

    fn tiny_model() -> (TimeKd, SplitDataset) {
        let ds = SplitDataset::new(DatasetKind::EttH1, 600, 7, 24, 8);
        let tokenizer = Rc::new(PromptTokenizer::new());
        let cfg = tiny_config();
        let (lm, _) = pretrain_lm(
            &tokenizer,
            cfg.lm,
            PretrainConfig {
                steps: 3,
                ..Default::default()
            },
        );
        let model = TimeKd::with_frozen_lm(
            Rc::new(FrozenLm::new(lm)),
            tokenizer,
            cfg,
            24,
            8,
            ds.num_vars(),
        );
        (model, ds)
    }

    #[test]
    fn training_improves_validation() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let val: Vec<_> = ds.windows(Split::Val, 8);
        let (mse0, _) = model.evaluate(&val);
        for _ in 0..3 {
            model.train_epoch(&train);
        }
        let (mse1, _) = model.evaluate(&val);
        assert!(mse1 < mse0, "val MSE {mse0} -> {mse1}");
    }

    #[test]
    fn loss_breakdown_all_terms_active() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let stats = model.train_epoch_detailed(&train[..2.min(train.len())]);
        assert!(stats.reconstruction > 0.0);
        assert!(stats.correlation >= 0.0);
        assert!(stats.feature > 0.0);
        assert!(stats.forecast > 0.0);
        let expected = stats.reconstruction + stats.correlation + stats.feature + stats.forecast;
        // λ all 1.0 here, but the stats are averaged after stepping, so
        // just check total is in the right ballpark.
        assert!(stats.total > 0.0 && stats.total <= expected * 1.5);
    }

    #[test]
    fn clm_cache_populated_once() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let subset = &train[..3.min(train.len())];
        model.train_epoch(subset);
        let (_, misses1) = model.teacher().frozen_lm().cache_stats();
        model.train_epoch(subset);
        let (_, misses2) = model.teacher().frozen_lm().cache_stats();
        assert_eq!(misses1, misses2, "epoch 2 must be all cache hits");
    }

    #[test]
    fn attention_and_feature_maps_shapes() {
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Test, 32)[0];
        let n = ds.num_vars();
        let (ta, sa) = model.attention_maps(w);
        assert_eq!(ta.dims(), &[n, n]);
        assert_eq!(sa.dims(), &[n, n]);
        let (tf, sf) = model.feature_maps(w);
        assert_eq!(tf.dims(), &[n, n]);
        assert_eq!(sf.dims(), &[n, n]);
    }

    #[test]
    fn predict_matches_student() {
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Test, 32)[0];
        let a = model.predict(&w.x);
        let b = model.student().predict(&w.x);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn param_count_excludes_frozen_lm() {
        let (model, _ds) = tiny_model();
        let lm_params: usize = model.teacher().frozen_lm().model().num_params();
        let trainable = model.num_trainable_params();
        assert!(trainable > 0);
        // The trainable set must not include the LM (it is larger than the
        // teacher heads + student at these sizes).
        let all_teacher_student: usize = model
            .trainable_params()
            .iter()
            .map(Tensor::num_elements)
            .sum();
        assert_eq!(trainable, all_teacher_student);
        let _ = lm_params; // documented exclusion
    }

    #[test]
    fn lr_schedule_decays_learning_rate() {
        let (mut model, ds) = tiny_model();
        let mut cfg = *model.config();
        cfg.lr_schedule = timekd_nn::LrSchedule::WarmupCosine {
            warmup: 2,
            total: 10,
            min_factor: 0.01,
        };
        model.config = cfg;
        let train: Vec<_> = ds.windows(Split::Train, 64);
        model.train_epoch(&train[..3.min(train.len())]);
        // After many steps the live LR must sit well below the base LR.
        assert!(
            model.optimizer.lr() < cfg.lr * 0.5,
            "lr = {}",
            model.optimizer.lr()
        );
    }

    #[test]
    fn frozen_lm_invariant_holds_through_training() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        model.train_epoch(&train[..2.min(train.len())]);
        model.assert_frozen_lm_invariant();
    }

    #[test]
    #[should_panic(expected = "frozen LM parameter")]
    fn frozen_lm_invariant_trips_on_injected_grad() {
        let (model, _ds) = tiny_model();
        // Fault injection: pretend a backward pass leaked into the CLM.
        let p = &model.teacher().frozen_lm().model().params()[0];
        p.accumulate_grad(&vec![1.0; p.num_elements()]);
        model.assert_frozen_lm_invariant();
    }

    #[test]
    fn training_graph_audits_clean() {
        // A full student loss graph must satisfy every structural
        // invariant GraphAudit checks, and span all three model layers.
        let (model, ds) = tiny_model();
        let w = &ds.windows(Split::Train, 64)[0];
        let out = model.student().forward(&w.x);
        let loss = smooth_l1_loss(&out.forecast, &w.y);
        let audit = timekd_tensor::GraphAudit::run(&loss);
        assert!(audit.is_clean(), "{}", audit.report());
        assert!(audit.stats.params > 10, "{}", audit.report());
        assert!(audit.stats.max_depth > 5, "{}", audit.report());
    }

    fn epoch_bits(s: &EpochStats) -> [u32; 5] {
        [
            s.total.to_bits(),
            s.reconstruction.to_bits(),
            s.correlation.to_bits(),
            s.feature.to_bits(),
            s.forecast.to_bits(),
        ]
    }

    fn student_param_bits(model: &TimeKd) -> Vec<Vec<u32>> {
        model
            .student
            .params()
            .iter()
            .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn planned_student_epoch_is_bitwise_identical_to_dynamic() {
        // The batched planned path at micro_batch = 1 must reproduce the
        // dynamic per-window loop bit for bit — losses, per-component
        // stats, and every student parameter — at any thread count.
        let (mut reference, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..5.min(train.len())];
        let dyn_stats = reference.train_student_epoch_dynamic(subset);
        let dyn_params = student_param_bits(&reference);
        for threads in [1, 2, 5] {
            let (mut m, _) = tiny_model();
            let stats =
                timekd_tensor::parallel::with_threads(threads, || m.train_student_epoch(subset));
            assert_eq!(
                epoch_bits(&stats),
                epoch_bits(&dyn_stats),
                "epoch stats diverge at {threads} threads"
            );
            assert_eq!(
                student_param_bits(&m),
                dyn_params,
                "student params diverge at {threads} threads"
            );
        }
    }

    #[test]
    fn batched_student_epoch_is_thread_invariant_with_uneven_tail() {
        // micro_batch = 5 over 7 windows: one full batch + a 2-window
        // tail, replayed data-parallel. The pinned window-indexed
        // reduction order must make every thread count bitwise agree.
        let run = |threads: usize| {
            let (mut m, ds) = tiny_model();
            let mut cfg = *m.config();
            cfg.micro_batch = 5;
            m.config = cfg;
            let train: Vec<_> = ds.windows(Split::Train, 16);
            let subset = &train[..7.min(train.len())];
            let stats =
                timekd_tensor::parallel::with_threads(threads, || m.train_student_epoch(subset));
            (epoch_bits(&stats), student_param_bits(&m))
        };
        let baseline = run(1);
        for threads in [2, 5] {
            assert_eq!(run(threads), baseline, "diverges at {threads} threads");
        }
    }

    /// A planned student epoch that recomputes every teacher target: the
    /// store is emptied first, so each window misses.
    fn recomputed_epoch(m: &mut TimeKd, windows: &[ForecastWindow]) -> EpochStats {
        m.targets = TeacherTargets::default();
        let stats = m.train_student_epoch(windows);
        assert_eq!(m.teacher_target_stats(), (0, windows.len() as u64));
        stats
    }

    /// Runs one planned epoch on `cached` and a recomputing one on its twin
    /// `oracle`, requires bitwise equal stats and student parameters, and
    /// returns the (hits, misses) `cached`'s epoch added.
    fn epoch_against_recompute(
        cached: &mut TimeKd,
        oracle: &mut TimeKd,
        windows: &[ForecastWindow],
    ) -> (u64, u64) {
        let (h0, m0) = cached.teacher_target_stats();
        let stats = cached.train_student_epoch(windows);
        let (h1, m1) = cached.teacher_target_stats();
        assert_eq!(
            epoch_bits(&stats),
            epoch_bits(&recomputed_epoch(oracle, windows)),
            "epoch stats diverge from a recompute"
        );
        assert_eq!(
            student_param_bits(cached),
            student_param_bits(oracle),
            "student params diverge from a recompute"
        );
        (h1 - h0, m1 - m0)
    }

    #[test]
    fn planned_epochs_with_stored_targets_are_bitwise_identical_to_oracle() {
        // Three epochs, so the later two are served from the store. At
        // micro_batch 1 the oracle is the dynamic per-window loop; at
        // micro_batch 5 (a 5 + 2 tail) no dynamic loop steps per batch, so
        // the oracle is the planned epoch recomputing every teacher target.
        for micro_batch in [1, 5] {
            for threads in [1, 2, 5] {
                let (mut cached, ds) = tiny_model();
                let (mut oracle, _) = tiny_model();
                cached.config.micro_batch = micro_batch;
                oracle.config.micro_batch = micro_batch;
                let train: Vec<_> = ds.windows(Split::Train, 16);
                let subset = &train[..7];
                for epoch in 0..3 {
                    let (stats, want) = timekd_tensor::parallel::with_threads(threads, || {
                        let stats = cached.train_student_epoch(subset);
                        let want = if micro_batch == 1 {
                            oracle.train_student_epoch_dynamic(subset)
                        } else {
                            recomputed_epoch(&mut oracle, subset)
                        };
                        (stats, want)
                    });
                    let at = format!("epoch {epoch}, micro_batch {micro_batch}, {threads} threads");
                    assert_eq!(epoch_bits(&stats), epoch_bits(&want), "stats: {at}");
                    assert_eq!(
                        student_param_bits(&cached),
                        student_param_bits(&oracle),
                        "params: {at}"
                    );
                }
                assert_eq!(cached.teacher_target_stats(), (14, 7));
            }
        }
    }

    #[test]
    fn teacher_targets_stored_once() {
        let (mut model, ds) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let subset = &train[..3];
        model.train_student_epoch(subset);
        assert_eq!(model.teacher_target_stats(), (0, 3));
        let lm_misses = model.teacher().frozen_lm().cache_stats();
        model.train_student_epoch(subset);
        assert_eq!(
            model.teacher_target_stats(),
            (3, 3),
            "epoch 2 must be all stored-target hits"
        );
        assert_eq!(
            model.teacher().frozen_lm().cache_stats(),
            lm_misses,
            "a stored-target hit must not reach the LM"
        );
    }

    #[test]
    fn teacher_epoch_invalidates_stored_targets() {
        let (mut cached, ds) = tiny_model();
        let (mut oracle, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..4];
        epoch_against_recompute(&mut cached, &mut oracle, subset);
        cached.train_teacher_epoch(subset);
        oracle.train_teacher_epoch(subset);
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, subset),
            (0, 4)
        );
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, subset),
            (4, 0)
        );
    }

    #[test]
    fn checkpoint_load_through_shared_ref_invalidates_stored_targets() {
        let (mut cached, ds) = tiny_model();
        let (mut oracle, _) = tiny_model();
        let (mut other, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..4];
        epoch_against_recompute(&mut cached, &mut oracle, subset);
        // `other` ends with the same student but a further-trained teacher,
        // so loading it changes only teacher weights.
        other.train_student_epoch(subset);
        other.train_teacher_epoch(subset);
        assert_eq!(student_param_bits(&other), student_param_bits(&cached));
        let blob = crate::save_checkpoint(&other);
        for m in [&cached, &oracle] {
            crate::load_checkpoint(m, &mut blob.clone()).unwrap();
        }
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, subset),
            (0, 4)
        );
    }

    #[test]
    fn window_changed_in_place_misses_stored_target() {
        let (mut cached, ds) = tiny_model();
        let (mut oracle, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..4];
        epoch_against_recompute(&mut cached, &mut oracle, subset);
        let shifted: Vec<f32> = subset[2].x.to_vec().iter().map(|v| v + 0.25).collect();
        subset[2].x.update_data(|d| d.copy_from_slice(&shifted));
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, subset),
            (3, 1)
        );
    }

    #[test]
    fn digest_collision_misses_stored_target() {
        // Plant window 0's entry under window 1's digest, as if the two
        // collided: the full compare must refuse it and recompute.
        let (mut cached, ds) = tiny_model();
        let (mut oracle, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..2];
        epoch_against_recompute(&mut cached, &mut oracle, subset);
        let digest = |w: &ForecastWindow| window_digest(&w.x.data(), &w.y.data());
        let entries = &mut cached.targets.entries;
        let planted = entries.remove(&digest(&subset[0])).unwrap();
        entries.insert(digest(&subset[1]), planted);
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, subset),
            (0, 2)
        );
    }

    #[test]
    fn disjoint_window_set_evicts_stored_targets() {
        let (mut cached, ds) = tiny_model();
        let (mut oracle, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let (first, second) = (&train[..4], &train[4..7]);
        epoch_against_recompute(&mut cached, &mut oracle, first);
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, second),
            (0, 3)
        );
        let stored = &cached.targets.entries;
        assert_eq!(stored.len(), second.len());
        for e in stored.values() {
            assert!(
                second
                    .iter()
                    .any(|w| same_bits(&e.x, &w.x.data()) && same_bits(&e.y, &w.y.data())),
                "the store kept a window of the first set"
            );
        }
        assert_eq!(
            epoch_against_recompute(&mut cached, &mut oracle, first),
            (0, 4)
        );
    }

    fn teacher_param_bits(model: &TimeKd) -> Vec<Vec<u32>> {
        model
            .teacher
            .params()
            .iter()
            .map(|p| p.to_vec().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn teacher_epochs_with_cache_fill_match_uncached_oracle() {
        // The oracle runs with the LM cache off, so every lookup is a
        // sequential forward and the fill does nothing. Filled epochs at
        // any thread count must train the teacher to the same bits.
        let (mut oracle, ds) = tiny_model();
        oracle.teacher.frozen_lm().set_caching(false);
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..4];
        let want: Vec<u32> = (0..2)
            .map(|_| oracle.train_teacher_epoch(subset).to_bits())
            .collect();
        let lookups = 2 * subset.len() as u64 * ds.num_vars() as u64;
        for threads in [1, 2, 5] {
            let (mut m, _) = tiny_model();
            let got: Vec<u32> = timekd_tensor::parallel::with_threads(threads, || {
                (0..2)
                    .map(|_| m.train_teacher_epoch(subset).to_bits())
                    .collect()
            });
            assert_eq!(got, want, "losses at {threads} threads");
            assert_eq!(
                teacher_param_bits(&m),
                teacher_param_bits(&oracle),
                "teacher params at {threads} threads"
            );
            let lm = m.teacher().frozen_lm();
            assert_eq!(
                lm.cache_stats(),
                (2 * lookups, lm.cache_len() as u64),
                "one forward per distinct prompt, every lookup a hit"
            );
        }
    }

    #[test]
    fn student_checkpoint_loaded_between_planned_epochs_is_trained_from() {
        let (mut live, ds) = tiny_model();
        let (mut fresh, _) = tiny_model();
        let (mut other, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let subset = &train[..4];
        // `other` differs from `live` in its student only.
        other.train_student_epoch(subset);
        other.train_student_epoch(subset);
        let blob = crate::save_checkpoint(&other);

        live.train_student_epoch(subset);
        crate::load_checkpoint(&live, &mut blob.clone()).unwrap();
        assert_eq!(student_param_bits(&live), student_param_bits(&other));
        let stats = live.train_student_epoch(subset);

        // A teacher epoch brings `fresh`'s optimizer clock level with
        // `live`'s without touching its student; the load then replaces
        // the teacher it trained.
        fresh.train_teacher_epoch(subset);
        assert_eq!(fresh.optimizer.steps(), subset.len() as u64);
        crate::load_checkpoint(&fresh, &mut blob.clone()).unwrap();
        let want = fresh.train_student_epoch(subset);
        assert_eq!(epoch_bits(&stats), epoch_bits(&want));
        assert_eq!(student_param_bits(&live), student_param_bits(&fresh));
    }

    #[test]
    fn reconstruction_is_reported_unscaled_and_weighted_once() {
        let with_lambda = || {
            let (mut m, ds) = tiny_model();
            m.config.lambda_recon = 0.5;
            m.config.teacher_warmup_epochs = 1;
            (m, ds)
        };
        let (mut joint, ds) = with_lambda();
        let (mut split, _) = with_lambda();
        let (probe, _) = with_lambda();
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let w = &train[0];
        let unscaled = timekd_tensor::no_grad(|| {
            let out = probe.teacher.forward(&w.x, &w.y, &probe.prompts_for(w));
            smooth_l1_loss(&out.reconstruction, &w.y).item()
        });
        let stats = joint.train_epoch_detailed(std::slice::from_ref(w));
        assert_eq!(stats.reconstruction.to_bits(), unscaled.to_bits());
        let recon = split.train_teacher_epoch(std::slice::from_ref(w));
        let student = split.train_student_epoch(std::slice::from_ref(w));
        assert_eq!(recon.to_bits(), unscaled.to_bits());
        assert_eq!(
            stats.total.to_bits(),
            (student.total + 0.5 * unscaled).to_bits(),
            "total must carry λ_recon·L_recon exactly once"
        );
    }

    #[test]
    fn batched_epoch_still_improves_validation() {
        let (mut model, ds) = tiny_model();
        let mut cfg = *model.config();
        cfg.micro_batch = 4;
        model.config = cfg;
        let train: Vec<_> = ds.windows(Split::Train, 16);
        let val: Vec<_> = ds.windows(Split::Val, 8);
        let (mse0, _) = model.evaluate(&val);
        for _ in 0..3 {
            model.train_epoch(&train);
        }
        let (mse1, _) = model.evaluate(&val);
        assert!(mse1 < mse0, "val MSE {mse0} -> {mse1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut m1, ds) = tiny_model();
        let (mut m2, _) = tiny_model();
        let train: Vec<_> = ds.windows(Split::Train, 64);
        let subset = &train[..2.min(train.len())];
        let l1 = m1.train_epoch(subset);
        let l2 = m2.train_epoch(subset);
        assert_eq!(l1, l2);
    }
}
