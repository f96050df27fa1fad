//! `train`: the user path for training. Set-up generates an ETTh1-synthetic
//! dataset and builds `TimeKd::new` (which pretrains the Base language
//! model in-process); training runs the six teacher warm-up epochs of
//! Algorithm 1, then student distillation epochs (Algorithm 2) at the
//! default micro-batch, and `evaluate` scores the test windows.
//!
//! A run repeats that whole path, each repetition on a fresh thread so it
//! meets the cold thread-local plan cache a new process would. With
//! `--trace 1` the first repetition runs untraced and the rest rebuild the
//! LM and student-epoch calls from their public parts, with a span around
//! each; they must reproduce the untraced student bit for bit.

use std::rc::Rc;
use std::time::{Duration, Instant};

use timekd::{
    plan_cache_stats, render_prompts, Forecaster, PlannedBatchTrainer, TimeKd, TimeKdConfig,
};
use timekd_data::{DatasetKind, ForecastWindow, Split, SplitDataset};
use timekd_lm::{pretrain_lm, FrozenLm, PretrainConfig, PromptTokenizer};
use timekd_nn::{AdamWConfig, Module};
use timekd_tensor::{no_grad, PlanOptimizer};

use crate::speed::Reference;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::{check, Args, Outcome};

pub const INPUT_LEN: usize = 96;
pub const HORIZON: usize = 96;
/// Series length: a 1400-step training split.
pub const DATA_STEPS: usize = 2000;
/// 1209 training windows at stride 1; stride 19 keeps 64 of them.
const TRAIN_STRIDE: usize = 19;
const TEST_STRIDE: usize = 8;
const STUDENT_EPOCHS: usize = 20;

/// The dataset every workload draws from.
pub fn dataset(seed: u64) -> SplitDataset {
    SplitDataset::new(DatasetKind::EttH1, DATA_STEPS, seed, INPUT_LEN, HORIZON)
}

fn windows(ds: &SplitDataset) -> (Vec<ForecastWindow>, Vec<ForecastWindow>) {
    (
        ds.windows(Split::Train, TRAIN_STRIDE),
        ds.windows(Split::Test, TEST_STRIDE),
    )
}

/// What one repetition measured; a traced one fills in only its
/// outputs, `train_s` and `train_steps`, its timings being spans.
#[derive(Debug, Default)]
struct Rep {
    /// At nominal speed.
    setup_s: f64,
    data_ms: f64,
    teacher_epoch_ms: Vec<f64>,
    student_epoch_ms: Vec<f64>,
    student_epoch_nominal_ms: Vec<f64>,
    train_s: f64,
    train_nominal_s: f64,
    /// Host slowness around set-up and each epoch.
    slowness: Vec<f64>,
    test_mse: f32,
    zero_mse: f32,
    student_params: Vec<f32>,
    lm_cache: (u64, u64),
    plan_cache: (u64, u64),
    trainable_params: usize,
    /// Forward, backward, update and reduce steps of the training plan.
    train_steps: [usize; 4],
    errors: Vec<String>,
}

fn student_params(model: &TimeKd) -> Vec<f32> {
    model
        .student()
        .params()
        .iter()
        .flat_map(|p| p.to_vec())
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The plain user path, as a user of the crates calls it.
fn plain_rep(seed: u64) -> Rep {
    let mut reference = Reference::default();
    let ((train, test, data_ms, mut model), setup_raw, slow) = reference.around(|| {
        let t0 = Instant::now();
        let ds = dataset(seed);
        let (train, test) = windows(&ds);
        let data_ms = ms(t0.elapsed());
        let model = TimeKd::new(TimeKdConfig::default(), INPUT_LEN, HORIZON, ds.num_vars());
        (train, test, data_ms, model)
    });
    let mut slowness = vec![slow];

    // Each epoch is timed raw and at nominal speed.
    let mut teacher_epoch_ms = Vec::new();
    let mut student_epoch_ms = Vec::new();
    let mut student_epoch_nominal_ms = Vec::new();
    let (mut train_s, mut train_nominal_s) = (0.0, 0.0);
    for _ in 0..model.config().teacher_warmup_epochs {
        let (_, raw, slow) = reference.around(|| model.train_teacher_epoch(&train));
        teacher_epoch_ms.push(raw * 1e3);
        (train_s, train_nominal_s) = (train_s + raw, train_nominal_s + raw / slow);
        slowness.push(slow);
    }
    for _ in 0..STUDENT_EPOCHS {
        let (_, raw, slow) = reference.around(|| model.train_student_epoch(&train));
        student_epoch_ms.push(raw * 1e3);
        student_epoch_nominal_ms.push(raw * 1e3 / slow);
        (train_s, train_nominal_s) = (train_s + raw, train_nominal_s + raw / slow);
        slowness.push(slow);
    }
    let (test_mse, _) = model.evaluate(&test);
    Rep {
        setup_s: setup_raw / slowness[0],
        data_ms,
        teacher_epoch_ms,
        student_epoch_ms,
        student_epoch_nominal_ms,
        train_s,
        train_nominal_s,
        slowness,
        test_mse,
        zero_mse: check::zero_forecast_mse(&test),
        student_params: student_params(&model),
        lm_cache: model.teacher().frozen_lm().cache_stats(),
        plan_cache: plan_cache_stats(),
        trainable_params: model.num_trainable_params(),
        ..Rep::default()
    }
}

/// The same path rebuilt from public parts so each layer gets a span:
/// `pretrain_lm` + `FrozenLm::new` + `TimeKd::with_frozen_lm` for
/// `TimeKd::new`, an explicit `FrozenLm::embed` of every window's prompts
/// before the first teacher epoch, and the student epoch of
/// `TimeKd::train_student_epoch` replayed through `PlannedBatchTrainer`.
fn traced_rep(seed: u64, tr: &mut Tracer) -> Rep {
    let root = tr.enter("bench", "train.rep");
    let (ds, train, test) = tr.time("data", "data.generate", || {
        let ds = dataset(seed);
        let (train, test) = windows(&ds);
        (ds, train, test)
    });
    let config = TimeKdConfig::default();
    let (tokenizer, frozen) = tr.time("lm", "lm.pretrain", || {
        let tokenizer = Rc::new(PromptTokenizer::new());
        let pretrain = PretrainConfig {
            seed: config.seed,
            ..Default::default()
        };
        let (lm, _) = pretrain_lm(&tokenizer, config.lm, pretrain);
        (tokenizer, Rc::new(FrozenLm::new(lm)))
    });
    let mut model = tr.time("timekd", "timekd.build", || {
        TimeKd::with_frozen_lm(
            frozen.clone(),
            tokenizer.clone(),
            config,
            INPUT_LEN,
            HORIZON,
            ds.num_vars(),
        )
    });
    let mut errors = Vec::new();

    let t_train = Instant::now();
    let calibrated = config.ablation.calibrated_attention;
    for w in &train {
        let prompts = tr.time("timekd", "timekd.render_prompts", || {
            render_prompts(&tokenizer, &w.x, &w.y, &config)
        });
        tr.time("lm", "lm.embed", || {
            for p in prompts.ground_truth.iter().chain(&prompts.historical) {
                frozen.embed(p, calibrated);
            }
        });
    }
    let misses_before = frozen.cache_stats().1;
    for _ in 0..config.teacher_warmup_epochs {
        tr.time("timekd", "timekd.teacher_epoch", || {
            model.train_teacher_epoch(&train)
        });
    }
    let misses_after = frozen.cache_stats().1;
    if misses_after != misses_before {
        errors.push(format!(
            "teacher epochs missed the pre-embedded LM cache {} times",
            misses_after - misses_before
        ));
    }

    // The shared optimizer clock: one step per teacher window so far.
    let mut steps = (config.teacher_warmup_epochs * train.len()) as u64;
    let batch = config.micro_batch.max(1);
    let adamw = AdamWConfig {
        weight_decay: 0.0,
        ..Default::default()
    };
    let mut trainer: Option<PlannedBatchTrainer> = None;
    for _ in 0..STUDENT_EPOCHS {
        let epoch = tr.enter("timekd", "timekd.student_epoch");
        let trainer = trainer.get_or_insert_with(|| {
            tr.time("timekd", "timekd.plan_compile", || {
                PlannedBatchTrainer::new(
                    model.student(),
                    &config,
                    PlanOptimizer::AdamW {
                        lr: config.lr,
                        beta1: adamw.beta1,
                        beta2: adamw.beta2,
                        eps: adamw.eps,
                        weight_decay: adamw.weight_decay,
                    },
                    batch,
                )
                .expect("batched student training plan compiles")
            })
        });
        for chunk in train.chunks(batch) {
            for (lane, w) in chunk.iter().enumerate() {
                let prompts = tr.time("timekd", "timekd.render_prompts", || {
                    render_prompts(model.tokenizer(), &w.x, &w.y, &config)
                });
                let t_out = tr.time("timekd", "timekd.teacher_forward", || {
                    no_grad(|| model.teacher().forward(&w.x, &w.y, &prompts))
                });
                tr.time("timekd", "timekd.stage", || {
                    trainer.stage_window(lane, &w.x, &w.y);
                    trainer.stage_teacher(lane, &t_out.attention, &t_out.embedding);
                });
            }
            trainer.set_lr(config.lr * config.lr_schedule.factor(steps));
            trainer.set_step_count(steps);
            tr.time("tensor", "tensor.run_batch", || {
                trainer.run_batch(chunk.len())
            });
            steps += 1;
        }
        tr.time("tensor", "tensor.write_back", || trainer.write_back());
        tr.exit(epoch);
    }
    let train_s = t_train.elapsed().as_secs_f64();
    let (test_mse, _) = tr.time("timekd", "timekd.evaluate", || model.evaluate(&test));
    tr.exit(root);

    let plan = trainer.as_ref().expect("at least one student epoch").plan();
    Rep {
        train_s,
        test_mse,
        zero_mse: check::zero_forecast_mse(&test),
        student_params: student_params(&model),
        train_steps: [
            plan.steps().len(),
            plan.bwd_steps().len(),
            plan.update_steps().len(),
            plan.reduce_steps().len(),
        ],
        errors,
        ..Rep::default()
    }
}

/// Runs `f` on a fresh thread and returns its result.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("repetition thread panicked"))
}

fn median_of(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

pub fn run(args: &Args) -> Outcome {
    let base = Instant::now();
    let mut out = Outcome::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new(args.trace, base, 0);
    while plain.is_empty() || (args.trace && traced.is_empty()) || base.elapsed() < args.budget() {
        if args.trace && !plain.is_empty() {
            let (rep, tr) = on_fresh_thread(|| {
                let mut tr = Tracer::new(true, base, traced.len() + 1);
                (traced_rep(args.seed, &mut tr), tr)
            });
            tracer.absorb(tr);
            traced.push(rep);
        } else {
            plain.push(on_fresh_thread(|| plain_rep(args.seed)));
            if plain.len() == 1 {
                out.set("peak_heap_mib", crate::peak_heap_mib(), "MiB");
            }
        }
    }

    // Every repetition trains on the same inputs, so each must end with
    // the first one's student and test MSE, traced or not.
    let first = &plain[0];
    for (i, rep) in plain.iter().chain(&traced).enumerate() {
        out.attempted += 1;
        let mut errors = rep.errors.clone();
        if let Err(e) = check::trained_mse(rep.test_mse, rep.zero_mse) {
            errors.push(e);
        }
        if rep.test_mse.to_bits() != first.test_mse.to_bits() {
            errors.push(format!(
                "test MSE {} differs from the first repetition's {}",
                rep.test_mse, first.test_mse
            ));
        }
        if let Err(e) = check::bitwise(&rep.student_params, &first.student_params) {
            errors.push(format!(
                "student parameters differ from the first repetition: {e}"
            ));
        }
        if !errors.is_empty() {
            out.failed += 1;
            for e in errors {
                out.fail(format!("repetition {i}: {e}"));
            }
        }
    }

    let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    out.set("setup_s", median_of(&setups), "s");
    // Warm student epochs: the first one also compiles the training plan.
    let warm_nominal: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.student_epoch_nominal_ms[1..].to_vec())
        .collect();
    let warm_raw: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.student_epoch_ms[1..].to_vec())
        .collect();
    if let Some(s) = Summary::of(&warm_nominal) {
        out.set("op_p50_ms", s.p50, "ms");
        out.set("op_tail_ms", s.tail90.1, "ms");
        println!(
            "op = one warm student epoch: n={} p50={:.3} ms p{}={:.3} ms at nominal speed",
            s.n, s.p50, s.tail90.0, s.tail90.1
        );
    }
    let epochs = (first.teacher_epoch_ms.len() + first.student_epoch_ms.len()) as f64;
    let rates: Vec<f64> = plain.iter().map(|r| epochs / r.train_nominal_s).collect();
    out.set("ops_per_s", median_of(&rates), "1/s");
    let train_s: Vec<f64> = plain.iter().map(|r| r.train_s).collect();
    out.set("train_s", median_of(&train_s), "s");
    out.set("student_epoch_ms", median_of(&warm_raw), "ms");
    out.set("test_mse", f64::from(first.test_mse), "1");
    out.set("train.repetitions", plain.len() as f64, "count");
    let slowness: Vec<f64> = plain.iter().flat_map(|r| r.slowness.clone()).collect();
    out.set("host.slowness", median_of(&slowness), "1");

    out.set(
        "data.generate_ms",
        median_of(&plain.iter().map(|r| r.data_ms).collect::<Vec<_>>()),
        "ms",
    );
    let (hits, misses) = first.lm_cache;
    out.set("lm.cache_hits", hits as f64, "count");
    out.set("lm.cache_misses", misses as f64, "count");
    out.set("lm.cache_lookups", (hits + misses) as f64, "count");
    out.set(
        "lm.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "1",
    );
    out.set(
        "timekd.teacher_epoch_first_ms",
        first.teacher_epoch_ms[0],
        "ms",
    );
    out.set(
        "timekd.teacher_epoch_ms",
        median_of(&first.teacher_epoch_ms[1..]),
        "ms",
    );
    out.set("timekd.plan_compiles", first.plan_cache.1 as f64, "count");
    out.set("timekd.plan_cache_hits", first.plan_cache.0 as f64, "count");
    out.set(
        "timekd.trainable_params",
        first.trainable_params as f64,
        "count",
    );
    out.set("timekd.test_mse", f64::from(first.test_mse), "1");

    if let Some(t) = traced.first() {
        let spans = tracer.spans();
        let med = |name: &str| median_of(&trace::durations_ms(spans, name));
        let per_epoch =
            |name: &str| median_of(&trace::per_parent_ms(spans, "timekd.student_epoch", name));
        let per_rep = |name: &str| median_of(&trace::per_parent_ms(spans, "train.rep", name));
        out.set("lm.pretrain_s", med("lm.pretrain") / 1e3, "s");
        out.set("lm.embed_ms", per_rep("lm.embed"), "ms");
        out.set(
            "timekd.render_prompts_ms",
            per_epoch("timekd.render_prompts"),
            "ms",
        );
        out.set(
            "timekd.teacher_forward_ms",
            per_epoch("timekd.teacher_forward"),
            "ms",
        );
        out.set("timekd.stage_ms", per_epoch("timekd.stage"), "ms");
        out.set("timekd.plan_compile_ms", med("timekd.plan_compile"), "ms");
        out.set("tensor.run_batch_ms", per_epoch("tensor.run_batch"), "ms");
        for (name, v) in [
            "tensor.train_fwd_steps",
            "tensor.train_bwd_steps",
            "tensor.train_update_steps",
            "tensor.train_reduce_steps",
        ]
        .into_iter()
        .zip(t.train_steps)
        {
            out.set(name, v as f64, "count");
        }
        let traced_s = median_of(&traced.iter().map(|r| r.train_s).collect::<Vec<_>>());
        out.set(
            "obs.trace_overhead_pct",
            100.0 * (traced_s / first.train_s - 1.0),
            "%",
        );
    }
    out.spans = tracer.into_spans();
    out
}
