//! `predict`: offline forecasting at batch size 1, the paper's inference
//! protocol. A `PlannedStudent` of the `train` geometry runs
//! `predict_into` on one test window per call; the plan executor and its
//! kernels do almost all of the work.
//!
//! Set-up (dataset, `Student::new`, `PlannedStudent::new`) runs several
//! times, each on a thread that has not compiled a plan yet, so every
//! set-up pays the plan compile a new process pays.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use timekd::{plan_cache_stats, PlannedStudent, Student, TimeKdConfig};
use timekd_data::{ForecastWindow, Split};
use timekd_tensor::plan::{Plan, PlanOp};
use timekd_tensor::seeded_rng;

use crate::speed::Reference;
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};
use crate::train::{dataset, HORIZON, INPUT_LEN};
use crate::{check, Args, Outcome};

/// Set-ups per run; all but the last are timed and dropped.
const SETUPS: usize = 41;
/// Calls per timed chunk; traced runs alternate untraced and traced chunks.
const CHUNK: usize = 500;
/// Every this many calls, the output is kept for the check.
const CHECK_EVERY: usize = 97;
/// Untimed calls after set-up.
const WARMUP: usize = 200;

/// The model every `predict` and `serve` run forecasts with: the default
/// TimeKD student at the `train` geometry, initialised from the
/// configuration's fixed seed.
pub fn student(num_vars: usize) -> (Student, TimeKdConfig) {
    let config = TimeKdConfig::default();
    let mut rng = seeded_rng(config.seed);
    let student = Student::new(&config, INPUT_LEN, HORIZON, num_vars, &mut rng);
    (student, config)
}

struct Setup {
    test: Vec<ForecastWindow>,
    student: Student,
    planned: PlannedStudent,
}

fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let test = tr.time("data", "data.generate", || {
        dataset(seed).windows(Split::Test, 1)
    });
    let num_vars = test[0].x.dims()[1];
    let (student, config) = tr.time("timekd", "timekd.student_new", || student(num_vars));
    let planned = tr.time("timekd", "timekd.plan_compile", || {
        PlannedStudent::new(&student, &config).expect("student forecast plan compiles")
    });
    Setup {
        test,
        student,
        planned,
    }
}

/// Multiply-adds count two. Element-wise ops count one per output
/// element, reductions one per input element; copies count none.
fn step_flops(plan: &Plan, op: &PlanOp, inputs: &[usize], output: usize) -> u64 {
    let len = |v: usize| plan.values()[v].len() as u64;
    let dims = |v: usize| &plan.values()[v].dims;
    match *op {
        PlanOp::Matmul2d => {
            let (a, b) = (dims(inputs[0]), dims(inputs[1]));
            2 * (a[0] * a[1] * b[1]) as u64
        }
        PlanOp::FusedAttention { heads, tq, tk, dh } => {
            let (h, q, k, d) = (heads as u64, tq as u64, tk as u64, dh as u64);
            // Scores and context products, plus exp, sum and divide.
            4 * h * q * k * d + 3 * h * q * k
        }
        PlanOp::FusedAttentionMap { heads, tq, tk, dh } => {
            let (h, q, k, d) = (heads as u64, tq as u64, tk as u64, dh as u64);
            // Scores, softmax, and the head average.
            2 * h * q * k * d + 4 * h * q * k
        }
        PlanOp::Reshape | PlanOp::Permute(_) => 0,
        PlanOp::SumAxis { .. } | PlanOp::Sum | PlanOp::ColMean => len(inputs[0]),
        PlanOp::ColStd { .. } => 3 * len(inputs[0]),
        _ => len(output),
    }
}

/// `(steps, flops, bytes)` of one forecast, computed from the plan's value
/// shapes: bytes count every step's f32 operands and result once.
pub fn plan_cost(plan: &Plan) -> (u64, u64, u64) {
    let mut flops = 0;
    let mut bytes = 0;
    for s in plan.steps() {
        flops += step_flops(plan, &s.op, &s.inputs, s.output);
        let elems: usize = s
            .inputs
            .iter()
            .chain([&s.output])
            .map(|&v| plan.values()[v].len())
            .sum();
        bytes += 4 * elems as u64;
    }
    (plan.steps().len() as u64, flops, bytes)
}

pub fn run(args: &Args) -> Outcome {
    let base = Instant::now();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(args.trace, base, 0);
    let mut reference = Reference::default();

    // Set-up seconds at nominal speed; all but the last set-up run on
    // fresh threads and are dropped.
    let mut setups: Vec<f64> = (1..SETUPS)
        .map(|_| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let (_, raw, slow) = Reference::default()
                        .around(|| setup(args.seed, &mut Tracer::new(false, base, 0)));
                    raw / slow
                })
                .join()
                .expect("set-up thread panicked")
            })
        })
        .collect();
    let root = tracer.enter("bench", "predict.setup");
    let (setup, raw, slow) = reference.around(|| setup(args.seed, &mut tracer));
    tracer.exit(root);
    setups.push(raw / slow);
    let Setup {
        test,
        student,
        mut planned,
    } = setup;
    let (cache_hits, compiles) = plan_cache_stats();

    // The call sequence: seeded random test windows.
    let mut rng = seeded_rng(args.seed);
    let order: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..test.len())).collect();
    let mut buf = vec![0.0f32; planned.horizon() * planned.num_vars()];
    for &w in &order[..WARMUP] {
        planned.predict_into(&test[w].x, &mut buf);
    }
    out.set("peak_heap_mib", crate::peak_heap_mib(), "MiB");

    // Latencies in µs: raw, at nominal speed, and raw in traced chunks.
    let mut raw_us = Vec::new();
    let mut nominal_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut slowness = Vec::new();
    let mut chunk_us = Vec::with_capacity(CHUNK);
    let mut kept: Vec<(usize, Vec<f32>)> = Vec::new();
    let (mut calls, mut raw_s, mut nominal_s) = (0usize, 0.0, 0.0);
    let mut before = reference.host_slowness();
    let t_loop = Instant::now();
    let mut traced_chunk = false;
    while calls == 0 || t_loop.elapsed() < args.budget() {
        let chunk = traced_chunk.then(|| tracer.enter("bench", "predict.chunk"));
        chunk_us.clear();
        let t_chunk = Instant::now();
        for _ in 0..CHUNK {
            let w = order[calls % order.len()];
            let x = &test[w].x;
            let t = Instant::now();
            if traced_chunk {
                tracer.time("tensor", "tensor.predict_into", || {
                    planned.predict_into(x, &mut buf)
                });
            } else {
                planned.predict_into(x, &mut buf);
            }
            chunk_us.push(t.elapsed().as_secs_f64() * 1e6);
            black_box(&mut buf);
            if calls % CHECK_EVERY == 0 {
                kept.push((w, buf.clone()));
            }
            calls += 1;
        }
        let wall = t_chunk.elapsed().as_secs_f64();
        if let Some(c) = chunk {
            tracer.exit(c);
        }
        let after = reference.host_slowness();
        let slow = (before + after) / 2.0;
        before = after;
        if traced_chunk {
            traced_us.extend_from_slice(&chunk_us);
        } else {
            raw_us.extend_from_slice(&chunk_us);
            nominal_us.extend(chunk_us.iter().map(|t| t / slow));
            slowness.push(slow);
            raw_s += wall;
            nominal_s += wall / slow;
        }
        traced_chunk = args.trace && !traced_chunk;
    }

    // Kept outputs must equal the dynamic student's forecast bit for bit.
    let mut oracle: HashMap<usize, Vec<f32>> = HashMap::new();
    out.attempted = calls as u64;
    for (w, got) in &kept {
        let want = oracle
            .entry(*w)
            .or_insert_with(|| student.predict(&test[*w].x).to_vec());
        if let Err(e) = check::bitwise(got, want) {
            out.failed += 1;
            out.fail(format!("planned forecast of test window {w}: {e}"));
        }
    }
    println!(
        "checked {} of {calls} forecasts against the dynamic student ({} windows)",
        kept.len(),
        oracle.len()
    );

    out.set("setup_s", median(&setups).unwrap_or(0.0), "s");
    if let (Some(s), Some(raw)) = (Summary::of(&nominal_us), Summary::of(&raw_us)) {
        out.set("op_p50_ms", s.p50 / 1e3, "ms");
        out.set("op_tail_ms", s.tail90.1 / 1e3, "ms");
        out.set("predict_p50_us", raw.p50, "us");
        out.set("predict_p99_us", raw.tail.1, "us");
        println!(
            "op = one predict_into: n={} p50={:.2} us p{}={:.2} us at nominal speed (raw p50={:.2} us p{}={:.2} us)",
            s.n, s.p50, s.tail90.0, s.tail90.1, raw.p50, raw.tail.0, raw.tail.1
        );
    }
    out.set("ops_per_s", raw_us.len() as f64 / nominal_s, "1/s");
    out.set("predict_windows_per_s", raw_us.len() as f64 / raw_s, "1/s");
    out.set("host.slowness", median(&slowness).unwrap_or(0.0), "1");

    let (steps, flops, bytes) = plan_cost(planned.plan());
    out.set("tensor.predict_steps", steps as f64, "count");
    out.set("tensor.predict_flops", flops as f64, "count");
    out.set("tensor.predict_bytes", bytes as f64, "B");
    out.set(
        "tensor.arena_f32",
        planned.plan().arena_len() as f64,
        "count",
    );
    out.set("timekd.plan_compiles", compiles as f64, "count");
    out.set("timekd.plan_cache_hits", cache_hits as f64, "count");
    if args.trace {
        let spans = tracer.spans();
        let med = |name: &str| median(&trace::durations_ms(spans, name)).unwrap_or(0.0);
        out.set("data.generate_ms", med("data.generate"), "ms");
        out.set("timekd.plan_compile_ms", med("timekd.plan_compile"), "ms");
        if let (Some(t), Some(p)) = (median(&traced_us), median(&raw_us)) {
            out.set("obs.trace_overhead_pct", 100.0 * (t / p - 1.0), "%");
        }
    }
    out.spans = tracer.into_spans();
    out
}
