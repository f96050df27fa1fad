//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|predict|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric by name with its unit, checks every output, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md for the workloads and metrics.

mod check;
mod predict;
mod serve;
mod speed;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use timekd_bench::PeakAlloc;
use timekd_obs::json::Json;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

/// Peak live heap of the process so far, in MiB. Workloads read it once
/// set-up and warm-up are done, before the timed phase grows the
/// benchmark's own sample buffers.
pub fn peak_heap_mib() -> f64 {
    ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// `--trace 0`. Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload with
/// `--trace 1`; a layer a workload does not reach reads 0. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("data.generate_ms", "ms"),
    ("lm.pretrain_s", "s"),
    ("lm.embed_ms", "ms"),
    ("lm.cache_hits", "count"),
    ("lm.cache_misses", "count"),
    ("lm.cache_lookups", "count"),
    ("lm.cache_hit_ratio", "1"),
    ("timekd.teacher_epoch_first_ms", "ms"),
    ("timekd.teacher_epoch_ms", "ms"),
    ("timekd.render_prompts_ms", "ms"),
    ("timekd.teacher_forward_ms", "ms"),
    ("timekd.stage_ms", "ms"),
    ("timekd.plan_compile_ms", "ms"),
    ("timekd.plan_compiles", "count"),
    ("timekd.plan_cache_hits", "count"),
    ("timekd.trainable_params", "count"),
    ("timekd.test_mse", "1"),
    ("tensor.run_batch_ms", "ms"),
    ("tensor.train_fwd_steps", "count"),
    ("tensor.train_bwd_steps", "count"),
    ("tensor.train_update_steps", "count"),
    ("tensor.train_reduce_steps", "count"),
    ("tensor.predict_steps", "count"),
    ("tensor.predict_flops", "count"),
    ("tensor.predict_bytes", "B"),
    ("tensor.arena_f32", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.registry_load_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.window_forecast_p50_ms", "ms"),
    ("serve.window_forecast_p99_ms", "ms"),
    ("serve.tenant_forecast_p50_ms", "ms"),
    ("serve.tenant_forecast_p99_ms", "ms"),
    ("serve.observe_p50_ms", "ms"),
    ("serve.observe_p99_ms", "ms"),
    ("serve.route_forecast_p50_ms", "ms"),
    ("serve.outside_route_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.batched_requests", "count"),
    ("serve.batch_occupancy", "1"),
    ("self.data_ms", "ms"),
    ("self.lm_ms", "ms"),
    ("self.timekd_ms", "ms"),
    ("self.tensor_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.self_sum_pct", "%"),
    ("trace.spans", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("host.slowness", "1"),
];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (the unit is the workload's own).
    pub attempted: u64,
    pub failed: u64,
    /// Reasons of failed output checks.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in measurement order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Closed spans of the traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Records a failed check; `failed` counts operations, so callers
    /// bump it themselves.
    pub fn fail(&mut self, reason: String) {
        if self.errors.len() < 20 {
            self.errors.push(reason);
        }
    }

    /// Self-time metrics per layer from the recorded spans.
    fn add_trace_metrics(&mut self) {
        let by_layer = trace::layer_self_ms(&self.spans);
        for (layer, name) in [
            ("data", "self.data_ms"),
            ("lm", "self.lm_ms"),
            ("timekd", "self.timekd_ms"),
            ("tensor", "self.tensor_ms"),
            ("serve", "self.serve_ms"),
            ("bench", "self.bench_ms"),
        ] {
            self.set(name, by_layer.get(layer).copied().unwrap_or(0.0), "ms");
        }
        let pct = trace::self_sum_pct(&self.spans);
        self.set("trace.self_sum_pct", pct, "%");
        self.set("trace.spans", self.spans.len() as f64, "count");
        if !(90.0..=110.0).contains(&pct) {
            self.fail(format!(
                "layer self times add up to {pct:.1}% of the traced wall time"
            ));
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number {v}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(num(&value)?),
                "--seconds" => seconds = Some(num(&value)?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["train", "predict", "serve"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Where results and traces go: `.bench_out/` under the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// The host and build facts a result must be read with.
fn fingerprint(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        (
            "hardware_threads",
            timekd_tensor::parallel::hardware_threads().to_string(),
        ),
        (
            "TIMEKD_THREADS",
            std::env::var("TIMEKD_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "configured_threads",
            timekd_tensor::parallel::configured_threads().to_string(),
        ),
        ("fma", cfg!(target_feature = "fma").to_string()),
        ("avx2", cfg!(target_feature = "avx2").to_string()),
        ("avx512f", cfg!(target_feature = "avx512f").to_string()),
    ]
}

/// `{"value": …, "unit": …}`, with every digit of the value; a value that
/// is not finite reads `null`.
fn metric_json(value: f64, unit: &str) -> Json {
    let value = if value.is_finite() {
        Json::num(value)
    } else {
        Json::Null
    };
    Json::obj(vec![("value", value), ("unit", Json::str(unit))])
}

fn write_outputs(args: &Args, out: &Outcome, host: &[(&str, String)]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let host = host.iter().map(|(k, v)| (*k, Json::str(v.as_str())));
    let metrics = out.metrics.iter().map(|&(n, v, u)| (n, metric_json(v, u)));
    let doc = Json::obj(vec![
        ("host", Json::obj(host.collect())),
        ("metrics", Json::obj(metrics.collect())),
    ]);
    std::fs::write(dir.join(format!("result-{stem}.json")), doc.render())?;
    if args.trace {
        std::fs::write(
            dir.join(format!("trace-{stem}.jsonl")),
            trace::render_jsonl(&out.spans),
        )?;
    }
    Ok(())
}

/// The last stdout line the benchmark contract asks for.
fn result_line(out: &Outcome, trace: bool) -> String {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| (name, metric_json(out.get(name).unwrap_or(0.0), unit)));
    let doc = Json::obj(vec![
        (
            "correct",
            Json::Bool(out.errors.is_empty() && out.failed == 0),
        ),
        ("attempted", Json::num(out.attempted.max(1) as f64)),
        ("failed", Json::num(out.failed as f64)),
        ("metrics", Json::obj(metrics.collect())),
    ]);
    // The renderer puts every value on a line of its own and no string
    // here holds a line break, so joining the trimmed lines is exact.
    doc.render().lines().map(str::trim).collect()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train|predict|serve> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let host = fingerprint(&args);
    let host_line: Vec<String> = host.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host {}", host_line.join(" "));

    let mut out = match args.workload.as_str() {
        "train" => train::run(&args),
        "predict" => predict::run(&args),
        _ => serve::run(&args, &out_dir()),
    };
    if args.trace {
        out.add_trace_metrics();
    }
    for (name, _) in END_TO_END {
        if out.get(name).is_none() {
            out.fail(format!("end-to-end metric {name} was not measured"));
        }
    }

    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "ops attempted {} succeeded {} failed {}",
        out.attempted,
        out.attempted - out.failed.min(out.attempted),
        out.failed
    );
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    if let Err(e) = write_outputs(&args, &out, &host) {
        eprintln!(
            "perfbench: writing results under {}: {e}",
            out_dir().display()
        );
    }
    println!("wall {:.3} s", started.elapsed().as_secs_f64());
    println!("{}", result_line(&out, args.trace));
    if out.errors.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload train --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload train --seed 1 --seconds 1").is_err());
        assert!(parse("--workload train --seed x --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn result_line_reports_exactly_the_listed_metrics() {
        let mut out = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        for (name, unit) in END_TO_END {
            out.set(name, 1.5, unit);
        }
        out.set("serve.batches", 3.0, "count");
        let doc = Json::parse(&result_line(&out, false)).expect("JSON line");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = Json::parse(&result_line(&out, true)).expect("JSON line");
        let batches = traced.get("metrics").and_then(|m| m.get("serve.batches"));
        assert_eq!(batches.and_then(|b| b.get("value")), Some(&Json::Num(3.0)));
        out.failed = 1;
        let failed = Json::parse(&result_line(&out, false)).expect("JSON line");
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }
}
