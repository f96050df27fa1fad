//! Design-choice ablation: the frozen-CLM **embedding cache** (paper
//! §IV-B2, "to avoid repetitive processing with the frozen CLMs, we store
//! the subtracted embeddings").
//!
//! Times three `train_epoch` calls per arm, with the LM cache enabled
//! (`cache=true`) and disabled (`cache=false`):
//! - epoch 1 runs the teacher warm-up (Algorithm 1) and the first student
//!   epoch. Every teacher epoch embeds every window's prompts, so this is
//!   where the arms differ: with the cache, the first warm-up epoch fills
//!   it on the worker pool and later ones are LM hits; without it, the
//!   fill does nothing and each epoch re-runs the LM one prompt at a time.
//! - epochs 2 and 3 are student epochs only. They stage the teacher's
//!   targets stored by epoch 1 (`TimeKd::teacher_target_stats` counts
//!   hits), so neither arm calls the LM there and their times should
//!   match. The LM-cache columns, cumulative over both arms, do not move
//!   after epoch 1; the teacher-target columns count per model.
//!
//! Run: `cargo bench -p timekd-bench --bench ablation_cache`

use std::time::Instant;

use timekd::{Forecaster, TimeKd};
use timekd_bench::{secs, Profile, ResultTable, SharedLm};
use timekd_data::{DatasetKind, SplitDataset};
use timekd_lm::LmSize;

fn main() {
    let profile = Profile::from_env();
    let shared = SharedLm::pretrain(LmSize::Base, &profile);
    let horizon = 96;
    let ds = SplitDataset::new(
        DatasetKind::EttM1,
        profile.num_steps(horizon),
        42,
        profile.input_len,
        horizon,
    );
    let windows = timekd_bench::run_windows(&ds, &profile, 1.0);

    let mut table = ResultTable::new(
        "Design ablation: frozen-CLM embedding cache",
        &[
            "cache",
            "epoch",
            "train time",
            "cache hits",
            "cache misses",
            "target hits",
            "target misses",
        ],
    );

    for enabled in [true, false] {
        shared.frozen.clear_cache();
        shared.frozen.set_caching(enabled);
        let cfg = timekd_bench::timekd_config(&profile, &shared, ds.kind().freq_minutes());
        let mut model = TimeKd::with_frozen_lm(
            shared.frozen.clone(),
            shared.tokenizer.clone(),
            cfg,
            ds.input_len(),
            ds.horizon(),
            ds.num_vars(),
        );
        for epoch in 1..=3 {
            let t0 = Instant::now();
            model.train_epoch(&windows.train);
            let dt = t0.elapsed().as_secs_f64();
            let (hits, misses) = shared.frozen.cache_stats();
            let (target_hits, target_misses) = model.teacher_target_stats();
            eprintln!(
                "[ablation_cache] cache={enabled} epoch {epoch}: {} (hits {hits}, misses {misses}, \
                 target hits {target_hits}, target misses {target_misses})",
                secs(dt)
            );
            table.push_row(vec![
                enabled.to_string(),
                epoch.to_string(),
                secs(dt),
                hits.to_string(),
                misses.to_string(),
                target_hits.to_string(),
                target_misses.to_string(),
            ]);
        }
    }
    shared.frozen.set_caching(true);

    table.print();
    match table.save_csv("ablation_cache") {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("csv save failed: {e}"),
    }
}
