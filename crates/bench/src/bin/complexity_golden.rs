//! Golden complexity values for the paper's 21 tasks.
//!
//! Builds the 13 established tasks (`generate_task`) and the 8 new ones
//! (`build_benchmark` with the experiment runner's split seed,
//! `profile.seed ^ 0x5EED`) at their paper seeds, scores every labelled
//! pair as `[CS, JS]`, runs [`rlb_complexity::compute_cs_js`] with the
//! default configuration, and writes one JSON object per task: `points`
//! (labelled pairs), `cells` (distinct `(CS, JS, label)` cells of the full
//! candidate set) and the 17 measure values at round-trip precision.
//!
//! ```text
//! cargo run --release --offline -p rlb-bench --bin complexity_golden -- [out.json]
//! ```
//!
//! The default output is `ci/complexity_golden.json`. CI regenerates the
//! file and compares it with the committed one at zero tolerance:
//!
//! ```text
//! rlb-metrics-diff ci/complexity_golden.json current.json --tol 'tasks.*=0'
//! ```
//!
//! The build does not read or write the experiment result cache.

use std::collections::HashSet;

use rlb_blocking::TunerConfig;
use rlb_complexity::ComplexityConfig;
use rlb_core::{build_benchmark, TaskViewCache};
use rlb_data::MatchingTask;
use rlb_synth::{established_profiles, generate_raw_pair, generate_task, raw_pair_profiles};
use rlb_util::json::Value;

/// Format fingerprint of the golden file; `rlb-metrics-diff` refuses to
/// compare files whose fingerprints differ.
const FINGERPRINT: &str = "rlb-complexity-golden-v1";

/// Distinct `(CS, JS, label)` cells; `-0.0` and `+0.0` are one value.
fn cell_count(scores: &[[f64; 2]], labels: &[bool]) -> usize {
    let key = |v: f64| (v + 0.0).to_bits();
    let cells: HashSet<(u64, u64, bool)> = scores
        .iter()
        .zip(labels)
        .map(|(&[cs, js], &y)| (key(cs), key(js), y))
        .collect();
    cells.len()
}

fn task_entry(task: &MatchingTask) -> (String, Value) {
    let views = TaskViewCache::build(task);
    let pairs: Vec<rlb_data::LabeledPair> = task.all_pairs().copied().collect();
    let scores = rlb_util::par::par_map(&pairs, |lp| views.cs_js(lp.pair));
    let labels: Vec<bool> = pairs.iter().map(|lp| lp.is_match).collect();
    let report = rlb_complexity::compute_cs_js(&scores, &labels, &ComplexityConfig::default())
        .unwrap_or_else(|e| panic!("{}: complexity failed: {e}", task.name));
    let cells = cell_count(&scores, &labels);
    rlb_obs::info!(
        "[golden] {}: {} points, {cells} cells, mean {:.4}",
        task.name,
        pairs.len(),
        report.mean()
    );
    let mut fields = vec![
        ("points".to_string(), Value::Num(pairs.len() as f64)),
        ("cells".to_string(), Value::Num(cells as f64)),
    ];
    fields.extend(
        report
            .values()
            .into_iter()
            .map(|(name, v)| (name.to_string(), Value::Num(v))),
    );
    (task.name.clone(), Value::Obj(fields))
}

fn main() {
    rlb_obs::init();
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ci/complexity_golden.json".to_string());
    let tuner = TunerConfig::default();
    let mut tasks: Vec<MatchingTask> =
        rlb_util::par::par_map(&established_profiles(), generate_task);
    tasks.extend(rlb_util::par::par_map(&raw_pair_profiles(), |profile| {
        let raw = generate_raw_pair(profile);
        build_benchmark(&raw, &tuner, profile.seed ^ 0x5EED).task
    }));
    // One task at a time: each complexity run already uses every worker.
    let entries: Vec<(String, Value)> = tasks.iter().map(task_entry).collect();
    let doc = Value::Obj(vec![
        ("fingerprint".to_string(), Value::Str(FINGERPRINT.into())),
        ("tasks".to_string(), Value::Obj(entries)),
    ]);
    std::fs::write(&out, doc.to_json_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out} ({} tasks)", tasks.len());
}
