//! Self-tests on reduced inputs: the metric tables match `BENCHMARK.json`
//! and every run emits them with their units, wrong outputs fail the
//! checks, and the seed changes the inputs.

use crate::outcome::{Outcome, END_TO_END, PER_LAYER};
use crate::pipeline::{self, Expect, NewInput, Verdict};
use crate::serve::{self, Launch, Shape};
use rlb_core::{assess, generate_task, EasyFlags};
use rlb_synth::BenchmarkProfile;
use rlb_util::json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Every metric of the reported table appears in the result line, with
/// its unit, and the run passed its checks.
fn assert_complete(o: &Outcome, trace: bool) {
    assert!(o.problems.is_empty(), "checks failed: {:?}", o.problems);
    assert_eq!(o.failed, 0);
    assert!(o.attempted > 0);
    let line = Value::parse(&o.result_line(trace).expect("result line")).expect("JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = line.get("metrics").expect("metrics");
    for &(name, unit) in if trace { PER_LAYER } else { END_TO_END } {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
        let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{name} = {v}");
        if !trace {
            assert!(v > 0.0, "end-to-end {name} = {v}");
        }
    }
}

/// Ds5 at half size: 225 labelled pairs, enough positives for every split.
fn small_established(seed: u64) -> Vec<BenchmarkProfile> {
    pipeline::established_inputs(seed)
        .into_iter()
        .map(|mut p| {
            p.left_size /= 2;
            p.right_size /= 2;
            p.n_matches /= 2;
            p.labeled_pairs /= 2;
            p
        })
        .collect()
}

fn small_new(seed: u64) -> Vec<NewInput> {
    pipeline::new_inputs(seed)
        .into_iter()
        .map(|mut i| {
            i.profile.left_size /= 10;
            i.profile.right_size /= 10;
            i.profile.n_matches /= 10;
            i
        })
        .collect()
}

const SMALL_SHAPE: Shape = Shape {
    traced_rounds: 3,
    max_rounds: 3,
    pairs_per_batch: 4,
    writer_links: 1,
    reader_links: 2,
    reader_ann: 1,
};

fn small_serve() -> BenchmarkProfile {
    let mut p = serve::base_profile(0);
    p.left_size /= 10;
    p.right_size /= 10;
    p.n_matches /= 10;
    p.labeled_pairs /= 10;
    p
}

#[test]
fn tables_match_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(
        names_and_units(json.get("end_to_end").unwrap()),
        table(END_TO_END)
    );
    assert_eq!(
        names_and_units(json.get("per_layer").unwrap()),
        table(PER_LAYER)
    );
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(workloads, crate::WORKLOADS);
}

#[test]
fn established_roster_emits_every_metric() {
    let profiles = small_established(0);
    assert_complete(
        &pipeline::established(&profiles, 0.0, Expect::Anything),
        false,
    );
    let traced = pipeline::established_traced(&profiles, Expect::Anything);
    assert_complete(&traced, true);
    assert!(traced.get("roster.busy_s").unwrap() > 0.0);
    assert!(traced.get("roster.slowest_s").unwrap() <= traced.get("roster.busy_s").unwrap());
}

#[test]
fn new_apriori_emits_every_metric() {
    let profiles = small_new(0);
    assert_complete(
        &pipeline::new_apriori(&profiles, 0.0, Expect::Anything),
        false,
    );
    let traced = pipeline::new_apriori_traced(&profiles, Expect::Anything);
    assert_complete(&traced, true);
    assert!(traced.get("blocking.candidates").unwrap() > 0.0);
    assert!(traced.get("complexity.distinct_share").unwrap() <= 1.0);
}

#[test]
fn serve_mixed_emits_every_metric() {
    let profile = small_serve();
    assert_complete(
        &serve::serve_mixed(&profile, SMALL_SHAPE, Launch::InProcess, false, 0.0),
        false,
    );
    let traced = serve::serve_mixed(&profile, SMALL_SHAPE, Launch::InProcess, true, 0.0);
    assert_complete(&traced, true);
    // Below the IVF training threshold an ANN link is the exact scan.
    assert_eq!(traced.get("blocking.ann_recall10"), Some(1.0));
}

fn verdict(id: &'static str) -> Verdict {
    let mut profile = small_established(0).remove(0);
    profile.id = id;
    let task = generate_task(&profile);
    let assessment = assess(&task, &[]).expect("assessment");
    Verdict {
        task,
        runs: Vec::new(),
        assessment,
    }
}

fn problems(v: &Verdict, expect: Expect) -> Vec<String> {
    let mut o = Outcome::default();
    pipeline::check_verdicts(&mut o, std::slice::from_ref(v), 1, expect);
    o.problems
}

#[test]
fn wrong_outputs_fail_the_checks() {
    let v = verdict("Small");
    assert!(problems(&v, Expect::PaperVerdicts).is_empty());

    let mut twin = verdict("Small");
    twin.assessment.linearity.f1_cosine =
        f64::from_bits(twin.assessment.linearity.f1_cosine.to_bits() + 1);
    assert!(problems(&twin, Expect::Anything)[0].contains("degree_of_linearity_string"));

    let mut twin = verdict("Small");
    twin.assessment.complexity.n1 += 1e-9;
    assert!(problems(&twin, Expect::Anything)[0].contains("compute_ragged"));

    // A Ds6 that comes out easy contradicts the paper's verdict, but only
    // the default seed promises it.
    let mut flipped = verdict("Ds6");
    flipped.assessment.flags.by_linearity = true;
    assert!(problems(&flipped, Expect::PaperVerdicts)[0].contains("challenging"));
    assert!(problems(&flipped, Expect::Anything).is_empty());

    let mut hard = verdict("Ds5");
    hard.assessment.flags = EasyFlags {
        by_linearity: false,
        by_complexity: false,
        by_nlb: false,
        by_lbm: false,
    };
    assert!(problems(&hard, Expect::PaperVerdicts)[0].contains("must be easy"));

    let mut easy = verdict("Dn3");
    easy.assessment.flags.by_linearity = false;
    easy.assessment.flags.by_complexity = false;
    assert!(problems(&easy, Expect::PaperVerdicts)[0].contains("easy a priori"));
}

#[test]
fn served_twin_mismatch_fails_the_check() {
    let script = serve::Script::new(&small_serve(), SMALL_SHAPE);
    let mut engine = rlb_serve::Engine::new("serve");
    engine.ingest(script.base.clone()).unwrap();
    let assess = Value::Obj(vec![(
        "assessment".into(),
        rlb_util::ToJson::to_json(&engine.assess().unwrap()),
    )]);
    let pairs = |skip| {
        let c = engine.link(5).candidates(5);
        Value::Arr(
            c.iter()
                .skip(skip)
                .map(|p| Value::Arr(vec![Value::Num(p.left.into()), Value::Num(p.right.into())]))
                .collect(),
        )
    };
    let link = Value::Obj(vec![("pairs".into(), pairs(0))]);
    let mut o = Outcome::default();
    serve::check_finals(&mut o, &engine, &assess, &link);
    assert!(o.problems.is_empty(), "{:?}", o.problems);

    let short_link = Value::Obj(vec![("pairs".into(), pairs(1))]);
    serve::check_finals(&mut o, &engine, &assess, &short_link);
    assert_eq!(o.problems.len(), 1);
    assert!(o.problems[0].contains("link_rebuilt"));

    // The served store lacks one batch the twin holds.
    let mut o = Outcome::default();
    engine.ingest(script.batches[0].clone()).unwrap();
    serve::check_finals(&mut o, &engine, &assess, &link);
    assert!(
        o.problems.iter().any(|p| p.contains("assess_rebuilt")),
        "{:?}",
        o.problems
    );
}

#[test]
fn seed_changes_the_inputs() {
    let paper: Vec<u64> = rlb_synth::established_profiles()
        .iter()
        .filter(|p| pipeline::ESTABLISHED.contains(&p.id))
        .map(|p| p.seed)
        .collect();
    let seeds = |ps: &[BenchmarkProfile]| ps.iter().map(|p| p.seed).collect::<Vec<_>>();
    assert_eq!(
        seeds(&pipeline::established_inputs(0)),
        paper,
        "seed 0 is the paper"
    );

    let a = generate_task(&small_established(0)[0]);
    let b = generate_task(&small_established(1)[0]);
    assert_ne!(a.left.records[0].values, b.left.records[0].values);
    // new-apriori varies the split, not the raw pair (see `new_inputs`).
    let split = |seed| {
        let input = &small_new(seed)[0];
        let raw = rlb_synth::generate_raw_pair(&input.profile);
        rlb_core::build_benchmark(&raw, &Default::default(), input.split_seed).task
    };
    let (a, b) = (split(0), split(7));
    assert_eq!(a.total_pairs(), b.total_pairs());
    assert_ne!(a.train, b.train);
    let a = serve::Script::new(&small_serve(), SMALL_SHAPE);
    let mut p = small_serve();
    p.seed ^= 3;
    let b = serve::Script::new(&p, SMALL_SHAPE);
    assert_ne!(a.base.left, b.base.left);
    assert_ne!(a.batches[0].left, b.batches[0].left);
}

#[test]
fn cpu_lists_are_counted() {
    assert_eq!(crate::cpu_list_len("0-3,6"), Some(5));
    assert_eq!(crate::cpu_list_len("1"), Some(1));
    assert_eq!(crate::cpu_list_len("3-1"), None);
    assert_eq!(crate::cpu_list_len(""), None);
}
