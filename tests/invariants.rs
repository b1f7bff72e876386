//! Property-based tests over the core invariants of the difficulty
//! framework: similarity bounds, threshold-sweep optimality, metric
//! identities, and distance-space properties.
//!
//! Each test draws a fixed number of random cases from a seeded in-tree
//! [`Prng`], so failures are reproducible from the case index alone and the
//! suite needs no external property-testing framework.

use rlb_matchers::esde::sweep_threshold;
use rlb_ml::metrics::{confusion, f1_score};
use rlb_textsim::sets::{cosine, dice, jaccard, overlap};
use rlb_textsim::{intern, IdSet, TokenInterner, TokenSet};
use rlb_util::Prng;

/// Cases per property — comparable to a small proptest budget while keeping
/// the suite fast.
const CASES: usize = 256;

/// A random lowercase word of 1..=6 letters.
fn word(rng: &mut Prng) -> String {
    (0..rng.range(1, 7))
        .map(|_| (b'a' + rng.index(26) as u8) as char)
        .collect()
}

/// A random token vector of `lo..hi` words.
fn token_vec(rng: &mut Prng, lo: usize, hi: usize) -> Vec<String> {
    (0..rng.range(lo, hi)).map(|_| word(rng)).collect()
}

/// A random string over an alphabet, up to `max` chars (may be empty).
fn text(rng: &mut Prng, alphabet: &[u8], max: usize) -> String {
    (0..rng.index(max + 1))
        .map(|_| *rng.choose(alphabet) as char)
        .collect()
}

// --- token-set similarities -----------------------------------------------

#[test]
fn similarities_bounded_and_symmetric() {
    let mut rng = Prng::seed_from_u64(0x51_01);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 0, 12));
        let tb = TokenSet::new(token_vec(&mut rng, 0, 12));
        for f in [cosine, jaccard, dice, overlap] {
            let ab = f(&ta, &tb);
            let ba = f(&tb, &ta);
            assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
            assert!((ab - ba).abs() < 1e-12, "case {case}: {ab} vs {ba}");
        }
    }
}

#[test]
fn similarity_ordering() {
    // jaccard <= dice <= overlap and jaccard <= cosine <= overlap.
    let mut rng = Prng::seed_from_u64(0x51_02);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 0, 12));
        let tb = TokenSet::new(token_vec(&mut rng, 0, 12));
        let (j, d, c, o) = (
            jaccard(&ta, &tb),
            dice(&ta, &tb),
            cosine(&ta, &tb),
            overlap(&ta, &tb),
        );
        assert!(j <= d + 1e-12, "case {case}: j {j} d {d}");
        assert!(d <= o + 1e-12, "case {case}: d {d} o {o}");
        assert!(j <= c + 1e-12, "case {case}: j {j} c {c}");
        assert!(c <= o + 1e-12, "case {case}: c {c} o {o}");
    }
}

#[test]
fn identity_similarity_is_one() {
    let mut rng = Prng::seed_from_u64(0x51_03);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 1, 12));
        for f in [cosine, jaccard, dice, overlap] {
            assert!((f(&ta, &ta) - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

// --- interned twin (IdSet vs TokenSet) ------------------------------------

/// Bit-for-bit equality of every interned similarity with its string twin,
/// for one pair of token multisets.
fn assert_twin_equal(va: &[String], vb: &[String], interner: &mut TokenInterner, case: usize) {
    let ta = TokenSet::new(va.iter().cloned());
    let tb = TokenSet::new(vb.iter().cloned());
    let ia = IdSet::from_tokens(interner, va.iter());
    let ib = IdSet::from_tokens(interner, vb.iter());
    assert_eq!(ia.len(), ta.len(), "case {case}");
    assert_eq!(
        ia.intersection_size(&ib),
        ta.intersection_size(&tb),
        "case {case}"
    );
    assert_eq!(ia.union_size(&ib), ta.union_size(&tb), "case {case}");
    let pairs: [(f64, f64); 4] = [
        (intern::cosine(&ia, &ib), cosine(&ta, &tb)),
        (intern::jaccard(&ia, &ib), jaccard(&ta, &tb)),
        (intern::dice(&ia, &ib), dice(&ta, &tb)),
        (intern::overlap(&ia, &ib), overlap(&ta, &tb)),
    ];
    for (id_sim, str_sim) in pairs {
        assert_eq!(
            id_sim.to_bits(),
            str_sim.to_bits(),
            "case {case}: {id_sim} vs {str_sim}"
        );
    }
}

#[test]
fn interned_similarities_match_string_twin_bitwise() {
    // One interner across all cases: sets drawn later reuse earlier ids,
    // exercising dictionary hits as well as misses. Sizes 0..12 cover the
    // empty and degenerate sets explicitly.
    let mut rng = Prng::seed_from_u64(0x51_0C);
    let mut interner = TokenInterner::new();
    for case in 0..CASES {
        let va = token_vec(&mut rng, 0, 12);
        let vb = token_vec(&mut rng, 0, 12);
        assert_twin_equal(&va, &vb, &mut interner, case);
    }
}

#[test]
fn interned_similarities_match_on_skewed_sizes() {
    // Large size ratios route intersection through the galloping path; the
    // result must still match the string merge join exactly.
    let mut rng = Prng::seed_from_u64(0x51_0D);
    let mut interner = TokenInterner::new();
    for case in 0..64 {
        let small = token_vec(&mut rng, 0, 4);
        // 200..320 random short words — many duplicates of the small side's
        // vocabulary, so intersections are non-trivial.
        let mut large = token_vec(&mut rng, 200, 320);
        large.extend(small.iter().cloned());
        assert_twin_equal(&small, &large, &mut interner, case);
        assert_twin_equal(&large, &small, &mut interner, case);
    }
}

// --- edit similarities ----------------------------------------------------

#[test]
fn edit_similarities_bounded() {
    let alphabet: Vec<u8> = (b'a'..=b'z')
        .chain(b'A'..=b'Z')
        .chain(b'0'..=b'9')
        .chain([b' '])
        .collect();
    let mut rng = Prng::seed_from_u64(0x51_04);
    for case in 0..CASES {
        let a = text(&mut rng, &alphabet, 12);
        let b = text(&mut rng, &alphabet, 12);
        for f in [
            rlb_textsim::edit::levenshtein,
            rlb_textsim::edit::jaro,
            rlb_textsim::edit::jaro_winkler,
        ] {
            let v = f(&a, &b);
            assert!((0.0..=1.0).contains(&v), "case {case}: {a:?} vs {b:?}: {v}");
        }
    }
}

#[test]
fn levenshtein_triangle_inequality() {
    use rlb_textsim::edit::levenshtein_distance as lev;
    let alphabet: Vec<u8> = (b'a'..=b'z').collect();
    let mut rng = Prng::seed_from_u64(0x51_05);
    for case in 0..CASES {
        let a = text(&mut rng, &alphabet, 8);
        let b = text(&mut rng, &alphabet, 8);
        let c = text(&mut rng, &alphabet, 8);
        assert!(
            lev(&a, &c) <= lev(&a, &b) + lev(&b, &c),
            "case {case}: {a:?} {b:?} {c:?}"
        );
    }
}

// --- threshold sweep (Algorithms 1 & 2 inner loop) ------------------------

#[test]
fn sweep_threshold_is_optimal_over_grid() {
    let mut rng = Prng::seed_from_u64(0x51_06);
    for case in 0..CASES {
        let n = rng.range(1, 60);
        let scores: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let (best_f1, best_t) = sweep_threshold(&scores, &labels);
        assert!((0.0..=1.0).contains(&best_f1), "case {case}");
        // No grid threshold beats the reported best.
        for step in 1..100 {
            let t = step as f64 / 100.0;
            let preds: Vec<bool> = scores.iter().map(|&s| t <= s).collect();
            assert!(
                f1_score(&preds, &labels) <= best_f1 + 1e-12,
                "case {case} t {t}"
            );
        }
        // The reported threshold reproduces the reported F1.
        if best_f1 > 0.0 {
            let preds: Vec<bool> = scores.iter().map(|&s| best_t <= s).collect();
            assert!(
                (f1_score(&preds, &labels) - best_f1).abs() < 1e-12,
                "case {case} t {best_t}"
            );
        }
    }
}

// --- classification metrics -----------------------------------------------

#[test]
fn confusion_counts_partition_the_data() {
    let mut rng = Prng::seed_from_u64(0x51_07);
    for case in 0..CASES {
        let n = rng.index(100);
        let preds: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let c = confusion(&preds, &labels);
        assert_eq!(c.tp + c.fp + c.tn + c.fn_, n, "case {case}");
        let m = c.metrics();
        for v in [m.precision, m.recall, m.f1, m.accuracy] {
            assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
        }
        // F1 is the harmonic mean identity.
        if m.precision + m.recall > 0.0 {
            let hm = 2.0 * m.precision * m.recall / (m.precision + m.recall);
            assert!((m.f1 - hm).abs() < 1e-12, "case {case}");
        }
    }
}

// --- Gower distance -------------------------------------------------------

#[test]
fn gower_is_a_bounded_pseudometric() {
    let mut rng = Prng::seed_from_u64(0x51_08);
    for case in 0..64 {
        let n = rng.range(2, 30);
        let points: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let g = rlb_textsim::gower::GowerSpace::fit(&points).expect("non-empty");
        for a in &points {
            assert!(g.distance(a, a).abs() < 1e-12, "case {case}");
            for b in &points {
                let d = g.distance(a, b);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "case {case}: {d}");
                assert!((d - g.distance(b, a)).abs() < 1e-12, "case {case}");
            }
        }
    }
}

// --- embeddings -----------------------------------------------------------

#[test]
fn embeddings_are_unit_or_zero() {
    let alphabet: Vec<u8> = (b'a'..=b'z').chain(b'0'..=b'9').collect();
    let mut rng = Prng::seed_from_u64(0x51_09);
    let e = rlb_embed::HashedEmbedder::new(32, 7);
    for case in 0..CASES {
        let token = text(&mut rng, &alphabet, 10);
        let v = e.token(&token);
        let n = rlb_util::linalg::norm_f32(&v);
        assert!(
            n.abs() < 1e-4 || (n - 1.0).abs() < 1e-4,
            "case {case}: {token:?} -> {n}"
        );
    }
}

#[test]
fn vector_similarities_bounded() {
    let mut rng = Prng::seed_from_u64(0x51_0A);
    for case in 0..CASES {
        let a: Vec<f32> = (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect();
        for f in [
            rlb_embed::cosine_sim,
            rlb_embed::euclidean_sim,
            rlb_embed::wasserstein_sim,
        ] {
            let v = f(&a, &b);
            assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
        }
    }
}

// --- generator invariants (fewer cases: each builds a dataset) ------------

#[test]
fn generated_tasks_always_validate() {
    let mut rng = Prng::seed_from_u64(0x51_0B);
    for _ in 0..16 {
        let seed = rng.next_u64() % 500;
        let noise = rng.uniform(0.0, 0.9);
        let profile = rlb_synth::BenchmarkProfile {
            id: "prop",
            stands_for: "seeded property test",
            domain: rlb_synth::Domain::Product,
            left_size: 60,
            right_size: 80,
            n_matches: 40,
            labeled_pairs: 150,
            positive_fraction: 0.2,
            knobs: rlb_synth::DifficultyKnobs {
                match_noise: noise,
                hard_negative_fraction: 0.4,
                anchor_attrs: 1,
                dirty: seed.is_multiple_of(2),
                style_noise: 0.03,
                right_terse: false,
                base_missing: 0.2,
            },
            seed,
        };
        let task = rlb_synth::generate_task(&profile);
        assert_eq!(task.validate(), Ok(()), "seed {seed}");
        assert_eq!(task.total_pairs(), 150, "seed {seed}");
        let pos = task.all_pairs().filter(|lp| lp.is_match).count();
        assert_eq!(pos, 30, "seed {seed}");
    }
}

/// Random dense feature matrix with both classes guaranteed present.
fn random_classification(rng: &mut Prng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.f64()).collect())
        .collect();
    let mut ys: Vec<bool> = (0..n).map(|_| rng.chance(0.4)).collect();
    ys[0] = true;
    ys[1] = false;
    (xs, ys)
}

fn assert_reports_bit_identical(
    xs: &[Vec<f64>],
    ys: &[bool],
    cfg: &rlb_complexity::ComplexityConfig,
    case: &str,
) {
    let streaming = rlb_complexity::compute(xs, ys, cfg).expect("streaming compute");
    let ragged = rlb_complexity::compute_ragged(xs, ys, cfg).expect("ragged compute");
    for ((name, s), (_, r)) in streaming.values().iter().zip(ragged.values()) {
        assert_eq!(
            s.to_bits(),
            r.to_bits(),
            "case {case}: {name} diverged ({s} vs {r})"
        );
    }
}

#[test]
fn complexity_streaming_matches_ragged_bitwise() {
    // The streaming DistanceEngine tiling must be invisible: every one of
    // the 17 measures agrees with the materialized-matrix twin bit for bit,
    // across random dimensionalities, sizes, and subsample caps.
    let mut rng = Prng::seed_from_u64(0x51_0E);
    for case in 0..24 {
        let n = rng.range(4, 121);
        let dim = rng.range(1, 5);
        let (xs, ys) = random_classification(&mut rng, n, dim);
        // Half the cases force the stratified subsample path.
        let cap = if rng.chance(0.5) {
            n
        } else {
            rng.range(4, n + 1)
        };
        let cfg = rlb_complexity::ComplexityConfig {
            max_points: cap,
            seed: rng.next_u64(),
            ..Default::default()
        };
        assert_reports_bit_identical(
            &xs,
            &ys,
            &cfg,
            &format!("{case} (n={n}, dim={dim}, cap={cap})"),
        );
    }
}

#[test]
fn complexity_streaming_matches_ragged_on_degenerate_edges() {
    let cfg = rlb_complexity::ComplexityConfig::default();

    // Minimal size: exactly 4 points.
    let xs = vec![
        vec![0.1, 0.9],
        vec![0.2, 0.8],
        vec![0.9, 0.1],
        vec![0.8, 0.2],
    ];
    let ys = vec![true, true, false, false];
    assert_reports_bit_identical(&xs, &ys, &cfg, "n=4 minimal");

    // All rows identical: every Gower range is zero, all distances are 0.
    let xs = vec![vec![0.5, 0.5]; 6];
    let ys = vec![true, false, true, false, true, false];
    assert_reports_bit_identical(&xs, &ys, &cfg, "all-identical rows");

    // One class has a single member (n2's infinite-intra edge).
    let mut rng = Prng::seed_from_u64(0x51_0F);
    let (xs, mut ys) = random_classification(&mut rng, 12, 2);
    for y in ys.iter_mut() {
        *y = false;
    }
    ys[3] = true;
    assert_reports_bit_identical(&xs, &ys, &cfg, "single-member class");

    // A constant feature column among varying ones (zero Gower range dim).
    let mut xs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..10 {
        xs.push(vec![rng.f64(), 0.7, rng.f64()]);
    }
    let mut ys: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
    ys[0] = true;
    ys[1] = false;
    assert_reports_bit_identical(&xs, &ys, &cfg, "constant feature column");
}

/// Distinct `(features, label)` cells of a row set, `-0.0` folded into
/// `+0.0`.
fn cell_count(xs: &[Vec<f64>], ys: &[bool]) -> usize {
    let cells: std::collections::HashSet<(Vec<u64>, bool)> = xs
        .iter()
        .zip(ys)
        .map(|(x, &y)| (x.iter().map(|v| (v + 0.0).to_bits()).collect(), y))
        .collect();
    cells.len()
}

/// Multiplicity of the most common `(features, label)` cell.
fn largest_cell(xs: &[Vec<f64>], ys: &[bool]) -> usize {
    let mut counts: std::collections::HashMap<(Vec<u64>, bool), usize> = Default::default();
    for (x, &y) in xs.iter().zip(ys) {
        let key = (x.iter().map(|v| (v + 0.0).to_bits()).collect(), y);
        *counts.entry(key).or_default() += 1;
    }
    counts.into_values().max().unwrap_or(0)
}

/// Quantized `[CS, JS]`-like rows: every coordinate is `k/m` with `m ≤ 8`,
/// drawn from a few grid values per dimension, so rows collapse into few
/// cells. About a third of the points share one hot cell (hundreds of
/// members); the hot features also appear under the other label; two rows
/// take grid values no other row uses (single-member cells); and zero
/// coordinates are randomly negated, putting `-0.0` next to `+0.0`.
fn quantized_classification(rng: &mut Prng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
    let m = rng.range(3, 9);
    // Per-dimension support: three grid values from 0..m, leaving m itself
    // (the value 1.0) free for the single-member rows.
    let support: Vec<Vec<f64>> = (0..dim)
        .map(|_| {
            let mut ks = vec![0usize];
            while ks.len() < 3 {
                let k = rng.range(1, m);
                if !ks.contains(&k) {
                    ks.push(k);
                }
            }
            ks.into_iter().map(|k| k as f64 / m as f64).collect()
        })
        .collect();
    let draw = |rng: &mut Prng| -> Vec<f64> {
        support
            .iter()
            .map(|vals| {
                let v = vals[rng.range(0, vals.len())];
                if v == 0.0 && rng.chance(0.5) {
                    -0.0
                } else {
                    v
                }
            })
            .collect()
    };
    let hot = draw(rng);
    let hot_label = rng.chance(0.5);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        if i % 3 == 0 {
            xs.push(hot.clone());
            ys.push(hot_label);
        } else {
            xs.push(draw(rng));
            ys.push(rng.chance(0.4));
        }
    }
    for i in [1usize, 4, 7, 10, 13] {
        xs[i] = hot.clone();
        ys[i] = !hot_label;
    }
    // Two single-member cells: coordinate 0 at 1.0, which the support
    // never yields, and the rest distinct from each other.
    for (i, v) in [(2usize, 1.0), (5, (m - 1) as f64 / m as f64)] {
        let mut x = vec![1.0; dim];
        if dim > 1 {
            x[1] = v;
        }
        xs[i] = x;
    }
    ys[0] = true;
    ys[3] = false;
    (xs, ys)
}

#[test]
fn complexity_cells_match_ragged_on_quantized_rows() {
    // Duplicated rows drive the cell path through its zero-distance
    // branches (cell mates, same features under both labels, Prim's
    // shared frontier entries, weighted closed-pair counts): every one of
    // the 17 measures must still equal the pointwise oracle bit for bit.
    let mut rng = Prng::seed_from_u64(0xCE_11);
    for case in 0..12 {
        let dim = rng.range(1, 4);
        let n = rng.range(700, 1000);
        let (xs, ys) = quantized_classification(&mut rng, n, dim);
        let cells = cell_count(&xs, &ys);
        assert!(
            cells * 10 <= n,
            "case {case}: {n} rows in {cells} cells collapse less than 10x"
        );
        assert!(largest_cell(&xs, &ys) >= 200, "case {case}: no large cell");
        // Half the cases run the stratified subsample path (cap < n).
        let cap = if case % 2 == 0 {
            n
        } else {
            rng.range(n / 2, n)
        };
        let cfg = rlb_complexity::ComplexityConfig {
            max_points: cap,
            seed: rng.next_u64(),
            ..Default::default()
        };
        assert_reports_bit_identical(
            &xs,
            &ys,
            &cfg,
            &format!("{case} (n={n}, dim={dim}, cells={cells}, cap={cap})"),
        );
    }
}

#[test]
fn complexity_cells_match_ragged_on_duplicate_edges() {
    let cfg = rlb_complexity::ComplexityConfig::default();
    let mut rng = Prng::seed_from_u64(0xCE_12);

    // Point counts at and around the 64-bit word boundaries of the
    // point-level hub rows.
    for n in [63usize, 64, 65, 128, 129] {
        let (xs, ys) = quantized_classification(&mut rng, n, 2);
        assert_reports_bit_identical(&xs, &ys, &cfg, &format!("n={n}"));
    }

    // All rows identical under both labels: one cell per label at
    // distance 0 from each other.
    let xs = vec![vec![0.5, 0.25]; 200];
    let ys: Vec<bool> = (0..200).map(|i| i % 7 == 0).collect();
    assert_reports_bit_identical(&xs, &ys, &cfg, "all-identical rows");

    // A single-member class among hundreds of duplicates.
    let (xs, mut ys) = quantized_classification(&mut rng, 300, 2);
    ys.iter_mut().for_each(|y| *y = false);
    ys[17] = true;
    assert_reports_bit_identical(&xs, &ys, &cfg, "single-member class");

    // An evenly spaced 1-D grid: every cell's neighbours sit at equal
    // nonzero distances, so n3, n4 and Prim break ties on point indices.
    let xs: Vec<Vec<f64>> = (0..400).map(|i| vec![(i % 9) as f64 / 8.0]).collect();
    let ys: Vec<bool> = (0..400).map(|_| rng.chance(0.5)).collect();
    assert_reports_bit_identical(&xs, &ys, &cfg, "equal distances across cells");

    // Explicit signed zeros, alone and mixed with other values.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..120 {
        let z = if i % 2 == 0 { 0.0 } else { -0.0 };
        xs.push(vec![z, [0.0, -0.0, 0.5, 1.0][i % 4]]);
        ys.push(i % 5 < 2);
    }
    assert_reports_bit_identical(&xs, &ys, &cfg, "+0.0 next to -0.0");

    // A full 9 x 9 grid under both labels: up to 162 cells, crossing the
    // 64- and 128-bit word boundaries of the cell-level rows.
    let xs: Vec<Vec<f64>> = (0..700)
        .map(|_| vec![rng.range(0, 9) as f64 / 8.0, rng.range(0, 9) as f64 / 8.0])
        .collect();
    let ys: Vec<bool> = (0..700).map(|_| rng.chance(0.5)).collect();
    assert!(cell_count(&xs, &ys) > 128);
    assert_reports_bit_identical(&xs, &ys, &cfg, "9x9 grid, both labels");
}

#[test]
fn distance_engine_rows_match_pairwise_bitwise() {
    // Engine-level twin identity down to n = 2, below compute()'s 4-point
    // floor: each streamed row equals the corresponding materialized
    // pairwise row bit for bit.
    use rlb_textsim::{DistanceEngine, GowerSpace};
    let mut rng = Prng::seed_from_u64(0x51_10);
    for case in 0..32 {
        let n = rng.range(2, 62);
        let dim = rng.range(1, 5);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.f64()).collect())
            .collect();
        let engine = DistanceEngine::fit(&xs).unwrap();
        let dists = GowerSpace::fit(&xs).unwrap().pairwise(&xs);
        let rows: Vec<Vec<f64>> = engine.map_rows(|_, row| row.to_vec());
        for (i, (sr, rr)) in rows.iter().zip(&dists).enumerate() {
            assert_eq!(sr.len(), rr.len(), "case {case} row {i} length");
            for (j, (a, b)) in sr.iter().zip(rr).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case}: row {i} col {j} ({a} vs {b})"
                );
            }
        }
    }
}
