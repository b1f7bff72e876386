//! Neighborhood measures `n1`, `n2`, `n3`, `n4`, `t1`, `lsc` over the Gower
//! distance (Table I, group c).
//!
//! Two entry points:
//!
//! - [`neighborhood_measures`] works on distinct `(features, label)` cells
//!   ([`Cells`]): cell-to-cell distance rows stream out of a
//!   [`DistanceEngine`] fitted on one representative per cell, and counts
//!   scale by multiplicities;
//! - [`neighborhood_measures_ragged`] scans a materialized point-to-point
//!   `Vec<Vec<f64>>` matrix — the O(n²) oracle the property suite pins the
//!   cell path against bit for bit.

use crate::cells::Cells;
use rlb_textsim::gower::{DistanceEngine, GowerSpace};
use rlb_util::Prng;

/// Results of the neighborhood group.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodMeasures {
    pub n1: f64,
    pub n2: f64,
    pub n3: f64,
    pub n4: f64,
    pub t1: f64,
    pub lsc: f64,
}

/// Per-point nearest-neighbour scan of one distance row of the ragged twin:
/// `(nearest index, nearest same-class distance, nearest other-class
/// distance)`; ties go to the lowest index.
fn nn_scan(i: usize, row: &[f64], ys: &[bool]) -> (usize, f64, f64) {
    let mut any = usize::MAX;
    let mut best = f64::INFINITY;
    let mut intra = f64::INFINITY;
    let mut extra = f64::INFINITY;
    for (j, &d) in row.iter().enumerate() {
        if i == j {
            continue;
        }
        if d < best {
            best = d;
            any = j;
        }
        if ys[i] == ys[j] {
            if d < intra {
                intra = d;
            }
        } else if d < extra {
            extra = d;
        }
    }
    (any, intra, extra)
}

/// `n2` from the per-point nearest intra/extra-class distances.
///
/// A point whose class has a single member has no intra-class neighbour
/// (`intra = ∞`); such points are excluded from **both** sums. Counting
/// their extra-class distance in the denominator while dropping them from
/// the numerator would bias `n2` downward exactly on the extreme class
/// imbalance that is the norm in ER candidate sets. On inputs where every
/// class has ≥ 2 members all distances are finite and the sums are
/// byte-identical to the unfiltered ones.
fn n2_from_nn(nn_intra_d: &[f64], nn_extra_d: &[f64]) -> f64 {
    let mut intra = 0.0;
    let mut extra = 0.0;
    for (&di, &de) in nn_intra_d.iter().zip(nn_extra_d) {
        if di.is_finite() && de.is_finite() {
            intra += di;
            extra += de;
        }
    }
    if intra + extra == 0.0 {
        0.0
    } else {
        let r = if extra > 0.0 {
            intra / extra
        } else {
            f64::INFINITY
        };
        r / (1.0 + r)
    }
}

/// Fused `t1`/`lsc` scan of one ragged distance row: `(sphere absorbed, local-set
/// cardinality)`. `enemy_d[i]` is the distance to point `i`'s nearest
/// enemy — the sphere radius for `t1` and the local-set radius for `lsc`.
fn t1_lsc_scan(i: usize, row: &[f64], enemy_d: &[f64]) -> (bool, usize) {
    let r = enemy_d[i];
    let count_ls = r.is_finite();
    let mut absorbed = false;
    let mut ls = 0usize;
    for (j, &d) in row.iter().enumerate() {
        if i == j {
            continue;
        }
        if !absorbed && enemy_d[j].is_finite() && d + r <= enemy_d[j] + 1e-12 {
            absorbed = true;
        }
        if count_ls && d < r {
            ls += 1;
        }
    }
    (absorbed, ls)
}

/// Nearest-neighbour facts of one cell, from its row of cell distances.
#[derive(Debug, Clone, Copy)]
struct CellNn {
    /// Nearest other cell; ties go to the lowest first member, which is
    /// the lowest point index among the tied cells.
    near: usize,
    /// Distance to `near`.
    near_d: f64,
    /// Nearest same-label other cell's distance (`∞` when there is none).
    intra: f64,
    /// Nearest other-label cell's distance (`∞` when there is none).
    extra: f64,
}

fn cell_nn(c: usize, row: &[f64], cells: &Cells) -> CellNn {
    let mut nn = CellNn {
        near: usize::MAX,
        near_d: f64::INFINITY,
        intra: f64::INFINITY,
        extra: f64::INFINITY,
    };
    let y = cells.label(c);
    for (e, &d) in row.iter().enumerate() {
        if e == c {
            continue;
        }
        if nn.near == usize::MAX
            || d < nn.near_d
            || (d == nn.near_d && cells.first(e) < cells.first(nn.near))
        {
            nn.near = e;
            nn.near_d = d;
        }
        if cells.label(e) == y {
            nn.intra = nn.intra.min(d);
        } else {
            nn.extra = nn.extra.min(d);
        }
    }
    nn
}

/// Fused `t1`/`lsc` over one cell's distance row: `(sphere absorbed,
/// local-set cardinality)` of each of its members. `enemy[e]` is cell
/// `e`'s nearest-enemy distance; cell mates sit at distance `0.0`.
fn cell_t1_lsc(c: usize, row: &[f64], cells: &Cells, enemy: &[f64]) -> (bool, usize) {
    let r = enemy[c];
    let count_ls = r.is_finite();
    let mut absorbed = false;
    let mut ls = 0usize;
    if cells.mult(c) >= 2 {
        let d = 0.0;
        absorbed = r.is_finite() && d + r <= r + 1e-12;
        if count_ls && d < r {
            ls += cells.mult(c) - 1;
        }
    }
    for (e, &d) in row.iter().enumerate() {
        if e == c {
            continue;
        }
        if !absorbed && enemy[e].is_finite() && d + r <= enemy[e] + 1e-12 {
            absorbed = true;
        }
        if count_ls && d < r {
            ls += cells.mult(e);
        }
    }
    (absorbed, ls)
}

/// Computes the whole group over distinct cells: distance rows stream out
/// of an engine fitted on the cell representatives, counts scale by
/// multiplicities, and every value is bit-identical to
/// [`neighborhood_measures_ragged`] on the points themselves.
///
/// `xs`/`ys` are the points (`n4` interpolates between original points);
/// `engine` holds one representative per cell in `cells` order.
pub fn neighborhood_measures<R: AsRef<[f64]>>(
    xs: &[R],
    ys: &[bool],
    cells: &Cells,
    engine: &DistanceEngine,
    n4_ratio: f64,
    rng: &mut Prng,
) -> NeighborhoodMeasures {
    let n = ys.len();
    let nn = engine.map_rows(|c, row| cell_nn(c, row, cells));

    // n2 sums per-point f64s, so it stays in point order. A point with a
    // cell mate has a same-class neighbour at distance 0.
    let nn_intra_d: Vec<f64> = (0..n)
        .map(|i| {
            let c = cells.of(i);
            if cells.mult(c) >= 2 {
                0.0
            } else {
                nn[c].intra
            }
        })
        .collect();
    let nn_extra_d: Vec<f64> = (0..n).map(|i| nn[cells.of(i)].extra).collect();
    let n2 = n2_from_nn(&nn_intra_d, &nn_extra_d);

    // n3: point i's 1-NN is its lowest-index cell mate (distance 0) unless
    // the nearest other cell is also at distance 0 with a lower first
    // member; a point without mates takes the nearest other cell.
    let errors = (0..n)
        .filter(|&i| {
            let c = cells.of(i);
            let CellNn { near, near_d, .. } = nn[c];
            let mate = cells.members(c).iter().copied().find(|&j| j != i);
            let other_wins = match mate {
                None => true,
                Some(j) => near_d == 0.0 && cells.first(near) < j,
            };
            other_wins && cells.label(near) != cells.label(c)
        })
        .count();
    let n3 = errors as f64 / n as f64;

    let n1 = n1_prim_cells(cells, engine);

    let points: Vec<&[f64]> = xs.iter().map(|x| x.as_ref()).collect();
    let n4 = n4_interpolated(&points, ys, n4_ratio, rng, |q| {
        let mut buf = vec![0.0; engine.len()];
        engine.query_row_into(q, &mut buf);
        cells.label(nearest_cell(&buf, cells))
    });

    let enemy: Vec<f64> = nn.iter().map(|c| c.extra).collect();
    let t1_lsc = engine.map_rows(|c, row| cell_t1_lsc(c, row, cells, &enemy));
    let mut kept = 0usize;
    let mut ls_total = 0usize;
    for (c, &(absorbed, ls)) in t1_lsc.iter().enumerate() {
        kept += if absorbed { 0 } else { cells.mult(c) };
        ls_total += cells.mult(c) * ls;
    }
    NeighborhoodMeasures {
        n1,
        n2,
        n3,
        n4,
        t1: kept as f64 / n as f64,
        lsc: 1.0 - ls_total as f64 / (n * n) as f64,
    }
}

/// The cell holding the 1-NN of a query: minimal distance, ties to the
/// lowest first member — the point the ascending strictly-less scan over
/// points would have returned.
fn nearest_cell(row: &[f64], cells: &Cells) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (e, &d) in row.iter().enumerate() {
        if d < best_d || (d == best_d && cells.first(e) < cells.first(best)) {
            best_d = d;
            best = e;
        }
    }
    best
}

/// `n1` by replaying [`n1_mst_ragged`]'s Prim over cells. Unpicked members of a cell
/// always share `best_d` and `best_from` (every row gives them the same
/// distance), so each cell keeps one frontier entry plus `cand`, its
/// lowest unpicked member. The next pick is the lowest `cand` among the
/// minimal cells, exactly the point Prim's ascending scan picks. Only a
/// cell's first pick can lower another cell's `best_d` (later picks offer
/// the same distances again), so one engine row per cell is computed, and
/// a pick's cell mates drop to distance 0.
fn n1_prim_cells(cells: &Cells, engine: &DistanceEngine) -> f64 {
    let n = cells.points();
    let k = cells.len();
    let mut row = vec![0.0; k];
    let mut best_d = vec![f64::INFINITY; k];
    let mut best_from = vec![0usize; k];
    // Members of each cell already in the tree; `cand` is the next one,
    // or usize::MAX (with an infinite `best_d`) once all are.
    let mut taken = vec![0usize; k];
    let mut cand: Vec<usize> = (0..k).map(|c| cells.first(c)).collect();
    let mut expanded = vec![false; k];
    let mut borderline = vec![false; n];
    let mut pick = 0usize;
    let mut pick_cell = cells.of(0);
    for step in 0..n {
        if step > 0 {
            let mut pick_d = f64::INFINITY;
            pick = usize::MAX;
            for c in 0..k {
                let d = best_d[c];
                if d < pick_d || (d == pick_d && cand[c] < pick) {
                    pick_d = d;
                    pick = cand[c];
                    pick_cell = c;
                }
            }
            if pick == usize::MAX {
                break;
            }
            let from = best_from[pick_cell];
            if cells.label(pick_cell) != cells.label(cells.of(from)) {
                borderline[pick] = true;
                borderline[from] = true;
            }
        }
        let p = pick_cell;
        taken[p] += 1;
        match cells.members(p).get(taken[p]) {
            Some(&j) => cand[p] = j,
            None => {
                cand[p] = usize::MAX;
                best_d[p] = f64::INFINITY;
            }
        }
        if cand[p] != usize::MAX && 0.0 < best_d[p] {
            best_d[p] = 0.0;
            best_from[p] = pick;
        }
        if !expanded[p] {
            expanded[p] = true;
            engine.row_into_par(p, &mut row);
            for e in 0..k {
                if e != p && cand[e] != usize::MAX && row[e] < best_d[e] {
                    best_d[e] = row[e];
                    best_from[e] = pick;
                }
            }
        }
    }
    borderline.iter().filter(|&&b| b).count() as f64 / n as f64
}

/// Computes the whole group from a precomputed pairwise distance matrix —
/// the O(n²)-memory ragged twin of [`neighborhood_measures`].
pub fn neighborhood_measures_ragged<R: AsRef<[f64]> + Sync>(
    xs: &[R],
    ys: &[bool],
    dists: &[Vec<f64>],
    gower: &GowerSpace,
    n4_ratio: f64,
    rng: &mut Prng,
) -> NeighborhoodMeasures {
    let n = xs.len();
    let nn = rlb_util::par::par_map_range(n, |i| nn_scan(i, &dists[i], ys));
    let nn_extra_d: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
    let n1 = n1_mst_ragged(ys, dists);
    let points: Vec<&[f64]> = xs.iter().map(|x| x.as_ref()).collect();
    let n4 = n4_interpolated(&points, ys, n4_ratio, rng, |q| {
        let mut best_j = 0usize;
        let mut best_d = f64::INFINITY;
        for (j, xj) in points.iter().enumerate() {
            let d = gower.distance(q, xj);
            if d < best_d {
                best_d = d;
                best_j = j;
            }
        }
        ys[best_j]
    });
    let t1_lsc = rlb_util::par::par_map_range(n, |i| t1_lsc_scan(i, &dists[i], &nn_extra_d));
    let nn_intra_d: Vec<f64> = nn.iter().map(|&(_, d, _)| d).collect();
    let errors = (0..n).filter(|&i| ys[nn[i].0] != ys[i]).count();
    let kept = t1_lsc.iter().filter(|&&(absorbed, _)| !absorbed).count();
    let ls_total: usize = t1_lsc.iter().map(|&(_, ls)| ls).sum();
    NeighborhoodMeasures {
        n1,
        n2: n2_from_nn(&nn_intra_d, &nn_extra_d),
        n3: errors as f64 / n as f64,
        n4,
        t1: kept as f64 / n as f64,
        lsc: 1.0 - ls_total as f64 / (n * n) as f64,
    }
}

/// `n1`: fraction of points incident to an MST edge connecting the two
/// classes (borderline points), by Prim's algorithm from point 0 over the
/// materialized matrix. Each pick takes the lowest-index point among the
/// minimal frontier distances — the order [`n1_prim_cells`] replays.
fn n1_mst_ragged(ys: &[bool], dists: &[Vec<f64>]) -> f64 {
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut best_d = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut borderline = vec![false; n];
    in_tree[0] = true;
    best_d[1..n].copy_from_slice(&dists[0][1..n]);
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_d[j] < pick_d {
                pick_d = best_d[j];
                pick = j;
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        let from = best_from[pick];
        if ys[pick] != ys[from] {
            borderline[pick] = true;
            borderline[from] = true;
        }
        let row = &dists[pick];
        for j in 0..n {
            if !in_tree[j] && row[j] < best_d[j] {
                best_d[j] = row[j];
                best_from[j] = pick;
            }
        }
    }
    borderline.iter().filter(|&&b| b).count() as f64 / n as f64
}

/// `n4`: 1-NN error on synthetic points interpolated between random
/// same-class pairs of original points. The synthetic points are drawn
/// sequentially (the `Prng` stream defines them), then classified in
/// parallel by `classify`, which returns the label of a query point's
/// nearest original. Both twins plug in a `classify` with identical
/// distance bits and identical tie-breaking (the lowest point index among
/// the minimal distances), so the measure is layout-independent.
fn n4_interpolated(
    points: &[&[f64]],
    ys: &[bool],
    ratio: f64,
    rng: &mut Prng,
    classify: impl Fn(&[f64]) -> bool + Sync,
) -> f64 {
    let n = points.len();
    let n_new = ((n as f64 * ratio).round() as usize).max(1);
    let pos: Vec<usize> = (0..n).filter(|&i| ys[i]).collect();
    let neg: Vec<usize> = (0..n).filter(|&i| !ys[i]).collect();
    let mut synth: Vec<(Vec<f64>, bool)> = Vec::with_capacity(n_new);
    for k in 0..n_new {
        let class_pos = k % 2 == 0;
        let pool = if class_pos { &pos } else { &neg };
        if pool.len() < 2 {
            continue;
        }
        let a = points[*rng.choose(pool)];
        let b = points[*rng.choose(pool)];
        let t = rng.f64();
        let point: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect();
        synth.push((point, class_pos));
    }
    if synth.is_empty() {
        return 0.0;
    }
    let errors: usize = rlb_util::par::par_map(&synth, |(point, class_pos)| {
        usize::from(classify(point) != *class_pos)
    })
    .into_iter()
    .sum();
    errors as f64 / synth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::separated;

    fn both(
        xs: &[Vec<f64>],
        ys: &[bool],
        ratio: f64,
        seed: u64,
    ) -> (NeighborhoodMeasures, NeighborhoodMeasures) {
        let cells = Cells::group(xs, ys);
        let engine = DistanceEngine::fit(&cells.representatives(xs)).unwrap();
        let mut rng = Prng::seed_from_u64(seed);
        let cell = neighborhood_measures(xs, ys, &cells, &engine, ratio, &mut rng);
        let gower = GowerSpace::fit(xs).unwrap();
        let dists = gower.pairwise(xs);
        let mut rng = Prng::seed_from_u64(seed);
        let ragged = neighborhood_measures_ragged(xs, ys, &dists, &gower, ratio, &mut rng);
        (cell, ragged)
    }

    fn run(overlap: f64, seed: u64) -> NeighborhoodMeasures {
        let (xs, ys) = separated(250, overlap, 0.4, seed);
        let (cell, ragged) = both(&xs, &ys, 1.0, seed);
        for (s, r) in [
            (cell.n1, ragged.n1),
            (cell.n2, ragged.n2),
            (cell.n3, ragged.n3),
            (cell.n4, ragged.n4),
            (cell.t1, ragged.t1),
            (cell.lsc, ragged.lsc),
        ] {
            assert_eq!(s.to_bits(), r.to_bits(), "cells vs ragged");
        }
        cell
    }

    #[test]
    fn all_bounded() {
        for overlap in [0.0, 0.5, 1.0] {
            let m = run(overlap, 1);
            for v in [m.n1, m.n2, m.n3, m.n4, m.t1, m.lsc] {
                assert!((0.0..=1.0).contains(&v), "{v} at overlap {overlap}");
            }
        }
    }

    #[test]
    fn separable_data_scores_low() {
        let m = run(0.02, 2);
        assert!(m.n1 < 0.1, "n1 {}", m.n1);
        assert!(m.n3 < 0.05, "n3 {}", m.n3);
        assert!(m.n4 < 0.1, "n4 {}", m.n4);
        assert!(m.t1 < 0.3, "t1 {}", m.t1);
    }

    #[test]
    fn overlapping_data_scores_high() {
        let lo = run(0.05, 3);
        let hi = run(0.95, 3);
        assert!(hi.n1 > lo.n1);
        assert!(hi.n3 > lo.n3);
        assert!(hi.n2 > lo.n2);
        assert!(hi.lsc > lo.lsc);
        assert!(hi.n3 > 0.2, "n3 {}", hi.n3);
    }

    #[test]
    fn mst_borderline_fraction_on_handcrafted_data() {
        // Four collinear points: n n | p p — exactly one cross edge in the
        // MST, touching 2 of 4 points.
        let ys = vec![false, false, true, true];
        let xs = vec![vec![0.0], vec![0.1], vec![0.6], vec![0.7]];
        let cells = Cells::group(&xs, &ys);
        let engine = DistanceEngine::fit(&cells.representatives(&xs)).unwrap();
        assert!((n1_prim_cells(&cells, &engine) - 0.5).abs() < 1e-12);
        let dists = engine.space().pairwise(&xs);
        assert!((n1_mst_ragged(&ys, &dists) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t1_two_clean_clusters_collapses_spheres() {
        // Points tightly packed per class far from the enemy: most spheres
        // absorb each other.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            xs.push(vec![i as f64 * 1e-4]);
            ys.push(true);
            xs.push(vec![1.0 + i as f64 * 1e-4]);
            ys.push(false);
        }
        let cells = Cells::group(&xs, &ys);
        let engine = DistanceEngine::fit(&cells.representatives(&xs)).unwrap();
        let mut rng = Prng::seed_from_u64(1);
        let m = neighborhood_measures(&xs, &ys, &cells, &engine, 0.5, &mut rng);
        assert!(m.t1 < 0.2, "t1 {}", m.t1);
    }

    #[test]
    fn n2_skips_single_member_class_points_in_both_sums() {
        // Regression: point 0 is the only member of its class, so its intra
        // distance is infinite. It must not contribute its (finite) extra
        // distance to the denominator either.
        let xs = vec![vec![0.0], vec![0.5], vec![0.6], vec![0.7], vec![1.0]];
        let ys = vec![true, false, false, false, false];
        let (cell, ragged) = both(&xs, &ys, 1.0, 4);
        // Remaining points: intra 0.1+0.1+0.1+0.3 = 0.6, extra
        // 0.5+0.6+0.7+1.0 = 2.8 → n2 = (0.6/2.8)/(1+0.6/2.8) = 0.6/3.4.
        let expected = 0.6 / 3.4;
        assert!(
            (cell.n2 - expected).abs() < 1e-9,
            "n2 {} vs {expected}",
            cell.n2
        );
        assert_eq!(cell.n2.to_bits(), ragged.n2.to_bits());
    }

    #[test]
    fn n2_helper_excludes_infinite_intra_from_both_sums() {
        let intra = [f64::INFINITY, 0.25, 0.25];
        let extra = [0.5, 0.5, 0.5];
        // Only the two finite-intra points count: 0.5 / 1.0 → r = 0.5.
        let n2 = n2_from_nn(&intra, &extra);
        assert_eq!(n2, 0.5 / 1.5);
        // All-finite input is the plain unfiltered ratio.
        let n2 = n2_from_nn(&[0.2, 0.2], &[0.4, 0.4]);
        assert_eq!(n2, (0.4 / 0.8) / 1.5);
    }
}
