//! Network measures `den`, `cls`, `hub` (Table I, group d).
//!
//! The dataset is modelled as an ε-NN graph: nodes are instances, edges
//! connect pairs with Gower distance below `epsilon`; edges between
//! instances of *different* classes are then pruned (the paper's
//! description). All three measures are reported complexity-oriented
//! (`1 − value`), following `problexity`.
//!
//! [`network_measures`] works on distinct `(features, label)` cells
//! ([`Cells`]). Members of one cell are at distance 0, so (for `ε > 0`)
//! they form a clique and share every other neighbour; a cell-level
//! adjacency bitset (`k` bits per cell, no self bit) plus multiplicities
//! gives every edge and closed-pair count as an exact integer.
//! [`network_measures_ragged`] is the materialized O(n²)-distance,
//! adjacency-list oracle over points; both produce the same integers and
//! accumulate the same f64 operations in the same order, so every value
//! is bit-identical.
//!
//! Cells are ordered by `(label, features)`, so a cell's ε-neighbours sit
//! in a narrow band of cell indices (Gower distance `< ε` bounds every
//! per-dimension normalized difference by `ε · dims`): the closed-pair
//! sweep intersects only the overlap of two rows' nonzero word spans.
//!
//! `hub` stays per point: a member's power-iteration sum runs over its
//! cell's neighbour points except itself, so members of one cell can
//! differ in the last bits. One point-level bitset row per cell drives
//! it, and all members of a cell advance in lockstep over that row.

use crate::cells::Cells;
use rlb_textsim::gower::DistanceEngine;
use std::ops::Range;

/// Computes `(den, cls, hub)` over the cells; `engine` holds one
/// representative per cell in `cells` order.
pub fn network_measures(cells: &Cells, engine: &DistanceEngine, epsilon: f64) -> (f64, f64, f64) {
    let n = cells.points();
    let k = cells.len();
    // Cell mates are at distance 0: adjacent to each other iff 0 < ε.
    let mates = 0.0 < epsilon;
    // Same-label ε-neighbour cells of each cell, as a k-bit row without
    // the self bit. The predicate is symmetric, so the matrix is too.
    // One contiguous allocation keeps band-adjacent rows physically
    // adjacent, which the blocked closed-pair sweep relies on.
    let stride = k.div_ceil(64);
    let words = engine
        .map_rows(|c, row| {
            let mut bits = vec![0u64; stride];
            for (e, &d) in row.iter().enumerate() {
                if e != c && d < epsilon && cells.label(e) == cells.label(c) {
                    bits[e / 64] |= 1 << (e % 64);
                }
            }
            bits
        })
        .concat();
    let adj = BitMatrix { words, stride };
    // Neighbour points of each cell's members from other cells.
    let outside: Vec<usize> = (0..k)
        .map(|c| iter_bits(adj.row(c)).map(|e| cells.mult(e)).sum())
        .collect();
    let own = |c: usize| if mates { cells.mult(c) - 1 } else { 0 };
    let degree = |c: usize| own(c) + outside[c];

    let edges = (0..k).map(|c| cells.mult(c) * degree(c)).sum::<usize>() / 2;
    let possible = n * (n - 1) / 2;
    let den = if possible == 0 {
        1.0
    } else {
        1.0 - edges as f64 / possible as f64
    };

    // cls = 1 − mean local clustering coefficient. A member of cell c has
    // own(c) mates and the members of its neighbour cells S as neighbours;
    // its closed neighbour pairs are mate–mate and mate–S pairs (all
    // adjacent), pairs inside one neighbour cell (adjacent iff mates), and
    // pairs across two adjacent neighbour cells (`across`).
    let across = closed_across(cells, &adj);
    let pairs2 = |m: usize| m * m.saturating_sub(1) / 2;
    let local: Vec<f64> = (0..k)
        .map(|c| {
            let kd = degree(c);
            if kd < 2 {
                return 0.0;
            }
            let mut closed = across[c];
            if mates {
                closed += pairs2(own(c)) + own(c) * outside[c];
                closed += iter_bits(adj.row(c))
                    .map(|e| pairs2(cells.mult(e)))
                    .sum::<usize>();
            }
            closed as f64 / (kd * (kd - 1) / 2) as f64
        })
        .collect();
    // Per-point f64 contributions, summed in ascending point order like
    // the oracle's.
    let mut cls_sum = 0.0;
    for i in 0..n {
        let c = cells.of(i);
        if degree(c) >= 2 {
            cls_sum += local[c];
        }
    }
    let cls = 1.0 - cls_sum / n as f64;

    let hub = hub_cells(cells, &adj, mates);
    (den, cls, hub)
}

/// Multiplicity-weighted sums over cell bitsets: `Σ m_f` over a set of
/// cells is its popcount plus `2^b ×` its popcount under bit plane `b` of
/// `m_f − 1`. Planes are usually sparse (a few duplicated rows among many
/// distinct ones), so each keeps the span of its nonzero words and only
/// the overlap with that span is scanned; all-distinct input has no planes.
struct Weights {
    /// `(plane words, nonzero word span)` per bit of `m_f − 1`.
    planes: Vec<(Vec<u64>, (usize, usize))>,
}

impl Weights {
    fn of(cells: &Cells) -> Weights {
        let k = cells.len();
        let top = (0..k).map(|c| cells.mult(c) - 1).max().unwrap_or(0);
        let planes = (0..usize::BITS - top.leading_zeros())
            .map(|b| {
                let mut plane = vec![0u64; k.div_ceil(64)];
                for c in (0..k).filter(|&c| (cells.mult(c) - 1) >> b & 1 == 1) {
                    plane[c / 64] |= 1 << (c % 64);
                }
                let span = word_span(&plane);
                (plane, span)
            })
            .collect();
        Weights { planes }
    }

    /// `Σ m_f` over the set bits of `a & b`, two equal-length slices of
    /// cell rows that start at word `lo`.
    fn sum_and(&self, a: &[u64], b: &[u64], lo: usize) -> usize {
        let mut s = and_popcount(a, b);
        for (bit, (plane, (plo, phi))) in self.planes.iter().enumerate() {
            let from = lo.max(*plo);
            let to = (lo + a.len()).min(phi + 1);
            if from < to {
                let (a, b) = (&a[from - lo..to - lo], &b[from - lo..to - lo]);
                s += and_popcount3(a, b, &plane[from..to]) << bit;
            }
        }
        s
    }
}

/// Set bits of `a & b`.
fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Set bits of `a & b & c`.
fn and_popcount3(a: &[u64], b: &[u64], c: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .zip(c)
        .map(|((x, y), z)| (x & y & z).count_ones() as usize)
        .sum()
}

/// Row-major packed bit matrix: row `r` is `words[r * stride..][..stride]`.
struct BitMatrix {
    words: Vec<u64>,
    stride: usize,
}

impl BitMatrix {
    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }
}

/// Consecutive cells per block in the closed-pair sweep: large enough to
/// amortize each neighbour row's load across the block's rows (consecutive
/// cells share most of their neighbourhood), small enough that the block's
/// own rows stay cache-resident.
const CLS_BLOCK: usize = 64;

/// For every cell c, `Σ m_e · m_f` over pairs `e < f` of c's neighbour
/// cells that are adjacent to each other: each pair is counted once, from
/// its lower cell `e`, by intersecting the rows of c and e above bit `e`
/// within the overlap of their nonzero word spans. Blocks of consecutive
/// cells walk the union of their bands together, so each neighbour row is
/// fetched once per block rather than once per cell.
fn closed_across(cells: &Cells, adj: &BitMatrix) -> Vec<usize> {
    let k = cells.len();
    let weights = Weights::of(cells);
    let spans: Vec<(usize, usize)> = (0..k).map(|c| word_span(adj.row(c))).collect();
    let blocks = rlb_util::par::par_map_range(k.div_ceil(CLS_BLOCK), |blk| {
        let cs = blk * CLS_BLOCK..((blk + 1) * CLS_BLOCK).min(k);
        let mut closed = vec![0usize; cs.len()];
        let (mut blo, mut bhi) = (usize::MAX, 0usize);
        for &(lo, hi) in &spans[cs.clone()] {
            if lo <= hi {
                blo = blo.min(lo);
                bhi = bhi.max(hi);
            }
        }
        if blo > bhi {
            return closed; // every cell in the block is isolated
        }
        for e in blo * 64..((bhi + 1) * 64).min(k) {
            let (elo, ehi) = spans[e];
            if elo > ehi {
                continue;
            }
            let ew = e / 64;
            let ebit = 1u64 << (e % 64);
            let re = adj.row(e);
            for (slot, c) in cs.clone().enumerate() {
                let rc = adj.row(c);
                if rc[ew] & ebit == 0 {
                    continue; // e is not a neighbour of c
                }
                let (clo, chi) = spans[c];
                let lo = clo.max(elo).max(ew);
                let hi = chi.min(ehi);
                if lo > hi {
                    continue;
                }
                // Word `ew` holds e itself: only the bits above it count.
                let mut from = lo;
                let mut s = 0;
                if lo == ew {
                    let above = [rc[ew] & above_bit_mask(e % 64)];
                    s += weights.sum_and(&above, &re[ew..=ew], ew);
                    from += 1;
                }
                if from <= hi {
                    s += weights.sum_and(&rc[from..=hi], &re[from..=hi], from);
                }
                closed[slot] += cells.mult(e) * s;
            }
        }
        closed
    });
    blocks.concat()
}

/// Indices of the first and last nonzero words, or `(1, 0)` (an empty
/// range) when every word is zero.
fn word_span(words: &[u64]) -> (usize, usize) {
    let lo = words.iter().position(|&w| w != 0);
    match lo {
        Some(lo) => (lo, words.iter().rposition(|&w| w != 0).unwrap_or(lo)),
        None => (1, 0),
    }
}

/// Mask of the bits strictly above position `b` within one word.
fn above_bit_mask(b: usize) -> u64 {
    debug_assert!(b < 64);
    if b == 63 {
        0
    } else {
        !0u64 << (b + 1)
    }
}

/// Consecutive singleton cells whose hub sums run interleaved: four
/// independent accumulator chains keep the FP adder busy where a single
/// chain would wait on its latency.
const SINGLETON_GROUP: usize = 4;

/// hub = 1 − mean normalized hub score: the principal eigenvector of the
/// point adjacency matrix by 50 power iterations. Point i's next score
/// sums `v[j]` over its neighbours j in ascending order — its cell's
/// point row without i itself — exactly the oracle's sorted adjacency
/// walk.
fn hub_cells(cells: &Cells, adj: &BitMatrix, mates: bool) -> f64 {
    let n = cells.points();
    let k = cells.len();
    // Point-level neighbour rows, one per cell: the members of every
    // neighbour cell, plus the cell's own members when they are adjacent
    // to each other (each member skips its own bit).
    let rows: Vec<Vec<u64>> = rlb_util::par::par_map_range(k, |c| {
        let mut bits = vec![0u64; n.div_ceil(64)];
        let own = (mates && cells.mult(c) >= 2).then_some(c);
        for e in iter_bits(adj.row(c)).chain(own) {
            for &j in cells.members(e) {
                bits[j / 64] |= 1 << (j % 64);
            }
        }
        bits
    });
    // Work units: a multi-member cell alone, or a run of up to
    // SINGLETON_GROUP consecutive singleton cells.
    let mut units: Vec<Range<usize>> = Vec::new();
    let mut c = 0;
    while c < k {
        let mut end = c + 1;
        if cells.mult(c) == 1 {
            while end < k && end - c < SINGLETON_GROUP && cells.mult(end) == 1 {
                end += 1;
            }
        }
        units.push(c..end);
        c = end;
    }

    let mut v = vec![1.0f64; n];
    for _ in 0..50 {
        let sums: Vec<Vec<f64>> = rlb_util::par::par_map_range(units.len(), |u| {
            let r = units[u].clone();
            if cells.mult(r.start) == 1 {
                singleton_sums(&rows[r], &v)
            } else {
                lockstep_sums(&rows[r.start], cells.members(r.start), &v)
            }
        });
        let mut next = vec![0.0f64; n];
        for (unit, s) in units.iter().zip(sums) {
            for (&i, x) in cells.members_of_range(unit.clone()).iter().zip(s) {
                next[i] = x;
            }
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            v = vec![0.0; n];
            break;
        }
        for x in next.iter_mut() {
            *x /= norm;
        }
        v = next;
    }
    hub_from_scores(&v, n)
}

/// Hub sums of singleton cells (no own bit in their rows), walking the
/// rows word by word in lockstep so their accumulator chains overlap.
fn singleton_sums(rows: &[Vec<u64>], v: &[f64]) -> Vec<f64> {
    // Short groups are padded with an empty row so the lane loop has a
    // fixed trip count and the accumulators stay in registers.
    let empty = vec![0u64; rows[0].len()];
    let lanes: [&[u64]; SINGLETON_GROUP] =
        std::array::from_fn(|q| rows.get(q).map_or(&empty[..], |r| &r[..]));
    let mut accs = [0.0f64; SINGLETON_GROUP];
    for w in 0..empty.len() {
        let base = w * 64;
        for (acc, lane) in accs.iter_mut().zip(lanes) {
            let mut b = lane[w];
            while b != 0 {
                *acc += v[base + b.trailing_zeros() as usize];
                b &= b - 1;
            }
        }
    }
    accs[..rows.len()].to_vec()
}

/// Hub sums of one cell's members, in member order: one walk of the
/// cell's point row, each `v[j]` added to every member's accumulator
/// except at the member's own bit. Members are ascending and so are the
/// bits, so the next own bit is always `members[t]`.
fn lockstep_sums(row: &[u64], members: &[usize], v: &[f64]) -> Vec<f64> {
    let mut accs = vec![0.0f64; members.len()];
    let mut t = 0;
    for (w, &bits) in row.iter().enumerate() {
        let mut b = bits;
        while b != 0 {
            let j = w * 64 + b.trailing_zeros() as usize;
            b &= b - 1;
            let vj = v[j];
            if members.get(t) == Some(&j) {
                let (before, after) = accs.split_at_mut(t);
                before.iter_mut().for_each(|a| *a += vj);
                after[1..].iter_mut().for_each(|a| *a += vj);
                t += 1;
            } else {
                accs.iter_mut().for_each(|a| *a += vj);
            }
        }
    }
    accs
}

/// Ascending indices of the set bits of a packed bitset. The hub sums
/// hand-roll this walk for speed.
fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        std::iter::successors((bits != 0).then_some(bits), |b| {
            let b = b & (b - 1);
            (b != 0).then_some(b)
        })
        .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

/// Computes `(den, cls, hub)` from a materialized point distance matrix —
/// the O(n²)-memory oracle for [`network_measures`].
pub fn network_measures_ragged(ys: &[bool], dists: &[Vec<f64>], epsilon: f64) -> (f64, f64, f64) {
    let n = ys.len();
    // Ascending outer/inner loops keep every adjacency list sorted, which
    // the closed-pair binary searches below rely on.
    let mut adj = vec![Vec::<usize>::new(); n];
    let mut edges = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if dists[i][j] < epsilon && ys[i] == ys[j] {
                adj[i].push(j);
                adj[j].push(i);
                edges += 1;
            }
        }
    }

    // den = 1 − 2E / (n(n−1)).
    let possible = n * (n - 1) / 2;
    let den = if possible == 0 {
        1.0
    } else {
        1.0 - edges as f64 / possible as f64
    };

    // cls = 1 − mean local clustering coefficient.
    let mut cls_sum = 0.0;
    for i in 0..n {
        let k = adj[i].len();
        if k < 2 {
            continue; // contributes 0 to the clustering sum
        }
        let mut closed = 0usize;
        for a in 0..k {
            for b in (a + 1)..k {
                let (u, v) = (adj[i][a], adj[i][b]);
                if adj[u].binary_search(&v).is_ok() {
                    closed += 1;
                }
            }
        }
        cls_sum += closed as f64 / (k * (k - 1) / 2) as f64;
    }
    let cls = 1.0 - cls_sum / n as f64;

    // hub = 1 − mean normalized hub score (power iteration).
    let hub = {
        let mut v = vec![1.0f64; n];
        for _ in 0..50 {
            let mut next = vec![0.0f64; n];
            for i in 0..n {
                for &j in &adj[i] {
                    next[i] += v[j];
                }
            }
            let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                v = vec![0.0; n];
                break;
            }
            for x in next.iter_mut() {
                *x /= norm;
            }
            v = next;
        }
        hub_from_scores(&v, n)
    };

    (den, cls, hub)
}

/// `1 − mean(v)/max(v)` over the converged hub scores, shared by both twins.
fn hub_from_scores(v: &[f64], n: usize) -> f64 {
    let max = v.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        1.0 // no structure at all: maximally complex by this measure
    } else {
        let mean = v.iter().sum::<f64>() / n as f64 / max;
        1.0 - mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_textsim::gower::GowerSpace;

    /// Runs the cell path and the oracle and asserts bit-identity before
    /// returning the cell result.
    fn graph_for(xs: &[Vec<f64>], ys: &[bool], eps: f64) -> (f64, f64, f64) {
        let cells = Cells::group(xs, ys);
        let engine = DistanceEngine::fit(&cells.representatives(xs)).unwrap();
        let cell = network_measures(&cells, &engine, eps);
        let g = GowerSpace::fit(xs).unwrap();
        let d = g.pairwise(xs);
        let ragged = network_measures_ragged(ys, &d, eps);
        assert_eq!(cell.0.to_bits(), ragged.0.to_bits(), "den");
        assert_eq!(cell.1.to_bits(), ragged.1.to_bits(), "cls");
        assert_eq!(cell.2.to_bits(), ragged.2.to_bits(), "hub");
        cell
    }

    #[test]
    fn bit_iteration_is_ascending_and_complete() {
        let mut words = vec![0u64; 3];
        let set = [0usize, 1, 63, 64, 100, 130, 191];
        for &j in &set {
            words[j / 64] |= 1 << (j % 64);
        }
        assert_eq!(iter_bits(&words).collect::<Vec<_>>(), set);
        assert_eq!(iter_bits(&[0u64; 2]).count(), 0);
    }

    #[test]
    fn tight_clusters_give_dense_clustered_graph() {
        // Two tight same-class clusters.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            xs.push(vec![0.01 * i as f64]);
            ys.push(true);
            xs.push(vec![1.0 - 0.01 * i as f64]);
            ys.push(false);
        }
        let (den, cls, _hub) = graph_for(&xs, &ys, 0.15);
        // Each cluster is a clique of 10 -> 90 edges of 190 possible.
        assert!(den < 0.6, "den {den}");
        assert!(cls < 0.1, "cliques have clustering 1: cls {cls}");
    }

    #[test]
    fn cross_class_edges_are_pruned() {
        // Interleaved classes: every close neighbour is an enemy, so the
        // pruned graph is empty and all measures max out.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.01]).collect();
        let ys: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let (den, cls, hub) = graph_for(&xs, &ys, 0.012);
        assert!(den > 0.95, "den {den}");
        assert_eq!(cls, 1.0);
        assert_eq!(hub, 1.0);
    }

    #[test]
    fn all_bounded() {
        let mut rng = rlb_util::Prng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = (0..100).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let ys: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for eps in [0.05, 0.15, 0.5] {
            let (den, cls, hub) = graph_for(&xs, &ys, eps);
            for v in [den, cls, hub] {
                assert!((0.0..=1.0).contains(&v), "{v} at eps {eps}");
            }
        }
    }

    #[test]
    fn larger_epsilon_means_denser_graph() {
        let mut rng = rlb_util::Prng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> = (0..80).map(|_| vec![rng.f64()]).collect();
        let ys = vec![true; 40]
            .into_iter()
            .chain(vec![false; 40])
            .collect::<Vec<_>>();
        let (den_small, _, _) = graph_for(&xs, &ys, 0.05);
        let (den_large, _, _) = graph_for(&xs, &ys, 0.5);
        assert!(den_large < den_small, "{den_large} vs {den_small}");
    }

    #[test]
    fn word_span_finds_nonzero_run() {
        assert_eq!(word_span(&[0, 0, 0]), (1, 0));
        assert_eq!(word_span(&[]), (1, 0));
        assert_eq!(word_span(&[5, 0, 0]), (0, 0));
        assert_eq!(word_span(&[0, 1, 0, 8, 0]), (1, 3));
    }

    #[test]
    fn above_bit_mask_covers_strictly_higher_bits() {
        assert_eq!(above_bit_mask(63), 0);
        assert_eq!(above_bit_mask(0), !1u64);
        for b in 0..64usize {
            let m = above_bit_mask(b);
            for j in 0..64usize {
                assert_eq!(m & (1 << j) != 0, j > b, "b={b} j={j}");
            }
        }
    }

    #[test]
    fn duplicated_rows_match_the_oracle() {
        // Multiplicities 1..=9 cover several weight bit planes; some cells
        // repeat under both labels and one eps makes cell mates isolated.
        let mut rng = rlb_util::Prng::seed_from_u64(5);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..30usize {
            let x = vec![(c % 6) as f64 / 5.0, (c / 6) as f64 / 4.0];
            for _ in 0..1 + c % 9 {
                xs.push(x.clone());
                ys.push(rng.chance(0.5));
            }
        }
        ys[0] = true;
        ys[1] = false;
        for eps in [0.0, 0.1, 0.15, 0.3, 1.1] {
            let (den, cls, hub) = graph_for(&xs, &ys, eps);
            for v in [den, cls, hub] {
                assert!((0.0..=1.0).contains(&v), "{v} at eps {eps}");
            }
        }
    }

    #[test]
    fn weights_sum_multiplicities_over_set_bits() {
        let xs: Vec<Vec<f64>> = [0usize, 1, 1, 2, 2, 2, 2, 2, 3]
            .iter()
            .map(|&c| vec![c as f64])
            .collect();
        let ys = vec![true; 9];
        let cells = Cells::group(&xs, &ys);
        let w = Weights::of(&cells);
        assert_eq!(w.planes.len(), 3, "largest multiplicity 5 → m − 1 = 4");
        let sum = |x: u64| w.sum_and(&[x], &[!0], 0);
        assert_eq!(sum(0b1111), 9);
        assert_eq!(sum(0b0110), 7);
        assert_eq!(sum(0), 0);
        let distinct: Vec<Vec<f64>> = (0..70).map(|i| vec![i as f64]).collect();
        let cells = Cells::group(&distinct, &[true; 70]);
        assert!(Weights::of(&cells).planes.is_empty());
    }

    #[test]
    fn constant_features_fall_back_to_identity_order() {
        // No active dimension: all distances zero, graph = same-class clique.
        let xs = vec![vec![1.5, 2.5]; 12];
        let ys: Vec<bool> = (0..12).map(|i| i < 7).collect();
        let (den, cls, hub) = graph_for(&xs, &ys, 0.15);
        assert!(den < 1.0);
        // Cliques: clustering coefficient 1 for every node with deg ≥ 2.
        assert!(cls < 1e-9, "cls {cls}");
        assert!((0.0..=1.0).contains(&hub));
    }

    #[test]
    fn boundary_crossing_bitset_sizes_stay_identical() {
        // n at and around the 64-bit word boundary exercises the packed
        // adjacency's partial last word.
        let mut rng = rlb_util::Prng::seed_from_u64(3);
        for n in [63usize, 64, 65, 128, 129] {
            let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
            let ys: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            graph_for(&xs, &ys, 0.2);
        }
    }
}
