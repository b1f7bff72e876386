//! Grouping of the rows into distinct `(features, label)` cells.
//!
//! Candidate pairs scored as `[CS, JS]` are ratios of small token counts,
//! so thousands of rows share a handful of distinct values: Dn2's 6,000
//! points hold 273 cells. Every row of a cell has the same Gower distance
//! to every other row, and distance `0.0` to its cell mates, so the
//! distance-based measures run over cell representatives and scale counts
//! by multiplicities instead of visiting every point pair.
//!
//! Equality is `f64` equality per coordinate: `-0.0` and `+0.0` share a
//! cell (they have the same distance to everything), and non-finite
//! values are rejected upstream. Cells are ordered by `(label, features)`
//! lexicographically, so same-label cells with nearby features sit at
//! nearby indices — the ε-graph's adjacency rows come out as narrow bands.

use std::cmp::Ordering;

/// Distinct `(features, label)` cells with their members.
#[derive(Debug, Clone)]
pub struct Cells {
    /// Cell index of every point.
    of: Vec<usize>,
    /// `members[start[c]..start[c + 1]]` are cell `c`'s points, ascending.
    start: Vec<usize>,
    members: Vec<usize>,
    label: Vec<bool>,
}

/// Lexicographic order on feature rows with `-0.0` folded into `+0.0`
/// (`x + 0.0` maps `-0.0` to `+0.0` and leaves every other finite value
/// unchanged), so two rows compare equal exactly when they are equal
/// coordinate by coordinate.
fn cmp_rows(a: &[f64], b: &[f64]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x + 0.0).total_cmp(&(y + 0.0)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

impl Cells {
    /// Groups finite rows by `(label, features)`.
    pub fn group<R: AsRef<[f64]>>(xs: &[R], ys: &[bool]) -> Cells {
        let n = xs.len();
        let row = |i: usize| xs[i].as_ref();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| {
            ys[a]
                .cmp(&ys[b])
                .then_with(|| cmp_rows(row(a), row(b)))
                .then(a.cmp(&b))
        });
        let mut of = vec![0usize; n];
        let mut start = Vec::new();
        let mut label = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let new_cell = pos == 0 || {
                let prev = order[pos - 1];
                ys[prev] != ys[i] || cmp_rows(row(prev), row(i)).is_ne()
            };
            if new_cell {
                start.push(pos);
                label.push(ys[i]);
            }
            of[i] = start.len() - 1;
        }
        start.push(n);
        Cells {
            of,
            start,
            members: order,
            label,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// Number of grouped points.
    pub fn points(&self) -> usize {
        self.of.len()
    }

    /// Cell of point `i`.
    pub fn of(&self, i: usize) -> usize {
        self.of[i]
    }

    /// Label of cell `c`.
    pub fn label(&self, c: usize) -> bool {
        self.label[c]
    }

    /// Points of cell `c`, ascending.
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[self.start[c]..self.start[c + 1]]
    }

    /// Points of cells `cs`, cell after cell, each cell's points ascending.
    pub fn members_of_range(&self, cs: std::ops::Range<usize>) -> &[usize] {
        &self.members[self.start[cs.start]..self.start[cs.end]]
    }

    /// Multiplicity of cell `c`.
    pub fn mult(&self, c: usize) -> usize {
        self.start[c + 1] - self.start[c]
    }

    /// Lowest point index of cell `c`.
    pub fn first(&self, c: usize) -> usize {
        self.members[self.start[c]]
    }

    /// One feature row per cell (its lowest-index member's), in cell order.
    pub fn representatives<'a, R: AsRef<[f64]>>(&self, xs: &'a [R]) -> Vec<&'a [f64]> {
        (0..self.len())
            .map(|c| xs[self.first(c)].as_ref())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_equal_rows_per_label_with_ascending_members() {
        let xs = vec![
            vec![0.5, 0.25],
            vec![0.0, 1.0],
            vec![0.5, 0.25],
            vec![-0.0, 1.0],
            vec![0.5, 0.25],
            vec![0.0, 1.0],
        ];
        let ys = vec![true, false, true, false, false, false];
        let cells = Cells::group(&xs, &ys);
        // false/[0, 1] (±0 merged), false/[0.5, 0.25], true/[0.5, 0.25].
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.points(), 6);
        assert_eq!(cells.members(0), &[1, 3, 5]);
        assert_eq!(cells.members(1), &[4]);
        assert_eq!(cells.members(2), &[0, 2]);
        assert_eq!(cells.members_of_range(1..3), &[4, 0, 2]);
        assert_eq!(
            (cells.label(0), cells.label(1), cells.label(2)),
            (false, false, true)
        );
        assert_eq!((cells.mult(0), cells.first(2)), (3, 0));
        for i in 0..6 {
            assert!(cells.members(cells.of(i)).contains(&i));
        }
        let reps = cells.representatives(&xs);
        assert_eq!(reps[0], &[0.0, 1.0]);
        assert_eq!(reps[2], &[0.5, 0.25]);
    }

    #[test]
    fn cells_are_ordered_by_label_then_features() {
        let mut rng = rlb_util::Prng::seed_from_u64(9);
        let xs: Vec<Vec<f64>> = (0..70)
            .map(|_| vec![(rng.f64() * 8.0).floor(), rng.f64() * 0.2])
            .collect();
        let ys: Vec<bool> = (0..70).map(|i| i % 3 != 0).collect();
        let cells = Cells::group(&xs, &ys);
        // Every point lands in exactly one cell.
        let mut seen = [false; 70];
        for c in 0..cells.len() {
            for &i in cells.members(c) {
                assert!(!seen[i], "point {i} in two cells");
                seen[i] = true;
                assert_eq!(cells.label(c), ys[i]);
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Class-major, then ascending features.
        for c in 1..cells.len() {
            let (a, b) = (cells.first(c - 1), cells.first(c));
            let key = |i: usize| (ys[i], xs[i][0], xs[i][1]);
            assert!(key(a) < key(b), "cells {} and {c} out of order", c - 1);
        }
    }

    #[test]
    fn distinct_rows_each_get_a_cell() {
        let xs: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 0.0]).collect();
        let ys: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let cells = Cells::group(&xs, &ys);
        assert_eq!(cells.len(), 10);
        assert!((0..10).all(|c| cells.mult(c) == 1));
    }
}
