//! Correctness checks computed apart from the program: distances, costs,
//! brute-force nearest centroids and clustering quality are recomputed here
//! from the returned assignments and centroids, never read from the
//! program's own reports.

use lshclust::ClusterId;
use lshclust_categorical::ValueId;
use std::collections::HashMap;

/// Centroids in plain buffers: `k × m` modes.
pub struct Centres<'a> {
    pub k: usize,
    pub m: usize,
    pub modes: &'a [ValueId],
}

/// Items as plain buffers: `n × m` values, plus each attribute's most
/// frequent value.
pub struct Items {
    pub n: usize,
    pub values: Vec<ValueId>,
    reference: Vec<ValueId>,
}

impl Items {
    pub fn new(m: usize, values: Vec<ValueId>) -> Self {
        let n = values.len() / m.max(1);
        let reference = (0..m)
            .map(|a| {
                let mut freq: HashMap<ValueId, u32> = HashMap::new();
                for i in 0..n {
                    *freq.entry(values[i * m + a]).or_default() += 1;
                }
                freq.into_iter()
                    .max_by_key(|&(v, n)| (n, std::cmp::Reverse(v.0)))
                    .map_or(ValueId(0), |(v, _)| v)
            })
            .collect();
        Self {
            n,
            values,
            reference,
        }
    }
}

/// Brute-force matching distances, sped up for sparse rows without
/// approximation.
///
/// Each attribute gets a reference value (its most frequent value among the
/// items). With `D(v)` the attributes where `v` differs from the reference,
/// the number of mismatches between item `x` and mode `q` is
/// `|D(q)| − |D(q) ∩ D(x)| + |{a ∈ D(x) : q_a ≠ x_a}|`, which costs
/// `O(|D(x)|)` per pair: about 2 attributes on text rows, all of them on
/// dense rows.
pub struct Brute<'a> {
    c: &'a Centres<'a>,
    reference: &'a [ValueId],
    mode_diff: Vec<u32>,
}

impl<'a> Brute<'a> {
    pub fn new(c: &'a Centres<'a>, items: &'a Items) -> Self {
        let m = c.m;
        let reference = &items.reference[..];
        let mode_diff = (0..c.k)
            .map(|j| {
                let q = &c.modes[j * m..(j + 1) * m];
                q.iter().zip(reference).filter(|(x, r)| x != r).count() as u32
            })
            .collect();
        Self {
            c,
            reference,
            mode_diff,
        }
    }

    /// Attributes where `row` differs from the reference.
    fn diff_attrs(&self, row: &[ValueId], out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..row.len()).filter(|&a| row[a] != self.reference[a]));
    }

    /// Mismatches between one item (given its `diff_attrs`) and centroid
    /// `j`.
    fn distance(&self, row: &[ValueId], diff: &[usize], j: usize) -> u32 {
        let m = self.c.m;
        let q = &self.c.modes[j * m..(j + 1) * m];
        if 4 * diff.len() < m {
            let mut d = self.mode_diff[j];
            for &a in diff {
                if q[a] != self.reference[a] {
                    d -= 1;
                }
                if q[a] != row[a] {
                    d += 1;
                }
            }
            d
        } else {
            // Dense rows: a plain count vectorises better.
            q.iter().zip(row).filter(|(x, y)| x != y).count() as u32
        }
    }

    /// For every item: (distance to its assigned centroid, smallest
    /// distance to any centroid).
    pub fn assigned_vs_nearest(&self, items: &Items, assigned: &[ClusterId]) -> Vec<(u32, u32)> {
        let m = self.c.m;
        let mut diff = Vec::new();
        (0..items.n)
            .map(|i| {
                let row = &items.values[i * m..(i + 1) * m];
                self.diff_attrs(row, &mut diff);
                let own = self.distance(row, &diff, assigned[i].0 as usize);
                let best = (0..self.c.k)
                    .map(|j| self.distance(row, &diff, j))
                    .min()
                    .unwrap_or(own);
                (own, best)
            })
            .collect()
    }

    /// The objective: sum of each item's distance to its assigned centroid.
    pub fn cost(&self, items: &Items, assigned: &[ClusterId]) -> u64 {
        let m = self.c.m;
        let mut diff = Vec::new();
        (0..items.n)
            .map(|i| {
                let row = &items.values[i * m..(i + 1) * m];
                self.diff_attrs(row, &mut diff);
                u64::from(self.distance(row, &diff, assigned[i].0 as usize))
            })
            .sum()
    }
}

/// Purity and NMI (`2·I / (H(P) + H(T))`, natural logs) from this
/// benchmark's own contingency table.
pub fn purity_nmi(predicted: &[u32], truth: &[u32]) -> (f64, f64) {
    assert_eq!(predicted.len(), truth.len());
    let n = predicted.len() as f64;
    let mut cells: HashMap<(u32, u32), f64> = HashMap::new();
    let mut rows: HashMap<u32, f64> = HashMap::new();
    let mut cols: HashMap<u32, f64> = HashMap::new();
    for (&p, &t) in predicted.iter().zip(truth) {
        *cells.entry((p, t)).or_default() += 1.0;
        *rows.entry(p).or_default() += 1.0;
        *cols.entry(t).or_default() += 1.0;
    }
    let mut best_per_cluster: HashMap<u32, f64> = HashMap::new();
    for (&(p, _), &c) in &cells {
        let slot = best_per_cluster.entry(p).or_default();
        *slot = slot.max(c);
    }
    let purity = best_per_cluster.values().sum::<f64>() / n;
    let entropy =
        |m: &HashMap<u32, f64>| -> f64 { m.values().map(|&c| -(c / n) * (c / n).ln()).sum() };
    let mut mi = 0.0;
    for (&(p, t), &c) in &cells {
        let pij = c / n;
        mi += pij * (pij / ((rows[&p] / n) * (cols[&t] / n))).ln();
    }
    let (hp, ht) = (entropy(&rows), entropy(&cols));
    let nmi = if hp + ht > 0.0 {
        2.0 * mi / (hp + ht)
    } else {
        1.0
    };
    (purity, nmi)
}
