//! The reference job: a fixed computation written here, run as a child
//! process right next to each CPU-bound operation the benchmark times.
//!
//! The benchmark's host is shared: for stretches of seconds to minutes,
//! other guests slow every memory-touching process on it by up to 1.5×, and
//! a set of runs taken in a fast stretch reads ~30% faster than one taken
//! in a slow stretch. The reference job has the same shape as the timed
//! operations (start a process, parse a CSV, build a KD-tree, answer
//! nearest-neighbour queries, write a CSV) but never changes with the
//! program, so its wall time measures the host alone. Each CPU-bound time
//! is reported divided by the reference time taken beside it and scaled by
//! the reference's nominal time: host stretches cancel, program changes do
//! not.

use crate::proc;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Rows per KD-tree leaf.
const LEAF: usize = 8;

/// Runs the reference job on `input` (writing `output`), querying every
/// `stride`-th row, as a child process, and returns its wall time in
/// seconds.
pub fn time(input: &Path, output: &Path, stride: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("reference job: {e}"))?;
    let finished = proc::run_timed(
        Command::new(exe)
            .arg("--reference")
            .arg(input)
            .arg(output)
            .arg(stride.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null()),
    )
    .map_err(|e| format!("reference job: {e}"))?;
    if !finished.success {
        return Err("reference job failed".into());
    }
    Ok(finished.wall.as_secs_f64())
}

/// The job itself (`e2ebench --reference IN OUT STRIDE`): reads a labelled
/// CSV (header row, label last), finds the nearest other row of every
/// `stride`-th row, and writes those whose nearest neighbour has another
/// label.
pub fn job(input: &Path, output: &Path, stride: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(input).map_err(|e| format!("{}: {e}", input.display()))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let mut points: Vec<f64> = Vec::new();
    let mut labels: Vec<u32> = Vec::new();
    for line in lines {
        let mut fields = line.split(',');
        let label = fields.next_back().unwrap_or_default().trim();
        labels.push(label.parse().map_err(|_| format!("bad label {label:?}"))?);
        for f in fields {
            points.push(f.trim().parse().map_err(|_| format!("bad value {f:?}"))?);
        }
    }
    let n = labels.len();
    let p = points.len() / n.max(1);
    let mut order: Vec<usize> = (0..n).collect();
    build(&points, p, &mut order, 0);
    let mut out = format!("{header}\n");
    for q in (0..n).step_by(stride.max(1)) {
        let mut best = (f64::INFINITY, q);
        nearest(&points, p, &order, 0, q, &mut best);
        if labels[best.1] != labels[q] {
            for v in &points[q * p..(q + 1) * p] {
                let _ = write!(out, "{v},");
            }
            let _ = writeln!(out, "{}", labels[q]);
        }
    }
    std::fs::write(output, out).map_err(|e| format!("{}: {e}", output.display()))
}

/// Arranges `rows` as an implicit KD-tree: the median row on the split
/// axis in the middle, the lower half before it, the upper half after.
fn build(points: &[f64], p: usize, rows: &mut [usize], depth: usize) {
    if rows.len() <= LEAF {
        return;
    }
    let axis = depth % p;
    let mid = rows.len() / 2;
    rows.select_nth_unstable_by(mid, |&a, &b| {
        points[a * p + axis].total_cmp(&points[b * p + axis])
    });
    let (lower, upper) = rows.split_at_mut(mid);
    build(points, p, lower, depth + 1);
    build(points, p, &mut upper[1..], depth + 1);
}

fn sq_dist(points: &[f64], p: usize, a: usize, b: usize) -> f64 {
    let (x, y) = (&points[a * p..(a + 1) * p], &points[b * p..(b + 1) * p]);
    x.iter().zip(y).map(|(u, v)| (u - v) * (u - v)).sum()
}

/// The nearest row to row `q` other than itself, as `(squared distance,
/// row)`, searched in the implicit tree `rows`.
fn nearest(
    points: &[f64],
    p: usize,
    rows: &[usize],
    depth: usize,
    q: usize,
    best: &mut (f64, usize),
) {
    let visit = |r: usize, best: &mut (f64, usize)| {
        if r != q {
            let d = sq_dist(points, p, q, r);
            if d < best.0 {
                *best = (d, r);
            }
        }
    };
    if rows.len() <= LEAF {
        for &r in rows {
            visit(r, best);
        }
        return;
    }
    let axis = depth % p;
    let mid = rows.len() / 2;
    visit(rows[mid], best);
    let gap = points[q * p + axis] - points[rows[mid] * p + axis];
    let (near, far) = if gap < 0.0 {
        (&rows[..mid], &rows[mid + 1..])
    } else {
        (&rows[mid + 1..], &rows[..mid])
    };
    nearest(points, p, near, depth + 1, q, best);
    if gap * gap < best.0 {
        nearest(points, p, far, depth + 1, q, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_nearest_other_row() {
        // Rows on a line at 0, 1, 3, 7, ..., 2^k - 1: each row's nearest
        // other row is the one before it (row 0's is row 1).
        let points: Vec<f64> = (0..40)
            .map(|k| f64::from((1u32 << (k % 20)) - 1) + f64::from(k / 20) * 1e7)
            .collect();
        let mut rows: Vec<usize> = (0..points.len()).collect();
        build(&points, 1, &mut rows, 0);
        for q in 0..points.len() {
            let mut best = (f64::INFINITY, q);
            nearest(&points, 1, &rows, 0, q, &mut best);
            let brute = (0..points.len())
                .filter(|&r| r != q)
                .min_by(|&a, &b| sq_dist(&points, 1, q, a).total_cmp(&sq_dist(&points, 1, q, b)))
                .unwrap();
            assert_eq!(best.0, sq_dist(&points, 1, q, brute), "row {q}");
        }
    }
}
