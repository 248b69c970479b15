//! OPTICS over data summaries (the Data Bubbles adaptation the paper
//! applies after every batch of updates).
//!
//! Running OPTICS on `s` summaries instead of `N` points is what makes
//! hierarchical clustering of a large dynamic database cheap; what has to
//! change is how distances are measured:
//!
//! * **Bubble distance** ([`bubble_distance`]): when two bubbles do not
//!   overlap, the distance between their representatives minus both
//!   extents, plus both expected nearest-neighbour distances (the distance
//!   their *border points* would measure); when they overlap, the larger of
//!   the two expected nearest-neighbour distances.
//! * **Core distance**: a bubble holding at least `min_pts` points is a
//!   core object by itself with core distance `nnDist(min_pts)`; a smaller
//!   bubble accumulates neighbouring bubbles by distance until their point
//!   counts reach `min_pts`.
//! * **Virtual reachability**: a bubble appears in the point-level plot as
//!   its first member at the bubble's own reachability followed by its
//!   remaining members at `nnDist(min_pts)` — the reachability its points
//!   would exhibit if processed individually
//!   ([`BubbleOrdering::expand`]).
//!
//! The ordering itself is the standard OPTICS best-first expansion; with
//! `s` in the hundreds a dense `O(s²)` neighbour scan is both simpler and
//! faster than an index.

use crate::reachability::ReachabilityPlot;
use idb_core::DataSummary;
use idb_geometry::parallel::run_chunks;
use idb_geometry::{dist, Parallelism, SeedBlock};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distance between two non-empty data summaries.
///
/// # Panics
/// Panics (in debug builds) if either summary is empty.
#[must_use]
pub fn bubble_distance<S: DataSummary>(a: &S, b: &S) -> f64 {
    debug_assert!(a.n() > 0 && b.n() > 0, "distance of empty summaries");
    bubble_distance_flat(
        &a.rep(),
        a.extent(),
        a.nn_dist(1),
        &b.rep(),
        b.extent(),
        b.nn_dist(1),
    )
}

/// [`bubble_distance`] over pre-extracted summary parts: representative
/// coordinates, extent and `nnDist(1)` of each side.
///
/// The `O(s²)` matrix fill of [`optics_bubbles_with`] extracts each live
/// summary's parts **once** into a flat [`SeedBlock`] and two
/// `Vec<f64>`s, then calls this per pair — the trait's `rep()` allocates
/// a fresh `Vec` per call, which at `s²` pairs per epoch dominated the
/// fill. Same floating-point operations in the same order as
/// [`bubble_distance`], so the value is bit-identical.
#[inline]
#[must_use]
pub fn bubble_distance_flat(ra: &[f64], ea: f64, na: f64, rb: &[f64], eb: f64, nb: f64) -> f64 {
    let d = dist(ra, rb);
    let gap = d - (ea + eb);
    if gap >= 0.0 {
        gap + na + nb
    } else {
        na.max(nb)
    }
}

/// Extracted parts of the live summaries: dimension-strided representative
/// block plus per-summary extent and `nnDist(1)` arrays, aligned with the
/// `live` index list they were extracted from.
#[derive(Debug, Clone)]
struct SummaryParts {
    /// Representative coordinates, one row per live summary.
    reps: SeedBlock,
    /// `extent()` per live summary.
    extents: Vec<f64>,
    /// `nn_dist(1)` per live summary.
    nn1: Vec<f64>,
}

impl SummaryParts {
    /// Extracts the parts of `summaries[live[..]]` (each must be
    /// non-empty) for a flat pairwise-distance pass.
    fn extract<S: DataSummary>(summaries: &[S], live: &[usize]) -> Self {
        let dim = live
            .first()
            .map_or(1, |&i| summaries[i].dim().max(1))
            .max(1);
        let mut parts = Self {
            reps: SeedBlock::with_capacity(dim, live.len()),
            extents: Vec::with_capacity(live.len()),
            nn1: Vec::with_capacity(live.len()),
        };
        for &idx in live {
            let s = &summaries[idx];
            parts.reps.push(&s.rep());
            parts.extents.push(s.extent());
            parts.nn1.push(s.nn_dist(1));
        }
        parts
    }

    /// [`bubble_distance_flat`] between live rows `i` and `j`.
    #[inline]
    fn distance(&self, i: usize, j: usize) -> f64 {
        bubble_distance_flat(
            self.reps.get(i),
            self.extents[i],
            self.nn1[i],
            self.reps.get(j),
            self.extents[j],
            self.nn1[j],
        )
    }
}

/// The OPTICS ordering of a set of summaries.
#[derive(Debug, Clone)]
pub struct BubbleOrdering {
    /// Indices into the input summary slice, in processing order.
    pub order: Vec<usize>,
    /// Reachability of each processed summary, aligned with `order`
    /// (`f64::INFINITY` where undefined).
    pub reachability: Vec<f64>,
    /// `nnDist(min_pts)` of each summary in `order` — its virtual
    /// reachability.
    pub virtual_reachability: Vec<f64>,
}

impl BubbleOrdering {
    /// Number of ordered summaries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no summary was ordered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Expands the bubble-level ordering into a point-level reachability
    /// plot: for the summary at order position `i`, `members(i)` must yield
    /// the ids of its points; the first one is plotted at the bubble's
    /// reachability and the rest at its virtual reachability.
    pub fn expand<F, I>(&self, mut members: F) -> ReachabilityPlot
    where
        F: FnMut(usize) -> I,
        I: IntoIterator<Item = u64>,
    {
        let mut plot = ReachabilityPlot::new();
        for (pos, &summary_idx) in self.order.iter().enumerate() {
            let mut first = true;
            for id in members(summary_idx) {
                let r = if first {
                    self.reachability[pos]
                } else {
                    self.virtual_reachability[pos]
                };
                plot.push(id, r);
                first = false;
            }
        }
        plot
    }
}

/// Min-heap seed with lazy deletion (see `optics` module).
#[derive(Debug, Clone, Copy)]
struct Seed {
    reach: f64,
    idx: u32,
}
impl PartialEq for Seed {
    fn eq(&self, other: &Self) -> bool {
        self.reach == other.reach && self.idx == other.idx
    }
}
impl Eq for Seed {}
impl PartialOrd for Seed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Seed {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed operands turn `BinaryHeap`'s max-heap into a min-heap.
        // `total_cmp` keeps the order total even over NaN (a NaN
        // reachability — conceivable from non-finite inputs — sorts
        // below every real value here instead of collapsing the
        // comparison to "equal", which made heap order, and thus the
        // whole cluster ordering, depend on insertion order).
        other
            .reach
            .total_cmp(&self.reach)
            .then(other.idx.cmp(&self.idx))
    }
}

/// Runs OPTICS over non-empty summaries.
///
/// Empty summaries (bubbles whose every point was deleted) are skipped —
/// they compress nothing and have no position. `eps` bounds the
/// neighbourhood (pass `f64::INFINITY` for the full hierarchy); `min_pts`
/// counts *points*, not bubbles.
///
/// # Panics
/// Panics if `min_pts == 0`.
#[must_use]
pub fn optics_bubbles<S: DataSummary + Sync>(
    summaries: &[S],
    eps: f64,
    min_pts: usize,
) -> BubbleOrdering {
    optics_bubbles_with(summaries, eps, min_pts, Parallelism::default())
}

/// [`optics_bubbles`] with an explicit [`Parallelism`] mode.
///
/// The `O(s²)` candidate-generation stage — the pairwise bubble-distance
/// matrix feeding every core-distance and reachability decision — fans out
/// over contiguous chunks of matrix rows. Each pair is computed exactly
/// once by exactly one worker and mirrored serially afterwards, so the
/// matrix (and therefore the ordering) is bit-identical across modes. The
/// best-first expansion itself is inherently sequential and stays serial.
///
/// # Panics
/// Panics if `min_pts == 0`.
#[must_use]
pub fn optics_bubbles_with<S: DataSummary + Sync>(
    summaries: &[S],
    eps: f64,
    min_pts: usize,
    par: Parallelism,
) -> BubbleOrdering {
    assert!(min_pts > 0, "min_pts must be positive");
    // Dense working set of non-empty summaries.
    let live: Vec<usize> = (0..summaries.len())
        .filter(|&i| summaries[i].n() > 0)
        .collect();
    let s = live.len();
    if s == 0 {
        return BubbleOrdering {
            order: Vec::new(),
            reachability: Vec::new(),
            virtual_reachability: Vec::new(),
        };
    }

    // Dense pairwise distance matrix over the live summaries. The parts of
    // every live summary are extracted once into a flat block (rep() is an
    // allocating trait call — O(s) extractions instead of O(s²)); workers
    // fill disjoint upper-triangle rows from the block, and the lower
    // triangle is mirrored once the chunks are back in row order.
    let parts = SummaryParts::extract(summaries, &live);
    let parts = &parts;
    let rows: Vec<usize> = (0..s).collect();
    let row_chunks = run_chunks(&rows, par.effective_threads(), |chunk| {
        chunk
            .iter()
            .map(|&i| {
                ((i + 1)..s)
                    .map(|j| parts.distance(i, j))
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<Vec<f64>>>()
    });
    let mut pair = vec![0.0f64; s * s];
    for (i, row) in row_chunks.into_iter().flatten().enumerate() {
        for (offset, d) in row.into_iter().enumerate() {
            let j = i + 1 + offset;
            pair[i * s + j] = d;
            pair[j * s + i] = d;
        }
    }

    let mut ordering = BubbleOrdering {
        order: Vec::with_capacity(s),
        reachability: Vec::with_capacity(s),
        virtual_reachability: Vec::with_capacity(s),
    };

    // Core distance of live summary `i`: weighted accumulation of point
    // counts over neighbours by ascending distance.
    let core_dist = |i: usize, neigh_sorted: &[(usize, f64)]| -> f64 {
        let own = summaries[live[i]].n() as usize;
        if own >= min_pts {
            return summaries[live[i]].nn_dist(min_pts);
        }
        let mut acc = own;
        for &(j, d) in neigh_sorted {
            if j == i {
                continue;
            }
            acc += summaries[live[j]].n() as usize;
            if acc >= min_pts {
                return d;
            }
        }
        f64::INFINITY
    };

    let mut processed = vec![false; s];
    let mut reach = vec![f64::INFINITY; s];
    let mut heap: BinaryHeap<Seed> = BinaryHeap::new();
    let mut neigh: Vec<(usize, f64)> = Vec::new();

    let expand = |i: usize,
                  processed: &[bool],
                  reach: &mut Vec<f64>,
                  heap: &mut BinaryHeap<Seed>,
                  neigh: &mut Vec<(usize, f64)>| {
        neigh.clear();
        for j in 0..s {
            if j == i {
                continue;
            }
            let d = pair[i * s + j];
            if d <= eps {
                neigh.push((j, d));
            }
        }
        // `total_cmp` with the index tiebreak: a NaN distance (possible
        // when a summary carries non-finite coordinates) must not make
        // the neighbour order — and with it the core distance — depend
        // on the sort algorithm's comparison sequence.
        neigh.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let core = core_dist(i, neigh);
        if core.is_infinite() {
            return;
        }
        for &(j, d) in neigh.iter() {
            if processed[j] {
                continue;
            }
            let r = core.max(d);
            if r < reach[j] {
                reach[j] = r;
                heap.push(Seed {
                    reach: r,
                    idx: j as u32,
                });
            }
        }
    };

    for start in 0..s {
        if processed[start] {
            continue;
        }
        processed[start] = true;
        ordering.order.push(live[start]);
        ordering.reachability.push(f64::INFINITY);
        ordering
            .virtual_reachability
            .push(summaries[live[start]].nn_dist(min_pts));
        expand(start, &processed, &mut reach, &mut heap, &mut neigh);

        while let Some(Seed { reach: r, idx }) = heap.pop() {
            let i = idx as usize;
            if processed[i] || r > reach[i] {
                continue;
            }
            processed[i] = true;
            ordering.order.push(live[i]);
            ordering.reachability.push(reach[i]);
            ordering
                .virtual_reachability
                .push(summaries[live[i]].nn_dist(min_pts));
            expand(i, &processed, &mut reach, &mut heap, &mut neigh);
        }
    }
    ordering
}

#[cfg(test)]
mod tests {
    use super::*;
    use idb_core::SufficientStats;

    /// Minimal summary for tests: a ball of `n` points.
    #[derive(Debug, Clone)]
    struct Ball {
        stats: SufficientStats,
    }

    impl Ball {
        fn new(center: &[f64], radius: f64, n: usize) -> Self {
            // Approximate a ball by pairs symmetric around the center so
            // the mean is exact and the extent ~ radius.
            let dim = center.len();
            let mut stats = SufficientStats::new(dim);
            for i in 0..n {
                let mut p = center.to_vec();
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                p[i % dim] += sign * radius;
                stats.add(&p);
            }
            Self { stats }
        }

        fn empty(dim: usize) -> Self {
            Self {
                stats: SufficientStats::new(dim),
            }
        }
    }

    impl DataSummary for Ball {
        fn dim(&self) -> usize {
            self.stats.dim()
        }
        fn n(&self) -> u64 {
            self.stats.n()
        }
        fn rep(&self) -> Vec<f64> {
            self.stats.rep().unwrap()
        }
        fn extent(&self) -> f64 {
            self.stats.extent()
        }
        fn nn_dist(&self, k: usize) -> f64 {
            self.stats.nn_dist(k)
        }
    }

    #[test]
    fn distance_of_far_bubbles_is_gap_plus_nn() {
        let a = Ball::new(&[0.0, 0.0], 1.0, 20);
        let b = Ball::new(&[50.0, 0.0], 1.0, 20);
        let d = bubble_distance(&a, &b);
        let expect = 50.0 - a.extent() - b.extent() + a.nn_dist(1) + b.nn_dist(1);
        assert!((d - expect).abs() < 1e-9);
        assert!(d < 50.0 && d > 40.0);
    }

    #[test]
    fn distance_of_overlapping_bubbles_is_max_nn() {
        let a = Ball::new(&[0.0, 0.0], 5.0, 10);
        let b = Ball::new(&[1.0, 0.0], 5.0, 40);
        let d = bubble_distance(&a, &b);
        assert!((d - a.nn_dist(1).max(b.nn_dist(1))).abs() < 1e-12);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Ball::new(&[3.0, 4.0], 2.0, 15);
        let b = Ball::new(&[30.0, -7.0], 0.5, 8);
        assert_eq!(bubble_distance(&a, &b), bubble_distance(&b, &a));
    }

    #[test]
    fn nan_reachability_orders_last_and_deterministically() {
        // `total_cmp` sorts every NaN above every real value, so the
        // lazy min-heap yields real seeds first (ascending, index
        // tiebreak) and NaN seeds last, in index order — independent of
        // push order. The old `partial_cmp(..).unwrap_or(Equal)`
        // comparator declared NaN equal to *everything*, which is not
        // transitive, breaking the heap invariant and making pop order
        // depend on insertion history.
        let seeds = [
            (f64::NAN, 3u32),
            (1.0, 1),
            (f64::NAN, 2),
            (0.5, 4),
            (f64::INFINITY, 0),
        ];
        let mut forward = BinaryHeap::new();
        for &(reach, idx) in &seeds {
            forward.push(Seed { reach, idx });
        }
        let mut reversed = BinaryHeap::new();
        for &(reach, idx) in seeds.iter().rev() {
            reversed.push(Seed { reach, idx });
        }
        let drain = |mut h: BinaryHeap<Seed>| -> Vec<u32> {
            std::iter::from_fn(|| h.pop()).map(|s| s.idx).collect()
        };
        let f = drain(forward);
        assert_eq!(f, vec![4, 1, 0, 2, 3]);
        assert_eq!(
            f,
            drain(reversed),
            "pop order must not depend on push order"
        );
    }

    #[test]
    fn nan_pair_distances_are_no_edges() {
        // A NaN bubble distance (conceivable from non-finite summary
        // stats) satisfies no `d <= eps` test, so it must behave as "no
        // edge": the expansion completes, visits every summary, and the
        // NaN never infects a reachability value or panics the
        // neighbour sort. Poisoning one bubble's `nnDist(1)` makes its
        // distance to every bubble it does not overlap NaN.
        #[derive(Debug, Clone)]
        struct Poisonable {
            ball: Ball,
            nan_nn1: bool,
        }
        impl DataSummary for Poisonable {
            fn dim(&self) -> usize {
                self.ball.dim()
            }
            fn n(&self) -> u64 {
                self.ball.n()
            }
            fn rep(&self) -> Vec<f64> {
                self.ball.rep()
            }
            fn extent(&self) -> f64 {
                self.ball.extent()
            }
            fn nn_dist(&self, k: usize) -> f64 {
                if self.nan_nn1 && k == 1 {
                    f64::NAN
                } else {
                    self.ball.nn_dist(k)
                }
            }
        }
        let summaries: Vec<Poisonable> = [[0.0, 0.0], [3.0, 0.0], [100.0, 0.0]]
            .iter()
            .enumerate()
            .map(|(i, center)| Poisonable {
                ball: Ball::new(center, 1.0, 30),
                nan_nn1: i == 2,
            })
            .collect();
        assert!(bubble_distance(&summaries[0], &summaries[2]).is_nan());
        assert!(bubble_distance(&summaries[1], &summaries[2]).is_nan());
        let a = optics_bubbles(&summaries, f64::INFINITY, 10);
        assert_eq!(a.order.len(), 3, "every summary is still visited");
        assert!(
            a.reachability.iter().all(|r| !r.is_nan()),
            "NaN never becomes a reachability: {:?}",
            a.reachability
        );
        assert_eq!(
            a.reachability.iter().filter(|r| r.is_infinite()).count(),
            2,
            "the poisoned bubble starts a component of its own"
        );
        let b = optics_bubbles(&summaries, f64::INFINITY, 10);
        assert_eq!(a.order, b.order);
        assert_eq!(a.reachability, b.reachability);
    }

    #[test]
    fn ordering_visits_all_nonempty_summaries() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 30),
            Ball::new(&[3.0, 0.0], 1.0, 30),
            Ball::empty(2),
            Ball::new(&[100.0, 0.0], 1.0, 30),
            Ball::new(&[103.0, 0.0], 1.0, 30),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 10);
        assert_eq!(ord.len(), 4);
        assert!(!ord.order.contains(&2), "empty summary skipped");
        // Group structure: the two groups are contiguous in the order.
        let group = |i: usize| usize::from(i >= 3);
        let seq: Vec<usize> = ord.order.iter().map(|&i| group(i)).collect();
        let switches = seq.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1, "order {:?}", ord.order);
    }

    #[test]
    fn gap_shows_as_large_reachability() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 30),
            Ball::new(&[3.0, 0.0], 1.0, 30),
            Ball::new(&[100.0, 0.0], 1.0, 30),
            Ball::new(&[103.0, 0.0], 1.0, 30),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 10);
        let jumps = ord
            .reachability
            .iter()
            .filter(|r| r.is_finite() && **r > 50.0)
            .count();
        assert_eq!(jumps, 1);
    }

    #[test]
    fn expansion_emits_n_entries_per_bubble() {
        let summaries = vec![
            Ball::new(&[0.0, 0.0], 1.0, 5),
            Ball::new(&[10.0, 0.0], 1.0, 3),
        ];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 2);
        // Bubble i's members are ids 100*i .. 100*i + n.
        let plot = ord.expand(|i| {
            let n = summaries[i].n();
            (0..n).map(move |j| 100 * i as u64 + j)
        });
        assert_eq!(plot.len(), 8);
        // First entry of each bubble is the bubble reachability (the very
        // first is infinite); followers sit at the virtual reachability.
        let inf = plot
            .entries()
            .iter()
            .filter(|e| e.reachability.is_infinite())
            .count();
        assert_eq!(inf, 1);
    }

    #[test]
    fn small_bubbles_accumulate_neighbors_for_core_distance() {
        // Each bubble holds 2 points; min_pts = 5 forces neighbour
        // accumulation. A tight chain is still one cluster.
        let summaries: Vec<Ball> = (0..6)
            .map(|i| Ball::new(&[i as f64, 0.0], 0.2, 2))
            .collect();
        let ord = optics_bubbles(&summaries, f64::INFINITY, 5);
        assert_eq!(ord.len(), 6);
        let finite = ord.reachability.iter().filter(|r| r.is_finite()).count();
        assert_eq!(finite, 5, "single chain after the first seed");
    }

    #[test]
    fn parallel_ordering_is_bit_identical_to_serial() {
        // Awkward sizes (prime count, empty summaries interleaved) so chunk
        // boundaries land mid-row in every threaded mode.
        let summaries: Vec<Ball> = (0..23)
            .map(|i| {
                if i % 7 == 3 {
                    Ball::empty(2)
                } else {
                    let x = f64::from(i % 5) * 2.0 + f64::from(i / 5) * 40.0;
                    Ball::new(&[x, f64::from(i % 3)], 0.8, 4 + i as usize % 6)
                }
            })
            .collect();
        let serial = optics_bubbles_with(&summaries, f64::INFINITY, 6, Parallelism::Serial);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Threads(8),
            Parallelism::Auto,
        ] {
            let p = optics_bubbles_with(&summaries, f64::INFINITY, 6, par);
            assert_eq!(p.order, serial.order, "{par:?}");
            assert_eq!(p.reachability, serial.reachability, "{par:?}");
            assert_eq!(
                p.virtual_reachability, serial.virtual_reachability,
                "{par:?}"
            );
        }
    }

    #[test]
    fn all_empty_summaries_yield_empty_ordering() {
        let summaries = vec![Ball::empty(2), Ball::empty(2)];
        let ord = optics_bubbles(&summaries, f64::INFINITY, 3);
        assert!(ord.is_empty());
        let plot = ord.expand(|_| std::iter::empty());
        assert!(plot.is_empty());
    }
}
