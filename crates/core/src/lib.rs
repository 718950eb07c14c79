//! Backward-Sort — the paper's primary contribution.
//!
//! A sorting algorithm specialized for out-of-order time-series arrivals,
//! exploiting two structural features (paper §II-B):
//!
//! * **delay-only** — points arrive late, never "early", so disorder moves
//!   elements *backward*;
//! * **not-too-distant** — IoTDB's separation policy caps how far a point
//!   can be delayed within one memtable, so disorder is *local*.
//!
//! The algorithm (paper Algorithm 1) has three phases:
//!
//! 1. **Set block size** ([`choose_block_size`]) — grow `L` from `L0` by
//!    doubling until the down-sampled empirical interval inversion ratio
//!    `α̃_L` falls below the threshold `Θ`;
//! 2. **Sort by blocks** — sort each `L`-sized block independently
//!    (quicksort by default, substitutable — on flat memory, a counting
//!    sort over the block's time range when that range is narrow, else
//!    the standard library's slice sort; see [`InBlockSort`]);
//! 3. **Backward merge** ([`merge`]) — walk blocks back-to-front, merging
//!    each into the already-sorted suffix; only the expected-`Q`-sized
//!    overlap is touched, using scratch space proportional to the overlap.
//!    A counted block needs scratch as long as itself, so on flat memory
//!    the sort's scratch is `O(max(L, Q))`.
//!
//! Degenerate cases (paper Fig. 6): `L = 1` is straight insertion sort,
//! `L = N` is quicksort — so "Quicksort is indeed the worst case of our
//! proposal".
//!
//! ```
//! use backsort_core::BackwardSort;
//! use backsort_sorts::SeriesSorter;
//! use backsort_tvlist::{SliceSeries, SeriesAccess};
//!
//! // Fig. 1's arrival order: p5 (t=2) and p9 (t=8) are delayed.
//! let mut pts = vec![
//!     (1i64, "p1"), (3, "p2"), (4, "p3"), (5, "p4"), (2, "p5"),
//!     (6, "p6"), (7, "p7"), (9, "p8"), (8, "p9"), (10, "p10"),
//! ];
//! let mut series = SliceSeries::new(&mut pts);
//! BackwardSort::default().sort_series(&mut series);
//! assert!((1..series.len()).all(|i| series.time(i - 1) <= series.time(i)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod iir;
pub mod merge;

use backsort_sorts::{BaselineSorter, SeriesSorter};
use backsort_tvlist::{SeriesAccess, SliceSeries};

/// How Backward-Sort orders the points *inside* each block.
///
/// The paper uses quicksort "in default and can be substituted by other
/// algorithms" (Algorithm 1, line 11). `Stable` makes the whole sort
/// stable, since the backward merge itself is stable.
///
/// On flat memory ([`SeriesAccess::contiguous_from`]) `Quick` and
/// `Stable` share one rule: a block of at least 256 points whose time
/// range (largest minus smallest timestamp) is below 2¹⁶ is sorted by a
/// stable counting sort on `t − min` in two 8-bit passes; any other
/// block by the standard library's sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InBlockSort {
    /// Middle-pivot quicksort (paper default); on flat memory, a
    /// counting sort or `sort_unstable_by_key` on the block's pairs.
    /// Unstable: which of two equal timestamps comes first is
    /// unspecified, even though a counted block keeps arrival order.
    #[default]
    Quick,
    /// Extract-and-stable-sort per block (binary insertion when small);
    /// on flat memory, a counting sort or `sort_by_key` on the block's
    /// pairs. Stable.
    Stable,
}

/// Configuration and entry point for Backward-Sort.
///
/// Phase 1 grows the block size `L` from `L0` by doubling, the update
/// the paper's analysis assumes (Eq. 15, Propositions 3 and 6). The
/// defaults are the paper's fixed parameters: `Θ = 0.04` and `L0 = 4`
/// (§VI-B "Fixed Parameter").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardSort {
    /// Interval-inversion-ratio threshold `Θ`: block size stops growing
    /// once the down-sampled `α̃_L` falls below it.
    pub theta: f64,
    /// Initial block size `L0`, doubled each probe round.
    pub l0: usize,
    /// In-block sorting algorithm.
    pub in_block: InBlockSort,
    /// Fixed block size override: skips phase 1 entirely. Used by the
    /// parameter-tuning experiment (paper Fig. 8(b), which "omits the
    /// first step of the algorithm" and sets `L` manually).
    pub fixed_block_size: Option<usize>,
}

impl Default for BackwardSort {
    fn default() -> Self {
        Self {
            theta: 0.04,
            l0: 4,
            in_block: InBlockSort::Quick,
            fixed_block_size: None,
        }
    }
}

/// Per-run diagnostics from [`BackwardSort::sort_with_report`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SortReport {
    /// The block size `L` the first phase settled on.
    pub block_size: usize,
    /// Iterations of the set-block-size loop (the paper's `P`).
    pub size_loops: usize,
    /// Number of blocks sorted (`B = ⌊N/L⌋` with the remainder folded
    /// into the last block).
    pub blocks: usize,
    /// Backward merges that actually moved elements (non-trivial
    /// overlaps).
    pub merges: usize,
    /// Total overlap length across all merges (≈ `B·Q`).
    pub overlap_total: usize,
    /// Peak scratch usage in elements: the largest merge overlap's, or a
    /// counted block's length if that is larger (flat memory, see
    /// [`InBlockSort`]) — `O(Q)` on a `TVList`, `O(max(L, Q))` on flat
    /// memory.
    pub scratch_peak: usize,
    /// The last `α̃_L` the block-size probe sampled — the measured
    /// interval inversion ratio at the chosen `L` (0.0 when phase 1 was
    /// skipped: fixed block size or trivially small input).
    pub alpha: f64,
}

impl BackwardSort {
    /// Creates a config with a specific threshold and initial block size.
    pub fn new(theta: f64, l0: usize) -> Self {
        Self {
            theta,
            l0: l0.max(1),
            ..Self::default()
        }
    }

    /// Creates a config that skips the size search and uses block size `l`
    /// directly (the Fig. 8(b) tuning mode).
    pub fn with_fixed_block_size(l: usize) -> Self {
        Self {
            fixed_block_size: Some(l.max(1)),
            ..Self::default()
        }
    }

    /// Sorts `s` and returns phase diagnostics.
    pub fn sort_with_report<S: SeriesAccess>(&self, s: &mut S) -> SortReport {
        self.sort_observed(s, None)
    }

    /// [`sort_with_report`](Self::sort_with_report), additionally
    /// streaming live telemetry into `obs` when given: the chosen `L` and
    /// the per-step backward-merge overlap `Q` — zero-overlap merges
    /// included, since the Theorem bounds the expectation over *all*
    /// merge steps. The probe loop count and `α̃_L` stay in the report.
    pub fn sort_observed<S: SeriesAccess>(
        &self,
        s: &mut S,
        obs: Option<&backsort_obs::Registry>,
    ) -> SortReport {
        let n = s.len();
        let mut report = SortReport::default();
        if n < 2 {
            report.block_size = n.max(1);
            report.blocks = n;
            return report;
        }

        // Phase 1: set block size.
        let (l, loops, alpha) = match self.fixed_block_size {
            Some(l) => (l.min(n), 0, 0.0),
            None => choose_block_size_reporting(s, self.theta, self.l0),
        };
        report.block_size = l;
        report.size_loops = loops;
        report.alpha = alpha;
        if let Some(obs) = obs {
            obs.histogram(backsort_obs::names::SORT_BLOCK_SIZE)
                .record(l as u64);
        }

        // One scratch vector serves the in-block sorts and the merges.
        let mut scratch: Vec<(i64, S::Value)> = Vec::new();
        if l >= n {
            // Degenerates to a single block: plain quicksort (Fig. 6).
            report.scratch_peak = self.sort_block(s, 0, n, &mut scratch);
            report.blocks = 1;
            return report;
        }

        // Phase 2: sort each block. The remainder (< L points) is folded
        // into the final block so no block is shorter than L.
        let b = n / l;
        report.blocks = b;
        for i in 0..b {
            let lo = i * l;
            let hi = if i + 1 == b { n } else { lo + l };
            let used = self.sort_block(s, lo, hi, &mut scratch);
            report.scratch_peak = report.scratch_peak.max(used);
        }

        // Phase 3: backward merge, walking blocks from the back. After
        // iteration `i`, the suffix starting at block `i+1` is fully
        // sorted, so each merge is block-vs-sorted-suffix and
        // `findOverlappedBlock` happens implicitly: the gallop into the
        // suffix reaches exactly as far as blocks i+1..k overlap.
        // Per-merge Q lands in a stack-local accumulator (a sort does up
        // to n/L merges; one atomic fold at the end keeps the shared
        // histogram off the merge loop).
        let mut overlap_q = obs.map(|_| backsort_obs::LocalHistogram::new());
        for i in (0..b - 1).rev() {
            let suffix_start = (i + 1) * l;
            let m = merge::merge_block_with_suffix(s, i * l, suffix_start, n, &mut scratch);
            if let Some(h) = &mut overlap_q {
                h.record(m.suffix_overlap as u64);
            }
            if m.overlap > 0 {
                report.merges += 1;
                report.overlap_total += m.overlap;
                report.scratch_peak = report.scratch_peak.max(m.scratch_used);
            }
        }
        if let (Some(obs), Some(local)) = (obs, &overlap_q) {
            obs.histogram(backsort_obs::names::MERGE_OVERLAP_Q)
                .merge_local(local);
        }
        report
    }

    /// Sorts the block `s[lo..hi]` with [`in_block`](Self::in_block)
    /// and returns how many elements of `scratch` it used.
    ///
    /// On flat memory the quick and stable sorts are
    /// [`sort_flat_block`]'s, which move whole pairs with no per-access
    /// dispatch. A `TVList` or an
    /// [`Instrumented`](backsort_tvlist::Instrumented) series keeps the
    /// paper's quicksort, whose moves and comparisons Figs. 8–12 count.
    fn sort_block<S: SeriesAccess>(
        &self,
        s: &mut S,
        lo: usize,
        hi: usize,
        scratch: &mut Vec<(i64, S::Value)>,
    ) -> usize {
        if let Some(flat) = s.contiguous_from(lo) {
            let stable = self.in_block == InBlockSort::Stable;
            return sort_flat_block(&mut flat[..hi - lo], stable, scratch);
        }
        // Delay-only data leaves many blocks already sorted; a linear
        // pre-check (first inversion exits early) skips them — the same
        // economy IoTDB gets from its TVList `sorted` flag.
        if (lo + 1..hi).all(|i| s.time(i - 1) <= s.time(i)) {
            return 0;
        }
        match self.in_block {
            InBlockSort::Quick => backsort_sorts::quicksort_range(s, lo, hi),
            InBlockSort::Stable => {
                if hi - lo <= 64 {
                    backsort_sorts::binary_insertion_sort_range(s, lo, hi, lo);
                } else {
                    let mut pairs: Vec<(i64, S::Value)> = (lo..hi).map(|j| s.get(j)).collect();
                    pairs.sort_by_key(|p| p.0);
                    for (k, &(t, v)) in pairs.iter().enumerate() {
                        s.set(lo + k, t, v);
                    }
                }
            }
        }
        0
    }
}

/// The shortest flat block [`sort_flat_block`] counts. Each pass clears
/// and sums 256 counters whatever the block's length; counting every
/// short block too made a 100,000-point AbsNormal(1, 2) flush, whose
/// searched blocks are short, sort at 67–82 ns a point instead of 19–22
/// (2-core Xeon).
const COUNTING_MIN_LEN: usize = 256;

/// Sorts a block of flat pairs by timestamp — the substitution
/// Algorithm 1 (line 11) allows for its in-block quicksort.
///
/// A block that already ascends is left alone: delay-only data leaves
/// many, and the scan for the first inversion exits early — the economy
/// IoTDB gets from its TVList `sorted` flag. Past that inversion the scan
/// goes on for the block's smallest and largest timestamp. Blocking is
/// what keeps that range narrow: under delay-only, not-too-distant
/// arrivals a block of `L` arrivals spans about `L` sampling intervals
/// plus the delay tail. So a block of at least [`COUNTING_MIN_LEN`]
/// points whose range fits 16 bits is sorted by [`counting_sort`], in
/// two linear passes, where a comparison sort needs about `log₂ L`
/// rounds. Any other block takes the standard library's `sort_by_key`
/// when `stable`, else `sort_unstable_by_key`.
///
/// `scratch` is the counting sort's second buffer; it is grown, never
/// shrunk, so a sort's blocks share one allocation. Returns how many of
/// its elements the block used: its length when counted, else 0.
fn sort_flat_block<V: Copy>(
    block: &mut [(i64, V)],
    stable: bool,
    scratch: &mut Vec<(i64, V)>,
) -> usize {
    let mut times = block.iter().map(|p| p.0);
    let Some(first) = times.next() else {
        return 0;
    };
    let mut last = first;
    let Some(inverted) = times.by_ref().find(|&t| {
        if t < last {
            return true;
        }
        last = t;
        false
    }) else {
        return 0;
    };
    if block.len() >= COUNTING_MIN_LEN {
        // Up to the inversion the block ascends from `first` to `last`.
        let (min, max) = times.fold((first.min(inverted), last), |(lo, hi), t| {
            (lo.min(t), hi.max(t))
        });
        let span = (max as u64).wrapping_sub(min as u64);
        if span < 1 << 16 {
            counting_sort(block, min, scratch);
            return block.len();
        }
    }
    if stable {
        block.sort_by_key(|p| p.0);
    } else {
        block.sort_unstable_by_key(|p| p.0);
    }
    0
}

/// Stable LSD counting sort of `block` on the key `t − min`, computed as
/// a wrapping `u64` so no range overflows; every key must be below 2¹⁶.
/// Two 8-bit passes, low byte into `scratch`, then high byte back into
/// `block`.
fn counting_sort<V: Copy>(block: &mut [(i64, V)], min: i64, scratch: &mut Vec<(i64, V)>) {
    let Some(&fill) = block.first() else {
        return;
    };
    let n = block.len();
    if scratch.len() < n {
        scratch.resize(n, fill);
    }
    let buf = &mut scratch[..n];
    let key = |p: &(i64, V)| (p.0 as u64).wrapping_sub(min as u64);
    scatter(block, buf, |p| key(p) as u8);
    scatter(buf, block, |p| (key(p) >> 8) as u8);
}

/// One stable counting pass: moves `src` into `dst` ordered by `digit`.
fn scatter<V: Copy>(src: &[(i64, V)], dst: &mut [(i64, V)], digit: impl Fn(&(i64, V)) -> u8) {
    let mut next = [0usize; 256];
    for p in src {
        next[usize::from(digit(p))] += 1;
    }
    let mut start = 0;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    for p in src {
        let slot = &mut next[usize::from(digit(p))];
        dst[*slot] = *p;
        *slot += 1;
    }
}

impl SeriesSorter for BackwardSort {
    fn name(&self) -> &'static str {
        "BackSort"
    }

    fn sort_series<S: SeriesAccess>(&self, s: &mut S) {
        let _ = self.sort_with_report(s);
    }
}

/// Sorts a series with the paper's default configuration.
pub fn backward_sort<S: SeriesAccess>(s: &mut S) {
    BackwardSort::default().sort_series(s);
}

/// Phase 1 of Algorithm 1: doubles `L` from `l0` until the down-sampled
/// interval inversion ratio drops below `theta` (paper Eq. 14–15).
/// Returns `(L, iterations)`.
///
/// Total work is `Σ n/L(t) ≤ 2n/L0` timestamps scanned and at most
/// `log2(n/L0)` iterations (Proposition 3).
pub fn choose_block_size<S: SeriesAccess>(s: &S, theta: f64, l0: usize) -> (usize, usize) {
    let (l, loops, _) = choose_block_size_reporting(s, theta, l0);
    (l, loops)
}

/// [`choose_block_size`] — `L` doubles from `l0` each round —
/// additionally returning the last `α̃_L` sampled: the measured
/// inversion ratio at the chosen block size (0.0 when the loop never
/// ran, i.e. `l0 > n`).
pub fn choose_block_size_reporting<S: SeriesAccess>(
    s: &S,
    theta: f64,
    l0: usize,
) -> (usize, usize, f64) {
    let n = s.len();
    let mut l = l0.max(1);
    let mut loops = 0;
    let mut last_alpha = 0.0;
    while l <= n {
        loops += 1;
        let alpha = iir::sampled_iir(s, l);
        last_alpha = alpha;
        if alpha < theta {
            break;
        }
        l = l.saturating_mul(2);
    }
    (l.min(n.max(1)), loops, last_alpha)
}

/// Every algorithm the evaluation compares, including Backward-Sort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// The paper's contribution.
    Backward(BackwardSort),
    /// One of the baselines from `backsort-sorts`.
    Baseline(BaselineSorter),
}

impl Algorithm {
    /// The paper's Fig. 9–21 contender set, legend order.
    pub fn contenders() -> Vec<Algorithm> {
        vec![
            Algorithm::Backward(BackwardSort::default()),
            Algorithm::Baseline(BaselineSorter::Ck),
            Algorithm::Baseline(BaselineSorter::Quick),
            Algorithm::Baseline(BaselineSorter::Tim),
            Algorithm::Baseline(BaselineSorter::Y),
            Algorithm::Baseline(BaselineSorter::Patience),
        ]
    }

    /// Sorts `s`, streaming Backward-Sort telemetry (block size and
    /// per-merge `Q`) into `obs` when this algorithm is
    /// Backward-Sort. Baselines have no block/merge structure to report,
    /// so they sort silently.
    pub fn sort_series_observed<S: SeriesAccess>(
        &self,
        s: &mut S,
        obs: Option<&backsort_obs::Registry>,
    ) {
        match self {
            Algorithm::Backward(b) => {
                let _ = b.sort_observed(s, obs);
            }
            Algorithm::Baseline(b) => b.sort_series(s),
        }
    }

    /// Time-orders `s` given that its leading `sorted_len` points already
    /// are — what a `TVList` reports as its `sorted_len` — for the cost of
    /// the points that arrived since plus their overlap with the ordered
    /// run, not of the whole series.
    ///
    /// The tail `s[sorted_len..]` is sorted as contiguous pairs — copied
    /// out and written back unless `s` holds it so already
    /// ([`SeriesAccess::contiguous_from`]) — with this algorithm,
    /// streaming its telemetry into `obs` as
    /// [`sort_series_observed`](Self::sort_series_observed) does; one
    /// backward merge of the ordered run with the
    /// sorted tail finishes, touching the overlap only, its `Q` recorded
    /// into `core.merge_overlap_q` like any other merge step's. With
    /// `sorted_len == 0` the tail is the series and there is nothing to
    /// merge. The merge is stable — on equal timestamps the ordered run's
    /// points stay ahead of the tail's — so a stable algorithm keeps
    /// arrival order across any number of such sorts.
    ///
    /// Returns the closing merge's statistics.
    pub fn sort_from_observed<S: SeriesAccess>(
        &self,
        s: &mut S,
        sorted_len: usize,
        obs: Option<&backsort_obs::Registry>,
    ) -> merge::MergeStats {
        let n = s.len();
        debug_assert!(sorted_len <= n);
        debug_assert!((1..sorted_len).all(|i| s.time(i - 1) <= s.time(i)));
        if sorted_len >= n {
            return merge::MergeStats::default();
        }
        // The tail, sorted where it lies if that is flat memory, else in
        // a copy (whose vector the merge then borrows for its overlap).
        let mut scratch = Vec::new();
        match s.contiguous_from(sorted_len) {
            Some(tail) => self.sort_series_observed(&mut SliceSeries::new(tail), obs),
            None => {
                s.read_into(sorted_len, n, &mut scratch);
                self.sort_series_observed(&mut SliceSeries::new(&mut scratch), obs);
                s.copy_from_slice(sorted_len, &scratch);
            }
        }
        if sorted_len == 0 {
            return merge::MergeStats::default();
        }
        let stats = merge::merge_block_with_suffix(s, 0, sorted_len, n, &mut scratch);
        if let Some(obs) = obs {
            obs.histogram(backsort_obs::names::MERGE_OVERLAP_Q)
                .record(stats.suffix_overlap as u64);
        }
        stats
    }

    /// Parses a contender name as used on experiment command lines.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        let lower = name.to_ascii_lowercase();
        Some(match lower.as_str() {
            "backsort" | "backward" | "backward-sort" => {
                Algorithm::Backward(BackwardSort::default())
            }
            "cksort" | "ck" => Algorithm::Baseline(BaselineSorter::Ck),
            "quick" | "quicksort" => Algorithm::Baseline(BaselineSorter::Quick),
            "timsort" | "tim" => Algorithm::Baseline(BaselineSorter::Tim),
            "ysort" | "y" => Algorithm::Baseline(BaselineSorter::Y),
            "patience" => Algorithm::Baseline(BaselineSorter::Patience),
            "insertion" => Algorithm::Baseline(BaselineSorter::Insertion),
            "smoothsort" | "smooth" => Algorithm::Baseline(BaselineSorter::Smooth),
            "std" | "stdsort" => Algorithm::Baseline(BaselineSorter::Std),
            _ => return None,
        })
    }
}

impl SeriesSorter for Algorithm {
    fn name(&self) -> &'static str {
        match self {
            Algorithm::Backward(b) => b.name(),
            Algorithm::Baseline(b) => b.name(),
        }
    }

    fn sort_series<S: SeriesAccess>(&self, s: &mut S) {
        match self {
            Algorithm::Backward(b) => b.sort_series(s),
            Algorithm::Baseline(b) => b.sort_series(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_tvlist::{SliceSeries, TVList};

    fn delayed_series(n: usize, max_delay: i64, seed: u64) -> Vec<(i64, i32)> {
        let mut x = seed | 1;
        let mut arrivals: Vec<(i64, i64)> = (0..n as i64)
            .map(|g| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (g + (x % (max_delay as u64 + 1).max(1)) as i64, g)
            })
            .collect();
        arrivals.sort_by_key(|a| a.0);
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (_, g))| (g, i as i32))
            .collect()
    }

    #[test]
    fn sorts_fig1_example() {
        let mut pts = vec![
            (1i64, 1i32),
            (3, 2),
            (4, 3),
            (5, 4),
            (2, 5),
            (6, 6),
            (7, 7),
            (9, 8),
            (8, 9),
            (10, 10),
        ];
        let mut s = SliceSeries::new(&mut pts);
        backward_sort(&mut s);
        let times: Vec<i64> = (0..s.len()).map(|i| s.time(i)).collect();
        assert_eq!(times, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny() {
        for n in 0..4usize {
            let mut pts: Vec<(i64, i32)> = (0..n).map(|i| (n as i64 - i as i64, 0)).collect();
            let mut s = SliceSeries::new(&mut pts);
            backward_sort(&mut s);
            assert!(backsort_tvlist::is_time_sorted(&s), "n={n}");
        }
    }

    #[test]
    fn report_reflects_phases() {
        let pts = delayed_series(10_000, 10, 42);
        let mut data = pts;
        let mut s = SliceSeries::new(&mut data);
        let report = BackwardSort::default().sort_with_report(&mut s);
        assert!(backsort_tvlist::is_time_sorted(&s));
        assert!(report.block_size >= 4);
        assert!(report.blocks >= 1);
        assert!(report.size_loops >= 1);
        // Scratch stays bounded by the overlap or a counted block, far
        // below n.
        assert!(
            report.scratch_peak < 10_000 / 2,
            "scratch {}",
            report.scratch_peak
        );
    }

    #[test]
    fn fixed_block_size_is_honored() {
        let pts = delayed_series(5_000, 8, 7);
        for l in [1usize, 2, 4, 64, 512, 5_000, 10_000] {
            let mut data = pts.clone();
            let mut s = SliceSeries::new(&mut data);
            let report = BackwardSort::with_fixed_block_size(l).sort_with_report(&mut s);
            assert!(backsort_tvlist::is_time_sorted(&s), "L={l}");
            assert_eq!(report.block_size, l.min(5_000));
            assert_eq!(report.size_loops, 0);
            // Blocks of 256 or more unit-interval points are counted,
            // and the scratch they need is in the peak.
            if l >= 256 {
                assert!(report.scratch_peak >= l.min(5_000), "L={l}: {report:?}");
            }
        }
    }

    #[test]
    fn degenerate_block_sizes_match_fig6() {
        // L = N behaves like quicksort (single block), L = 1 like
        // insertion via blocks of one + merges; both must sort.
        let pts = delayed_series(2_000, 20, 99);
        for l in [1usize, 2_000] {
            let mut data = pts.clone();
            let mut s = SliceSeries::new(&mut data);
            BackwardSort::with_fixed_block_size(l).sort_series(&mut s);
            assert!(backsort_tvlist::is_time_sorted(&s));
        }
    }

    #[test]
    fn all_in_block_sorters_work() {
        let pts = delayed_series(3_000, 12, 5);
        for in_block in [InBlockSort::Quick, InBlockSort::Stable] {
            let mut data = pts.clone();
            let mut s = SliceSeries::new(&mut data);
            let cfg = BackwardSort {
                in_block,
                ..BackwardSort::default()
            };
            cfg.sort_series(&mut s);
            assert!(backsort_tvlist::is_time_sorted(&s), "{in_block:?}");
        }
    }

    #[test]
    fn stable_variant_preserves_arrival_order() {
        // Duplicate timestamps; values = arrival order.
        let mut pts: Vec<(i64, i32)> = Vec::new();
        let mut x = 77u64;
        for i in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pts.push(((x % 50) as i64, i));
        }
        let mut expected = pts.clone();
        expected.sort_by_key(|p| p.0);
        let cfg = BackwardSort {
            in_block: InBlockSort::Stable,
            ..BackwardSort::default()
        };
        let mut s = SliceSeries::new(&mut pts);
        cfg.sort_series(&mut s);
        assert_eq!(s.as_slice(), &expected[..]);
    }

    #[test]
    fn flat_blocks_sort_on_both_sides_of_each_digit_limit() {
        // 512 points with repeated timestamps, spanning exactly `span`
        // from `base`: counted up to 2¹⁶ − 1 (the high byte is 0 below
        // 2⁸), comparison-sorted from 2¹⁶. The last span from `i64::MIN`
        // holds both `i64::MIN` and `i64::MAX`. One scratch vector
        // serves every call, as it serves every block of a sort, and a
        // counted block reports using 512 of its elements; a block of
        // range 0 already ascends and is left alone.
        let mut scratch = Vec::new();
        for span in [0, (1 << 8) - 1, 1 << 8, (1 << 16) - 1, 1 << 16, u64::MAX] {
            for base in [i64::MIN, -1_000_000, 0, i64::MAX.wrapping_sub(span as i64)] {
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ span;
                let block: Vec<(i64, u32)> = (0..512u32)
                    .map(|i| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let off = match i {
                            7 => span,
                            300 => 0,
                            _ => x % span.saturating_add(1) / 8 * 8,
                        };
                        (base.wrapping_add(off as i64), i)
                    })
                    .collect();
                let mut want = block.clone();
                want.sort_by_key(|p| p.0);
                // A counted block is stable under `Quick` too; a
                // comparison-sorted one only under `Stable`.
                for stable in [false, true] {
                    let mut got = block.clone();
                    let used = sort_flat_block(&mut got, stable, &mut scratch);
                    let counted = (1..1 << 16).contains(&span);
                    assert_eq!(used, if counted { 512 } else { 0 });
                    if stable || span < 1 << 16 {
                        assert_eq!(got, want, "span {span} base {base} stable {stable}");
                    } else {
                        assert!(got.iter().map(|p| p.0).eq(want.iter().map(|p| p.0)));
                    }
                }
            }
        }
    }

    #[test]
    fn works_on_tvlists() {
        let pts = delayed_series(8_000, 16, 3);
        let mut list = TVList::<i32>::with_array_size(32);
        for &(t, v) in &pts {
            list.push(t, v);
        }
        backward_sort(&mut list);
        assert!(backsort_tvlist::is_time_sorted(&list));
    }

    #[test]
    fn choose_block_size_grows_with_disorder() {
        let gentle = delayed_series(50_000, 2, 11);
        let wild = delayed_series(50_000, 2_000, 11);
        let mut g = gentle;
        let mut w = wild;
        let gs = SliceSeries::new(&mut g);
        let ws = SliceSeries::new(&mut w);
        let (lg, _) = choose_block_size(&gs, 0.04, 4);
        let (lw, _) = choose_block_size(&ws, 0.04, 4);
        assert!(lw > lg, "wild {lw} should exceed gentle {lg}");
    }

    #[test]
    fn sorted_input_stays_put_with_minimal_work() {
        let mut pts: Vec<(i64, i32)> = (0..10_000).map(|i| (i as i64, i)).collect();
        let mut s = SliceSeries::new(&mut pts);
        let report = BackwardSort::default().sort_with_report(&mut s);
        assert!(backsort_tvlist::is_time_sorted(&s));
        assert_eq!(report.block_size, 4, "sorted input should stop at L0");
        assert_eq!(report.merges, 0, "no overlaps on sorted input");
    }

    #[test]
    fn algorithm_from_name_roundtrip() {
        for name in [
            "BackSort", "CKSort", "Quick", "Timsort", "YSort", "Patience",
        ] {
            let alg = Algorithm::from_name(name).expect(name);
            assert_eq!(alg.name().to_ascii_lowercase(), name.to_ascii_lowercase());
        }
        assert!(Algorithm::from_name("bogus").is_none());
    }

    #[test]
    fn contenders_all_sort() {
        let pts = delayed_series(4_000, 30, 21);
        for alg in Algorithm::contenders() {
            let mut data = pts.clone();
            let mut s = SliceSeries::new(&mut data);
            alg.sort_series(&mut s);
            assert!(backsort_tvlist::is_time_sorted(&s), "{}", alg.name());
        }
    }
}
