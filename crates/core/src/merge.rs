//! Backward merge — phase 3 of Backward-Sort — plus the straight-merge
//! baseline used by the move-count comparison (paper Example 2, Fig. 2).
//!
//! A merge step combines one sorted block with the already-sorted suffix
//! to its right. Because delays are not-too-distant, the two ranges
//! overlap only near the boundary; the overlap endpoints are found by
//! galloping (exponential + binary search) from the boundary, and only the
//! overlap is rewritten, buffering the smaller side in scratch. Move count
//! is therefore `O(overlap)`, not `O(block)`.
//!
//! The engine's read path merges overlapping runs the same way, on its
//! own columns: `Scan::merge` in `backsort-engine`'s `read.rs` moves
//! whole slices, each ended by a binary search, never single rows.

use backsort_tvlist::SeriesAccess;

/// Outcome of one merge step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Elements that participated (run1 + run2 lengths); 0 when the block
    /// and suffix were already in order.
    pub overlap: usize,
    /// Suffix-side overlap length alone (run2): how many already-sorted
    /// suffix elements the block interleaved with — the paper's per-step
    /// `Q`, the quantity Theorem 1 bounds by `E[Δτ | Δτ ≥ 0]`.
    pub suffix_overlap: usize,
    /// Scratch elements used (the smaller run's length).
    pub scratch_used: usize,
    /// Elements written back into the series.
    pub moves: usize,
}

/// Merges the sorted block `s[block_start..suffix_start)` with the sorted
/// suffix `s[suffix_start..end)`, in place, stably (block elements precede
/// suffix elements on equal timestamps, preserving arrival order).
///
/// Returns immediately (0 moves) when the boundary is already ordered —
/// the common case for not-too-distant delays.
pub fn merge_block_with_suffix<S: SeriesAccess>(
    s: &mut S,
    block_start: usize,
    suffix_start: usize,
    end: usize,
    scratch: &mut Vec<(i64, S::Value)>,
) -> MergeStats {
    debug_assert!(block_start <= suffix_start && suffix_start <= end && end <= s.len());
    if block_start == suffix_start || suffix_start == end {
        return MergeStats::default();
    }

    let suffix_min = s.time(suffix_start);
    let block_max = s.time(suffix_start - 1);
    if block_max <= suffix_min {
        return MergeStats::default();
    }

    // run1: the tail of the block that must interleave — everything
    // strictly greater than the suffix head (equal elements stay put for
    // stability). Gallop leftward from the boundary.
    let b = gallop_upper_from_right(s, block_start, suffix_start, suffix_min);
    // run2: the head of the suffix strictly smaller than the block max
    // (equal elements stay after it). Gallop rightward from the boundary.
    let e = gallop_lower_from_left(s, suffix_start, end, block_max);

    let len1 = suffix_start - b;
    let len2 = e - suffix_start;
    debug_assert!(len1 > 0 && len2 > 0);

    let stats = MergeStats {
        overlap: len1 + len2,
        suffix_overlap: len2,
        scratch_used: len1.min(len2),
        moves: 0, // filled below
    };

    let moves = if len1 <= len2 {
        merge_forward(s, b, suffix_start, e, scratch)
    } else {
        merge_backward(s, b, suffix_start, e, scratch)
    };
    MergeStats { moves, ..stats }
}

/// First index in `[lo, hi)` whose time is strictly greater than `key`,
/// galloping from `hi` leftwards (the answer is expected near `hi`).
fn gallop_upper_from_right<S: SeriesAccess>(s: &S, lo: usize, hi: usize, key: i64) -> usize {
    if lo == hi || s.time(hi - 1) <= key {
        return hi;
    }
    // Bracket: find ofs such that s[hi - 1 - ofs] <= key.
    let mut ofs = 1usize;
    let mut prev = 0usize;
    while ofs < hi - lo && s.time(hi - 1 - ofs) > key {
        prev = ofs;
        ofs = ofs * 2 + 1;
    }
    let (search_lo, search_hi) = if ofs >= hi - lo {
        (lo, hi - 1 - prev)
    } else {
        (hi - 1 - ofs + 1, hi - 1 - prev)
    };
    // Binary search for first index with time > key in [search_lo, search_hi].
    let (mut l, mut r) = (search_lo, search_hi);
    while l < r {
        let mid = l + (r - l) / 2;
        if s.time(mid) > key {
            r = mid;
        } else {
            l = mid + 1;
        }
    }
    l
}

/// First index in `[lo, hi)` whose time is `>= key`, galloping from `lo`
/// rightwards (the answer is expected near `lo`).
fn gallop_lower_from_left<S: SeriesAccess>(s: &S, lo: usize, hi: usize, key: i64) -> usize {
    if lo == hi || s.time(lo) >= key {
        return lo;
    }
    let mut ofs = 1usize;
    let mut prev = 0usize;
    while lo + ofs < hi && s.time(lo + ofs) < key {
        prev = ofs;
        ofs = ofs * 2 + 1;
    }
    let (search_lo, search_hi) = (lo + prev + 1, (lo + ofs).min(hi));
    let (mut l, mut r) = (search_lo, search_hi);
    while l < r {
        let mid = l + (r - l) / 2;
        if s.time(mid) >= key {
            r = mid;
        } else {
            l = mid + 1;
        }
    }
    l
}

/// Merge when run1 (the block tail) is the smaller side: buffer it and
/// merge front-to-back. Ties take run1 first (stability).
///
/// The copy loop is run-based rather than element-based: each iteration
/// lands a whole run from one side — the scratch run end found by binary
/// search on the buffered (sorted) slice, the series run end by galloping —
/// then moves it with one bulk `copy_from_slice`/`copy_within` call. That
/// removes the per-element branch and lets contiguous `SeriesAccess`
/// implementations use memcpy/memmove.
fn merge_forward<S: SeriesAccess>(
    s: &mut S,
    b: usize,
    mid: usize,
    e: usize,
    scratch: &mut Vec<(i64, S::Value)>,
) -> usize {
    scratch.clear();
    s.read_into(b, mid, scratch);
    let mut moves = scratch.len(); // copies into scratch count as moves
    let mut i = 0usize; // scratch cursor (run1)
    let mut j = mid; // series cursor (run2)
    let mut dest = b;
    while i < scratch.len() && j < e {
        // Scratch run: everything <= the series head goes first (ties take
        // run1 for stability).
        let t = s.time(j);
        let run1_end = i + scratch[i..].partition_point(|p| p.0 <= t);
        if run1_end > i {
            s.copy_from_slice(dest, &scratch[i..run1_end]);
            dest += run1_end - i;
            moves += run1_end - i;
            i = run1_end;
            if i == scratch.len() {
                break;
            }
        }
        // Series run: everything strictly below the next scratch element.
        // `dest < j` always holds here, so the overlapping move is safe.
        let key = scratch[i].0;
        let run2_end = gallop_lower_from_left(s, j, e, key);
        s.copy_within(j, run2_end, dest);
        dest += run2_end - j;
        moves += run2_end - j;
        j = run2_end;
    }
    if i < scratch.len() {
        let n = scratch.len() - i;
        s.copy_from_slice(dest, &scratch[i..]);
        moves += n;
    }
    // Any remaining run2 elements are already in place.
    moves
}

/// Merge when run2 (the suffix head) is the smaller side: buffer it and
/// merge back-to-front. Ties take run2 last (stability).
///
/// Run-based like [`merge_forward`], mirrored: series runs are found by
/// galloping leftward from the boundary, scratch runs by binary search, and
/// both land via one bulk copy per run.
fn merge_backward<S: SeriesAccess>(
    s: &mut S,
    b: usize,
    mid: usize,
    e: usize,
    scratch: &mut Vec<(i64, S::Value)>,
) -> usize {
    scratch.clear();
    s.read_into(mid, e, scratch);
    let mut moves = scratch.len();
    let mut i = scratch.len(); // one past scratch cursor (run2)
    let mut j = mid; // one past series cursor (run1)
    let mut dest = e; // one past write position
    while i > 0 && j > b {
        // Series run: everything strictly above the scratch tail lands at
        // the back (ties take run2 last). `dest > run1_start` always holds
        // here, so the overlapping move is safe.
        let key = scratch[i - 1].0;
        let run1_start = gallop_upper_from_right(s, b, j, key);
        if run1_start < j {
            let n = j - run1_start;
            dest -= n;
            s.copy_within(run1_start, j, dest);
            moves += n;
            j = run1_start;
            if j == b {
                break;
            }
        }
        // Scratch run: the tail of the buffer at or above the series tail.
        // Non-empty, because the gallop above stopped at `time(j-1) <= key`.
        let t = s.time(j - 1);
        let run2_start = scratch[..i].partition_point(|p| p.0 < t);
        let n = i - run2_start;
        dest -= n;
        s.copy_from_slice(dest, &scratch[run2_start..i]);
        moves += n;
        i = run2_start;
    }
    if i > 0 {
        s.copy_from_slice(dest - i, &scratch[..i]);
        moves += i;
    }
    moves
}

/// Straight merge of `B` equal blocks, front-to-back as a balanced
/// pairwise tree (Fig. 2-I: "processes the first two blocks and the last
/// two, separately", then merges the halves). Each step uses the same
/// overlap-aware primitive as backward merge — only the *order* differs,
/// which is exactly the paper's comparison: the final half-merge re-moves
/// elements of the first block, the redundancy backward merge avoids.
///
/// Returns total element moves (same convention as [`MergeStats::moves`]).
pub fn straight_merge_blocks<S: SeriesAccess>(
    s: &mut S,
    block_size: usize,
    scratch: &mut Vec<(i64, S::Value)>,
) -> usize {
    let n = s.len();
    if block_size == 0 || n < 2 {
        return 0;
    }
    let b = (n / block_size).max(1);
    let mut bounds: Vec<(usize, usize)> = (0..b)
        .map(|i| {
            (
                i * block_size,
                if i + 1 == b { n } else { (i + 1) * block_size },
            )
        })
        .collect();
    let mut moves = 0usize;
    while bounds.len() > 1 {
        let mut next = Vec::with_capacity(bounds.len().div_ceil(2));
        for pair in bounds.chunks(2) {
            if let [(lo, mid), (mid2, hi)] = *pair {
                debug_assert_eq!(mid, mid2);
                moves += merge_block_with_suffix(s, lo, mid, hi, scratch).moves;
                next.push((lo, hi));
            } else if let [odd] = *pair {
                next.push(odd);
            }
        }
        bounds = next;
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use backsort_tvlist::SliceSeries;

    fn run_merge(data: &mut [(i64, i32)], mid: usize) -> MergeStats {
        let end = data.len();
        let mut scratch = Vec::new();
        let mut s = SliceSeries::new(data);
        merge_block_with_suffix(&mut s, 0, mid, end, &mut scratch)
    }

    #[test]
    fn disjoint_ranges_are_free() {
        let mut data = vec![(1i64, 0i32), (2, 1), (3, 2), (4, 3)];
        let stats = run_merge(&mut data, 2);
        assert_eq!(stats, MergeStats::default());
        assert_eq!(data, vec![(1, 0), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn touching_boundary_equal_is_free() {
        let mut data = vec![(1i64, 0i32), (5, 1), (5, 2), (9, 3)];
        let stats = run_merge(&mut data, 2);
        assert_eq!(stats.moves, 0);
    }

    #[test]
    fn small_overlap_moves_only_overlap() {
        // Block [1,2,3,...,50], suffix [48.5-ish...]: overlap of 3 and 2.
        let mut data: Vec<(i64, i32)> = (1..=50).map(|t| (t as i64 * 2, t)).collect();
        let mut suffix: Vec<(i64, i32)> = vec![(97, 100), (99, 101)];
        suffix.extend((51..=80).map(|t| (t as i64 * 2, t)));
        let mid = data.len();
        data.extend(suffix);
        let stats = run_merge(&mut data, mid);
        assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(
            &mut data
        )));
        assert!(stats.overlap <= 6, "overlap {}", stats.overlap);
        assert!(stats.scratch_used <= 3);
    }

    #[test]
    fn full_overlap_still_correct() {
        // Interleaved: every element participates.
        let mut data: Vec<(i64, i32)> = (0..20).map(|i| (2 * i as i64, i)).collect();
        let mid = data.len();
        data.extend((0..20).map(|i| (2 * i as i64 + 1, 100 + i)));
        let stats = run_merge(&mut data, mid);
        assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(
            &mut data
        )));
        // run1 = block elements > 1 => 19; run2 = suffix elements < 38
        // (odds 1..37) => 19.
        assert_eq!(stats.overlap, 38);
    }

    #[test]
    fn stability_block_before_suffix_on_ties() {
        let mut data = vec![
            (1i64, 0i32),
            (5, 1), // block: ends with two 5s
            (5, 2),
            (3, 3), // suffix begins
            (5, 4),
            (7, 5),
        ];
        let stats = run_merge(&mut data, 3);
        assert!(stats.moves > 0);
        assert_eq!(data, vec![(1, 0), (3, 3), (5, 1), (5, 2), (5, 4), (7, 5)]);
    }

    #[test]
    fn merge_backward_path_used_when_suffix_overlap_smaller() {
        // Large block tail overlaps (10 elems) vs tiny suffix head (1).
        let mut data: Vec<(i64, i32)> = (10..20).map(|t| (t as i64, 0)).collect();
        let mid = data.len();
        data.push((5, 1)); // delayed point at suffix head
        data.extend((20..25).map(|t| (t as i64, 0)));
        let stats = run_merge(&mut data, mid);
        assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(
            &mut data
        )));
        assert_eq!(
            stats.scratch_used, 1,
            "should buffer the smaller suffix side"
        );
    }

    #[test]
    fn straight_merge_sorts_blocked_input() {
        // Three sorted blocks with delayed heads, as in Fig. 2.
        let m = 8usize;
        let mut data: Vec<(i64, i32)> = Vec::new();
        // Block 1: 2,4,...; block 2 starts with delayed 1; block 3 with 3.
        for k in 0..m {
            data.push((4 + 2 * k as i64, 0));
        }
        data.push((1, 1));
        for k in 0..m - 1 {
            data.push((40 + 2 * k as i64, 0));
        }
        data.push((3, 2));
        for k in 0..m - 1 {
            data.push((80 + 2 * k as i64, 0));
        }
        // Sort each block first.
        for b in 0..3 {
            let lo = b * m;
            let hi = (lo + m).min(data.len());
            let mut s = SliceSeries::new(&mut data);
            backsort_sorts::insertion_sort_range(&mut s, lo, hi);
        }
        let mut scratch = Vec::new();
        let mut s = SliceSeries::new(&mut data);
        let moves = straight_merge_blocks(&mut s, m, &mut scratch);
        assert!(backsort_tvlist::is_time_sorted(&s));
        assert!(moves > 0);
    }

    #[test]
    fn example2_backward_beats_straight() {
        // The Fig. 2 scenario: three blocks of length M, delayed points
        // with timestamps 1 and 3 at the heads of blocks 2 and 3.
        // Straight merge ≈ 4M moves (block 1 re-moved); backward ≈ 3M.
        let m = 64usize;
        let build = || {
            let mut data: Vec<(i64, i32)> = Vec::new();
            for k in 0..m {
                data.push((10 + k as i64, 0)); // block 1: 10..10+M
            }
            data.push((1, 1)); // delayed
            for k in 1..m {
                data.push((10 + m as i64 + k as i64, 0));
            }
            data.push((3, 2)); // delayed
            for k in 1..m {
                data.push((10 + 2 * m as i64 + k as i64, 0));
            }
            // blocks are already sorted internally by construction
            data
        };

        let mut straight = build();
        let mut scratch = Vec::new();
        let straight_moves = {
            let mut s = SliceSeries::new(&mut straight);
            straight_merge_blocks(&mut s, m, &mut scratch)
        };
        assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(
            &mut straight
        )));

        let mut backward = build();
        let backward_moves = {
            let mut s = SliceSeries::new(&mut backward);
            let n = s.len();
            let mut total = 0;
            for i in (0..2).rev() {
                let stats = merge_block_with_suffix(&mut s, i * m, (i + 1) * m, n, &mut scratch);
                total += stats.moves;
            }
            total
        };
        assert!(backsort_tvlist::is_time_sorted(&SliceSeries::new(
            &mut backward
        )));
        assert_eq!(straight, backward, "both strategies produce the same order");
        assert!(
            backward_moves < straight_moves,
            "backward {backward_moves} must beat straight {straight_moves}"
        );
        // Paper's Example 2 ratio: 3M+7 vs 4M+4 ≈ 25% fewer moves.
        let reduction = 1.0 - backward_moves as f64 / straight_moves as f64;
        assert!(reduction > 0.15, "reduction {reduction:.2} too small");
    }

    #[test]
    fn gallop_helpers_match_linear_scan() {
        let data: Vec<(i64, i32)> = [1i64, 3, 3, 5, 7, 7, 7, 9, 12]
            .iter()
            .map(|&t| (t, 0))
            .collect();
        let mut data = data.clone();
        let s = SliceSeries::new(&mut data);
        for key in 0..14 {
            let upper = (0..s.len()).find(|&i| s.time(i) > key).unwrap_or(s.len());
            let lower = (0..s.len()).find(|&i| s.time(i) >= key).unwrap_or(s.len());
            assert_eq!(
                gallop_upper_from_right(&s, 0, s.len(), key),
                upper,
                "upper key={key}"
            );
            assert_eq!(
                gallop_lower_from_left(&s, 0, s.len(), key),
                lower,
                "lower key={key}"
            );
        }
    }
}
