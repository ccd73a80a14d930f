//! Amplitude-pair walkers shared by both replay engines.
//!
//! Both engines keep their state in split re/im `f64` planes in which
//! the two halves of a target bit are contiguous runs: the exact tape's
//! row and column pairs of a density matrix, and the trajectory
//! engine's shot-block rows (`re[b * S + s]`, so the low and high
//! halves of bit `t` are runs of `2^t * S` lanes). [`for_pairs`] walks
//! every `(lo, hi)` pair of such a plane pair with one const-size chunk
//! walk per short stride and contiguous runs otherwise, so the lane
//! loop vectorizes at every stride. [`for_pairs_at`] also hands each
//! pair its lane offset within a `period`-lane window, which the
//! trajectory kernels use to read per-shot values (deferred
//! renormalizations, per-lane operators) from a pattern that repeats
//! every `S` lanes. [`gather_pairs`] and [`scatter_pairs`] copy a group
//! of pairs to and from contiguous lane arrays, for sweeps that fold
//! several entries per lane or add terms serially.

/// Calls `f(lo_re, lo_im, hi_re, hi_im)` on every `(lo, hi)` entry pair
/// of the planes whose flat indices differ by exactly `stride` within a
/// `2 * stride` block — for `stride = bit` the column pairs
/// `(j, j | bit)`, for `stride = bit * dim` the row pairs
/// `(i, i | bit)`. The planes must be a whole number of blocks.
///
/// Strides below a vector's width get const-size chunk walks, which
/// LLVM vectorizes across chunks; a runtime-stride inner loop that
/// short stays scalar.
#[inline(always)]
pub(super) fn for_pairs(
    re: &mut [f64],
    im: &mut [f64],
    stride: usize,
    mut f: impl FnMut(&mut f64, &mut f64, &mut f64, &mut f64),
) {
    for_pairs_at(re, im, stride, stride, |_, lr, li, hr, hi| {
        f(lr, li, hr, hi)
    })
}

/// [`for_pairs`] that also passes each pair's lane offset `k` within its
/// `period`-lane window of the run: `k` is the pair's offset from the
/// start of its low run, modulo `period`. `period` must divide `stride`,
/// and equal it when `stride` is below 8.
#[inline(always)]
pub(super) fn for_pairs_at(
    re: &mut [f64],
    im: &mut [f64],
    stride: usize,
    period: usize,
    f: impl FnMut(usize, &mut f64, &mut f64, &mut f64, &mut f64),
) {
    debug_assert!(stride.is_multiple_of(period) && (stride >= 8 || period == stride));
    match stride {
        1 => pairs_const::<2>(re, im, f),
        2 => pairs_const::<4>(re, im, f),
        4 => pairs_const::<8>(re, im, f),
        _ => pairs_runs(re, im, stride, period, f),
    }
}

/// [`for_pairs_at`] at the compile-time block size `C = 2 * stride`.
#[inline(always)]
fn pairs_const<const C: usize>(
    re: &mut [f64],
    im: &mut [f64],
    mut f: impl FnMut(usize, &mut f64, &mut f64, &mut f64, &mut f64),
) {
    let blocks = re.as_chunks_mut::<C>().0.iter_mut();
    for (br, bi) in blocks.zip(im.as_chunks_mut::<C>().0) {
        let (lr, hr) = br.split_at_mut(C / 2);
        let (li, hi) = bi.split_at_mut(C / 2);
        for k in 0..C / 2 {
            f(k, &mut lr[k], &mut li[k], &mut hr[k], &mut hi[k]);
        }
    }
}

/// [`for_pairs_at`] over runs of `stride` contiguous lanes, walked in
/// `period`-lane windows. The lanes are indexed over four equal-length
/// reslices: a four-way `zip` of the runs kept this loop scalar
/// (measured 2-3x slower at AVX2).
#[inline(always)]
fn pairs_runs(
    re: &mut [f64],
    im: &mut [f64],
    stride: usize,
    period: usize,
    mut f: impl FnMut(usize, &mut f64, &mut f64, &mut f64, &mut f64),
) {
    let blocks = re.chunks_exact_mut(2 * stride);
    for (br, bi) in blocks.zip(im.chunks_exact_mut(2 * stride)) {
        let (lr, hr) = br.split_at_mut(stride);
        let (li, hi) = bi.split_at_mut(stride);
        let lo = lr.chunks_exact_mut(period).zip(li.chunks_exact_mut(period));
        let hi = hr.chunks_exact_mut(period).zip(hi.chunks_exact_mut(period));
        for ((lr, li), (hr, hi)) in lo.zip(hi) {
            let (li, hr, hi) = (
                &mut li[..lr.len()],
                &mut hr[..lr.len()],
                &mut hi[..lr.len()],
            );
            for k in 0..lr.len() {
                f(k, &mut lr[k], &mut li[k], &mut hr[k], &mut hi[k]);
            }
        }
    }
}

/// Copies pairs `k0..k0 + lo.len()` of one plane row — pair `k` is
/// `(j_k, j_k + bit)` in ascending `j_k`, `j_k` with a clear `bit` in
/// its `2 * bit` block — into `lo` and `hi`. A group either lies in one
/// block's low run (`bit` at least the group, starting on a multiple of
/// its length) or is whole `2 * bit` blocks with `bit` at most 8.
#[inline(always)]
pub(super) fn gather_pairs(row: &[f64], bit: usize, k0: usize, lo: &mut [f64], hi: &mut [f64]) {
    let g = lo.len();
    if bit >= g {
        let j0 = (k0 / bit) * 2 * bit + k0 % bit;
        lo.copy_from_slice(&row[j0..j0 + g]);
        hi.copy_from_slice(&row[j0 + bit..j0 + bit + g]);
        return;
    }
    let src = &row[2 * k0..2 * (k0 + g)];
    match bit {
        1 => deinterleave::<2>(src, lo, hi),
        2 => deinterleave::<4>(src, lo, hi),
        4 => deinterleave::<8>(src, lo, hi),
        8 => deinterleave::<16>(src, lo, hi),
        _ => unreachable!("bit {bit} below a group of {g} lanes"),
    }
}

/// The inverse of [`gather_pairs`]: writes `lo`/`hi` back to the pairs.
#[inline(always)]
pub(super) fn scatter_pairs(row: &mut [f64], bit: usize, k0: usize, lo: &[f64], hi: &[f64]) {
    let g = lo.len();
    if bit >= g {
        let j0 = (k0 / bit) * 2 * bit + k0 % bit;
        row[j0..j0 + g].copy_from_slice(lo);
        row[j0 + bit..j0 + bit + g].copy_from_slice(hi);
        return;
    }
    let dst = &mut row[2 * k0..2 * (k0 + g)];
    match bit {
        1 => interleave::<2>(dst, lo, hi),
        2 => interleave::<4>(dst, lo, hi),
        4 => interleave::<8>(dst, lo, hi),
        8 => interleave::<16>(dst, lo, hi),
        _ => unreachable!("bit {bit} below a group of {g} lanes"),
    }
}

/// Splits `C`-entry blocks into their low and high halves.
#[inline(always)]
fn deinterleave<const C: usize>(src: &[f64], lo: &mut [f64], hi: &mut [f64]) {
    let halves = lo.chunks_exact_mut(C / 2).zip(hi.chunks_exact_mut(C / 2));
    for (block, (lo, hi)) in src.as_chunks::<C>().0.iter().zip(halves) {
        lo.copy_from_slice(&block[..C / 2]);
        hi.copy_from_slice(&block[C / 2..]);
    }
}

/// Joins low and high halves back into `C`-entry blocks.
#[inline(always)]
fn interleave<const C: usize>(dst: &mut [f64], lo: &[f64], hi: &[f64]) {
    let halves = lo.chunks_exact(C / 2).zip(hi.chunks_exact(C / 2));
    for (block, (lo, hi)) in dst.as_chunks_mut::<C>().0.iter_mut().zip(halves) {
        block[..C / 2].copy_from_slice(lo);
        block[C / 2..].copy_from_slice(hi);
    }
}
