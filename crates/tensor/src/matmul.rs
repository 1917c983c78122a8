//! Parallel, cache-blocked matrix products.
//!
//! The layout convention across the workspace is **NT**: activations are
//! `(batch × in)` and weights are stored `(out × in)`, so a forward pass is
//! `Y = X · Wᵀ` — both operands are traversed along contiguous rows, which
//! keeps the inner loop a pure slice dot product that LLVM vectorizes.
//!
//! Two structural properties are load-bearing for the rest of the repo:
//!
//! 1. **Per-element determinism.** Every output element is accumulated in
//!    the same floating-point order — the 8-lane order of [`dot`] —
//!    regardless of batch size, dispatch path (serial / row-parallel /
//!    column-parallel) or thread count. This is what makes a batched
//!    prefill bit-identical to token-by-token decode in `edgellm-nn`, and
//!    every kernel bit-identical across `EDGELLM_THREADS` settings.
//! 2. **Cache blocking.** The NT kernel walks the weight matrix in
//!    4-row register tiles and the activations in [`policy::ROW_BLOCK`]-row
//!    blocks, so each weight tile loaded from memory is reused across the
//!    whole activation block instead of being re-streamed per row.

use crate::tensor::Matrix;
use rayon::prelude::*;

/// Serial/parallel dispatch policy for the matmul kernels.
///
/// One policy function per kernel family, because the three loop shapes
/// have different arithmetic intensity and therefore different break-even
/// points against the pool's fork/join overhead (one scoped-thread spawn
/// per worker, ~10–30 µs each on a small ARM/x86 core):
///
/// * the NT dot-product kernel does ~2 FLOPs per multiply-accumulate with
///   fully contiguous streams;
/// * the NN/TN axpy kernels re-stream the output row per nonzero and skip
///   zero activations, so their effective work per (m·n·k) is lower;
/// * the quantized kernels (INT8/NF4/F16 fused products) pay an extra
///   decode cost per weight element, so parallelism pays off earlier.
///
/// The constants were derived by timing `bench_kernels` on the dev
/// container (scalar f32 throughput ≈ 2–4 GFLOP/s; see EXPERIMENTS.md):
/// parallelism starts winning once each spawned worker gets at least a few
/// hundred microseconds of arithmetic, i.e. ≥ ~256k MACs for the plain f32
/// kernel and ≥ ~64k weight-element decodes for the quantized ones.
pub mod policy {
    /// How a kernel invocation should be executed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Dispatch {
        /// Run on the calling thread (problem too small to split).
        Serial,
        /// Split the output across row blocks, one parallel unit per block.
        RowParallel,
        /// Few output rows but many columns (single-token decode against a
        /// wide projection): split each output row across column blocks.
        ColParallel,
    }

    /// Activation rows per parallel unit / cache block in the NT kernel.
    /// 16 rows × 4 KiB-ish per row keeps a block resident in L2 while a
    /// weight tile streams through L1.
    pub const ROW_BLOCK: usize = 16;

    /// Output columns per parallel unit on the column-parallel path; a
    /// multiple of the 4-wide register tile.
    pub const COL_BLOCK: usize = 512;

    /// Minimum multiply-accumulates per spawned worker for the f32 NT
    /// kernel (≈ 100–250 µs of work at measured scalar throughput).
    pub const NT_MIN_MACS_PER_THREAD: usize = 256 * 1024;

    /// Minimum multiply-accumulates per worker for the NN/TN axpy kernels.
    /// Their inner loop is cheaper per (m·n·k) than NT's and skips zero
    /// activations, so the bar is lower.
    pub const AXPY_MIN_MACS_PER_THREAD: usize = 192 * 1024;

    /// Minimum weight-element visits per worker for the fused quantized
    /// kernels (each visit also pays a decode: codebook lookup, scale
    /// multiply or f16 conversion), so parallelism amortizes sooner.
    pub const QUANT_MIN_ELEMS_PER_THREAD: usize = 64 * 1024;

    /// Dispatch for `matmul_nt` at shape `(m × k) · (n × k)ᵀ`.
    pub fn matmul_nt(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let macs = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || macs < 2 * NT_MIN_MACS_PER_THREAD {
            return Dispatch::Serial;
        }
        let row_blocks = m.div_ceil(ROW_BLOCK);
        if row_blocks >= threads {
            Dispatch::RowParallel
        } else if n >= 2 * COL_BLOCK {
            Dispatch::ColParallel
        } else if m >= 2 {
            // A modest row split still beats serial on mid-size batches.
            Dispatch::RowParallel
        } else {
            Dispatch::Serial
        }
    }

    /// Dispatch for the NN/TN axpy kernels at `(m × n)` output with shared
    /// dimension `k`. Their parallel axis is output rows only: a column
    /// split would tear each `or[c] += xv · wr[c]` pass into strided
    /// sub-slices and lose the contiguous streaming the kernel is built on.
    pub fn matmul_axpy(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let macs = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || m < 2 || macs < 2 * AXPY_MIN_MACS_PER_THREAD {
            Dispatch::Serial
        } else {
            Dispatch::RowParallel
        }
    }

    /// Dispatch for the fused quantized NT kernels (`QInt4Matrix`,
    /// `F16Matrix`) at `(m × k) · (n × k)ᵀ`.
    ///
    /// The INT4 product also picks its kernel by the rows each unit
    /// gets, a crossover measured serially on a 2-vCPU x86-64 VM and
    /// recorded in `QInt4Matrix::fused_tile`: one row reads the packed
    /// nibbles directly (decoding the tile first took about 2× as long
    /// at m = 1), and two or more rows decode each four-weight-row tile
    /// once and share it across groups of eight activation rows, the
    /// leftover rows going one at a time. Eight measured faster than
    /// four, six and twelve. So a column-parallel unit (one row) always
    /// takes the nibble kernel, and a row-parallel unit (at most eight
    /// rows) fills at most one group.
    pub fn matmul_quant_nt(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let elems = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || elems < 2 * QUANT_MIN_ELEMS_PER_THREAD {
            Dispatch::Serial
        } else if m >= threads {
            Dispatch::RowParallel
        } else if n >= 2 {
            // Decode shapes (m = 1) split the single output row across
            // weight-row blocks.
            Dispatch::ColParallel
        } else {
            Dispatch::Serial
        }
    }

    /// Dispatch for the fused INT8 two-stream kernel (`QInt8Matrix`),
    /// separated from [`matmul_quant_nt`] because its column-parallel
    /// decode path *lost*: on the per-element kernel that preceded the
    /// register tile, `bench_kernels` measured int8_fused at 0.66×
    /// parallel speedup at m = 1 on both the Phi-2 and Llama-8B decode
    /// shapes (single-core host), while the f16/int4 fused kernels held
    /// ≥ 1.0× there, and the row split won 1.05× at m = 32. The i32
    /// inlier product is so much cheaper per element than a codebook or
    /// f16 decode that the column split's per-block overhead (fork/join
    /// plus re-touching the quantized activation row from every worker)
    /// dominates the arithmetic it divides. The tiled kernel made each
    /// element cheaper still, and now widens each code tile once per call
    /// and shares it across the activation rows — serial int8_fused runs
    /// the Phi-2 decode shape in 6.8 ms against 31.3 ms for
    /// dequantize-then-dot and 8.7 ms for int4_fused, and its Phi-2 cost
    /// grows 4.5× from m = 1 to m = 8 (`BENCH_kernels.json`) — so decode
    /// shapes stay serial and batched shapes keep the row split. The
    /// shared tile needs no row threshold here: it measured no loss at
    /// m = 1. Neither split has been re-timed on a multi-core host since.
    pub fn matmul_int8_nt(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let elems = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || m < 2 || elems < 2 * QUANT_MIN_ELEMS_PER_THREAD {
            Dispatch::Serial
        } else {
            Dispatch::RowParallel
        }
    }
}

/// Static kernel-variant labels for the `trace` feature's per-variant
/// counters (`kernel.<variant>.{calls, macs, ns}`). Compiled out — along
/// with every timer call site — in the default build.
#[cfg(feature = "trace")]
pub(crate) mod instrument {
    use super::policy::Dispatch;

    /// Pick the `<base>.<path>` label matching a dispatch decision.
    pub(crate) fn pick(
        d: Dispatch,
        serial: &'static str,
        rows: &'static str,
        cols: &'static str,
    ) -> &'static str {
        match d {
            Dispatch::Serial => serial,
            Dispatch::RowParallel => rows,
            Dispatch::ColParallel => cols,
        }
    }
}

/// Dot product of two equal-length slices.
///
/// 8-lane unrolled accumulation: faster and more numerically stable than a
/// single serial accumulator. Every matmul kernel in this crate reproduces
/// exactly this accumulation order per output element (see the module
/// docs), so `dot` is the bit-level reference for all of them.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let j = i * 8;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
        acc[4] += a[j + 4] * b[j + 4];
        acc[5] += a[j + 5] * b[j + 5];
        acc[6] += a[j + 6] * b[j + 6];
        acc[7] += a[j + 7] * b[j + 7];
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for j in chunks * 8..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Register-tiled micro-kernel: four dot products of `x` against four
/// weight rows in one pass, writing `out[0..4]`.
///
/// Each `x` element is loaded once and multiplied into all four tiles
/// (4× less activation load traffic than four separate `dot` calls), while
/// per-element accumulation order stays **bit-identical** to [`dot`]: lane
/// `l` accumulates `x[j+l]·w[j+l]` in ascending `j`, lanes combine in the
/// same fixed tree, and the tail runs serially.
#[inline]
fn dot_x4(x: &[f32], w0: &[f32], w1: &[f32], w2: &[f32], w3: &[f32], out: &mut [f32]) {
    let k = x.len();
    let chunks = k / 8;
    let mut acc = [[0.0f32; 8]; 4];
    for i in 0..chunks {
        let j = i * 8;
        for l in 0..8 {
            let xv = x[j + l];
            acc[0][l] += xv * w0[j + l];
            acc[1][l] += xv * w1[j + l];
            acc[2][l] += xv * w2[j + l];
            acc[3][l] += xv * w3[j + l];
        }
    }
    for (o, (a, w)) in out.iter_mut().zip(acc.iter().zip([w0, w1, w2, w3])) {
        let mut s = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
        for j in chunks * 8..k {
            s += x[j] * w[j];
        }
        *o = s;
    }
}

/// The shared NT tiling helper: fill an output tile where
/// `out[r·stride + j] = dot(x.row(r0 + r), w.row(c0 + j))` for
/// `r < rows`, `j < cols`.
///
/// Loop order is weight-tile outer, activation-row inner, so a 4-row weight
/// tile is loaded once and reused across the whole activation block.
#[allow(clippy::too_many_arguments)] // internal kernel: tile coordinates are clearer flat than bundled
fn nt_tile(
    x: &Matrix,
    w: &Matrix,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    out: &mut [f32],
    stride: usize,
) {
    let mut j = 0;
    while j + 4 <= cols {
        let c = c0 + j;
        let (w0, w1, w2, w3) = (w.row(c), w.row(c + 1), w.row(c + 2), w.row(c + 3));
        for r in 0..rows {
            let base = r * stride + j;
            dot_x4(x.row(r0 + r), w0, w1, w2, w3, &mut out[base..base + 4]);
        }
        j += 4;
    }
    while j < cols {
        let wc = w.row(c0 + j);
        for r in 0..rows {
            out[r * stride + j] = dot(x.row(r0 + r), wc);
        }
        j += 1;
    }
}

/// `Y = X · Wᵀ`: `X` is `(m × k)`, `w` is `(n × k)`, result is `(m × n)`.
///
/// Cache-blocked and register-tiled; parallelized over output row blocks
/// (or column blocks when `m` is small) when [`policy::matmul_nt`] says the
/// problem is large enough. Output bits do not depend on the dispatch path
/// or thread count.
pub fn matmul_nt(x: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(x.cols, w.cols, "inner dimensions must match (NT layout)");
    let (m, n) = (x.rows, w.rows);
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let dispatch = policy::matmul_nt(m, n, x.cols, rayon::current_num_threads());
    #[cfg(feature = "trace")]
    let _t = edgellm_trace::kernels::timer(
        instrument::pick(dispatch, "matmul_nt.serial", "matmul_nt.rows", "matmul_nt.cols"),
        (m * n) as u64 * x.cols as u64,
    );
    match dispatch {
        policy::Dispatch::Serial => {
            let o = out.as_mut_slice();
            for r0 in (0..m).step_by(policy::ROW_BLOCK) {
                let rows = policy::ROW_BLOCK.min(m - r0);
                nt_tile(x, w, r0, 0, rows, n, &mut o[r0 * n..(r0 + rows) * n], n);
            }
        }
        policy::Dispatch::RowParallel => {
            out.as_mut_slice().par_chunks_mut(n * policy::ROW_BLOCK).enumerate().for_each(
                |(b, blk)| {
                    let r0 = b * policy::ROW_BLOCK;
                    nt_tile(x, w, r0, 0, blk.len() / n, n, blk, n);
                },
            );
        }
        policy::Dispatch::ColParallel => {
            for r in 0..m {
                out.row_mut(r).par_chunks_mut(policy::COL_BLOCK).enumerate().for_each(
                    |(cb, seg)| {
                        nt_tile(x, w, r, cb * policy::COL_BLOCK, 1, seg.len(), seg, seg.len());
                    },
                );
            }
        }
    }
    out
}

/// The shared NN/TN row kernel: `or += Σ_kk xr[kk] · w.row(kk)`, skipping
/// zero activations. Accumulation order is fixed by `kk`, independent of
/// how rows are distributed across threads.
#[inline]
fn axpy_row(xr: &[f32], w: &Matrix, or: &mut [f32]) {
    for (kk, &xv) in xr.iter().enumerate() {
        if xv != 0.0 {
            let wr = w.row(kk);
            for (o, &wv) in or.iter_mut().zip(wr) {
                *o += xv * wv;
            }
        }
    }
}

/// Shared serial/parallel driver for the row-accumulating kernels: runs
/// `body(r, out_row)` for every output row under the axpy dispatch policy.
fn axpy_driver(out: &mut Matrix, k: usize, body: impl Fn(usize, &mut [f32]) + Sync) {
    let (m, n) = (out.rows, out.cols);
    if m == 0 || n == 0 {
        return;
    }
    match policy::matmul_axpy(m, n, k, rayon::current_num_threads()) {
        policy::Dispatch::Serial => {
            for r in 0..m {
                body(r, out.row_mut(r));
            }
        }
        _ => {
            out.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(r, or)| body(r, or));
        }
    }
}

/// `Y = X · W`: `X` is `(m × k)`, `w` is `(k × n)`, result `(m × n)`.
///
/// Used where the weight naturally lives untransposed (e.g. backprop
/// through a linear layer). Row-major `W` makes the inner loop strided, so
/// this accumulates row-by-row instead.
pub fn matmul_nn(x: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(x.cols, w.rows, "inner dimensions must match (NN layout)");
    let mut out = Matrix::zeros(x.rows, w.cols);
    #[cfg(feature = "trace")]
    let _t = edgellm_trace::kernels::timer(
        instrument::pick(
            policy::matmul_axpy(x.rows, w.cols, x.cols, rayon::current_num_threads()),
            "matmul_nn.serial",
            "matmul_nn.rows",
            "matmul_nn.rows",
        ),
        (x.rows * w.cols) as u64 * x.cols as u64,
    );
    axpy_driver(&mut out, x.cols, |r, or| axpy_row(x.row(r), w, or));
    out
}

/// `Y = Xᵀ · W`: `X` is `(k × m)`, `w` is `(k × n)`, result `(m × n)`.
/// The gradient-of-weights shape in backprop (`dW = dYᵀ · X`).
pub fn matmul_tn(x: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(x.rows, w.rows, "inner dimensions must match (TN layout)");
    let mut out = Matrix::zeros(x.cols, w.cols);
    #[cfg(feature = "trace")]
    let _t = edgellm_trace::kernels::timer(
        instrument::pick(
            policy::matmul_axpy(x.cols, w.cols, x.rows, rayon::current_num_threads()),
            "matmul_tn.serial",
            "matmul_tn.rows",
            "matmul_tn.rows",
        ),
        (x.cols * w.cols) as u64 * x.rows as u64,
    );
    // Accumulate outer products row-by-row of the shared k dimension,
    // through a transposed view of x so rows parallelize like NN.
    let xt = x.transposed(); // (m × k)
    axpy_driver(&mut out, x.rows, |r, or| axpy_row(xt.row(r), w, or));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nt(x: &Matrix, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows, w.rows);
        for r in 0..x.rows {
            for c in 0..w.rows {
                let mut s = 0.0;
                for k in 0..x.cols {
                    s += x.get(r, k) * w.get(c, k);
                }
                out.set(r, c, s);
            }
        }
        out
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.cols, b.cols);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn nt_matches_naive_small() {
        let x = Matrix::rand_kaiming(7, 13, 1);
        let w = Matrix::rand_kaiming(5, 13, 2);
        assert_close(&matmul_nt(&x, &w), &naive_nt(&x, &w), 1e-5);
    }

    #[test]
    fn nt_matches_naive_parallel_path() {
        let x = Matrix::rand_kaiming(64, 96, 3);
        let w = Matrix::rand_kaiming(512, 96, 4);
        assert_close(&matmul_nt(&x, &w), &naive_nt(&x, &w), 1e-4);
    }

    #[test]
    fn nt_single_row_wide_output_path() {
        let x = Matrix::rand_kaiming(1, 128, 5);
        let w = Matrix::rand_kaiming(40_000, 128, 6);
        let got = matmul_nt(&x, &w);
        let want = naive_nt(&x, &w);
        assert_close(&got, &want, 1e-4);
    }

    #[test]
    fn every_element_is_bitwise_a_dot_product() {
        // The micro-kernel/tiling contract: each output element equals
        // dot(x row, w row) to the bit, on every dispatch path.
        for (m, n, k) in [(7, 9, 33), (33, 128, 96), (1, 2100, 64), (16, 16, 8)] {
            let x = Matrix::rand_kaiming(m, k, (m * n) as u64);
            let w = Matrix::rand_kaiming(n, k, (m + n) as u64);
            let y = matmul_nt(&x, &w);
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(
                        y.get(r, c).to_bits(),
                        dot(x.row(r), w.row(c)).to_bits(),
                        "element ({r},{c}) of {m}x{n}x{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn nn_equals_nt_against_transpose() {
        let x = Matrix::rand_kaiming(9, 17, 7);
        let w = Matrix::rand_kaiming(17, 11, 8);
        let got = matmul_nn(&x, &w);
        let want = matmul_nt(&x, &w.transposed());
        assert_close(&got, &want, 1e-5);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let x = Matrix::rand_kaiming(17, 9, 9);
        let w = Matrix::rand_kaiming(17, 11, 10);
        let got = matmul_tn(&x, &w);
        let want = matmul_nn(&x.transposed(), &w);
        assert_close(&got, &want, 1e-5);
    }

    #[test]
    fn dot_handles_tail() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(dot(&a, &b), 30.0);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        assert_eq!(matmul_nt(&Matrix::zeros(0, 5), &Matrix::zeros(3, 5)).rows, 0);
        assert_eq!(matmul_nt(&Matrix::zeros(4, 0), &Matrix::zeros(3, 0)).as_slice(), [0.0; 12]);
        assert_eq!(matmul_nn(&Matrix::zeros(2, 0), &Matrix::zeros(0, 3)).as_slice(), [0.0; 6]);
        assert_eq!(matmul_tn(&Matrix::zeros(0, 2), &Matrix::zeros(0, 3)).as_slice(), [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn nt_rejects_shape_mismatch() {
        let _ = matmul_nt(&Matrix::zeros(2, 3), &Matrix::zeros(2, 4));
    }

    mod policy_tests {
        use super::super::policy::*;

        #[test]
        fn tiny_problems_stay_serial() {
            assert_eq!(matmul_nt(4, 4, 4, 8), Dispatch::Serial);
            assert_eq!(matmul_axpy(4, 4, 4, 8), Dispatch::Serial);
            assert_eq!(matmul_quant_nt(1, 16, 64, 8), Dispatch::Serial);
        }

        #[test]
        fn one_thread_is_always_serial() {
            assert_eq!(matmul_nt(512, 4096, 4096, 1), Dispatch::Serial);
            assert_eq!(matmul_axpy(512, 4096, 4096, 1), Dispatch::Serial);
            assert_eq!(matmul_quant_nt(512, 4096, 4096, 1), Dispatch::Serial);
        }

        #[test]
        fn batched_large_problems_split_rows() {
            assert_eq!(matmul_nt(256, 1024, 1024, 4), Dispatch::RowParallel);
            assert_eq!(matmul_axpy(256, 1024, 1024, 4), Dispatch::RowParallel);
            assert_eq!(matmul_quant_nt(32, 1024, 1024, 4), Dispatch::RowParallel);
        }

        #[test]
        fn decode_shapes_split_columns() {
            // Single-token decode against a wide head: few rows, many cols.
            assert_eq!(matmul_nt(1, 40_000, 128, 4), Dispatch::ColParallel);
            assert_eq!(matmul_quant_nt(1, 10_240, 2_560, 4), Dispatch::ColParallel);
            // Axpy kernels never column-split: a single row stays serial.
            assert_eq!(matmul_axpy(1, 40_000, 128, 4), Dispatch::Serial);
        }

        #[test]
        fn single_column_never_col_splits() {
            assert_eq!(matmul_nt(1, 1, 4_000_000, 8), Dispatch::Serial);
        }

        #[test]
        fn int8_decode_shapes_stay_serial() {
            // int8_fused measured 0.66× at m = 1 under the column split
            // (per-element kernel; see `matmul_int8_nt`), so the int8
            // policy must never dispatch it — exactly the phi2/llama8b
            // decode shapes `bench_kernels` runs.
            assert_eq!(matmul_int8_nt(1, 10_240, 2_560, 4), Dispatch::Serial);
            assert_eq!(matmul_int8_nt(1, 14_336, 4_096, 4), Dispatch::Serial);
            // Verify-batch shapes (m = 2..8) row-split instead of
            // column-splitting; m = 1 threads ≫ elems stays serial too.
            assert_eq!(matmul_int8_nt(4, 10_240, 2_560, 4), Dispatch::RowParallel);
            assert_eq!(matmul_int8_nt(1, 16, 64, 8), Dispatch::Serial);
            assert_eq!(matmul_int8_nt(512, 4096, 4096, 1), Dispatch::Serial);
            // Batched prefill keeps its row split.
            assert_eq!(matmul_int8_nt(32, 10_240, 2_560, 4), Dispatch::RowParallel);
        }
    }
}
