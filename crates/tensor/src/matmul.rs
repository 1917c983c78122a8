//! Parallel, cache-blocked matrix products, and `drive`, the one function
//! that runs every product's partition.
//!
//! The layout convention across the workspace is **NT**: activations are
//! `(batch × in)` and weights are stored `(out × in)`, so a forward pass is
//! `Y = X · Wᵀ` — both operands are traversed along contiguous rows, which
//! keeps the inner loop a pure slice dot product that LLVM vectorizes.
//!
//! Three structural properties are load-bearing for the rest of the repo:
//!
//! 1. **One partition.** Each product — f32 NT, NN and TN here, and the
//!    f16, INT8 and INT4 products — supplies only a tile function that
//!    fills a block of output rows and columns. [`policy`] decides how the
//!    output splits into tiles (rows per unit included), and `drive` runs
//!    that split, allocates the output and times the call under the
//!    `trace` feature. Products differ only where their formats differ.
//! 2. **Per-element determinism.** Every output element is accumulated in
//!    the same floating-point order — the 8-lane order of [`dot`] —
//!    regardless of batch size, dispatch path (serial / row-parallel /
//!    column-parallel) or thread count. This is what makes a batched
//!    prefill bit-identical to token-by-token decode in `edgellm-nn`, and
//!    every kernel bit-identical across `EDGELLM_THREADS` settings.
//! 3. **Cache blocking.** The NT tile walks the weight matrix in 4-row
//!    register tiles and the activations in [`policy::ROW_BLOCK`]-row
//!    blocks, so each weight tile loaded from memory is reused across the
//!    whole activation block instead of being re-streamed per row.

use crate::tensor::Matrix;
use policy::{Dispatch, COL_BLOCK};
use rayon::prelude::*;

/// How each product's output is split into tiles, and when to split it.
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
///
/// A policy also sets the rows of each row-parallel unit, and every
/// `RowParallel` it returns splits the output into at least two units: a
/// single unit would run inline on the calling thread, a serial run under
/// another name.
pub mod policy {
    /// How a product's output is split into tiles.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Dispatch {
        /// One tile over the whole output, on the calling thread (problem
        /// too small to split).
        Serial,
        /// Split the output into units of `rows_per_unit` rows (the last
        /// may hold fewer), one parallel tile each.
        RowParallel {
            /// Output rows per parallel unit.
            rows_per_unit: usize,
        },
        /// Few output rows but many columns (single-token decode against a
        /// wide projection): split each output row into [`COL_BLOCK`]-column
        /// tiles.
        ColParallel,
    }

    /// Activation rows per parallel unit of the f32 NT product, and per
    /// cache block inside its tile. 16 rows × 4 KiB-ish per row keeps a
    /// block resident in L2 while a weight tile streams through L1.
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

    /// Dispatch for `matmul_nt` at shape `(m × k) · (n × k)ᵀ`. Rows split
    /// in [`ROW_BLOCK`]-row units when there are at least as many units
    /// as threads; with fewer, a wide output splits its columns, and
    /// otherwise rows still split when there are two units or more.
    pub fn matmul_nt(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let macs = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || macs < 2 * NT_MIN_MACS_PER_THREAD {
            return Dispatch::Serial;
        }
        let row_blocks = m.div_ceil(ROW_BLOCK);
        if row_blocks < threads && n >= 2 * COL_BLOCK {
            Dispatch::ColParallel
        } else if row_blocks >= 2 {
            Dispatch::RowParallel { rows_per_unit: ROW_BLOCK }
        } else {
            Dispatch::Serial
        }
    }

    /// Dispatch for the NN/TN axpy kernels at `(m × n)` output with shared
    /// dimension `k`: one row per unit. Their parallel axis is output rows
    /// only: a column split would tear each `or[c] += xv · wr[c]` pass
    /// into strided sub-slices and lose the contiguous streaming the
    /// kernel is built on.
    pub fn matmul_axpy(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let macs = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || m < 2 || macs < 2 * AXPY_MIN_MACS_PER_THREAD {
            Dispatch::Serial
        } else {
            Dispatch::RowParallel { rows_per_unit: 1 }
        }
    }

    /// Rows per unit of the quantized products' row split: an even share
    /// of `m` per thread, at most eight.
    fn quant_rows_per_unit(m: usize, threads: usize) -> usize {
        m.div_ceil(threads).clamp(1, 8)
    }

    /// Dispatch for the fused quantized NT kernels (`QInt4Matrix`,
    /// `F16Matrix`) at `(m × k) · (n × k)ᵀ`.
    ///
    /// The INT4 product also picks its kernel by the rows each tile
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
            Dispatch::RowParallel { rows_per_unit: quant_rows_per_unit(m, threads) }
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
    /// shapes stay serial and batched shapes keep the row split, in the
    /// units of [`matmul_quant_nt`]. The shared tile needs no row
    /// threshold here: it measured no loss at m = 1. Neither split has
    /// been re-timed on a multi-core host since.
    pub fn matmul_int8_nt(m: usize, n: usize, k: usize, threads: usize) -> Dispatch {
        let elems = m.saturating_mul(n).saturating_mul(k.max(1));
        if threads <= 1 || m < 2 || elems < 2 * QUANT_MIN_ELEMS_PER_THREAD {
            Dispatch::Serial
        } else {
            Dispatch::RowParallel { rows_per_unit: quant_rows_per_unit(m, threads) }
        }
    }
}

/// Run one `(m × n)` product with shared dimension `k`: allocate the
/// output, return it at once when it is empty, split it as `policy`
/// decides at the current thread count, and fill it through the tile
/// that `tile()` builds. The tile `t(r0, rows, c0, cols, out, stride)`
/// sets `out[i·stride + j]` to output element `(r0 + i, c0 + j)` for
/// `i < rows` and `j < cols`.
///
/// * `Serial` hands the tile every row in one call, so work a tile does
///   once per call (INT8 widening, INT4 decoding a weight tile) is done
///   once per product.
/// * `RowParallel` runs one call per unit of rows.
/// * `ColParallel` runs, row by row, one call per [`COL_BLOCK`] columns.
///
/// Under the `trace` feature the call is timed as
/// `kernel.<label>.{calls, macs, ns}`, the label picked from `labels`
/// (serial, rows, cols) by the path taken; `tile()` runs inside that
/// timer, so per-call preparation such as INT8's activation quantization
/// counts toward the product.
pub(crate) fn drive<T>(
    policy: fn(usize, usize, usize, usize) -> Dispatch,
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))] labels: [&'static str; 3],
    (m, n, k): (usize, usize, usize),
    tile: impl FnOnce() -> T,
) -> Matrix
where
    T: Fn(usize, usize, usize, usize, &mut [f32], usize) + Sync,
{
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let dispatch = policy(m, n, k, rayon::current_num_threads());
    #[cfg(test)]
    let dispatch = tests::FORCED.get().unwrap_or(dispatch);
    #[cfg(feature = "trace")]
    let _t = edgellm_trace::kernels::timer(
        match dispatch {
            Dispatch::Serial => labels[0],
            Dispatch::RowParallel { .. } => labels[1],
            Dispatch::ColParallel => labels[2],
        },
        (m * n) as u64 * k as u64,
    );
    let tile = tile();
    match dispatch {
        Dispatch::Serial => tile(0, m, 0, n, out.as_mut_slice(), n),
        Dispatch::RowParallel { rows_per_unit } => {
            out.as_mut_slice()
                .par_chunks_mut(n * rows_per_unit)
                .enumerate()
                .for_each(|(u, unit)| tile(u * rows_per_unit, unit.len() / n, 0, n, unit, n));
        }
        Dispatch::ColParallel => {
            for r in 0..m {
                out.row_mut(r).par_chunks_mut(COL_BLOCK).enumerate().for_each(|(s, seg)| {
                    let cols = seg.len();
                    tile(r, 1, s * COL_BLOCK, cols, seg, cols);
                });
            }
        }
    }
    out
}

/// The dequantize-then-dot reference and the whole-matrix decode that the
/// f16, INT8 and INT4 weight formats share: expanded inside a format's
/// `impl` block, over its row decoder `$decode_row(r, out)`.
macro_rules! dequant_reference {
    ($decode_row:ident) => {
        /// Dequantize into a caller-provided matrix (no allocation).
        pub fn to_f32_into(&self, out: &mut $crate::Matrix) {
            assert_eq!((out.rows, out.cols), (self.rows, self.cols), "shape mismatch");
            for r in 0..self.rows {
                self.$decode_row(r, out.row_mut(r));
            }
        }

        /// Dequantize to `f32`.
        pub fn to_f32(&self) -> $crate::Matrix {
            let mut out = $crate::Matrix::zeros(self.rows, self.cols);
            self.to_f32_into(&mut out);
            out
        }

        /// Reference dequantize-then-dot product: each weight row is
        /// decoded into one reused f32 scratch row, then dotted against
        /// the f32 activations. Kept for benchmarking the fusion win and
        /// for accuracy cross-checks. Bitwise equal to the fused f16
        /// product; the fused INT8 product also quantizes the activations
        /// and the INT4 one sums block by block, so theirs agree only to
        /// rounding.
        pub fn matmul_nt_dequant(&self, x: &$crate::Matrix) -> $crate::Matrix {
            assert_eq!(x.cols, self.cols, "inner dimensions must match");
            let mut out = $crate::Matrix::zeros(x.rows, self.rows);
            let mut wrow = vec![0.0f32; self.cols];
            for c in 0..self.rows {
                self.$decode_row(c, &mut wrow);
                for r in 0..x.rows {
                    out.set(r, c, $crate::matmul::dot(x.row(r), &wrow));
                }
            }
            out
        }
    };
}
pub(crate) use dequant_reference;

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

/// The f32 NT tile: `out[i·stride + j] = dot(x.row(r0 + i), w.row(c0 + j))`
/// for `i < rows`, `j < cols`. Activation rows go in [`policy::ROW_BLOCK`]-row
/// blocks; within a block the loop is weight-tile outer, activation-row
/// inner, so a 4-row weight tile is loaded once and reused across the
/// whole block.
#[allow(clippy::too_many_arguments)] // internal kernel: tile coordinates are clearer flat than bundled
fn nt_tile(
    x: &Matrix,
    w: &Matrix,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    out: &mut [f32],
    stride: usize,
) {
    for b in (0..rows).step_by(policy::ROW_BLOCK) {
        let block = b..rows.min(b + policy::ROW_BLOCK);
        let mut j = 0;
        while j + 4 <= cols {
            let c = c0 + j;
            let (w0, w1, w2, w3) = (w.row(c), w.row(c + 1), w.row(c + 2), w.row(c + 3));
            for r in block.clone() {
                let base = r * stride + j;
                dot_x4(x.row(r0 + r), w0, w1, w2, w3, &mut out[base..base + 4]);
            }
            j += 4;
        }
        while j < cols {
            let wc = w.row(c0 + j);
            for r in block.clone() {
                out[r * stride + j] = dot(x.row(r0 + r), wc);
            }
            j += 1;
        }
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
    let labels = ["matmul_nt.serial", "matmul_nt.rows", "matmul_nt.cols"];
    drive(policy::matmul_nt, labels, (x.rows, w.rows, x.cols), || {
        move |r0, rows, c0, cols, out, stride| nt_tile(x, w, r0, rows, c0, cols, out, stride)
    })
}

/// The NN/TN tile: output row `i` (columns `c0..c0 + cols`) accumulates
/// `Σ_kk x[r0 + i][kk] · w.row(kk)` over ascending `kk`, skipping zero
/// activations. The order is fixed by `kk`, independent of how rows and
/// columns are split.
#[allow(clippy::too_many_arguments)] // internal kernel: tile coordinates are clearer flat than bundled
fn axpy_tile(
    x: &Matrix,
    w: &Matrix,
    r0: usize,
    rows: usize,
    c0: usize,
    cols: usize,
    out: &mut [f32],
    stride: usize,
) {
    for i in 0..rows {
        let or = &mut out[i * stride..i * stride + cols];
        for (kk, &xv) in x.row(r0 + i).iter().enumerate() {
            if xv != 0.0 {
                for (o, &wv) in or.iter_mut().zip(&w.row(kk)[c0..c0 + cols]) {
                    *o += xv * wv;
                }
            }
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
    let labels = ["matmul_nn.serial", "matmul_nn.rows", "matmul_nn.cols"];
    drive(policy::matmul_axpy, labels, (x.rows, w.cols, x.cols), || {
        move |r0, rows, c0, cols, out, stride| axpy_tile(x, w, r0, rows, c0, cols, out, stride)
    })
}

/// `Y = Xᵀ · W`: `X` is `(k × m)`, `w` is `(k × n)`, result `(m × n)`.
/// The gradient-of-weights shape in backprop (`dW = dYᵀ · X`).
pub fn matmul_tn(x: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(x.rows, w.rows, "inner dimensions must match (TN layout)");
    let labels = ["matmul_tn.serial", "matmul_tn.rows", "matmul_tn.cols"];
    drive(policy::matmul_axpy, labels, (x.cols, w.cols, x.rows), || {
        // Accumulate outer products row-by-row of the shared k dimension,
        // through a transposed view of x so rows split like NN.
        let xt = x.transposed(); // (m × k)
        move |r0, rows, c0, cols, out, stride| axpy_tile(&xt, w, r0, rows, c0, cols, out, stride)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The dispatch [`drive`] runs in place of the policy's while
        /// [`assert_every_path_is_the_reference`] forces one.
        pub(super) static FORCED: Cell<Option<Dispatch>> = const { Cell::new(None) };
    }

    /// Every split `drive` runs: serial; row units of 1, 3, 8 and 16
    /// rows (single rows, leftover rows only, one INT4 group, two); and
    /// the column split.
    const PATHS: [Dispatch; 6] = [
        Dispatch::Serial,
        Dispatch::RowParallel { rows_per_unit: 1 },
        Dispatch::RowParallel { rows_per_unit: 3 },
        Dispatch::RowParallel { rows_per_unit: 8 },
        Dispatch::RowParallel { rows_per_unit: 16 },
        Dispatch::ColParallel,
    ];

    /// A product against its per-element reference, bit for bit, through
    /// [`drive`] on every split of [`PATHS`] at 1, 2 and 8 threads:
    /// `product(w, x)` for m = 1..=17 and 24 activation rows of `k`
    /// inputs against `w = weights(n)` for n = 1..=13 (every `n % 4`
    /// tail) and one n whose rows span three column segments. Element
    /// `(r, c)` must equal `reference(w, x.row(r), c)`. The last
    /// activation row has absmax 127 and every other entry at ±j.5, so
    /// INT8's rounding meets exact ties.
    pub(crate) fn assert_every_path_is_the_reference<W>(
        k: usize,
        weights: impl Fn(usize) -> W,
        product: impl Fn(&W, &Matrix) -> Matrix,
        reference: impl Fn(&W, &[f32], usize) -> f32,
    ) {
        for n in (1..=13).chain([2 * COL_BLOCK + 5]) {
            let w = weights(n);
            for m in (1..=17).chain([24]) {
                let mut x = Matrix::rand_normal(m, k, 1.0, (m * 31 + n) as u64);
                for (j, v) in x.row_mut(m - 1).iter_mut().enumerate() {
                    let tie = (j % 127) as f32 + 0.5;
                    *v = if j % 2 == 0 { tie } else { -tie };
                }
                x.row_mut(m - 1)[0] = 127.0;
                let want: Vec<u32> =
                    (0..m * n).map(|i| reference(&w, x.row(i / n), i % n).to_bits()).collect();
                for threads in [1, 2, 8] {
                    for d in PATHS {
                        FORCED.set(Some(d));
                        let y = rayon::with_num_threads(threads, || product(&w, &x));
                        FORCED.set(None);
                        assert_eq!((y.rows, y.cols), (m, n));
                        for (i, (got, &want)) in y.as_slice().iter().zip(&want).enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want,
                                "({}, {}) of m={m} n={n} k={k}, {d:?}, {threads} threads",
                                i / n,
                                i % n
                            );
                        }
                    }
                }
            }
        }
    }

    /// Element `c` of `xr · w` accumulated in [`axpy_tile`]'s order.
    fn axpy_elem(xr: &[f32], w: &Matrix, c: usize) -> f32 {
        let mut s = 0.0;
        for (kk, &xv) in xr.iter().enumerate() {
            if xv != 0.0 {
                s += xv * w.get(kk, c);
            }
        }
        s
    }

    /// k = 7 is under one 8-lane chunk of [`dot`] (tail only), 75 nine
    /// chunks and a 3-element tail.
    const KS: [usize; 2] = [7, 75];

    #[test]
    fn every_path_of_matmul_nt_is_bitwise_a_dot_product() {
        for k in KS {
            assert_every_path_is_the_reference(
                k,
                |n| Matrix::rand_kaiming(n, k, n as u64),
                |w, x| matmul_nt(x, w),
                |w, xr, c| dot(xr, w.row(c)),
            );
        }
    }

    #[test]
    fn every_path_of_matmul_nn_and_tn_is_bitwise_the_axpy_order() {
        for k in KS {
            // Both take the weights untransposed, `(k × n)`; TN takes the
            // activations transposed.
            let weights = |n| Matrix::rand_kaiming(k, n, n as u64);
            let reference = |w: &Matrix, xr: &[f32], c| axpy_elem(xr, w, c);
            assert_every_path_is_the_reference(k, weights, |w, x| matmul_nn(x, w), reference);
            assert_every_path_is_the_reference(
                k,
                weights,
                |w, x| matmul_tn(&x.transposed(), w),
                reference,
            );
        }
    }

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
        // dot(x row, w row) to the bit, on the path the policy picks
        // (`every_path_of_matmul_nt_is_bitwise_a_dot_product` forces each).
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

        /// A row split in units of `rows_per_unit` rows.
        fn rows(rows_per_unit: usize) -> Dispatch {
            Dispatch::RowParallel { rows_per_unit }
        }

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
            assert_eq!(matmul_nt(256, 1024, 1024, 4), rows(16));
            assert_eq!(matmul_axpy(256, 1024, 1024, 4), rows(1));
            assert_eq!(matmul_quant_nt(32, 1024, 1024, 4), rows(8));
        }

        #[test]
        fn each_family_sets_its_rows_per_unit() {
            // f32 NT: ROW_BLOCK rows.
            assert_eq!(matmul_nt(64, 512, 256, 2), rows(16));
            // NN/TN: one row.
            assert_eq!(matmul_axpy(3, 4096, 512, 8), rows(1));
            // Quantized: an even share of rows per thread, at most eight.
            assert_eq!(matmul_quant_nt(5, 1024, 1024, 4), rows(2));
            assert_eq!(matmul_quant_nt(12, 1024, 1024, 8), rows(2));
            assert_eq!(matmul_quant_nt(100, 1024, 1024, 2), rows(8));
            assert_eq!(matmul_int8_nt(5, 1024, 1024, 2), rows(3));
            assert_eq!(matmul_int8_nt(2, 1024, 1024, 8), rows(1));
        }

        #[test]
        fn a_one_unit_f32_row_split_stays_serial() {
            // At most ROW_BLOCK rows and too few columns for a column
            // split: a row split would be one unit, run inline.
            assert_eq!(matmul_nt(8, 512, 256, 4), Dispatch::Serial);
            assert_eq!(matmul_nt(16, 1000, 1024, 8), Dispatch::Serial);
            // Two units or more still split, even with fewer than threads.
            assert_eq!(matmul_nt(17, 512, 256, 4), rows(16));
        }

        #[test]
        fn every_row_split_yields_two_units_or_more() {
            type Policy = fn(usize, usize, usize, usize) -> Dispatch;
            let policies: [(&str, Policy); 4] = [
                ("matmul_nt", matmul_nt),
                ("matmul_axpy", matmul_axpy),
                ("matmul_quant_nt", matmul_quant_nt),
                ("matmul_int8_nt", matmul_int8_nt),
            ];
            let mut splits = 0;
            for (name, policy) in policies {
                for m in (0..=40).chain([63, 64, 65, 256]) {
                    for n in [1, 2, 64, 512, 1023, 1024, 4096] {
                        for k in [1, 64, 256, 1024, 4096] {
                            for threads in 1..=8 {
                                let d = policy(m, n, k, threads);
                                if let Dispatch::RowParallel { rows_per_unit } = d {
                                    assert!(
                                        rows_per_unit >= 1 && m.div_ceil(rows_per_unit) >= 2,
                                        "{name}({m}, {n}, {k}, {threads}) = {d:?}"
                                    );
                                    splits += 1;
                                }
                            }
                        }
                    }
                }
            }
            assert!(splits > 0);
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
            assert_eq!(matmul_int8_nt(4, 10_240, 2_560, 4), rows(1));
            assert_eq!(matmul_int8_nt(1, 16, 64, 8), Dispatch::Serial);
            assert_eq!(matmul_int8_nt(512, 4096, 4096, 1), Dispatch::Serial);
            // Batched prefill keeps its row split.
            assert_eq!(matmul_int8_nt(32, 10_240, 2_560, 4), rows(8));
        }
    }
}
