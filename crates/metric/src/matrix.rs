//! The shared pivot-distance matrix: the paper's central `n × l` object.
//!
//! Every pivot-based index is, at its core, a view over the matrix
//! `A[i][j] = d(o_i, p_j)`. Historically each index in this workspace
//! recomputed (and re-stored) its own copy as `Vec<Option<Vec<f64>>>` — one
//! heap allocation and one pointer chase per object on every Lemma 1 scan.
//! [`PivotMatrix`] stores the matrix once, row-major in fixed-size chunks of
//! [`PivotMatrix::CHUNK_ROWS`] rows, so that
//!
//! * it can be **built once, in parallel** ([`PivotMatrix::compute`], on the
//!   same scoped-thread worker pool as [`crate::parallel`]) and then shared
//!   by the router and every shard of a sharded engine,
//! * Lemma 1 scanning is a branch-light sequential pass over contiguous
//!   memory ([`PivotMatrix::row`] is a plain slice; the kernel runs once per
//!   chunk), and
//! * the per-object lower-bound filter runs through a cache-blocked,
//!   auto-vectorizable [`ScanKernel`] instead of one function call per row.
//!
//! # The snapshot publication rule
//!
//! For sharded engines the matrix lives in a [`SharedPivotMatrix`] and every
//! shard adopts a [`MatrixSlice`] — a row-index indirection plus a cached
//! [`Arc<PivotMatrix>`] **snapshot** of the shared storage. The discipline:
//!
//! * **Readers never block.** A query scan resolves rows through the
//!   slice's cached snapshot — a plain `Arc` field, no lock, no atomic
//!   read-modify-write. There is no lock on the serve path at all, enforced
//!   at compile time by the API shape.
//! * **Writers publish on push/compact.** Mutation goes through `&mut`
//!   paths (the engine's `apply`, a standalone index's `insert`), which
//!   first *stage* rows ([`SharedPivotMatrix::stage_row`]) and then
//!   *publish* a new snapshot ([`SharedPivotMatrix::publish`]) that the
//!   affected slices re-fetch ([`MatrixSlice::refresh`]). Staging makes a
//!   batch of inserts pay one snapshot publication, not one per row.
//!   Rust's aliasing rules guarantee no query is concurrently reading the
//!   structure that publishes, so publication is a plain `Arc` swap under
//!   the writers' mutex.
//! * **Publication copies chunks, not the matrix.** The row storage and
//!   every slice's indirection and f32 columns are
//!   [`ChunkedVec`]s: a snapshot still pinned by a reader or an untouched
//!   shard shares every chunk with the next one, and a publication copies
//!   only the partly filled tail chunk it appends into (see
//!   [`crate::chunked`]).
//!
//! Removal is handled *outside* the matrix: rows of tombstoned objects stay
//! in place (ids remain row indices) and are simply never verified, because
//! liveness lives in the index's slot map ([`crate::ObjTable`]). Under
//! sustained churn those dead rows still cost lower-bound arithmetic and
//! cache space, which is what [`SharedPivotMatrix::replace`]-based
//! compaction (driven by the engine's `CompactionPolicy`) reclaims: the
//! engine builds a dense matrix over the survivors, installs it as the new
//! snapshot, and remaps every slice's row ids ([`MatrixSlice::reindex`]).

use crate::chunked::ChunkedVec;
use crate::distance::Metric;
use crate::simd::{self, SimdTier};
use parking_lot::Mutex;
use std::sync::Arc;

/// Storage precision of the *filter* columns the scan kernel reads.
///
/// Exact distances are always f64; the column mode only controls what the
/// Lemma 1 lower-bound kernel streams through. Under [`ColumnMode::F32`]
/// each [`MatrixSlice`] keeps **planar** (column-major) f32 copies of its
/// own rows for the kernel — half the bytes per row, twice the SIMD lanes
/// per register, and contiguous loads even for scattered shard slices —
/// and admissibility is preserved by subtracting a conservative rounding
/// slack from every computed bound (see [`PivotMatrix::f32_slack`]): a
/// bound can only get *smaller*, which costs an occasional extra exact
/// check but can never drop a true result, so serve results stay
/// byte-identical to the f64 engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ColumnMode {
    /// Filter columns are the exact f64 distances (the default).
    #[default]
    F64,
    /// Filter columns are per-slice planar f32 copies with slack-adjusted
    /// (admissible) lower bounds; exact distances stay f64.
    F32,
}

impl ColumnMode {
    /// Human-readable label (`"f64"` / `"f32"`).
    pub fn label(&self) -> &'static str {
        match self {
            ColumnMode::F64 => "f64",
            ColumnMode::F32 => "f32",
        }
    }
}

/// Safety factor applied on top of the worst-case f32 rounding error when
/// deriving the admissibility slack (see [`PivotMatrix::f32_slack`]).
pub const F32_SLACK_FACTOR: f64 = 4.0;

/// A row-major `n × l` pivot-distance matrix with stable row ids, stored in
/// copy-on-write chunks of [`CHUNK_ROWS`](Self::CHUNK_ROWS) rows.
///
/// Row `i` holds `(d(o_i, p_1), …, d(o_i, p_l))`. Rows are never removed —
/// indexes with tombstoned deletion keep the row and skip it via their slot
/// map — so row indices are stable object ids for the lifetime of the index
/// (until an explicit engine-level compaction renumbers them wholesale).
/// Cloning shares every chunk (`O(n / CHUNK_ROWS)`); appending copies at
/// most the shared tail chunk.
///
/// Under [`ColumnMode::F32`] the matrix itself stays f64-only — the f32
/// representation the kernel streams is **planar** (column-major) and
/// per-slice, owned by each [`MatrixSlice`] so every shard scans contiguous
/// columns regardless of how scattered its row indirection is. The matrix
/// tracks only the running max magnitude that sizes the admissibility
/// slack; the f64 rows remain authoritative — compaction, selection and
/// staging all operate on f64 and slices re-derive their columns.
#[derive(Clone, Debug, PartialEq)]
pub struct PivotMatrix {
    /// Row-major distances in chunks of `CHUNK_ROWS · width` values; row
    /// `i` is at offset `(i % CHUNK_ROWS) · width` of chunk
    /// `i / CHUNK_ROWS`.
    data: ChunkedVec<f64>,
    /// Running `max |data[..]|`, maintained only under [`ColumnMode::F32`]
    /// (it sizes the rounding slack).
    max_abs: f64,
    /// Which representation the lower-bound kernel reads.
    mode: ColumnMode,
    /// Number of pivots `l` (row stride). A width of 0 is allowed (no
    /// pivots): the matrix then has zero-length rows.
    width: usize,
    /// Number of rows `n` (tracked separately so `width == 0` still counts).
    rows: usize,
}

impl Default for PivotMatrix {
    fn default() -> Self {
        PivotMatrix::new(0)
    }
}

impl PivotMatrix {
    /// Rows per storage chunk: the unit a publication copies (64 KiB of
    /// row data at `l = 8`). A power of two, so a row lookup is a shift
    /// and a mask.
    pub const CHUNK_ROWS: usize = 1024;

    /// An empty matrix over `width` pivots.
    pub fn new(width: usize) -> Self {
        PivotMatrix {
            data: ChunkedVec::new(Self::CHUNK_ROWS * width.max(1)),
            max_abs: 0.0,
            mode: ColumnMode::F64,
            width,
            rows: 0,
        }
    }

    /// Computes the full `objects × pivots` matrix, fanning chunks across
    /// `threads` scoped worker threads (1 ⇒ serial). Deterministic: the
    /// output is identical for every thread count, and with a
    /// [`CountingMetric`](crate::CountingMetric) exactly
    /// `objects.len() * pivots.len()` evaluations are counted.
    pub fn compute<O, M>(objects: &[O], metric: &M, pivots: &[O], threads: usize) -> Self
    where
        O: Sync,
        M: Metric<O> + Sync,
    {
        let width = pivots.len();
        let mut m = PivotMatrix::new(width);
        m.rows = objects.len();
        if width == 0 {
            return m;
        }
        let fill = |buf: &mut [f64], objs: &[O]| {
            for (slot, o) in buf.chunks_mut(width).zip(objs) {
                for (x, p) in slot.iter_mut().zip(pivots) {
                    *x = metric.dist(o, p);
                }
            }
        };
        let obj_chunks: Vec<&[O]> = objects.chunks(Self::CHUNK_ROWS).collect();
        let mut bufs: Vec<Vec<f64>> = obj_chunks
            .iter()
            .map(|c| vec![0.0f64; c.len() * width])
            .collect();
        let threads = threads.max(1);
        if threads == 1 || objects.len() < 2 * threads {
            for (buf, objs) in bufs.iter_mut().zip(&obj_chunks) {
                fill(buf, objs);
            }
        } else {
            // Contiguous runs of rows per worker, split at row (not chunk)
            // granularity so small matrices still fan out.
            let per = objects.len().div_ceil(threads);
            let mut pieces: Vec<Vec<(&mut [f64], &[O])>> =
                (0..threads).map(|_| Vec::new()).collect();
            let mut row = 0usize;
            for (buf, objs) in bufs.iter_mut().zip(&obj_chunks) {
                let (mut buf, mut objs) = (buf.as_mut_slice(), *objs);
                while !objs.is_empty() {
                    let t = row / per;
                    let take = ((t + 1) * per - row).min(objs.len());
                    let (b, rest_b) = std::mem::take(&mut buf).split_at_mut(take * width);
                    let (o, rest_o) = objs.split_at(take);
                    pieces[t].push((b, o));
                    buf = rest_b;
                    objs = rest_o;
                    row += take;
                }
            }
            let fill = &fill;
            crossbeam::thread::scope(|s| {
                for piece in pieces {
                    s.spawn(move |_| {
                        for (b, o) in piece {
                            fill(b, o);
                        }
                    });
                }
            })
            .expect("matrix worker thread panicked");
        }
        m.data = ChunkedVec::from_chunks(Self::CHUNK_ROWS * width, bufs);
        m
    }

    /// Builds a matrix from per-object rows (each of length `width`).
    pub fn from_rows<R: AsRef<[f64]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Self {
        let mut m = PivotMatrix::new(width);
        for r in rows {
            m.push_row(r.as_ref());
        }
        m
    }

    /// Which representation the lower-bound kernel reads.
    pub fn mode(&self) -> ColumnMode {
        self.mode
    }

    /// Switches the filter-column mode, (re)scanning the stored distances
    /// for the max magnitude that sizes the f32 slack. Cheap on an empty
    /// matrix; `O(n·l)` otherwise.
    pub fn with_mode(mut self, mode: ColumnMode) -> Self {
        self.set_mode(mode);
        self
    }

    /// In-place form of [`with_mode`](Self::with_mode).
    pub fn set_mode(&mut self, mode: ColumnMode) {
        self.mode = mode;
        self.max_abs = 0.0;
        if mode == ColumnMode::F32 {
            self.max_abs = self.data.chunks().fold(0.0, max_abs_of);
        }
    }

    /// Extends the running max magnitude over `values`. No-op under
    /// [`ColumnMode::F64`] (the slack is never consulted there).
    fn track_max(&mut self, values: &[f64]) {
        if self.mode == ColumnMode::F32 {
            self.max_abs = max_abs_of(self.max_abs, values);
        }
    }

    /// Appends already-flat staged rows (the [`SharedPivotMatrix::publish`]
    /// path), keeping the max magnitude in sync; leaves `staged` empty.
    pub(crate) fn append_flat(&mut self, staged: &mut Vec<f64>, staged_rows: usize) {
        self.track_max(staged);
        self.data.extend_from_slice(staged);
        self.rows += staged_rows;
        staged.clear();
    }

    /// Number of rows `n` (including rows of tombstoned objects).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pivots `l` (the row stride).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `id` as a contiguous slice of `l` distances.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        if self.width == 0 {
            assert!(id < self.rows, "row {id} out of bounds");
            return &[];
        }
        let chunk = self.data.chunk(id / Self::CHUNK_ROWS);
        let off = (id % Self::CHUNK_ROWS) * self.width;
        &chunk[off..off + self.width]
    }

    /// The longest contiguous run of rows starting at row `start`, capped
    /// at `max_rows` and at the end of `start`'s chunk, as flat row-major
    /// values. Requires `width > 0`.
    fn run(&self, start: usize, max_rows: usize) -> &[f64] {
        let chunk = self.data.chunk(start / Self::CHUNK_ROWS);
        let off = (start % Self::CHUNK_ROWS) * self.width;
        let end = (off + max_rows * self.width).min(chunk.len());
        &chunk[off..end]
    }

    /// Appends one row, returning its row id.
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width, "row length must equal pivot count");
        self.track_max(row);
        self.data.extend_from_slice(row);
        self.rows += 1;
        self.rows - 1
    }

    /// A new matrix holding the given rows of `self`, in `ids` order — the
    /// per-shard slice/permutation of the shared matrix used when a sharded
    /// engine hands each shard its part of the one precomputed matrix, and
    /// the dense-survivor rebuild of engine-level compaction.
    pub fn select(&self, ids: &[u32]) -> Self {
        let mut out = PivotMatrix::new(self.width).with_mode(self.mode);
        for &id in ids {
            out.push_row(self.row(id as usize));
        }
        out
    }

    /// Whether storage chunk `c` is the same allocation in `self` and
    /// `other` (neither side copied it since they were cloned apart).
    pub fn shares_chunk(&self, other: &PivotMatrix, c: usize) -> bool {
        self.data.shares_chunk(&other.data, c)
    }

    /// Number of storage chunks.
    pub fn num_chunks(&self) -> usize {
        self.data.num_chunks()
    }

    /// Running `max |d(o_i, p_j)|` over every stored distance (0 unless the
    /// mode is [`ColumnMode::F32`], where it sizes the rounding slack).
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// The admissibility slack subtracted from every f32-computed bound for
    /// a query whose pivot distances have max magnitude `qd_max_abs`.
    ///
    /// Worst-case error of the f32 bound vs the true f64 bound
    /// `max_j |qd_j − row_j|`: rounding each operand to f32 perturbs it by
    /// at most `½·ε₃₂·|operand|`, and the f32 subtraction adds at most
    /// `½·ε₃₂` of the result's magnitude (≤ the operand magnitudes' sum),
    /// so each `|qd_j − row_j|` term is off by at most about
    /// `ε₃₂·(|qd_j| + |row_j|)`; `max` never amplifies error. Subtracting
    /// `F32_SLACK_FACTOR · ε₃₂ · (max|row| + max|qd|)` therefore guarantees
    /// the adjusted bound never exceeds the true bound — with a 4× margin —
    /// and the kernel clamps at zero (degenerate inputs such as overflow to
    /// `±∞` or `NaN` produce a zero bound, i.e. a full exact scan, never an
    /// inadmissible one).
    pub fn f32_slack(&self, qd_max_abs: f64) -> f64 {
        F32_SLACK_FACTOR * (f32::EPSILON as f64) * (self.max_abs + qd_max_abs)
    }

    /// Iterates `(row id, row)` over every row (tombstoned or not).
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.rows).map(|i| (i, self.row(i)))
    }

    /// In-memory footprint of the matrix in bytes (the f64 rows; under
    /// [`ColumnMode::F32`] the planar f32 columns live in the slices and
    /// are accounted by [`MatrixSlice::mem_bytes`]).
    pub fn mem_bytes(&self) -> u64 {
        8 * (self.rows * self.width) as u64
    }
}

/// `max(start, max |values|)`.
fn max_abs_of(start: f64, values: &[f64]) -> f64 {
    let mut mx = start;
    for &x in values {
        let a = x.abs();
        if a > mx {
            mx = a;
        }
    }
    mx
}

/// The cache-blocked, branchless pivot-filter kernel: computes the Lemma 1
/// lower bound `max_j |qd_j - row_j|` for whole *blocks* of candidate rows
/// at once over flat row-major storage, instead of one
/// [`pivot_lower_bound`](crate::lemmas::pivot_lower_bound) call per row.
///
/// Processing [`ScanKernel::LANES`] rows per step keeps that many
/// independent `max` dependency chains in flight (the scalar loop is a
/// single serial chain of `l` compare-selects per row) and lets LLVM
/// auto-vectorize the fixed-stride inner loop; there is no per-row slot
/// branch, no `Option` unwrap, and no enumeration overhead inside the
/// block. The arithmetic is *identical* to the scalar path — `|a − b|` and
/// `max` are exact and each row's reduction runs in the same pivot order —
/// so blocked results equal scalar results **bit for bit** (unit-tested
/// below), which is what lets every index route its filter through the
/// kernel without changing a single exact counter. Each row's bound depends
/// on that row alone, so running the kernel once per storage chunk (as
/// [`MatrixSlice`] does) yields the same bits as one pass over flat rows.
///
/// On x86-64 the public entry points dispatch once (cached, overridable via
/// `PMI_SIMD`) to explicit [`std::arch`] lanes — see [`crate::simd`] — with
/// this blocked code as the portable fallback. Every tier produces
/// bit-identical bounds: `|a − b|` is one correctly-rounded op, `abs` is
/// exact, and a `max` reduction over non-negative finite values is exact in
/// any association, so SIMD dispatch is invisible to results and counters
/// (tier-agreement is unit-tested per tier).
pub struct ScanKernel;

/// `max(x, +0.0)` with the exact semantics of `_mm_max_pd(x, 0)`: `+0.0`
/// for negative, `±0` and `NaN` inputs. Keeping one copy shared by the
/// portable f32 path and every SIMD remainder loop is load-bearing for
/// tier bit-identity.
#[inline(always)]
pub(crate) fn clamp_pos(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Widens an f32 row-max to f64 and applies the admissibility slack (the
/// one adjustment formula every f32 tier shares — see
/// [`PivotMatrix::f32_slack`]).
#[inline(always)]
pub(crate) fn adjust_f32(m: f32, slack: f64) -> f64 {
    clamp_pos(m as f64 - slack)
}

impl ScanKernel {
    /// Rows processed per unrolled step (independent max-chains in flight).
    pub const LANES: usize = 4;

    #[inline(always)]
    pub(crate) fn row_max(qd: &[f64], row: &[f64]) -> f64 {
        let mut m = 0.0f64;
        for (q, x) in qd.iter().zip(row) {
            let d = (q - x).abs();
            m = if d > m { d } else { m };
        }
        m
    }

    /// The f32 per-row reduction over planar columns: row `r` of the slice
    /// whose column `j` is `cols[j]`. Pivot order (`j` ascending) and max
    /// semantics match [`row_max`](Self::row_max), which is what keeps
    /// every f32 tier bit-identical to the scalar reference.
    #[inline(always)]
    pub(crate) fn row_max_f32_planar(qd: &[f32], cols: &[&[f32]], r: usize) -> f32 {
        let mut m = 0.0f32;
        for (q, col) in qd.iter().zip(cols) {
            let d = (q - col[r]).abs();
            m = if d > m { d } else { m };
        }
        m
    }

    /// The one 4-lane reduction both blocked entry points share: four
    /// independent `max |q - x|` chains over four rows of width `qd.len()`.
    /// Keeping a single copy is load-bearing for the exact-counter
    /// guarantee — every caller must produce bit-identical bounds.
    #[inline(always)]
    fn block_max(qd: &[f64], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [f64; 4] {
        let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((((q, x0), x1), x2), x3) in qd.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let d0 = (q - x0).abs();
            let d1 = (q - x1).abs();
            let d2 = (q - x2).abs();
            let d3 = (q - x3).abs();
            m0 = if d0 > m0 { d0 } else { m0 };
            m1 = if d1 > m1 { d1 } else { m1 };
            m2 = if d2 > m2 { d2 } else { m2 };
            m3 = if d3 > m3 { d3 } else { m3 };
        }
        [m0, m1, m2, m3]
    }

    /// Lower bounds for `n` contiguous rows of flat row-major storage
    /// (`rows.len() == n * qd.len()`), into `out` (cleared first).
    /// Dispatches once to the best available SIMD tier (`PMI_SIMD`
    /// overridable); every tier is bit-identical.
    pub fn lower_bounds(qd: &[f64], rows: &[f64], n: usize, out: &mut Vec<f64>) {
        Self::lower_bounds_with_tier(simd::tier(), qd, rows, n, out);
    }

    /// [`lower_bounds`](Self::lower_bounds) pinned to an explicit SIMD tier
    /// (tier-agreement tests and the kernel bench; serving uses the cached
    /// [`simd::tier`] dispatch).
    pub fn lower_bounds_with_tier(
        tier: SimdTier,
        qd: &[f64],
        rows: &[f64],
        n: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        if !qd.is_empty() {
            Self::fill(tier, qd, rows, out);
        }
    }

    /// The contiguous kernel into a sized output: `out[i]` is the bound of
    /// row `i` of `rows` (`rows.len() == out.len() * qd.len()`, `qd`
    /// non-empty).
    fn fill(tier: SimdTier, qd: &[f64], rows: &[f64], out: &mut [f64]) {
        let w = qd.len();
        assert_eq!(rows.len(), out.len() * w, "rows must hold out.len() rows");
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                // SAFETY: dispatch/pinning is gated on runtime AVX2
                // detection; slice lengths are checked above.
                unsafe { simd::x86::lb_f64_avx2(qd, rows, out) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => {
                // SAFETY: SSE2 is baseline on x86-64; lengths checked above.
                unsafe { simd::x86::lb_f64_sse2(qd, rows, out) }
            }
            _ => {
                let mut blocks = rows.chunks_exact(Self::LANES * w);
                let mut outs = out.chunks_exact_mut(Self::LANES);
                for (block, o) in (&mut blocks).zip(&mut outs) {
                    let (r0, rest) = block.split_at(w);
                    let (r1, rest) = rest.split_at(w);
                    let (r2, r3) = rest.split_at(w);
                    o.copy_from_slice(&Self::block_max(qd, r0, r1, r2, r3));
                }
                for (row, o) in blocks
                    .remainder()
                    .chunks_exact(w)
                    .zip(outs.into_remainder())
                {
                    *o = Self::row_max(qd, row);
                }
            }
        }
    }

    /// [`lower_bounds`](Self::lower_bounds) through a row-id indirection:
    /// entry `i` of `out` is the lower bound of `matrix` row `index[i]`.
    /// The gather variant of the kernel, used by permuted shard slices;
    /// the inner loop is still the fixed-stride blocked reduction.
    pub fn lower_bounds_indexed(
        qd: &[f64],
        matrix: &PivotMatrix,
        index: &[u32],
        out: &mut Vec<f64>,
    ) {
        Self::lower_bounds_indexed_with_tier(simd::tier(), qd, matrix, index, out);
    }

    /// [`lower_bounds_indexed`](Self::lower_bounds_indexed) pinned to an
    /// explicit SIMD tier.
    pub fn lower_bounds_indexed_with_tier(
        tier: SimdTier,
        qd: &[f64],
        matrix: &PivotMatrix,
        index: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(index.len(), 0.0);
        if !qd.is_empty() {
            Self::fill_indexed(tier, qd, matrix, index, out);
        }
    }

    /// The gather kernel into a sized output (`out.len() == index.len()`,
    /// `qd` non-empty).
    fn fill_indexed(
        tier: SimdTier,
        qd: &[f64],
        matrix: &PivotMatrix,
        index: &[u32],
        out: &mut [f64],
    ) {
        assert_eq!(matrix.width(), qd.len(), "one query distance per pivot");
        assert_eq!(index.len(), out.len(), "one bound per indexed row");
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                // SAFETY: runtime AVX2 detection; widths and lengths are
                // checked above and every row lookup is bounds-checked.
                unsafe { simd::x86::lb_f64_idx_avx2(qd, matrix, index, out) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => {
                // SAFETY: SSE2 is baseline on x86-64; as above.
                unsafe { simd::x86::lb_f64_idx_sse2(qd, matrix, index, out) }
            }
            _ => {
                let mut blocks = index.chunks_exact(Self::LANES);
                let mut outs = out.chunks_exact_mut(Self::LANES);
                for (ids, o) in (&mut blocks).zip(&mut outs) {
                    let r0 = matrix.row(ids[0] as usize);
                    let r1 = matrix.row(ids[1] as usize);
                    let r2 = matrix.row(ids[2] as usize);
                    let r3 = matrix.row(ids[3] as usize);
                    o.copy_from_slice(&Self::block_max(qd, r0, r1, r2, r3));
                }
                for (&id, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
                    *o = Self::row_max(qd, matrix.row(id as usize));
                }
            }
        }
    }

    /// f32 filter columns: lower bounds for `n` rows of **planar**
    /// (column-major) storage — `cols[j][i]` is row `i`'s f32 distance to
    /// pivot `j` — **slack-adjusted** into admissible f64 bounds
    /// (`clamp_pos(m − slack)`, see [`PivotMatrix::f32_slack`]) so callers
    /// compare them against f64 radii/thresholds unchanged.
    ///
    /// Planar storage is what makes the f32 mode pay: every SIMD step is
    /// one contiguous load per column, for contiguous *and* scattered
    /// slices alike — there is no f32 gather path at all (each
    /// [`MatrixSlice`] owns its rows' columns in local order).
    pub fn lower_bounds_f32(qd: &[f32], cols: &[&[f32]], n: usize, slack: f64, out: &mut Vec<f64>) {
        Self::lower_bounds_f32_with_tier(simd::tier(), qd, cols, n, slack, out);
    }

    /// [`lower_bounds_f32`](Self::lower_bounds_f32) pinned to an explicit
    /// SIMD tier.
    pub fn lower_bounds_f32_with_tier(
        tier: SimdTier,
        qd: &[f32],
        cols: &[&[f32]],
        n: usize,
        slack: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        if !qd.is_empty() {
            Self::fill_f32(tier, qd, cols, slack, out);
        }
    }

    /// The planar f32 kernel into a sized output (every column holds at
    /// least `out.len()` rows, `qd` non-empty).
    fn fill_f32(tier: SimdTier, qd: &[f32], cols: &[&[f32]], slack: f64, out: &mut [f64]) {
        let n = out.len();
        assert_eq!(cols.len(), qd.len(), "one column per pivot");
        assert!(cols.iter().all(|c| c.len() >= n), "columns cover every row");
        match tier {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => {
                // SAFETY: dispatch/pinning is gated on runtime AVX2
                // detection; column lengths are checked above.
                unsafe { simd::x86::lb_f32_planar_avx2(qd, cols, slack, out) }
            }
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => {
                // SAFETY: SSE2 is baseline on x86-64; lengths checked above.
                unsafe { simd::x86::lb_f32_planar_sse2(qd, cols, slack, out) }
            }
            _ => {
                let mut outs = out.chunks_exact_mut(Self::LANES);
                let mut i = 0;
                for o in &mut outs {
                    let mut m = [0.0f32; Self::LANES];
                    for (q, col) in qd.iter().zip(cols) {
                        for (m, &x) in m.iter_mut().zip(&col[i..i + Self::LANES]) {
                            let d = (q - x).abs();
                            *m = if d > *m { d } else { *m };
                        }
                    }
                    for (o, &m) in o.iter_mut().zip(&m) {
                        *o = adjust_f32(m, slack);
                    }
                    i += Self::LANES;
                }
                for (r, o) in (i..n).zip(outs.into_remainder()) {
                    *o = adjust_f32(Self::row_max_f32_planar(qd, cols, r), slack);
                }
            }
        }
    }

    /// The scalar reference: one [`pivot_lower_bound`]-style reduction per
    /// row, no blocking. Exists for the bit-for-bit kernel tests and the
    /// blocked-vs-scalar throughput bench; indexes use the blocked paths.
    ///
    /// [`pivot_lower_bound`]: crate::lemmas::pivot_lower_bound
    pub fn lower_bounds_scalar(qd: &[f64], rows: &[f64], n: usize, out: &mut Vec<f64>) {
        let w = qd.len();
        out.clear();
        if w == 0 {
            out.resize(n, 0.0);
            return;
        }
        debug_assert_eq!(rows.len(), n * w);
        out.extend(rows.chunks_exact(w).map(|row| Self::row_max(qd, row)));
    }

    /// The f32 scalar reference over planar columns (slack-adjusted like
    /// every f32 path).
    pub fn lower_bounds_scalar_f32(
        qd: &[f32],
        cols: &[&[f32]],
        n: usize,
        slack: f64,
        out: &mut Vec<f64>,
    ) {
        let w = qd.len();
        out.clear();
        if w == 0 {
            out.resize(n, 0.0);
            return;
        }
        debug_assert_eq!(cols.len(), w);
        out.extend((0..n).map(|r| adjust_f32(Self::row_max_f32_planar(qd, cols, r), slack)));
    }
}

/// Writer-side state of a [`SharedPivotMatrix`]: the published snapshot
/// plus rows staged since the last publication.
#[derive(Debug, Default)]
struct Shared {
    /// The currently published snapshot. Slices hold clones of this `Arc`.
    snap: Arc<PivotMatrix>,
    /// Rows staged since the last publication, row-major.
    staged: Vec<f64>,
    staged_rows: usize,
}

/// A [`PivotMatrix`] shared between the engine, the router, and every
/// shard's pivot table, with **snapshot publication** instead of a
/// read-write lock: readers hold a plain [`Arc<PivotMatrix>`] (cloned at
/// adoption/refresh time, on the write path), so a query scan performs no
/// lock acquisition and no atomic read-modify-write — see the module docs
/// for the publication rule. The internal mutex serializes *writers* only
/// (`stage_row` / `publish` / `replace`), which all sit behind `&mut`
/// engine or index borrows anyway.
///
/// Cloning shares the same matrix (the handle is an `Arc`). Rows are
/// append-only: removal tombstones live in the indexes' slot maps, so a row
/// id handed out by `stage_row`/`push_row` is valid until an engine-level
/// compaction installs a renumbered snapshot via [`replace`](Self::replace).
#[derive(Clone, Debug, Default)]
pub struct SharedPivotMatrix(Arc<Mutex<Shared>>);

impl SharedPivotMatrix {
    /// Wraps an already-computed matrix for sharing.
    pub fn new(matrix: PivotMatrix) -> Self {
        SharedPivotMatrix(Arc::new(Mutex::new(Shared {
            snap: Arc::new(matrix),
            staged: Vec::new(),
            staged_rows: 0,
        })))
    }

    /// The currently published snapshot (staged rows not yet included).
    pub fn snapshot(&self) -> Arc<PivotMatrix> {
        self.0.lock().snap.clone()
    }

    /// An owned copy of the published snapshot (shares its chunks).
    pub fn snapshot_owned(&self) -> PivotMatrix {
        (*self.snapshot()).clone()
    }

    /// Total rows: published plus staged.
    pub fn rows(&self) -> usize {
        let g = self.0.lock();
        g.snap.rows() + g.staged_rows
    }

    /// Number of pivots `l` (the row stride).
    pub fn width(&self) -> usize {
        self.0.lock().snap.width()
    }

    /// Whether rows have been staged but not yet published.
    pub fn has_staged(&self) -> bool {
        self.0.lock().staged_rows > 0
    }

    /// Stages one row without publishing, returning its (future) stable row
    /// id. The row becomes readable only after [`publish`](Self::publish);
    /// the engine stages a whole `apply` batch and publishes once.
    pub fn stage_row(&self, row: &[f64]) -> usize {
        let mut g = self.0.lock();
        assert_eq!(
            row.len(),
            g.snap.width(),
            "row length must equal pivot count"
        );
        g.staged.extend_from_slice(row);
        g.staged_rows += 1;
        g.snap.rows() + g.staged_rows - 1
    }

    /// Stages one row and publishes immediately — the standalone-index
    /// insert path ([`MatrixSlice::push_adopt`]).
    pub fn push_row(&self, row: &[f64]) -> usize {
        let id = self.stage_row(row);
        self.publish();
        id
    }

    /// Publishes a new snapshot containing every staged row. The new
    /// snapshot shares every full chunk with the old one; the only data
    /// copied is the old tail chunk when another holder still pins it
    /// (`O(chunks)` pointer copies plus at most one chunk of rows). A sole
    /// owner appends in place.
    pub fn publish(&self) {
        let mut g = self.0.lock();
        if g.staged_rows == 0 {
            return;
        }
        let Shared {
            snap,
            staged,
            staged_rows,
        } = &mut *g;
        let m = Arc::make_mut(snap);
        m.append_flat(staged, *staged_rows);
        *staged_rows = 0;
    }

    /// Number of rows staged but not yet published.
    pub fn staged_rows(&self) -> usize {
        self.0.lock().staged_rows
    }

    /// Discards every staged-but-unpublished row without publishing — the
    /// abort path of the engine's crash-safe `apply` transaction. The
    /// published snapshot is untouched, and the next `stage_row` hands out
    /// the same id the first discarded row had, so an aborted batch can be
    /// re-staged verbatim.
    pub fn discard_staged(&self) {
        let mut g = self.0.lock();
        g.staged.clear();
        g.staged_rows = 0;
    }

    /// Installs `matrix` as the new published snapshot, discarding the old
    /// rows — the engine-level compaction path (the caller has already
    /// remapped every row id). Panics if rows are staged but unpublished.
    pub fn replace(&self, matrix: PivotMatrix) {
        let mut g = self.0.lock();
        assert_eq!(g.staged_rows, 0, "publish staged rows before replacing");
        g.snap = Arc::new(matrix);
    }
}

/// One shard's adopted view of a [`SharedPivotMatrix`]: local row `i` reads
/// shared row `index[i]` of the slice's cached snapshot.
///
/// The indirection makes adoption free — a partition is `O(|partition|)`
/// row *ids*, and a row pushed by the engine's mutation path is adopted by
/// appending its id ([`adopt`](Self::adopt)) — while the cached
/// [`Arc<PivotMatrix>`] snapshot makes reads free: [`row`](Self::row) and
/// [`lower_bounds_into`](Self::lower_bounds_into) touch no lock and no
/// atomic, per the module-level publication rule. The snapshot is
/// re-fetched only on the `&mut` write paths ([`refresh`](Self::refresh),
/// called by the engine after it publishes staged rows, and by
/// [`adopt`]/[`reindex`](Self::reindex) themselves when the adopted row is
/// already published).
///
/// The indirection and the f32 columns are [`ChunkedVec`]s of
/// [`CHUNK_ROWS`](Self::CHUNK_ROWS) local rows: cloning a slice (an
/// index fork) shares them, adopting a row copies at most their shared
/// tail chunks, and the scan kernel runs once per chunk.
///
/// A standalone index (no engine) wraps its own freshly computed matrix via
/// [`from_owned`](Self::from_owned), becoming the sole owner of a shared
/// handle with an identity indirection; the code paths are the same.
#[derive(Clone, Debug)]
pub struct MatrixSlice {
    shared: SharedPivotMatrix,
    /// Cached published snapshot; always covers every row in `index` by
    /// the publication rule (the engine refreshes after publishing).
    snap: Arc<PivotMatrix>,
    /// Local row id → shared row id.
    index: ChunkedVec<u32>,
    /// Whether `index` is one consecutive run (`index[i] = index[0] + i`),
    /// which lets the scan kernel run over contiguous storage with no
    /// gather. True for standalone identity slices and single-shard
    /// engines; maintained incrementally on adopt/reindex.
    consecutive: bool,
    /// Under [`ColumnMode::F32`]: this slice's rows as **planar**
    /// (column-major) f32 columns in *local* order — `cols32[j][i]` is
    /// `row(i)[j] as f32` — so the f32 kernel streams contiguous loads no
    /// matter how scattered `index` is. Each column is chunked like
    /// `index`, so chunk `c` of every column covers the same local rows.
    /// Empty under [`ColumnMode::F64`]. Shared rows are append-only and
    /// immutable, so materialized entries never go stale; growth is
    /// tracked by `cols32_rows`.
    cols32: Vec<ChunkedVec<f32>>,
    /// How many leading local rows `cols32` has materialized. Lags
    /// `index.len()` only between adopting a still-staged row and the
    /// publication that makes it readable (no queries can run in between —
    /// the engine holds `&mut` for the whole mutation batch).
    cols32_rows: usize,
}

fn is_consecutive(index: &[u32]) -> bool {
    index.windows(2).all(|w| w[1] == w[0] + 1)
}

impl MatrixSlice {
    /// Local rows per chunk of the indirection and of each f32 column: the
    /// unit an adopt copies (16 KiB per f32 column) and the length of one
    /// scan-kernel call.
    pub const CHUNK_ROWS: usize = 4096;

    /// Adopts the given shared rows, in `index` order (local row `i` is
    /// shared row `index[i]`). Every row must already be published.
    pub fn new(shared: SharedPivotMatrix, index: Vec<u32>) -> Self {
        let snap = shared.snapshot();
        debug_assert!(
            index.iter().all(|&r| (r as usize) < snap.rows()),
            "every adopted row must exist in the shared matrix"
        );
        let consecutive = is_consecutive(&index);
        let index = ChunkedVec::from_vec(Self::CHUNK_ROWS, index);
        let mut slice = MatrixSlice {
            shared,
            snap,
            index,
            consecutive,
            cols32: Vec::new(),
            cols32_rows: 0,
        };
        slice.rebuild_cols32();
        slice
    }

    /// Wraps an owned matrix as its own sole-owner slice (identity
    /// indirection) — the standalone-index construction path.
    pub fn from_owned(matrix: PivotMatrix) -> Self {
        let index = (0..matrix.rows() as u32).collect();
        MatrixSlice::new(SharedPivotMatrix::new(matrix), index)
    }

    /// The shared matrix this slice reads.
    pub fn shared(&self) -> &SharedPivotMatrix {
        &self.shared
    }

    /// The cached published snapshot this slice resolves rows through.
    pub fn snapshot(&self) -> &Arc<PivotMatrix> {
        &self.snap
    }

    /// Number of local rows (including rows of tombstoned slots).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the slice has adopted no rows.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of pivots `l`.
    pub fn width(&self) -> usize {
        self.snap.width()
    }

    /// The shared row id behind a local row.
    pub fn shared_row_of(&self, local: usize) -> usize {
        self.index[local] as usize
    }

    /// Local row `local` as a contiguous slice of `l` distances — resolved
    /// through the cached snapshot: no lock, no guard.
    #[inline]
    pub fn row(&self, local: usize) -> &[f64] {
        self.snap.row(self.index[local] as usize)
    }

    /// Rebuilds the planar f32 columns from scratch (construction and the
    /// compaction reindex). No-op under [`ColumnMode::F64`].
    fn rebuild_cols32(&mut self) {
        self.cols32.clear();
        self.cols32_rows = 0;
        if self.snap.mode() != ColumnMode::F32 {
            return;
        }
        self.cols32 = (0..self.snap.width())
            .map(|_| ChunkedVec::new(Self::CHUNK_ROWS))
            .collect();
        self.sync_cols32();
    }

    /// Extends the planar columns with every adopted row the cached
    /// snapshot can already resolve (the watermark catch-up). The rounding
    /// is the same single `as f32` the slack formula accounts for.
    fn sync_cols32(&mut self) {
        if self.snap.mode() != ColumnMode::F32 {
            return;
        }
        while self.cols32_rows < self.index.len() {
            let r = self.index[self.cols32_rows] as usize;
            if r >= self.snap.rows() {
                // Adopted but still staged; the engine publishes and
                // refreshes before any query runs.
                break;
            }
            for (col, &x) in self.cols32.iter_mut().zip(self.snap.row(r)) {
                col.push(x as f32);
            }
            self.cols32_rows += 1;
        }
    }

    /// Lemma 1 lower bounds for **all** local rows at once, through the
    /// blocked [`ScanKernel`] run once per storage chunk (f64: contiguous
    /// fast path when the indirection is one consecutive run, gather
    /// otherwise; f32: always the planar streaming path over this slice's
    /// own columns), into a reused buffer. Bounds are bit-identical to one
    /// kernel pass over flat rows. Rows of tombstoned slots are included —
    /// computing their bound is cheaper than branching on liveness inside
    /// the kernel; the caller's slot map skips them in the verification
    /// pass.
    pub fn lower_bounds_into(&self, qd: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(qd.len(), self.width());
        let n = self.index.len();
        out.clear();
        out.resize(n, 0.0);
        let w = self.snap.width();
        if w == 0 || n == 0 {
            return;
        }
        let tier = simd::tier();
        match self.snap.mode() {
            ColumnMode::F64 if self.consecutive => {
                // One consecutive run of shared rows, cut at the matrix's
                // own chunk boundaries.
                let mut row = self.index[0] as usize;
                let mut done = 0;
                while done < n {
                    let run = self.snap.run(row, n - done);
                    let k = run.len() / w;
                    ScanKernel::fill(tier, qd, run, &mut out[done..done + k]);
                    done += k;
                    row += k;
                }
            }
            ColumnMode::F64 => {
                for (c, ids) in self.index.chunks().enumerate() {
                    let off = c * Self::CHUNK_ROWS;
                    let out = &mut out[off..off + ids.len()];
                    ScanKernel::fill_indexed(tier, qd, &self.snap, ids, out);
                }
            }
            ColumnMode::F32 => {
                debug_assert_eq!(
                    self.cols32_rows, n,
                    "planar columns out of sync with the indirection"
                );
                // Round the query's pivot distances once per scan; the
                // admissibility slack covers this rounding plus the
                // columns' (see `PivotMatrix::f32_slack`).
                let mut qmax = 0.0f64;
                let mut qstack = [0.0f32; 64];
                let qheap: Vec<f32>;
                let qd32: &[f32] = if w <= qstack.len() {
                    for (s, q) in qstack.iter_mut().zip(qd) {
                        *s = *q as f32;
                        let a = q.abs();
                        if a > qmax {
                            qmax = a;
                        }
                    }
                    &qstack[..w]
                } else {
                    qheap = qd
                        .iter()
                        .map(|q| {
                            let a = q.abs();
                            if a > qmax {
                                qmax = a;
                            }
                            *q as f32
                        })
                        .collect();
                    &qheap
                };
                let slack = self.snap.f32_slack(qmax);
                // Column refs on the stack for the common pivot counts.
                let mut cstack: [&[f32]; 64] = [&[]; 64];
                let mut cheap: Vec<&[f32]> = Vec::new();
                for c in 0..self.index.num_chunks() {
                    let cols: &[&[f32]] = if w <= cstack.len() {
                        for (s, col) in cstack.iter_mut().zip(&self.cols32) {
                            *s = col.chunk(c);
                        }
                        &cstack[..w]
                    } else {
                        cheap.clear();
                        cheap.extend(self.cols32.iter().map(|col| col.chunk(c)));
                        &cheap
                    };
                    let off = c * Self::CHUNK_ROWS;
                    let len = cols[0].len();
                    ScanKernel::fill_f32(tier, qd32, cols, slack, &mut out[off..off + len]);
                }
            }
        }
    }

    /// Re-fetches the published snapshot — the engine calls this (through
    /// `MetricIndex::refresh_rows`) after publishing staged rows — and
    /// catches the planar f32 columns up to any newly readable rows.
    pub fn refresh(&mut self) {
        self.snap = self.shared.snapshot();
        self.sync_cols32();
    }

    /// Appends `shared_row` to the indirection and catches the f32 columns
    /// up, returning the new local row id.
    fn push_index(&mut self, shared_row: usize) -> usize {
        self.consecutive = self.consecutive
            && self
                .index
                .last()
                .is_none_or(|&last| shared_row as u32 == last + 1);
        self.index.push(shared_row as u32);
        self.sync_cols32();
        self.index.len() - 1
    }

    /// Adopts one more shared row, returning its local row id. The row must
    /// exist in the shared matrix, published **or staged**: adopting a
    /// still-staged row defers the snapshot refresh to the engine's
    /// publication step (no query can run in between — the engine holds
    /// `&mut` for the whole batch); adopting a published row the cached
    /// snapshot predates refreshes immediately.
    pub fn adopt(&mut self, shared_row: usize) -> usize {
        debug_assert!(shared_row < self.shared.rows(), "adopting a missing row");
        if shared_row >= self.snap.rows() {
            let published = self.shared.snapshot();
            if shared_row < published.rows() {
                self.snap = published;
            }
        }
        self.push_index(shared_row)
    }

    /// Stages, publishes and adopts one row — the standalone insert path.
    /// The slice drops its own pin first so that a sole owner's publication
    /// appends in place instead of copying the tail chunk.
    pub fn push_adopt(&mut self, row: &[f64]) -> usize {
        self.snap = Arc::new(PivotMatrix::default());
        let id = self.shared.push_row(row);
        self.snap = self.shared.snapshot();
        self.push_index(id)
    }

    /// Replaces the whole indirection and re-fetches the snapshot — the
    /// compaction path, after the engine installed a renumbered matrix via
    /// [`SharedPivotMatrix::replace`].
    pub fn reindex(&mut self, index: Vec<u32>) {
        self.snap = self.shared.snapshot();
        debug_assert!(
            index.iter().all(|&r| (r as usize) < self.snap.rows()),
            "every reindexed row must exist in the compacted matrix"
        );
        self.consecutive = is_consecutive(&index);
        self.index = ChunkedVec::from_vec(Self::CHUNK_ROWS, index);
        self.rebuild_cols32();
    }

    /// This slice's share of the matrix footprint: its rows' distances
    /// (plus its own planar f32 columns under [`ColumnMode::F32`]) plus
    /// the indirection itself.
    pub fn mem_bytes(&self) -> u64 {
        let per_row = match self.snap.mode() {
            ColumnMode::F64 => 8 * self.width() as u64,
            ColumnMode::F32 => 12 * self.width() as u64,
        };
        (per_row + 4) * self.index.len() as u64
    }
}

impl From<PivotMatrix> for MatrixSlice {
    fn from(matrix: PivotMatrix) -> Self {
        MatrixSlice::from_owned(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::distance::{CountingMetric, L2};
    use crate::lemmas::pivot_lower_bound;

    #[test]
    fn compute_matches_serial_for_all_thread_counts() {
        let pts = datasets::la(500, 3);
        let pivots: Vec<Vec<f32>> = vec![pts[1].clone(), pts[99].clone(), pts[200].clone()];
        let serial = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        assert_eq!(serial.rows(), 500);
        assert_eq!(serial.width(), 3);
        for threads in [0usize, 2, 4, 7, 64] {
            let par = PivotMatrix::compute(&pts, &L2, &pivots, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
        for (i, o) in pts.iter().enumerate().step_by(97) {
            for (j, p) in pivots.iter().enumerate() {
                assert_eq!(serial.row(i)[j], L2.dist(o, p));
            }
        }
    }

    #[test]
    fn compute_counts_exactly_n_times_l() {
        let pts = datasets::la(400, 5);
        let pivots: Vec<Vec<f32>> = vec![pts[0].clone(), pts[7].clone()];
        let metric = CountingMetric::new(L2);
        let _ = PivotMatrix::compute(&pts, &metric, &pivots, 4);
        assert_eq!(metric.count(), 400 * 2);
    }

    #[test]
    fn push_select_roundtrip() {
        let mut m = PivotMatrix::new(2);
        assert!(m.is_empty());
        assert_eq!(m.push_row(&[1.0, 2.0]), 0);
        assert_eq!(m.push_row(&[3.0, 4.0]), 1);
        assert_eq!(m.push_row(&[5.0, 6.0]), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let s = m.select(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(m.num_chunks(), 1);
        assert_eq!(m.mem_bytes(), 48);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows[2], (2, [5.0, 6.0].as_slice()));
    }

    #[test]
    fn from_rows_matches_push() {
        let m = PivotMatrix::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn zero_width_matrix_counts_rows() {
        let mut m = PivotMatrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[] as &[f64]);
        let pts = datasets::la(10, 1);
        let c = PivotMatrix::compute(&pts, &L2, &[], 4);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.width(), 0);
    }

    #[test]
    #[should_panic]
    fn push_row_rejects_wrong_width() {
        let mut m = PivotMatrix::new(2);
        m.push_row(&[1.0]);
    }

    // -----------------------------------------------------------------
    // ScanKernel: bit-for-bit equality with the scalar lower bound.
    // -----------------------------------------------------------------

    #[test]
    fn blocked_kernel_equals_scalar_bit_for_bit() {
        // Sizes straddling the block width, including remainders; widths
        // including degenerate 0 and 1.
        for w in [0usize, 1, 3, 5, 21] {
            for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 257] {
                // Deterministic pseudo-data with negative and repeated
                // values (no RNG needed).
                let rows: Vec<f64> = (0..n * w)
                    .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.75)
                    .collect();
                let qd: Vec<f64> = (0..w).map(|j| (j * 13 % 17) as f64 - 8.0).collect();
                let mut blocked = Vec::new();
                let mut scalar = Vec::new();
                ScanKernel::lower_bounds(&qd, &rows, n, &mut blocked);
                ScanKernel::lower_bounds_scalar(&qd, &rows, n, &mut scalar);
                assert_eq!(blocked.len(), n);
                for i in 0..n {
                    assert_eq!(
                        blocked[i].to_bits(),
                        scalar[i].to_bits(),
                        "w={w} n={n} row {i}: blocked != scalar"
                    );
                    if w > 0 {
                        let want = pivot_lower_bound(&qd, &rows[i * w..(i + 1) * w]);
                        assert_eq!(blocked[i].to_bits(), want.to_bits(), "vs lemmas");
                    }
                }
                // The gather variant agrees too, under a permutation.
                if w > 0 {
                    let m = PivotMatrix::from_rows(w, rows.chunks(w.max(1)));
                    let index: Vec<u32> = (0..n as u32).rev().collect();
                    let mut gathered = Vec::new();
                    ScanKernel::lower_bounds_indexed(&qd, &m, &index, &mut gathered);
                    for (i, &id) in index.iter().enumerate() {
                        assert_eq!(gathered[i].to_bits(), scalar[id as usize].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn every_simd_tier_matches_the_portable_reference_bit_for_bit() {
        // f64: all tiers vs the scalar reference, contiguous and gather,
        // across widths and block remainders.
        for tier in simd::available_tiers() {
            for w in [1usize, 3, 5, 8, 21] {
                for n in [1usize, 2, 3, 7, 8, 9, 63, 64, 65, 130] {
                    let rows: Vec<f64> = (0..n * w)
                        .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.75)
                        .collect();
                    let qd: Vec<f64> = (0..w).map(|j| (j * 13 % 17) as f64 - 8.0).collect();
                    let mut want = Vec::new();
                    ScanKernel::lower_bounds_scalar(&qd, &rows, n, &mut want);
                    let mut got = Vec::new();
                    ScanKernel::lower_bounds_with_tier(tier, &qd, &rows, n, &mut got);
                    assert_eq!(got.len(), n);
                    for i in 0..n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{tier:?} w={w} n={n} row {i}"
                        );
                    }
                    let m = PivotMatrix::from_rows(w, rows.chunks(w));
                    let index: Vec<u32> = (0..n as u32).rev().collect();
                    let mut gathered = Vec::new();
                    ScanKernel::lower_bounds_indexed_with_tier(
                        tier,
                        &qd,
                        &m,
                        &index,
                        &mut gathered,
                    );
                    for (i, &id) in index.iter().enumerate() {
                        assert_eq!(
                            gathered[i].to_bits(),
                            want[id as usize].to_bits(),
                            "{tier:?} gather w={w} n={n} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_tiers_agree_and_stay_admissible() {
        for tier in simd::available_tiers() {
            for w in [1usize, 4, 5, 9] {
                for n in [1usize, 5, 8, 9, 16, 17, 64, 131] {
                    let rows64: Vec<f64> = (0..n * w)
                        .map(|i| ((i * 53 % 211) as f64 - 100.0) * 1.375)
                        .collect();
                    // Planar columns, rounded the same way slices round.
                    let cols_own: Vec<Vec<f32>> = (0..w)
                        .map(|j| (0..n).map(|i| rows64[i * w + j] as f32).collect())
                        .collect();
                    let cols: Vec<&[f32]> = cols_own.iter().map(|c| c.as_slice()).collect();
                    let qd64: Vec<f64> = (0..w)
                        .map(|j| ((j * 29 % 31) as f64 - 15.0) * 1.1)
                        .collect();
                    let qd32: Vec<f32> = qd64.iter().map(|&x| x as f32).collect();
                    let max_abs = rows64.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    let qmax = qd64.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    let slack = F32_SLACK_FACTOR * (f32::EPSILON as f64) * (max_abs + qmax);
                    let mut want = Vec::new();
                    ScanKernel::lower_bounds_scalar_f32(&qd32, &cols, n, slack, &mut want);
                    let mut got = Vec::new();
                    ScanKernel::lower_bounds_f32_with_tier(tier, &qd32, &cols, n, slack, &mut got);
                    assert_eq!(got.len(), n);
                    for i in 0..n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{tier:?} w={w} n={n} row {i}"
                        );
                        // Admissible: never above the true f64 bound.
                        let truth = ScanKernel::row_max(&qd64, &rows64[i * w..(i + 1) * w]);
                        assert!(
                            got[i] <= truth,
                            "{tier:?} w={w} n={n} row {i}: f32 bound {} > true {truth}",
                            got[i]
                        );
                        assert!(got[i] >= 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn f32_max_abs_tracks_every_mutation_path() {
        let m = PivotMatrix::from_rows(2, [[1.0, -8.0], [2.5, 3.0]]).with_mode(ColumnMode::F32);
        assert_eq!(m.mode(), ColumnMode::F32);
        assert_eq!(m.max_abs(), 8.0);
        assert_eq!(m.mem_bytes(), 4 * 8);

        // push_row extends the max.
        let mut m = m;
        m.push_row(&[-9.5, 0.25]);
        assert_eq!(m.max_abs(), 9.5);

        // select inherits the mode and recomputes the (tighter) max.
        let s = m.select(&[0, 1]);
        assert_eq!(s.mode(), ColumnMode::F32);
        assert_eq!(s.max_abs(), 8.0);

        // Staged publication through the shared handle tracks too.
        let shared = SharedPivotMatrix::new(m.clone());
        shared.stage_row(&[100.0, -1.0]);
        shared.publish();
        let snap = shared.snapshot();
        assert_eq!(snap.max_abs(), 100.0);

        // Dropping back to F64 resets the (unused) max.
        let back = (*snap).clone().with_mode(ColumnMode::F64);
        assert_eq!(back.max_abs(), 0.0);
        assert_eq!(back.mem_bytes(), 8 * 8);
    }

    #[test]
    fn f32_planar_columns_track_slice_mutations() {
        // A scattered slice under F32 scans its own planar columns; bounds
        // must track adopt (published and staged), push_adopt, and the
        // compaction reindex. Equality oracle: a fresh slice with the same
        // indirection (rebuilds its columns from scratch).
        let m = PivotMatrix::from_rows(2, [[0.0, 1.0], [10.0, -3.0], [4.0, 4.0], [-2.0, 7.0]])
            .with_mode(ColumnMode::F32);
        let shared = SharedPivotMatrix::new(m);
        let mut s = MatrixSlice::new(shared.clone(), vec![2, 0]);
        let qd = [3.0f64, -1.0];
        let check = |s: &MatrixSlice| {
            let fresh = MatrixSlice::new(s.shared().clone(), s.index.iter().copied().collect());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            s.lower_bounds_into(&qd, &mut got);
            fresh.lower_bounds_into(&qd, &mut want);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        };
        check(&s);

        // Adopt an already-published row.
        s.adopt(3);
        check(&s);

        // Adopt a staged row: columns lag until publish + refresh.
        let staged = shared.stage_row(&[5.0, 5.0]);
        s.adopt(staged);
        assert_eq!(s.cols32_rows, 3, "staged row not yet materialized");
        shared.publish();
        s.refresh();
        assert_eq!(s.cols32_rows, 4);
        check(&s);

        // push_adopt (stage + publish + adopt in one step).
        s.push_adopt(&[-6.0, 2.0]);
        check(&s);

        // Compaction: renumbered matrix, wholesale rebuild.
        let dense = shared.snapshot().select(&[0, 2, 4]);
        shared.replace(dense);
        s.reindex(vec![2, 1, 0]);
        check(&s);
    }

    #[test]
    fn f32_slice_bounds_are_admissible_on_real_data() {
        let pts = datasets::la(500, 7);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[90].clone(), pts[222].clone()];
        let m64 = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let m32 = m64.clone().with_mode(ColumnMode::F32);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let ident = MatrixSlice::from_owned(m32.clone());
        let mut lbs = Vec::new();
        ident.lower_bounds_into(&qd, &mut lbs);
        assert_eq!(lbs.len(), 500);
        for (i, lb) in lbs.iter().enumerate() {
            let truth = pivot_lower_bound(&qd, m64.row(i));
            assert!(*lb <= truth, "row {i}: f32 bound {lb} > true {truth}");
            assert!(*lb >= 0.0);
            // And not uselessly loose: within slack of the truth.
            let slk = m32.f32_slack(qd.iter().fold(0.0f64, |a, q| a.max(q.abs())));
            assert!(truth - *lb <= 2.0 * slk + truth * 1e-6, "row {i} too loose");
        }
        // Gather path agrees with the contiguous path per row.
        let shared = SharedPivotMatrix::new(m32);
        let index: Vec<u32> = (0..500u32).map(|i| (i * 7) % 500).collect();
        let slice = MatrixSlice::new(shared, index.clone());
        let mut glbs = Vec::new();
        slice.lower_bounds_into(&qd, &mut glbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(glbs[i].to_bits(), lbs[id as usize].to_bits());
        }
    }

    #[test]
    fn slice_lower_bounds_match_per_row_scan() {
        let pts = datasets::la(300, 11);
        let pivots: Vec<Vec<f32>> = vec![pts[0].clone(), pts[10].clone(), pts[20].clone()];
        let matrix = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        // Identity (consecutive fast path).
        let ident = MatrixSlice::from_owned(matrix.clone());
        let mut lbs = Vec::new();
        ident.lower_bounds_into(&qd, &mut lbs);
        for (i, lb) in lbs.iter().enumerate() {
            assert_eq!(
                lb.to_bits(),
                pivot_lower_bound(&qd, matrix.row(i)).to_bits()
            );
        }
        // Permuted (gather path).
        let shared = SharedPivotMatrix::new(matrix.clone());
        let index: Vec<u32> = (0..300u32).map(|i| (i * 7) % 300).collect();
        let slice = MatrixSlice::new(shared, index.clone());
        slice.lower_bounds_into(&qd, &mut lbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(
                lbs[i].to_bits(),
                pivot_lower_bound(&qd, matrix.row(id as usize)).to_bits()
            );
        }
    }

    // -----------------------------------------------------------------
    // Snapshot publication.
    // -----------------------------------------------------------------

    #[test]
    fn shared_matrix_grows_under_adopted_slices() {
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]],
        ));
        // Two "shards" adopt disjoint permuted views of the same matrix.
        let mut a = MatrixSlice::new(shared.clone(), vec![3, 0]);
        let b = MatrixSlice::new(shared.clone(), vec![1, 2]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.width(), 2);
        assert_eq!(a.shared_row_of(0), 3);
        assert_eq!(a.row(0), &[6.0, 7.0]);
        assert_eq!(a.row(1), &[0.0, 1.0]);
        // The mutation path pushes one row (stage + publish) and the target
        // slice adopts it; the adopt refreshes the cached snapshot because
        // the row is already published.
        let row_id = shared.push_row(&[8.0, 9.0]);
        assert_eq!(row_id, 4);
        let local = a.adopt(row_id);
        assert_eq!(local, 2);
        assert_eq!(a.row(2), &[8.0, 9.0]);
        // The sibling slice still reads its own (older but sufficient)
        // snapshot; a refresh brings it to the latest.
        assert_eq!(b.len(), 2);
        assert_eq!(shared.rows(), 5);
        assert_eq!(b.row(1), &[4.0, 5.0]);
        let mut b = b;
        b.refresh();
        assert_eq!(b.snapshot().rows(), 5);
    }

    #[test]
    fn staged_rows_publish_in_one_step() {
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(1, [[1.0], [2.0]]));
        let mut s = MatrixSlice::new(shared.clone(), vec![0, 1]);
        assert!(!shared.has_staged());
        let r2 = shared.stage_row(&[3.0]);
        let r3 = shared.stage_row(&[4.0]);
        assert_eq!((r2, r3), (2, 3));
        assert_eq!(shared.rows(), 4, "total counts staged rows");
        assert_eq!(shared.snapshot().rows(), 2, "snapshot does not");
        assert!(shared.has_staged());
        // Adopting a staged row defers the refresh (no queries can run
        // while the engine holds &mut); publish + refresh completes it.
        let local = s.adopt(r2);
        assert_eq!(local, 2);
        shared.publish();
        assert!(!shared.has_staged());
        s.refresh();
        assert_eq!(s.row(2), &[3.0]);
        assert_eq!(s.snapshot().rows(), 4);
    }

    #[test]
    fn sole_owner_publish_appends_in_place() {
        // A standalone slice's push_adopt drops its own pin before the
        // publish, so the sole-owner snapshot grows without any chunk copy.
        let mut s = MatrixSlice::from_owned(PivotMatrix::new(1).with_mode(ColumnMode::F32));
        let before = crate::chunked::copies();
        for i in 0..10 {
            let local = s.push_adopt(&[i as f64]);
            assert_eq!(local, i);
            assert_eq!(s.row(i), &[i as f64]);
        }
        assert_eq!(crate::chunked::copies().since(before).chunks, 0);
        assert_eq!(s.len(), 10);
        assert_eq!(s.shared().rows(), 10);
    }

    #[test]
    fn publish_copies_only_the_pinned_tail_chunk() {
        let n = 3 * PivotMatrix::CHUNK_ROWS + 5;
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            (0..n).map(|i| [i as f64, -(i as f64)]),
        ));
        // A reader pins the published snapshot.
        let pinned = shared.snapshot();
        let before = crate::chunked::copies();
        shared.stage_row(&[1.0, 2.0]);
        shared.publish();
        let copied = crate::chunked::copies().since(before);
        assert_eq!(copied.chunks, 1, "only the partly filled tail chunk");
        assert_eq!(copied.bytes, 5 * 2 * 8);
        let now = shared.snapshot();
        assert_eq!(now.rows(), n + 1);
        assert_eq!(pinned.rows(), n, "the pinned snapshot is untouched");
        assert!((0..3).all(|c| now.shares_chunk(&pinned, c)));
        assert!(!now.shares_chunk(&pinned, 3));
        assert_eq!(now.row(n), &[1.0, 2.0]);
        assert_eq!(now.row(n - 1), pinned.row(n - 1));
    }

    #[test]
    fn replace_installs_compacted_snapshot() {
        let shared =
            SharedPivotMatrix::new(PivotMatrix::from_rows(1, [[0.0], [1.0], [2.0], [3.0]]));
        let mut s = MatrixSlice::new(shared.clone(), vec![0, 1, 2, 3]);
        // "Compact away" rows 1 and 3: survivors 0, 2 renumber to 0, 1.
        let dense = shared.snapshot().select(&[0, 2]);
        shared.replace(dense);
        s.reindex(vec![0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[0.0]);
        assert_eq!(s.row(1), &[2.0]);
        assert_eq!(shared.rows(), 2);
    }

    #[test]
    fn from_owned_is_identity_indirection() {
        let m = PivotMatrix::from_rows(1, [[1.0], [2.0], [3.0]]);
        let s: MatrixSlice = m.into();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        for i in 0..3 {
            assert_eq!(s.row(i), &[(i + 1) as f64]);
        }
        assert_eq!(s.mem_bytes(), 3 * (8 + 4));
    }
}
