//! Sparse revised simplex kernel: a CSC constraint matrix, an
//! LU-factorized basis with a product-form **eta file** between pivots,
//! periodic refactorization on a fill / instability trigger, and partial
//! pricing over the nonbasic set.
//!
//! This kernel implements exactly the same bounded-variable two-phase
//! primal and dual simplex semantics as the dense tableau in `simplex.rs`
//! (same slack/artificial column layout, same pivot eligibility rules,
//! tie-breaks, stall-to-Bland switch, and tolerances), so the two engines
//! are interchangeable behind [`Workspace`](crate::simplex::Workspace) and
//! can be differentially tested against each other. The difference is pure
//! arithmetic: instead of maintaining `B⁻¹·A` densely (O(m·n) per pivot),
//! the revised method keeps an LU factorization of the `m×m` basis and
//! answers the two linear systems each pivot needs —
//! `FTRAN: B·α = a_q` and `BTRAN: Bᵀ·y = c_B` — through the factors plus a
//! short eta file, at a cost proportional to the actual nonzeros.
//!
//! **Eta file.** After a pivot that replaces basis position `p` with
//! entering column `q`, the new basis is `B' = B·E` where `E` is the
//! identity except column `p`, which holds `α = B⁻¹·a_q`. Rather than
//! refactorizing, the update is recorded as the sparse vector `(p, α)`;
//! `FTRAN` applies `E⁻¹` after the LU solve and `BTRAN` applies `E⁻ᵀ`
//! before it, in reverse order. The file is capped: after
//! `refactor_interval` updates (or when a transformed pivot element comes
//! out suspiciously small relative to its column) the basis is
//! refactorized from scratch and `x_B` is recomputed from the raw rows,
//! which also repairs accumulated floating-point drift.
//!
//! **Factorization.** A refactorization costs time proportional to the
//! basis nonzeros and their fill, plus `O(m)` set-up: a slack or
//! artificial column on a row no earlier column pivoted costs `O(1)`, and
//! branch-and-bound bases are mostly such columns. The factors are bit for
//! bit those of the plain left-looking loop that scans every row for each
//! column (the test oracle), so pivots, refactorization points and answers
//! do not depend on how the elimination finds its nonzeros. See [`Lu`].

use crate::model::Cmp;
use crate::simplex::{
    default_status, BasisSnapshot, ColStatus, DualEnd, LpConfig, LpOutcome, LpProblem, OptimizeEnd,
    SparseRow, StepOutcome, DEADLINE_POLL_MASK, PIVOT_TOL, REFACTOR_TOL,
};
use std::time::Instant;

/// Eta updates tolerated between refactorizations when
/// [`LpConfig::refactor_interval`] is `0` (auto). Large enough that short
/// warm dual repairs never refactorize mid-node, small enough that the eta
/// file stays cheaper to apply than a fresh factorization of the basis.
const DEFAULT_REFACTOR_INTERVAL: usize = 64;

/// A transformed pivot element smaller than this fraction of its column's
/// largest entry signals elimination error building up in the eta file and
/// schedules a refactorization right after the pivot is applied.
const STABILITY_TOL: f64 = 1e-7;

/// Partial pricing scans the nonbasic set in cyclic blocks of this many
/// columns (at least), picking the best reduced cost seen in the first
/// block that contains an eligible column.
const PRICE_BLOCK: usize = 64;

/// CSC storage of the structural columns. Slack and artificial columns are
/// implicit unit vectors and never stored: slack `i` is `+e_i`, artificial
/// `i` is `sign_i·e_i` with a per-row sign chosen at cold start so the
/// artificial enters the basis non-negative (snapshot loads use `+1`,
/// where the sign is irrelevant — row scaling never changes which column
/// sets are bases).
struct Csc {
    m: usize,
    n_struct: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
    /// CSR mirror of the structural columns, for row-wise PRICE: computing
    /// `ρᵀ·A` by scattering ρ's nonzero rows costs the touched rows' entries
    /// instead of one sparse dot per nonbasic column.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    rval: Vec<f64>,
    /// Identity of the row set this matrix was built from, so consecutive
    /// node solves over the same rows skip the rebuild.
    key: (usize, usize, usize),
}

impl Csc {
    fn new() -> Self {
        Csc {
            m: 0,
            n_struct: 0,
            col_ptr: vec![0],
            row_idx: Vec::new(),
            val: Vec::new(),
            row_ptr: vec![0],
            col_idx: Vec::new(),
            rval: Vec::new(),
            key: (0, usize::MAX, usize::MAX),
        }
    }

    /// Rebuilds the matrix from `rows`. Duplicate terms within a row keep
    /// the last occurrence, matching the dense builder's overwrite.
    fn build(&mut self, rows: &[SparseRow], ncols: usize) {
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        let mut tmp: Vec<(usize, f64)> = Vec::new();
        for (i, (terms, _, _)) in rows.iter().enumerate() {
            tmp.clear();
            tmp.extend_from_slice(terms);
            tmp.sort_by_key(|&(j, _)| j); // stable: duplicates keep order
            let mut k = 0;
            while k < tmp.len() {
                let j = tmp[k].0;
                let mut a = tmp[k].1;
                while k + 1 < tmp.len() && tmp[k + 1].0 == j {
                    k += 1;
                    a = tmp[k].1;
                }
                if a != 0.0 {
                    cols[j].push((i, a));
                }
                k += 1;
            }
        }
        self.col_ptr.clear();
        self.row_idx.clear();
        self.val.clear();
        self.col_ptr.push(0);
        for col in &cols {
            for &(i, a) in col {
                self.row_idx.push(i);
                self.val.push(a);
            }
            self.col_ptr.push(self.row_idx.len());
        }
        self.row_ptr.clear();
        self.col_idx.clear();
        self.rval.clear();
        self.row_ptr.resize(rows.len() + 1, 0);
        for &i in &self.row_idx {
            self.row_ptr[i + 1] += 1;
        }
        for i in 0..rows.len() {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        self.col_idx.resize(self.row_idx.len(), 0);
        self.rval.resize(self.row_idx.len(), 0.0);
        let mut next = self.row_ptr.clone();
        for (j, col) in cols.iter().enumerate() {
            for &(i, a) in col {
                let slot = next[i];
                self.col_idx[slot] = j;
                self.rval[slot] = a;
                next[i] += 1;
            }
        }
        self.m = rows.len();
        self.n_struct = ncols;
    }

    /// Writes `ρᵀ·A` over all columns (structural, slack, artificial) into
    /// `out`, visiting only ρ's nonzero rows. `out[..n]` is fully rewritten.
    fn price_row(&self, art_sign: &[f64], rho: &[f64], out: &mut [f64]) {
        let n = self.n_struct + 2 * self.m;
        out[..n].fill(0.0);
        for (i, &r) in rho.iter().enumerate().take(self.m) {
            if r == 0.0 {
                continue;
            }
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.col_idx[idx]] += r * self.rval[idx];
            }
            out[self.n_struct + i] = r;
            out[self.n_struct + self.m + i] = art_sign[i] * r;
        }
    }

    /// Adds column `j` (structural, slack, or artificial) scaled by `scale`
    /// into the dense row-space vector `out`.
    fn axpy(&self, art_sign: &[f64], j: usize, scale: f64, out: &mut [f64]) {
        if j < self.n_struct {
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                out[self.row_idx[idx]] += scale * self.val[idx];
            }
        } else if j < self.n_struct + self.m {
            out[j - self.n_struct] += scale;
        } else {
            let i = j - self.n_struct - self.m;
            out[i] += scale * art_sign[i];
        }
    }

    /// Dot product of column `j` with the dense row-space vector `y`.
    fn dot(&self, art_sign: &[f64], j: usize, y: &[f64]) -> f64 {
        if j < self.n_struct {
            let mut acc = 0.0;
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                acc += self.val[idx] * y[self.row_idx[idx]];
            }
            acc
        } else if j < self.n_struct + self.m {
            y[j - self.n_struct]
        } else {
            let i = j - self.n_struct - self.m;
            art_sign[i] * y[i]
        }
    }
}

/// LU factors of the basis from a left-looking elimination with partial
/// (largest-magnitude) row pivoting. Elimination step `k` processes basis
/// position `k` and pivots on row `prow[k]`; `L` is stored as one
/// elementary transform per step (`v[row] -= mult · v[prow[k]]`) and `U`
/// column-wise in step space.
///
/// **Cost.** [`Lu::factorize`] touches only the basis nonzeros and their
/// fill. A slack or artificial column on a row no earlier step pivoted
/// costs `O(1)`. Any other column costs its nonzeros plus the `L` entries
/// of the earlier steps it reaches; two bitsets, one over steps and one
/// over unpivoted-list positions, keep those steps and the rows it fills
/// in order for one word per 64 rows. Per call there is `O(m)` set-up.
///
/// **Identical factors.** The factors are exactly those of the plain
/// left-looking loop that scans every row at every step (kept as the test
/// oracle): the same pivot rows (largest magnitude, ties to the earliest
/// position of the `swap_remove`-ordered unpivoted list), the same
/// transforms in ascending step order (skipped when the pivot-row value is
/// exactly `0.0`), `U` entries in ascending step order, `L` entries in
/// unpivoted-list order, and only nonzeros stored. FTRAN and BTRAN sum in
/// storage order, so every solve, and the fill-based refactorization
/// trigger, is bit-identical to the scanning loop's. (That holds for
/// finite values; the model rejects non-finite coefficients.)
struct Lu {
    m: usize,
    prow: Vec<usize>,
    l_start: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_start: Vec<usize>,
    u_steps: Vec<usize>,
    u_vals: Vec<f64>,
    u_diag: Vec<f64>,
}

impl Lu {
    fn new() -> Self {
        Lu {
            m: 0,
            prow: Vec::new(),
            l_start: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_start: vec![0],
            u_steps: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::new(),
        }
    }

    /// Empties the factors for a basis of `m` rows.
    fn clear(&mut self, m: usize) {
        self.m = m;
        self.prow.clear();
        self.l_start.clear();
        self.l_start.push(0);
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_start.clear();
        self.u_start.push(0);
        self.u_steps.clear();
        self.u_vals.clear();
        self.u_diag.clear();
    }

    /// Factorizes the basis given by `basis` against `mat`, using `work`
    /// (dense row-space scratch, left all-zero on success) and `elim`.
    /// Returns `false` when some basis column is numerically dependent on
    /// the previous ones (pivot below [`REFACTOR_TOL`]), leaving `self`
    /// unspecified — callers keep a scratch copy and swap on success.
    fn factorize(
        &mut self,
        mat: &Csc,
        art_sign: &[f64],
        basis: &[usize],
        work: &mut [f64],
        elim: &mut Elimination,
    ) -> bool {
        let m = basis.len();
        self.clear(m);
        elim.reset(m);
        work[..m].fill(0.0);

        for (k, &col) in basis.iter().enumerate() {
            if col >= mat.n_struct {
                let (i, d) = if col < mat.n_struct + mat.m {
                    (col - mat.n_struct, 1.0)
                } else {
                    let i = col - mat.n_struct - mat.m;
                    (i, art_sign[i])
                };
                if elim.step_of[i] == UNPIVOTED {
                    // No earlier transform reaches an unpivoted row, so a
                    // unit column there pivots on itself: an empty U
                    // column and no L multipliers.
                    self.u_start.push(self.u_steps.len());
                    elim.pivot(i, k);
                    self.prow.push(i);
                    self.u_diag.push(d);
                    self.l_start.push(self.l_rows.len());
                    continue;
                }
                elim.touch(i);
                work[i] = d;
            } else {
                for idx in mat.col_ptr[col]..mat.col_ptr[col + 1] {
                    elim.touch(mat.row_idx[idx]);
                    work[mat.row_idx[idx]] = mat.val[idx];
                }
            }
            // Apply the earlier transforms whose pivot rows this column
            // reaches, in ascending step order. A transform only fills rows
            // of later steps, so the scan never meets a step behind it, and
            // a pivoted row's value is final once its step comes up: that
            // value is this column's U entry.
            let (mut w, words) = (0, k.div_ceil(64));
            while w < words {
                let bits = elim.steps[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                elim.steps[w] = bits & (bits - 1);
                let kk = w * 64 + bits.trailing_zeros() as usize;
                let row = self.prow[kk];
                let pv = work[row];
                work[row] = 0.0;
                if pv == 0.0 {
                    continue;
                }
                self.u_steps.push(kk);
                self.u_vals.push(pv);
                for idx in self.l_start[kk]..self.l_start[kk + 1] {
                    let r = self.l_rows[idx];
                    elim.touch(r);
                    work[r] -= self.l_vals[idx] * pv;
                }
            }
            self.u_start.push(self.u_steps.len());
            // Partial pivoting among the reached unpivoted rows (every
            // other unpivoted row holds 0), visited in `unpiv` order:
            // largest magnitude, ties to the earliest.
            let mut best = (0, 0.0f64);
            for t in elim.fill_positions() {
                let a = work[elim.unpiv[t]].abs();
                if a > best.1 {
                    best = (t, a);
                }
            }
            if best.1 <= REFACTOR_TOL {
                return false;
            }
            let r = elim.unpiv[best.0];
            elim.pivot(r, k);
            let piv = work[r];
            work[r] = 0.0;
            self.prow.push(r);
            self.u_diag.push(piv);
            // The other reached rows hold this step's L multipliers, stored
            // in the order the pivot's `swap_remove` left `unpiv`.
            for t in elim.fill_positions() {
                let rr = elim.unpiv[t];
                let v = work[rr];
                work[rr] = 0.0;
                if v != 0.0 {
                    self.l_rows.push(rr);
                    self.l_vals.push(v / piv);
                }
            }
            elim.fill.fill(0);
            self.l_start.push(self.l_rows.len());
        }
        true
    }
}

/// `Elimination::step_of` entry of a row no step has pivoted yet.
const UNPIVOTED: usize = usize::MAX;

/// Bookkeeping of one [`Lu::factorize`] call, kept across calls so the
/// buffers are allocated once per kernel.
#[derive(Default)]
struct Elimination {
    /// Rows not pivoted yet, in the order `swap_remove` leaves them.
    unpiv: Vec<usize>,
    /// Each unpivoted row's index in `unpiv`.
    unpiv_pos: Vec<usize>,
    /// The step that pivoted each row, or [`UNPIVOTED`].
    step_of: Vec<usize>,
    /// Bit `s` set: the current column reaches step `s`'s pivot row and
    /// that step is still to apply.
    steps: Vec<u64>,
    /// Bit `t` set: the current column reaches row `unpiv[t]`.
    fill: Vec<u64>,
}

impl Elimination {
    fn reset(&mut self, m: usize) {
        self.unpiv.clear();
        self.unpiv.extend(0..m);
        self.unpiv_pos.clear();
        self.unpiv_pos.extend(0..m);
        self.step_of.clear();
        self.step_of.resize(m, UNPIVOTED);
        for bits in [&mut self.steps, &mut self.fill] {
            bits.clear();
            bits.resize(m.div_ceil(64), 0);
        }
    }

    /// Records that the current column reaches row `r`.
    fn touch(&mut self, r: usize) {
        let (bits, i) = match self.step_of[r] {
            UNPIVOTED => (&mut self.fill, self.unpiv_pos[r]),
            s => (&mut self.steps, s),
        };
        bits[i / 64] |= 1 << (i % 64);
    }

    /// Positions in `unpiv` of the rows the current column reaches, in
    /// ascending order.
    fn fill_positions(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.unpiv.len().div_ceil(64);
        self.fill[..words]
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        w * 64 + b
                    })
                })
            })
    }

    /// Makes row `r` the pivot of step `k`, removing it from `unpiv` by
    /// `swap_remove`; the reached-row bit of the moved row moves with it.
    fn pivot(&mut self, r: usize, k: usize) {
        let t = self.unpiv_pos[r];
        let last = self.unpiv.len() - 1;
        self.unpiv.swap_remove(t);
        self.fill[t / 64] &= !(1 << (t % 64));
        if t != last {
            self.unpiv_pos[self.unpiv[t]] = t;
            let moved = self.fill[last / 64] >> (last % 64) & 1;
            self.fill[last / 64] &= !(1 << (last % 64));
            self.fill[t / 64] |= moved << (t % 64);
        }
        self.step_of[r] = k;
    }
}

/// The product-form eta file: one sparse column per basis update since the
/// last refactorization.
struct EtaFile {
    count: usize,
    pos: Vec<usize>,
    inv_piv: Vec<f64>,
    start: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl EtaFile {
    fn new() -> Self {
        EtaFile {
            count: 0,
            pos: Vec::new(),
            inv_piv: Vec::new(),
            start: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.count = 0;
        self.pos.clear();
        self.inv_piv.clear();
        self.start.clear();
        self.start.push(0);
        self.idx.clear();
        self.val.clear();
    }

    /// Records the update `basis[p] := q` with `alpha = B⁻¹·a_q`.
    fn push(&mut self, p: usize, alpha: &[f64]) {
        self.pos.push(p);
        self.inv_piv.push(1.0 / alpha[p]);
        for (i, &a) in alpha.iter().enumerate() {
            if i != p && a != 0.0 {
                self.idx.push(i);
                self.val.push(a);
            }
        }
        self.start.push(self.idx.len());
        self.count += 1;
    }

    /// Applies `E_1⁻¹ … E_k⁻¹` (in recording order) to the position-space
    /// vector `v` — the FTRAN tail.
    fn apply_ftran(&self, v: &mut [f64]) {
        for e in 0..self.count {
            let p = self.pos[e];
            let xp = v[p] * self.inv_piv[e];
            v[p] = xp;
            if xp != 0.0 {
                for idx in self.start[e]..self.start[e + 1] {
                    v[self.idx[idx]] -= self.val[idx] * xp;
                }
            }
        }
    }

    /// Applies `E_k⁻ᵀ … E_1⁻ᵀ` (reverse order) to the position-space
    /// vector `c` — the BTRAN head.
    fn apply_btran(&self, c: &mut [f64]) {
        for e in (0..self.count).rev() {
            let p = self.pos[e];
            let mut acc = c[p];
            for idx in self.start[e]..self.start[e + 1] {
                acc -= self.val[idx] * c[self.idx[idx]];
            }
            c[p] = acc * self.inv_piv[e];
        }
    }
}

/// FTRAN: solves `B·x = v` with `v` dense in row space, writing the basis
/// coefficients (position space) into `out`. `v` is destroyed.
fn ftran(lu: &Lu, etas: &EtaFile, v: &mut [f64], out: &mut [f64]) {
    let m = lu.m;
    for k in 0..m {
        let pv = v[lu.prow[k]];
        if pv != 0.0 {
            for idx in lu.l_start[k]..lu.l_start[k + 1] {
                v[lu.l_rows[idx]] -= lu.l_vals[idx] * pv;
            }
        }
    }
    for k in (0..m).rev() {
        let z = v[lu.prow[k]] / lu.u_diag[k];
        out[k] = z;
        if z != 0.0 {
            for idx in lu.u_start[k]..lu.u_start[k + 1] {
                v[lu.prow[lu.u_steps[idx]]] -= lu.u_vals[idx] * z;
            }
        }
    }
    etas.apply_ftran(&mut out[..m]);
}

/// BTRAN: solves `Bᵀ·y = c` with `c` dense in position space, writing the
/// row-space duals into `out`. `c` is destroyed.
fn btran(lu: &Lu, etas: &EtaFile, c: &mut [f64], out: &mut [f64]) {
    let m = lu.m;
    etas.apply_btran(&mut c[..m]);
    // Forward solve Uᵀ·w = c in step space, reusing `c` as `w`.
    for k in 0..m {
        let mut acc = c[k];
        for idx in lu.u_start[k]..lu.u_start[k + 1] {
            acc -= lu.u_vals[idx] * c[lu.u_steps[idx]];
        }
        c[k] = acc / lu.u_diag[k];
    }
    // Scatter to row space and apply the transposed transforms in reverse.
    out[..m].fill(0.0);
    for k in 0..m {
        out[lu.prow[k]] = c[k];
    }
    for k in (0..m).rev() {
        let mut s = out[lu.prow[k]];
        for idx in lu.l_start[k]..lu.l_start[k + 1] {
            s -= lu.l_vals[idx] * out[lu.l_rows[idx]];
        }
        out[lu.prow[k]] = s;
    }
}

/// Reusable sparse revised simplex state, the per-solve peer of the dense
/// [`Tableau`](crate::simplex). Column layout, statuses, and pivot rules
/// mirror the dense kernel exactly; see the module docs for what differs.
pub(crate) struct SparseKernel {
    mat: Csc,
    /// Per-row artificial signs (`±1`).
    art_sign: Vec<f64>,
    /// Raw right-hand sides, kept so refactorization can recompute `x_B`
    /// from scratch.
    b: Vec<f64>,
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) n_struct: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    cost: Vec<f64>,
    pub(crate) status: Vec<ColStatus>,
    pub(crate) basis: Vec<usize>,
    xb: Vec<f64>,
    lu: Lu,
    /// Scratch factors; `factorize` builds here and swaps in on success so
    /// a singular refresh never destroys the still-valid current factors.
    lu_scratch: Lu,
    etas: EtaFile,
    want_refactor: bool,
    pub(crate) refactor_interval: usize,
    // Dense scratch vectors (row or position space, all length m).
    work_row: Vec<f64>,
    work_pos: Vec<f64>,
    alpha: Vec<f64>,
    y: Vec<f64>,
    rho: Vec<f64>,
    elim: Elimination,
    // Column-space scratch (length n): nonbasic reduced costs maintained
    // incrementally across dual pivots, and the pivot row of the last scan.
    dred: Vec<f64>,
    arow: Vec<f64>,
    /// Dual ratio-test candidates `(ratio, |α|, column)`, kept sorted by
    /// ratio for the bound-flipping pass.
    cand: Vec<(f64, f64, usize)>,
    pub(crate) opt_tol: f64,
    pub(crate) bland: bool,
    /// When `false` (test probes only), [`Self::solve_cold`] skips its final
    /// accuracy refactorization so the post-solve state still carries the
    /// eta file the pivots produced — what the LU round-trip property test
    /// wants to measure.
    pub(crate) final_refresh: bool,
    pricing_start: usize,
    pub(crate) iterations: usize,
    pub(crate) refactors: usize,
    pub(crate) eta_updates: usize,
}

impl SparseKernel {
    pub(crate) fn new() -> Self {
        SparseKernel {
            mat: Csc::new(),
            art_sign: Vec::new(),
            b: Vec::new(),
            m: 0,
            n: 0,
            n_struct: 0,
            lb: Vec::new(),
            ub: Vec::new(),
            cost: Vec::new(),
            status: Vec::new(),
            basis: Vec::new(),
            xb: Vec::new(),
            lu: Lu::new(),
            lu_scratch: Lu::new(),
            etas: EtaFile::new(),
            want_refactor: false,
            refactor_interval: 0,
            work_row: Vec::new(),
            work_pos: Vec::new(),
            alpha: Vec::new(),
            y: Vec::new(),
            rho: Vec::new(),
            elim: Elimination::default(),
            dred: Vec::new(),
            arow: Vec::new(),
            cand: Vec::new(),
            opt_tol: 1e-9,
            bland: false,
            final_refresh: true,
            pricing_start: 0,
            iterations: 0,
            refactors: 0,
            eta_updates: 0,
        }
    }

    /// Rebuilds the CSC matrix iff `p`'s row set differs from the cached one.
    fn ensure_matrix(&mut self, p: &LpProblem<'_>) {
        let key = (p.rows.as_ptr() as usize, p.rows.len(), p.ncols);
        if self.mat.key != key {
            self.mat.build(p.rows, p.ncols);
            self.mat.key = key;
        }
    }

    /// Whether the kernel's cached matrix and buffer sizes already describe
    /// `p`'s row set — the precondition for applying bound deltas in place
    /// without reloading anything.
    pub(crate) fn matches_problem(&self, p: &LpProblem<'_>) -> bool {
        self.mat.key == (p.rows.as_ptr() as usize, p.rows.len(), p.ncols)
            && self.m == p.rows.len()
            && self.n_struct == p.ncols
    }

    /// Current (non-basic or parked) value of column `j`.
    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            ColStatus::AtLower => self.lb[j],
            ColStatus::AtUpper => self.ub[j],
            ColStatus::FreeAtZero => 0.0,
            ColStatus::Basic(p) => self.xb[p],
        }
    }

    /// Reads the structural solution and its objective off the basis.
    pub(crate) fn extract(&self, c: &[f64]) -> (Vec<f64>, f64) {
        let mut x = vec![0.0; self.n_struct];
        for (j, xv) in x.iter_mut().enumerate() {
            *xv = self.value_of(j);
        }
        let obj = c.iter().zip(&x).map(|(cj, v)| cj * v).sum();
        (x, obj)
    }

    /// Sizes every per-solve buffer and resets the per-node counters.
    fn reset(&mut self, m: usize, n_struct: usize) {
        self.m = m;
        self.n = n_struct + 2 * m;
        self.n_struct = n_struct;
        self.iterations = 0;
        self.refactors = 0;
        self.eta_updates = 0;
        self.bland = false;
        self.want_refactor = false;
        self.pricing_start = 0;
        self.art_sign.clear();
        self.art_sign.resize(m, 1.0);
        self.b.clear();
        self.work_row.clear();
        self.work_row.resize(m, 0.0);
        self.work_pos.clear();
        self.work_pos.resize(m, 0.0);
        self.alpha.clear();
        self.alpha.resize(m, 0.0);
        self.y.clear();
        self.y.resize(m, 0.0);
        self.rho.clear();
        self.rho.resize(m, 0.0);
        self.xb.clear();
        self.xb.resize(m, 0.0);
        self.cost.clear();
        self.cost.resize(self.n, 0.0);
        self.dred.clear();
        self.dred.resize(self.n, 0.0);
        self.arow.clear();
        self.arow.resize(self.n, 0.0);
    }

    /// Pushes the slack and artificial bounds for `p`'s rows; artificials
    /// get `[0, art_ub]` (`∞` during a cold phase 1, `0` on warm loads).
    fn push_row_bounds(&mut self, p: &LpProblem<'_>, art_ub: f64) {
        self.lb.clear();
        self.ub.clear();
        self.lb.extend_from_slice(p.lb);
        self.ub.extend_from_slice(p.ub);
        for (_, cmp, _) in p.rows {
            match cmp {
                Cmp::Le => {
                    self.lb.push(0.0);
                    self.ub.push(f64::INFINITY);
                }
                Cmp::Ge => {
                    self.lb.push(f64::NEG_INFINITY);
                    self.ub.push(0.0);
                }
                Cmp::Eq => {
                    self.lb.push(0.0);
                    self.ub.push(0.0);
                }
            }
        }
        self.lb.resize(self.n, 0.0);
        self.ub.resize(self.n, art_ub);
    }

    /// Factorizes the current basis into the scratch factors and swaps them
    /// in on success; on failure the current factors stay valid.
    fn factorize(&mut self) -> bool {
        let ok = self.lu_scratch.factorize(
            &self.mat,
            &self.art_sign,
            &self.basis,
            &mut self.work_row,
            &mut self.elim,
        );
        if ok {
            std::mem::swap(&mut self.lu, &mut self.lu_scratch);
            self.refactors += 1;
        }
        ok
    }

    /// Recomputes `x_B = B⁻¹·(b − N·x_N)` from the raw rows and the current
    /// resting statuses.
    fn recompute_xb(&mut self) {
        self.work_row.copy_from_slice(&self.b);
        for j in 0..self.n {
            if matches!(self.status[j], ColStatus::Basic(_)) {
                continue;
            }
            let v = self.value_of(j);
            if v != 0.0 {
                self.mat.axpy(&self.art_sign, j, -v, &mut self.work_row);
            }
        }
        ftran(&self.lu, &self.etas, &mut self.work_row, &mut self.xb);
    }

    /// Refactorizes and recomputes `x_B`, dropping the eta file. A singular
    /// factorization (possible only through accumulated drift) keeps the
    /// current eta representation, which is still valid.
    fn refresh(&mut self) {
        self.want_refactor = false;
        if self.factorize() {
            self.etas.clear();
            self.recompute_xb();
        }
    }

    /// Applies the refactorization policy after a pivot. An explicit
    /// interval is honored as given; auto mode additionally refreshes once
    /// the eta file holds more nonzeros than the LU factors themselves —
    /// dense etas (big-M disjunction rows transform into nearly full
    /// columns) make every FTRAN/BTRAN pay the whole file long before the
    /// update-count cap is reached.
    fn maybe_refresh(&mut self) {
        let due = if self.refactor_interval == 0 {
            self.etas.count >= DEFAULT_REFACTOR_INTERVAL
                || self.etas.idx.len() > self.lu.l_vals.len() + self.lu.u_vals.len() + self.m
        } else {
            self.etas.count >= self.refactor_interval
        };
        if self.want_refactor || due {
            self.refresh();
        }
    }

    /// Installs `q` as the basic column of position `p`, recording the eta
    /// from `alpha = B⁻¹·a_q` (already in `self.alpha`) and flagging a
    /// refactorization when the transformed pivot looks unstable.
    fn replace_basis(&mut self, p: usize, q: usize) {
        let piv = self.alpha[p];
        let maxa = self.alpha.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        if piv.abs() < STABILITY_TOL * (1.0 + maxa) {
            self.want_refactor = true;
        }
        self.etas.push(p, &self.alpha);
        self.eta_updates += 1;
        self.basis[p] = q;
        self.status[q] = ColStatus::Basic(p);
    }

    /// Computes `alpha = B⁻¹·a_q` into `self.alpha`.
    fn ftran_col(&mut self, q: usize) {
        self.work_row.fill(0.0);
        self.mat.axpy(&self.art_sign, q, 1.0, &mut self.work_row);
        ftran(&self.lu, &self.etas, &mut self.work_row, &mut self.alpha);
    }

    /// Computes the row-space duals `y = B⁻ᵀ·c_B` into `self.y`.
    fn btran_duals(&mut self) {
        for (k, &col) in self.basis.iter().enumerate() {
            self.work_pos[k] = self.cost[col];
        }
        btran(&self.lu, &self.etas, &mut self.work_pos, &mut self.y);
    }

    /// Computes row `r` of `B⁻¹` (row space) into `self.rho`.
    fn btran_unit(&mut self, r: usize) {
        self.work_pos.fill(0.0);
        self.work_pos[r] = 1.0;
        btran(&self.lu, &self.etas, &mut self.work_pos, &mut self.rho);
    }

    /// Reduced cost of column `j` against the duals in `self.y`.
    fn reduced_cost(&self, j: usize) -> f64 {
        self.cost[j] - self.mat.dot(&self.art_sign, j, &self.y)
    }

    /// Entering direction for column `j` with reduced cost `d`, or `None`.
    fn eligible(&self, j: usize, d: f64) -> Option<f64> {
        match self.status[j] {
            ColStatus::Basic(_) => None,
            ColStatus::AtLower => (d < -self.opt_tol).then_some(1.0),
            ColStatus::AtUpper => (d > self.opt_tol).then_some(-1.0),
            ColStatus::FreeAtZero => {
                (d.abs() > self.opt_tol).then(|| if d < 0.0 { 1.0 } else { -1.0 })
            }
        }
    }

    /// Pricing: Bland's rule when stalled (first eligible index), otherwise
    /// cyclic partial pricing — scan blocks of the nonbasic set starting at
    /// a persistent cursor and take the best reduced cost from the first
    /// block containing any eligible column. A full wrap with no candidate
    /// proves optimality (for the current phase's cost vector).
    fn price(&mut self) -> Option<(usize, f64)> {
        if self.n == 0 {
            return None;
        }
        self.btran_duals();
        if self.bland {
            for j in 0..self.n {
                let d = self.reduced_cost(j);
                if let Some(dir) = self.eligible(j, d) {
                    return Some((j, dir));
                }
            }
            return None;
        }
        let n = self.n;
        let block = PRICE_BLOCK.max(n / 4);
        let mut cursor = self.pricing_start % n;
        let mut scanned = 0;
        while scanned < n {
            let len = block.min(n - scanned);
            let mut best: Option<(usize, f64, f64)> = None;
            for t in 0..len {
                let j = (cursor + t) % n;
                let d = self.reduced_cost(j);
                if let Some(dir) = self.eligible(j, d) {
                    let score = d.abs();
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((j, dir, score));
                    }
                }
            }
            cursor = (cursor + len) % n;
            scanned += len;
            if let Some((j, dir, _)) = best {
                self.pricing_start = cursor;
                return Some((j, dir));
            }
        }
        None
    }

    /// One primal iteration: price, FTRAN, ratio test, pivot or bound flip.
    /// The ratio test and update rules mirror the dense kernel exactly,
    /// with `alpha[i]` standing in for the tableau entry `T[i][q]`.
    fn step(&mut self) -> StepOutcome {
        let Some((q, dir)) = self.price() else {
            return StepOutcome::Optimal;
        };
        self.ftran_col(q);

        let own_limit = if self.lb[q].is_finite() && self.ub[q].is_finite() {
            self.ub[q] - self.lb[q]
        } else {
            f64::INFINITY
        };
        let mut t_best = own_limit;
        let mut leave: Option<(usize, bool)> = None; // (position, hits_upper)
        for i in 0..self.m {
            let a = dir * self.alpha[i];
            let bi = self.basis[i];
            let (limit, hits_upper) = if a > PIVOT_TOL {
                if self.lb[bi].is_finite() {
                    ((self.xb[i] - self.lb[bi]) / a, false)
                } else {
                    continue;
                }
            } else if a < -PIVOT_TOL {
                if self.ub[bi].is_finite() {
                    ((self.ub[bi] - self.xb[i]) / (-a), true)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let limit = limit.max(0.0); // degenerate steps clamp to zero
            let better = match leave {
                None => limit < t_best - PIVOT_TOL || (t_best.is_infinite() && limit.is_finite()),
                Some((r, _)) => {
                    limit < t_best - PIVOT_TOL
                        // stability tie-break: larger pivot magnitude
                        || (limit < t_best + PIVOT_TOL
                            && self.alpha[i].abs() > self.alpha[r].abs())
                }
            };
            if better {
                t_best = limit;
                leave = Some((i, hits_upper));
            }
        }

        if t_best.is_infinite() {
            return StepOutcome::Unbounded;
        }

        self.iterations += 1;
        let v_q = self.value_of(q);

        match leave {
            // Bound flip: entering variable runs to its opposite bound.
            None => {
                for i in 0..self.m {
                    self.xb[i] -= dir * t_best * self.alpha[i];
                }
                self.status[q] = if dir > 0.0 {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
            }
            Some((r, hits_upper)) => {
                for i in 0..self.m {
                    self.xb[i] -= dir * t_best * self.alpha[i];
                }
                let old = self.basis[r];
                self.status[old] = if hits_upper {
                    ColStatus::AtUpper
                } else {
                    ColStatus::AtLower
                };
                let entering_value = v_q + dir * t_best;
                self.replace_basis(r, q);
                self.xb[r] = entering_value;
            }
        }
        StepOutcome::Pivoted
    }

    /// Runs primal iterations until optimal / unbounded / capped / past the
    /// caller's deadline, refactorizing on the eta/instability policy.
    pub(crate) fn optimize(&mut self, max_iters: usize, deadline: Option<Instant>) -> OptimizeEnd {
        let stall_switch = 3 * (self.m + self.n) + 200;
        let start = self.iterations;
        loop {
            if self.iterations - start > stall_switch {
                self.bland = true;
            }
            if self.iterations > max_iters {
                return OptimizeEnd::IterationCap;
            }
            if self.iterations & DEADLINE_POLL_MASK == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return OptimizeEnd::TimedOut;
                    }
                }
            }
            match self.step() {
                StepOutcome::Pivoted => {
                    self.maybe_refresh();
                    continue;
                }
                other => return OptimizeEnd::Done(other),
            }
        }
    }

    /// Bounded-variable dual simplex on the revised kernel: same leaving /
    /// entering rules as the dense version, with the stuck row's tableau
    /// coefficients answered by one BTRAN (`ρ = B⁻ᵀ·e_r`, then
    /// `α_j = ρ·a_j` per nonbasic column). Reduced costs are priced once on
    /// the first pivot and then maintained incrementally across pivots
    /// (`d_j ← d_j − θ·α_rj`, the dense kernel's cost-row update); any drift
    /// is corrected by the primal cleanup phase, which prices fresh duals.
    pub(crate) fn dual_optimize(
        &mut self,
        feas_tol: f64,
        max_pivots: usize,
        deadline: Option<Instant>,
    ) -> DualEnd {
        let start = self.iterations;
        let mut have_d = false;
        loop {
            if self.iterations - start >= max_pivots {
                return DualEnd::Cap;
            }
            if self.iterations & DEADLINE_POLL_MASK == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return DualEnd::TimedOut;
                    }
                }
            }

            // --- leaving position: worst bound violation ----------------
            let mut leave: Option<(usize, f64, f64)> = None; // (pos, target, viol)
            for i in 0..self.m {
                let bi = self.basis[i];
                let (target, viol) = if self.xb[i] > self.ub[bi] {
                    (
                        self.ub[bi],
                        (self.xb[i] - self.ub[bi]) / (1.0 + self.ub[bi].abs()),
                    )
                } else if self.xb[i] < self.lb[bi] {
                    (
                        self.lb[bi],
                        (self.lb[bi] - self.xb[i]) / (1.0 + self.lb[bi].abs()),
                    )
                } else {
                    continue;
                };
                if viol > feas_tol && leave.is_none_or(|(_, _, v)| viol > v) {
                    leave = Some((i, target, viol));
                }
            }
            let Some((r, target, _)) = leave else {
                return DualEnd::Feasible;
            };
            let sigma = if self.xb[r] > target { 1.0 } else { -1.0 };

            // --- entering column: min dual ratio ------------------------
            if !have_d {
                self.btran_duals();
                for j in 0..self.n {
                    let d = match self.status[j] {
                        ColStatus::Basic(_) => 0.0,
                        _ => self.reduced_cost(j),
                    };
                    self.dred[j] = d;
                }
                have_d = true;
            }
            self.btran_unit(r);
            self.mat
                .price_row(&self.art_sign, &self.rho, &mut self.arow);
            self.cand.clear();
            for j in 0..self.n {
                let aj = self.arow[j];
                let alpha = sigma * aj;
                let eligible = match self.status[j] {
                    ColStatus::Basic(_) => false,
                    ColStatus::AtLower => alpha > PIVOT_TOL,
                    ColStatus::AtUpper => alpha < -PIVOT_TOL,
                    ColStatus::FreeAtZero => alpha.abs() > PIVOT_TOL,
                };
                if !eligible {
                    continue;
                }
                // Both eligible cases give d_j/α_j >= 0 in exact
                // arithmetic; clamp so a slightly wrong-signed d cannot
                // produce a negative ratio that derails the min search.
                let ratio = (self.dred[j] / alpha).max(0.0);
                self.cand.push((ratio, alpha.abs(), j));
            }
            if self.cand.is_empty() {
                return DualEnd::NoEntering { row: r };
            }

            // --- bound-flipping ratio test (long step) ------------------
            // Walk candidates by ascending dual ratio (stability tie-break:
            // larger |α|). While the cheapest candidate is a bounded column
            // whose full-interval flip cannot absorb the remaining
            // violation, flip it — a flip keeps the basis (and so every
            // reduced cost) intact and costs one combined FTRAN for the
            // whole batch — and pivot on the first candidate that can.
            self.cand
                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
            let mut delta = (self.xb[r] - target).abs();
            let mut nflips = 0usize;
            let mut chosen = None;
            for &(_, absa, j) in self.cand.iter() {
                let width = self.ub[j] - self.lb[j];
                if width.is_finite() && delta > width * absa {
                    delta -= width * absa;
                    nflips += 1;
                } else {
                    chosen = Some(j);
                    break;
                }
            }
            let Some(q) = chosen else {
                // Even flipping every candidate over its whole interval
                // leaves the row violated: same stuck-row outcome as an
                // empty candidate set, with no flips applied.
                return DualEnd::NoEntering { row: r };
            };
            if nflips > 0 {
                self.work_row.fill(0.0);
                for k in 0..nflips {
                    let j = self.cand[k].2;
                    let w = self.ub[j] - self.lb[j];
                    let (dx, flipped) = match self.status[j] {
                        ColStatus::AtLower => (w, ColStatus::AtUpper),
                        ColStatus::AtUpper => (-w, ColStatus::AtLower),
                        _ => unreachable!("only bounded resting columns flip"),
                    };
                    self.status[j] = flipped;
                    self.mat.axpy(&self.art_sign, j, dx, &mut self.work_row);
                }
                ftran(&self.lu, &self.etas, &mut self.work_row, &mut self.alpha);
                for i in 0..self.m {
                    self.xb[i] -= self.alpha[i];
                }
            }

            // --- pivot: land xb[r] exactly on its violated bound --------
            self.ftran_col(q);
            let piv = self.alpha[r];
            if piv.abs() <= PIVOT_TOL {
                // The FTRAN'd column disagrees with the ρ-scan estimate:
                // numerical trouble, let the caller fall back cold.
                return DualEnd::Cap;
            }
            self.iterations += 1;
            // Cost-row update with the scan's α_rj values; the leaving
            // column has α_r = 1 (it is basic at position r), so its new
            // reduced cost is exactly −θ.
            let theta = self.dred[q] / piv;
            if theta != 0.0 {
                for j in 0..self.n {
                    if !matches!(self.status[j], ColStatus::Basic(_)) {
                        self.dred[j] -= theta * self.arow[j];
                    }
                }
            }
            self.dred[q] = 0.0;
            let step = (self.xb[r] - target) / piv;
            let entering_value = self.value_of(q) + step;
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= step * self.alpha[i];
                }
            }
            let old = self.basis[r];
            self.status[old] = if sigma > 0.0 {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
            self.replace_basis(r, q);
            self.dred[old] = -theta;
            self.xb[r] = entering_value;
            self.maybe_refresh();
        }
    }

    /// One-row infeasibility certificate for a stuck dual row, identical in
    /// logic to the dense kernel's: the row equation bounds how far `xb[r]`
    /// can move over the whole nonbasic box. The row coefficients come from
    /// one BTRAN instead of the tableau.
    pub(crate) fn certify_infeasible(&mut self, r: usize, feas_tol: f64) -> bool {
        let bi = self.basis[r];
        let (sigma, bound) = if self.xb[r] > self.ub[bi] {
            (1.0, self.ub[bi])
        } else if self.xb[r] < self.lb[bi] {
            (-1.0, self.lb[bi])
        } else {
            return false;
        };
        self.btran_unit(r);
        let mut slack = 0.0f64;
        for j in 0..self.n {
            let at_rj = match self.status[j] {
                ColStatus::Basic(_) => continue,
                _ => self.mat.dot(&self.art_sign, j, &self.rho),
            };
            let helpful = match self.status[j] {
                ColStatus::Basic(_) => unreachable!(),
                ColStatus::AtLower => sigma * at_rj,
                ColStatus::AtUpper => -sigma * at_rj,
                ColStatus::FreeAtZero => at_rj.abs(),
            };
            if helpful <= 0.0 {
                continue;
            }
            let width = match self.status[j] {
                ColStatus::FreeAtZero => f64::INFINITY,
                _ => self.ub[j] - self.lb[j],
            };
            if width.is_finite() {
                slack += helpful * width;
            } else if helpful > PIVOT_TOL {
                return false; // genuinely usable unbounded column
            }
        }
        let margin = feas_tol.max(1e-7) * (1.0 + bound.abs());
        (self.xb[r] - bound).abs() > slack + margin
    }

    /// Loads the phase-2 cost vector (structural costs, zeros elsewhere).
    pub(crate) fn set_phase2_cost(&mut self, c: &[f64]) {
        self.cost.fill(0.0);
        self.cost[..self.n_struct].copy_from_slice(c);
    }

    /// Cold two-phase primal solve, mirroring the dense `solve_cold`.
    pub(crate) fn solve_cold(&mut self, p: &LpProblem<'_>, cfg: &LpConfig) -> LpOutcome {
        self.ensure_matrix(p);
        let m = p.rows.len();
        self.reset(m, p.ncols);
        self.push_row_bounds(p, f64::INFINITY);

        self.status.clear();
        for j in 0..self.n_struct + m {
            self.status.push(default_status(self.lb[j], self.ub[j]));
        }
        self.status.resize(self.n, ColStatus::AtLower);

        // Initial residuals r = b − A·x_N decide the artificial signs so
        // every artificial starts basic and non-negative.
        self.b.extend(p.rows.iter().map(|(_, _, rhs)| *rhs));
        self.work_row.copy_from_slice(&self.b);
        for j in 0..self.n_struct + m {
            let v = self.value_of(j);
            if v != 0.0 {
                self.mat.axpy(&self.art_sign, j, -v, &mut self.work_row);
            }
        }
        self.basis.clear();
        for i in 0..m {
            self.art_sign[i] = if self.work_row[i] >= 0.0 { 1.0 } else { -1.0 };
            let aj = self.n_struct + m + i;
            self.basis.push(aj);
            self.status[aj] = ColStatus::Basic(i);
        }
        self.etas.clear();
        if !self.factorize() {
            // A signed identity cannot be singular; defensive only.
            return LpOutcome::IterationLimit;
        }
        self.recompute_xb();

        let max_iters = 60 * (m + self.n) + 5_000;

        // --- Phase 1: minimize the sum of artificials ------------------
        self.cost.fill(0.0);
        self.cost[self.n_struct + m..].fill(1.0);
        match self.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::IterationCap => return LpOutcome::IterationLimit,
            OptimizeEnd::TimedOut => return LpOutcome::TimedOut,
            OptimizeEnd::Done(StepOutcome::Unbounded) => {
                debug_assert!(false, "phase 1 reported unbounded");
                return LpOutcome::IterationLimit;
            }
            OptimizeEnd::Done(_) => {}
        }
        let phase1_obj: f64 = (0..m)
            .filter(|&i| self.basis[i] >= self.n_struct + m)
            .map(|i| self.xb[i])
            .sum();
        if phase1_obj > cfg.feas_tol.max(1e-7) * (1.0 + phase1_obj.abs()) && phase1_obj > 1e-6 {
            return LpOutcome::Infeasible;
        }

        // Fix artificials at zero so they can never re-enter or grow.
        for j in self.n_struct + m..self.n {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
            if let ColStatus::Basic(r) = self.status[j] {
                if self.xb[r].abs() <= 1e-6 {
                    self.xb[r] = 0.0;
                }
            } else {
                self.status[j] = ColStatus::AtLower;
            }
        }

        // --- Phase 2: the real objective -------------------------------
        self.set_phase2_cost(p.c);
        self.bland = false;
        match self.optimize(max_iters, cfg.deadline) {
            OptimizeEnd::IterationCap => LpOutcome::IterationLimit,
            OptimizeEnd::TimedOut => LpOutcome::TimedOut,
            OptimizeEnd::Done(StepOutcome::Unbounded) => LpOutcome::Unbounded,
            OptimizeEnd::Done(_) => {
                // Final accuracy refresh: one LU + FTRAN repairs any drift
                // the eta file accumulated before values are read off. An
                // empty eta file means `x_B` was recomputed from fresh
                // factors already, so the refresh would be a no-op.
                if self.final_refresh && (self.etas.count > 0 || self.want_refactor) {
                    self.refresh();
                }
                let (x, obj) = self.extract(p.c);
                LpOutcome::Optimal { x, obj }
            }
        }
    }

    /// Warm load from a snapshot taken on a different kernel state:
    /// factorize the saved basis against the child's rows and recompute
    /// `x_B`. Returns `false` when the basis is singular for these rows.
    ///
    /// The snapshot may describe FEWER rows than `p` (`snap.m <= m`): rows
    /// appended since the snapshot — cut rounds growing the root relaxation
    /// — get their slack basic, which extends any basis block-triangularly
    /// (the new slacks are unit columns on the new rows), so the extended
    /// basis is nonsingular whenever the saved one was. The dual simplex
    /// then repairs exactly the appended rows' violations.
    pub(crate) fn load_snapshot(&mut self, p: &LpProblem<'_>, snap: &BasisSnapshot) -> bool {
        self.ensure_matrix(p);
        let m = p.rows.len();
        self.reset(m, p.ncols);
        // Artificials stay fixed at zero; they only exist so a snapshot in
        // which a redundant row kept its artificial basic stays a basis.
        // Signs are irrelevant here (row scaling by ±1 never changes which
        // column sets are bases), so plain +1 units do.
        self.push_row_bounds(p, 0.0);
        self.b.extend(p.rows.iter().map(|(_, _, rhs)| *rhs));

        // Resting statuses from the snapshot, remapped into the child's
        // column space (slack/artificial indices shift when rows were
        // appended) and sanitized against the child's bounds (a status is
        // only kept if its bound is finite).
        self.status.clear();
        for j in 0..self.n {
            let src = if j < self.n_struct {
                Some(snap.status[j])
            } else if j < self.n_struct + m {
                let i = j - self.n_struct;
                (i < snap.m).then(|| snap.status[snap.n_struct + i])
            } else {
                let i = j - self.n_struct - m;
                (i < snap.m).then(|| snap.status[snap.n_struct + snap.m + i])
            };
            self.status.push(match src {
                // Basic: overwritten below. None: a column of an appended
                // row — its slack goes basic below, its artificial rests.
                Some(ColStatus::Basic(_)) | None => ColStatus::AtLower,
                Some(ColStatus::AtLower) if self.lb[j].is_finite() => ColStatus::AtLower,
                Some(ColStatus::AtUpper) if self.ub[j].is_finite() => ColStatus::AtUpper,
                Some(ColStatus::FreeAtZero)
                    if self.lb[j] == f64::NEG_INFINITY && self.ub[j] == f64::INFINITY =>
                {
                    ColStatus::FreeAtZero
                }
                _ => default_status(self.lb[j], self.ub[j]),
            });
        }

        self.basis.clear();
        for &col in &snap.basis {
            self.basis.push(if col < snap.n_struct + snap.m {
                col // structural and slack indices are position-stable
            } else {
                self.n_struct + m + (col - snap.n_struct - snap.m) // artificial
            });
        }
        for i in snap.m..m {
            self.basis.push(self.n_struct + i); // appended rows: slack basic
        }
        self.etas.clear();
        if !self.factorize() {
            return false; // singular for the child's rows
        }
        for (pos, &col) in self.basis.iter().enumerate() {
            self.status[col] = ColStatus::Basic(pos);
        }
        self.recompute_xb();
        true
    }

    /// Hot path: the kernel state already realizes the parent's optimum for
    /// the parent's bounds, so only the bound deltas need applying — basic
    /// columns just update their box, nonbasic columns shift `x_B` by
    /// `Δ(resting value) · B⁻¹·a_j` (one FTRAN per changed column; a
    /// branching child changes exactly one). No factorization, no phase 1.
    pub(crate) fn apply_bound_deltas(&mut self, p: &LpProblem<'_>) -> bool {
        self.iterations = 0;
        self.refactors = 0;
        self.eta_updates = 0;
        self.bland = false;
        for j in 0..p.ncols {
            let (nl, nu) = (p.lb[j], p.ub[j]);
            if nl == self.lb[j] && nu == self.ub[j] {
                continue;
            }
            match self.status[j] {
                ColStatus::Basic(_) => {
                    self.lb[j] = nl;
                    self.ub[j] = nu;
                }
                st => {
                    let old_v = match st {
                        ColStatus::AtLower => self.lb[j],
                        ColStatus::AtUpper => self.ub[j],
                        _ => 0.0,
                    };
                    let new_st = match st {
                        ColStatus::AtLower if nl.is_finite() => ColStatus::AtLower,
                        ColStatus::AtUpper if nu.is_finite() => ColStatus::AtUpper,
                        ColStatus::FreeAtZero if nl == f64::NEG_INFINITY && nu == f64::INFINITY => {
                            ColStatus::FreeAtZero
                        }
                        _ => default_status(nl, nu),
                    };
                    let new_v = match new_st {
                        ColStatus::AtLower => nl,
                        ColStatus::AtUpper => nu,
                        _ => 0.0,
                    };
                    let delta = new_v - old_v;
                    if !delta.is_finite() {
                        return false; // resting on an infinite bound: refuse
                    }
                    if delta != 0.0 {
                        self.ftran_col(j);
                        for i in 0..self.m {
                            self.xb[i] -= delta * self.alpha[i];
                        }
                    }
                    self.lb[j] = nl;
                    self.ub[j] = nu;
                    self.status[j] = new_st;
                }
            }
        }
        true
    }

    /// Eta columns currently live in the product-form file (dropped to zero
    /// by every successful refactorization, unlike the monotone
    /// [`eta_updates`](Self::eta_updates) counter).
    pub(crate) fn live_etas(&self) -> usize {
        self.etas.count
    }

    /// Test support: max over every unit vector `e_i` of
    /// `‖B·(B⁻¹·e_i) − e_i‖_∞`, where `B⁻¹` is applied through the current
    /// factors-plus-eta-file representation and `B` through the raw CSC
    /// columns of the current basis. Drives the LU/eta round-trip property
    /// test in `tests/prop_solver.rs`.
    pub(crate) fn roundtrip_residual(&mut self) -> f64 {
        let m = self.m;
        let mut worst = 0.0f64;
        let mut e = vec![0.0; m];
        let mut bx = vec![0.0; m];
        for i in 0..m {
            e.fill(0.0);
            e[i] = 1.0;
            ftran(&self.lu, &self.etas, &mut e, &mut self.alpha);
            bx.fill(0.0);
            for (k, &col) in self.basis.iter().enumerate() {
                let z = self.alpha[k];
                if z != 0.0 {
                    self.mat.axpy(&self.art_sign, col, z, &mut bx);
                }
            }
            for (r, &v) in bx.iter().enumerate() {
                let want = if r == i { 1.0 } else { 0.0 };
                worst = worst.max((v - want).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The scanning left-looking elimination [`Lu::factorize`] must match
    /// bit for bit: every step applies each earlier transform in turn,
    /// scans every pivoted row for U and every unpivoted row for the pivot
    /// and the L multipliers.
    fn factorize_scan(
        lu: &mut Lu,
        mat: &Csc,
        art_sign: &[f64],
        basis: &[usize],
        work: &mut [f64],
        unpiv: &mut Vec<usize>,
    ) -> bool {
        let m = basis.len();
        lu.clear(m);
        unpiv.clear();
        unpiv.extend(0..m);

        for (k, &col) in basis.iter().enumerate() {
            work[..m].fill(0.0);
            mat.axpy(art_sign, col, 1.0, work);
            // Apply the previous elementary transforms in order.
            for kk in 0..k {
                let pv = work[lu.prow[kk]];
                if pv != 0.0 {
                    for idx in lu.l_start[kk]..lu.l_start[kk + 1] {
                        work[lu.l_rows[idx]] -= lu.l_vals[idx] * pv;
                    }
                }
            }
            // Entries at already-pivoted rows become this U column.
            for j in 0..k {
                let u = work[lu.prow[j]];
                if u != 0.0 {
                    lu.u_steps.push(j);
                    lu.u_vals.push(u);
                }
            }
            lu.u_start.push(lu.u_steps.len());
            // Partial pivoting among the rows not pivoted yet.
            let mut best: Option<(usize, f64)> = None;
            for (t, &r) in unpiv.iter().enumerate() {
                let a = work[r].abs();
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((t, a));
                }
            }
            let Some((t, mag)) = best else { return false };
            if mag <= REFACTOR_TOL {
                return false;
            }
            let r = unpiv.swap_remove(t);
            let piv = work[r];
            lu.prow.push(r);
            lu.u_diag.push(piv);
            // Remaining unpivoted rows hold this step's L multipliers.
            for &rr in unpiv.iter() {
                let w = work[rr];
                if w != 0.0 {
                    lu.l_rows.push(rr);
                    lu.l_vals.push(w / piv);
                }
            }
            lu.l_start.push(lu.l_rows.len());
        }
        true
    }

    /// Basis shapes the property test draws from.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        /// Mostly slacks with structural columns in between, as branch
        /// and bound leaves them.
        BranchAndBound,
        /// Unit columns split between slacks and artificials of both signs.
        Artificials,
        /// Entries drawn from ±1 and ±big-M only, so pivot magnitudes tie.
        Ties,
        /// Structural columns first, then the slacks of rows they pivoted.
        SlackOnPivotedRow,
        /// A structural column that is a combination of two basic ones.
        Dependent,
    }

    struct Case {
        mat: Csc,
        art_sign: Vec<f64>,
        basis: Vec<usize>,
    }

    fn entry(rng: &mut StdRng, shape: Shape) -> f64 {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        match shape {
            Shape::Ties => sign * if rng.gen_bool(0.7) { 1.0 } else { 1e4 },
            _ => sign * rng.gen_range(0.05..20.0),
        }
    }

    /// Enters column `j` at the position of a still-basic slack on one of
    /// its rows, as a primal pivot would.
    fn enter(rng: &mut StdRng, basis: &mut [usize], col: &[(usize, f64)], j: usize, n: usize) {
        let open: Vec<usize> = col
            .iter()
            .map(|&(r, _)| r)
            .filter(|&r| basis[r] == n + r)
            .collect();
        if !open.is_empty() {
            basis[open[rng.gen_range(0..open.len())]] = j;
        }
    }

    fn case(rng: &mut StdRng, shape: Shape) -> Case {
        let m = rng.gen_range(1..=48usize);
        let n_base = rng.gen_range(1..=m.max(2));
        let mut cols: Vec<Vec<(usize, f64)>> = (0..n_base)
            .map(|_| {
                let mut rows: Vec<usize> = (0..m).collect();
                rows.shuffle(rng);
                rows.truncate(rng.gen_range(1..=m.min(5)));
                rows.into_iter().map(|r| (r, entry(rng, shape))).collect()
            })
            .collect();
        // The last column combines the first two: dependent on them.
        let (ca, cb) = (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
        let mut combo = vec![0.0; m];
        for &(r, v) in &cols[0] {
            combo[r] += ca * v;
        }
        for &(r, v) in &cols[1 % n_base] {
            combo[r] += cb * v;
        }
        cols.push(
            combo
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(r, &v)| (r, v))
                .collect(),
        );
        let n = cols.len();
        let art_sign: Vec<f64> = (0..m)
            .map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            .collect();
        let mut basis: Vec<usize> = (0..m).map(|i| n + i).collect();
        match shape {
            Shape::BranchAndBound | Shape::Artificials | Shape::Ties => {
                let share = if matches!(shape, Shape::Ties) {
                    0.6
                } else {
                    0.3
                };
                for (j, col) in cols[..n_base].iter().enumerate() {
                    if rng.gen_bool(share) {
                        enter(rng, &mut basis, col, j, n);
                    }
                }
                if matches!(shape, Shape::Artificials) {
                    for (i, b) in basis.iter_mut().enumerate() {
                        if *b == n + i && rng.gen_bool(0.5) {
                            *b = n + m + i;
                        }
                    }
                }
                if matches!(shape, Shape::Ties) {
                    basis.shuffle(rng);
                }
            }
            Shape::SlackOnPivotedRow => {
                for (j, col) in cols[..n_base].iter().enumerate() {
                    if rng.gen_bool(0.5) {
                        enter(rng, &mut basis, col, j, n);
                    }
                }
                let mut reached = vec![false; m];
                for &j in basis.iter().filter(|&&j| j < n) {
                    for &(r, _) in &cols[j] {
                        reached[r] = true;
                    }
                }
                // Structural columns pivot first; the slacks of the rows
                // they reach follow, then the others (a stable sort).
                basis.sort_by_key(|&j| match j {
                    j if j < n => 0,
                    j if reached[j - n] => 1,
                    _ => 2,
                });
            }
            Shape::Dependent => {
                let others: Vec<usize> = (0..n_base).filter(|_| rng.gen_bool(0.2)).collect();
                for j in others.into_iter().chain([0, 1 % n_base, n - 1]) {
                    enter(rng, &mut basis, &cols[j], j, n);
                }
            }
        }
        let mut rows: Vec<SparseRow> = (0..m).map(|_| (Vec::new(), Cmp::Le, 0.0)).collect();
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                rows[r].0.push((j, v));
            }
        }
        let mut mat = Csc::new();
        mat.build(&rows, n);
        Case {
            mat,
            art_sign,
            basis,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same_factors(a: &Lu, b: &Lu, what: &str) {
        assert_eq!(a.m, b.m, "{what}: m");
        assert_eq!(a.prow, b.prow, "{what}: prow");
        assert_eq!(bits(&a.u_diag), bits(&b.u_diag), "{what}: u_diag");
        assert_eq!(a.l_start, b.l_start, "{what}: l_start");
        assert_eq!(a.l_rows, b.l_rows, "{what}: l_rows");
        assert_eq!(bits(&a.l_vals), bits(&b.l_vals), "{what}: l_vals");
        assert_eq!(a.u_start, b.u_start, "{what}: u_start");
        assert_eq!(a.u_steps, b.u_steps, "{what}: u_steps");
        assert_eq!(bits(&a.u_vals), bits(&b.u_vals), "{what}: u_vals");
    }

    fn random_vector(rng: &mut StdRng, m: usize) -> Vec<f64> {
        (0..m)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    0.0
                } else {
                    rng.gen_range(-50.0..50.0)
                }
            })
            .collect()
    }

    #[test]
    fn factorization_matches_the_scanning_oracle_bit_for_bit() {
        let shapes = [
            Shape::BranchAndBound,
            Shape::Artificials,
            Shape::Ties,
            Shape::SlackOnPivotedRow,
            Shape::Dependent,
        ];
        let mut rng = StdRng::seed_from_u64(16);
        // One factor set and one bookkeeping set across every case, as a
        // kernel reuses them across bases of different sizes.
        let mut fast = Lu::new();
        let mut elim = Elimination::default();
        let mut singular = [0usize; 5];
        let mut regular = [0usize; 5];
        let mut slack_after_pivot = 0;
        for i in 0..2000 {
            let s = i % shapes.len();
            let shape = shapes[s];
            let c = case(&mut rng, shape);
            let m = c.basis.len();
            let what = format!("case {i} ({shape:?}, m = {m})");
            let mut oracle = Lu::new();
            let mut work = vec![f64::NAN; m];
            let mut unpiv = Vec::new();
            let ok_scan = factorize_scan(
                &mut oracle,
                &c.mat,
                &c.art_sign,
                &c.basis,
                &mut work,
                &mut unpiv,
            );
            let ok = fast.factorize(&c.mat, &c.art_sign, &c.basis, &mut work, &mut elim);
            assert_eq!(ok, ok_scan, "{what}: singularity verdict");
            if !ok {
                singular[s] += 1;
                continue;
            }
            regular[s] += 1;
            assert_same_factors(&fast, &oracle, &what);
            let n = c.mat.n_struct;
            slack_after_pivot += usize::from(
                c.basis
                    .iter()
                    .enumerate()
                    .any(|(k, &j)| (n..n + m).contains(&j) && oracle.prow[..k].contains(&(j - n))),
            );
            assert!(work.iter().all(|&w| w == 0.0), "{what}: work left dirty");
            let etas = EtaFile::new();
            for _ in 0..3 {
                let v = random_vector(&mut rng, m);
                let (mut v1, mut v2) = (v.clone(), v);
                let (mut x1, mut x2) = (vec![0.0; m], vec![0.0; m]);
                ftran(&fast, &etas, &mut v1, &mut x1);
                ftran(&oracle, &etas, &mut v2, &mut x2);
                assert_eq!(bits(&x1), bits(&x2), "{what}: ftran");
                let c_b = random_vector(&mut rng, m);
                let (mut c1, mut c2) = (c_b.clone(), c_b);
                btran(&fast, &etas, &mut c1, &mut x1);
                btran(&oracle, &etas, &mut c2, &mut x2);
                assert_eq!(bits(&x1), bits(&x2), "{what}: btran");
            }
        }
        // Each shape must mostly factorize, the dependent one must mostly
        // not, and slacks must often land on rows pivoted before them.
        for (s, shape) in shapes.iter().enumerate() {
            assert!(regular[s] >= 25, "{shape:?}: {} regular bases", regular[s]);
        }
        assert!(
            singular[4] >= 100,
            "{} singular dependent bases",
            singular[4]
        );
        assert!(
            slack_after_pivot >= 100,
            "{slack_after_pivot} slacks on pivoted rows"
        );
    }
}
