//! Pre-sorted column split kernel shared by the CART tree and the GBDT.
//!
//! The naive CART recipe clones and re-sorts every candidate feature column
//! at every node — `O(d · n log n)` *per node*. This module implements the
//! sklearn/XGBoost alternative: sort each feature's row order **once per
//! tree** at fit time, then at every node
//!
//! 1. scan each feature's pre-sorted order restricted to the node's
//!    segment (`O(n)` per feature, no sorting), and
//! 2. apply the winning split with a single **stable partition** of all
//!    per-feature index buffers (`O(d · n)` total, no sorting).
//!
//! Because the partition is stable, every per-feature segment stays sorted
//! by `(value, slot)` for the node that owns it, so step 1 never has to
//! re-sort. The same scan loop serves both learners through the
//! [`SplitCriterion`] trait: [`GiniCriterion`] for the classification tree
//! and [`NewtonCriterion`] for the GBDT's second-order objective.
//!
//! # Determinism
//!
//! All ordering uses `f32::total_cmp` with the slot id as a tie-break, so
//! the per-node sequence for a feature is a pure function of the node's
//! member *set* — independent of insertion order, thread count, and of the
//! path of partitions that produced the node. Split gains for the Gini
//! criterion are sums of `1.0`s (exact in `f64`), so the chosen
//! `(feature, threshold, split_at)` is identical to what the naive
//! re-sorting finder picks; [`reference_best_split_gini`] is retained as
//! that naive finder and the property suite pins the equivalence.

use crate::dataset::Dataset;
use ssd_types::cast::{f64_from_usize, u16_from_usize, u32_from_usize, usize_from_u32};

/// Gains at or below this threshold are not worth a split (guards against
/// floating-point noise producing size-zero improvements).
pub(crate) const GAIN_EPS: f64 = 1e-12;

/// Gini impurity of a node with `pos` positives out of `n`.
#[inline]
pub(crate) fn gini(pos: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

/// Midpoint of two adjacent observed feature values, clamped so that
/// `v_lo <= threshold < v_hi`.
///
/// The unclamped `v_lo + (v_hi - v_lo) / 2.0` can round **up to `v_hi`**
/// in `f32` when the two values are adjacent floats (round-to-even lands
/// on `v_hi` whenever its mantissa is even). A threshold equal to `v_hi`
/// sends rows with value `v_hi` left at predict time (`x <= threshold`)
/// even though training counted them right — the clamp keeps training and
/// inference on the same side.
#[inline]
pub fn split_threshold(v_lo: f32, v_hi: f32) -> f32 {
    debug_assert!(v_lo < v_hi);
    let mid = v_lo + (v_hi - v_lo) / 2.0;
    if mid >= v_hi {
        v_lo
    } else {
        mid
    }
}

/// A chosen split: the feature, the decision threshold, its gain under the
/// active criterion, and how many of the node's samples go left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// Feature column the split tests.
    pub feature: u16,
    /// Decision threshold; rows with `value <= threshold` go left.
    pub threshold: f32,
    /// Criterion gain of the split (impurity decrease / objective gain).
    pub gain: f64,
    /// Number of the node's samples on the left side.
    pub split_at: usize,
}

/// Left-accumulating split objective evaluated at candidate boundaries.
///
/// The scan walks a node's samples in ascending feature-value order,
/// folding each into the left side, and asks for the gain at every
/// boundary between distinct values. Implementations hold the node totals.
pub trait SplitCriterion {
    /// Reset the left-side accumulators before scanning a new feature.
    fn begin_feature(&mut self);
    /// Fold the sample in `slot` into the left side.
    fn add_left(&mut self, slot: usize);
    /// Gain of splitting with `n_left` samples on the left.
    fn gain(&self, n_left: usize) -> f64;
}

/// Gini impurity decrease for the classification tree.
///
/// `pos_left` is a sum of `1.0`s, so gains are exact and independent of
/// the order samples are folded in.
pub struct GiniCriterion<'a> {
    labels: &'a [bool],
    n: f64,
    n_pos_total: f64,
    node_impurity: f64,
    pos_left: f64,
}

impl<'a> GiniCriterion<'a> {
    /// Criterion for a node with `n` samples, `n_pos` positives, over
    /// per-slot `labels`.
    pub fn new(labels: &'a [bool], n: usize, n_pos: usize, node_impurity: f64) -> Self {
        GiniCriterion {
            labels,
            n: f64_from_usize(n),
            n_pos_total: f64_from_usize(n_pos),
            node_impurity,
            pos_left: 0.0,
        }
    }
}

impl SplitCriterion for GiniCriterion<'_> {
    fn begin_feature(&mut self) {
        self.pos_left = 0.0;
    }

    fn add_left(&mut self, slot: usize) {
        // Branchless: labels are ~50/50 inside a node being split.
        self.pos_left += f64::from(u8::from(self.labels[slot]));
    }

    fn gain(&self, n_left: usize) -> f64 {
        let n_left = f64_from_usize(n_left);
        let n_right = self.n - n_left;
        let imp_left = gini(self.pos_left, n_left);
        let imp_right = gini(self.n_pos_total - self.pos_left, n_right);
        let weighted = (n_left * imp_left + n_right * imp_right) / self.n;
        self.node_impurity - weighted
    }
}

/// Newton objective gain for the GBDT:
/// `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`.
pub struct NewtonCriterion<'a> {
    grad: &'a [f64],
    hess: &'a [f64],
    lambda: f64,
    g_tot: f64,
    h_tot: f64,
    parent: f64,
    gl: f64,
    hl: f64,
}

impl<'a> NewtonCriterion<'a> {
    /// Criterion for a node with gradient/hessian totals `(g_tot, h_tot)`
    /// over per-slot `grad`/`hess` statistics.
    pub fn new(grad: &'a [f64], hess: &'a [f64], g_tot: f64, h_tot: f64, lambda: f64) -> Self {
        NewtonCriterion {
            grad,
            hess,
            lambda,
            g_tot,
            h_tot,
            parent: g_tot * g_tot / (h_tot + lambda),
            gl: 0.0,
            hl: 0.0,
        }
    }
}

impl SplitCriterion for NewtonCriterion<'_> {
    fn begin_feature(&mut self) {
        self.gl = 0.0;
        self.hl = 0.0;
    }

    fn add_left(&mut self, slot: usize) {
        self.gl += self.grad[slot];
        self.hl += self.hess[slot];
    }

    fn gain(&self, _n_left: usize) -> f64 {
        let gr = self.g_tot - self.gl;
        let hr = self.h_tot - self.hl;
        self.gl * self.gl / (self.hl + self.lambda) + gr * gr / (hr + self.lambda)
            - self.parent
    }
}

/// Scans one pre-sorted node segment for the best split boundary.
///
/// `order` is the node's slots in ascending feature-value order; `values`
/// is the full per-slot column for that feature. Candidates are the
/// boundaries between distinct adjacent values whose sides both hold at
/// least `min_leaf` samples. Ties in gain keep the earliest boundary, and
/// gains must clear a small epsilon (`GAIN_EPS`). Returns `(threshold, gain, split_at)`.
pub fn scan_feature<C: SplitCriterion>(
    order: &[u32],
    values: &[f32],
    min_leaf: usize,
    crit: &mut C,
) -> Option<(f32, f64, usize)> {
    let n = order.len();
    if n < 2 {
        return None;
    }
    crit.begin_feature();
    let mut best: Option<(f32, f64, usize)> = None;
    for k in 0..n - 1 {
        let slot = usize_from_u32(order[k]);
        crit.add_left(slot);
        let v_here = values[slot];
        let v_next = values[usize_from_u32(order[k + 1])];
        if v_here == v_next {
            continue; // can only split between distinct values
        }
        let n_left = k + 1;
        if n_left < min_leaf || n - n_left < min_leaf {
            continue;
        }
        let gain = crit.gain(n_left);
        if gain > GAIN_EPS && best.map_or(true, |b| gain > b.1) {
            best = Some((split_threshold(v_here, v_next), gain, n_left));
        }
    }
    best
}

/// Per-feature pre-sorted slot orders over one training sample.
///
/// "Slots" are positions `0..n` into the index list a tree is fitted on
/// (bootstrap draws may repeat dataset rows; slots are always unique).
/// `values` caches the feature matrix column-major by slot, and `order`
/// holds, per feature, every slot sorted by `(value, slot)`. Node
/// segmentation is shared across features: a node owns `[lo, hi)` of every
/// per-feature order simultaneously.
pub struct PresortedColumns {
    n_slots: usize,
    n_features: usize,
    /// Column-major values: `values[f * n_slots + slot]`.
    values: Vec<f32>,
    /// Column-major orders: `order[f * n_slots + k]` is the slot with the
    /// k-th smallest value of feature `f` within its node segment.
    order: Vec<u32>,
    /// Per-slot side of the split being applied (1 = right); only the
    /// current node's slots are meaningful.
    goes_right: Vec<u8>,
}

/// The feature whose node segments double as the nodes' member lists.
const MEMBER_FEATURE: u16 = 0;

impl PresortedColumns {
    /// An empty buffer; [`build`](Self::build) sizes it.
    pub fn new() -> Self {
        PresortedColumns {
            n_slots: 0,
            n_features: 0,
            values: Vec::new(),
            order: Vec::new(),
            goes_right: Vec::new(),
        }
    }

    /// (Re)builds the columns for the rows of `data` listed in `indices`,
    /// reusing the existing allocations. One `O(n log n)` sort per feature
    /// — the only sorting a whole tree fit performs.
    pub fn build(&mut self, data: &Dataset, indices: &[usize]) {
        let n = indices.len();
        let d = data.n_features();
        self.n_slots = n;
        self.n_features = d;
        self.values.clear();
        self.values.resize(d * n, 0.0);
        for (slot, &row_id) in indices.iter().enumerate() {
            for (f, &v) in data.row(row_id).iter().enumerate() {
                self.values[f * n + slot] = v;
            }
        }
        self.order.clear();
        self.order.resize(d * n, 0);
        for f in 0..d {
            let vals = &self.values[f * n..(f + 1) * n];
            let ord = &mut self.order[f * n..(f + 1) * n];
            for (k, o) in ord.iter_mut().enumerate() {
                *o = u32_from_usize(k);
            }
            ord.sort_unstable_by(|&a, &b| {
                vals[usize_from_u32(a)]
                    .total_cmp(&vals[usize_from_u32(b)])
                    .then(a.cmp(&b))
            });
        }
    }

    /// Number of slots (rows of the fitted sample).
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// The node segment `[lo, hi)` of feature `f`'s sorted order.
    #[inline]
    pub fn order_segment(&self, f: u16, lo: usize, hi: usize) -> &[u32] {
        let base = usize::from(f) * self.n_slots;
        &self.order[base + lo..base + hi]
    }

    /// The slots of node `[lo, hi)`. They are the node segment of feature
    /// 0's order, which [`apply_split`](Self::apply_split) partitions at
    /// every split even when the feature is constant over the node.
    #[inline]
    pub fn members(&self, lo: usize, hi: usize) -> &[u32] {
        self.order_segment(MEMBER_FEATURE, lo, hi)
    }

    /// Feature `f`'s full per-slot value column.
    #[inline]
    pub fn values_of(&self, f: u16) -> &[f32] {
        let base = usize::from(f) * self.n_slots;
        &self.values[base..base + self.n_slots]
    }

    /// Applies a chosen split to node `[lo, hi)`: stably partitions every
    /// per-feature order segment so the `split_at` left-going slots occupy
    /// `[lo, lo + split_at)` — still sorted — and the rest `[lo + split_at,
    /// hi)`. `tmp` is spill space for the right side.
    ///
    /// The winning feature's segment is already partitioned — its left
    /// block *is* its first `split_at` positions — so one pass over it
    /// flags every slot's side, and the other features read the flag (one
    /// byte per slot) instead of comparing values. The winning feature
    /// itself is skipped.
    ///
    /// So is every feature whose node segment is constant: the scan only
    /// splits between values that differ, and every descendant segment
    /// of that feature holds slots of this node — all of the same value —
    /// whichever slots they are, so no descendant can split on it and the
    /// fitted tree is the same as with the partition. The member feature
    /// is always partitioned, because its segment is also the node's
    /// member list ([`members`](Self::members)).
    pub fn apply_split(
        &mut self,
        lo: usize,
        hi: usize,
        feature: u16,
        split_at: usize,
        tmp: &mut Vec<u32>,
    ) {
        let n = self.n_slots;
        debug_assert!(lo + split_at < hi && split_at > 0);
        let win = usize::from(feature) * n;
        self.goes_right.resize(n, 0);
        for (k, &s) in self.order[win + lo..win + hi].iter().enumerate() {
            self.goes_right[usize_from_u32(s)] = u8::from(k >= split_at);
        }
        tmp.resize(hi - lo, 0);
        for f in 0..self.n_features {
            if f == usize::from(feature) {
                continue;
            }
            let vals = &self.values[f * n..(f + 1) * n];
            let seg = &mut self.order[f * n + lo..f * n + hi];
            if f != usize::from(MEMBER_FEATURE) && vals[usize_from_u32(seg[0])] == vals[usize_from_u32(seg[seg.len() - 1])] {
                continue;
            }
            let (mut wl, mut wr) = (0usize, 0usize);
            // Branchless two-way spill: store to both cursors
            // unconditionally (`wl <= k` keeps the in-place left write from
            // clobbering unread input) and advance one of them — the
            // 50/50-unpredictable side test never becomes a branch.
            for k in 0..seg.len() {
                let s = seg[k];
                let right = usize::from(self.goes_right[usize_from_u32(s)]);
                seg[wl] = s;
                tmp[wr] = s;
                wl += 1 - right;
                wr += right;
            }
            debug_assert_eq!(wl, split_at);
            seg[wl..].copy_from_slice(&tmp[..wr]);
        }
    }
}

impl Default for PresortedColumns {
    fn default() -> Self {
        Self::new()
    }
}

/// Fully-sorted feature columns over an entire dataset, built **once per
/// ensemble fit** and shared (immutably) by every tree.
///
/// A bootstrap resample is a multiset of dataset rows, so each tree's
/// per-slot sorted order can be *derived* from the full-data order by one
/// linear merge — `O(d · (N + n))` per tree instead of `O(d · n log n)`.
/// With 50 trees per forest the per-tree sort was over half the training
/// time on wide datasets; this removes it.
pub struct PresortedDataset {
    n_rows: usize,
    n_features: usize,
    /// Column-major values: `values[f * n_rows + row]`.
    values: Vec<f32>,
    /// Per-feature row ids sorted by `(value, row)`:
    /// `order[f * n_rows + k]`.
    order: Vec<u32>,
}

impl PresortedDataset {
    /// Sorts every feature column of `data` — the only `O(N log N)` work
    /// an ensemble fit performs.
    pub fn build(data: &Dataset) -> Self {
        let n = data.n_rows();
        let d = data.n_features();
        let mut values = vec![0f32; d * n];
        for row in 0..n {
            for (f, &v) in data.row(row).iter().enumerate() {
                values[f * n + row] = v;
            }
        }
        let mut order = vec![0u32; d * n];
        for f in 0..d {
            let vals = &values[f * n..(f + 1) * n];
            let ord = &mut order[f * n..(f + 1) * n];
            for (k, o) in ord.iter_mut().enumerate() {
                *o = u32_from_usize(k);
            }
            ord.sort_unstable_by(|&a, &b| {
                vals[usize_from_u32(a)]
                    .total_cmp(&vals[usize_from_u32(b)])
                    .then(a.cmp(&b))
            });
        }
        PresortedDataset {
            n_rows: n,
            n_features: d,
            values,
            order,
        }
    }

    /// Number of dataset rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

impl PresortedColumns {
    /// Derives the per-slot orders for the sample `indices` from a
    /// [`PresortedDataset`] without sorting: each dataset row's
    /// multiplicity in the sample is counted once, then per feature a
    /// running sum of the multiplicities along the full order gives every
    /// row its first output position, and the slots are scattered there
    /// in ascending order. Both passes are branch-free.
    ///
    /// The derived order is sorted by `(value, row, slot)` — within a run
    /// of equal values this may differ from [`build`](Self::build)'s
    /// `(value, slot)` order, which is unobservable to the split scan:
    /// boundaries only exist between *distinct* values, and the stable
    /// partition preserves whichever canonical order the tree started
    /// with.
    pub fn build_from(
        &mut self,
        pre: &PresortedDataset,
        indices: &[usize],
        counts: &mut Vec<u32>,
        next: &mut Vec<u32>,
    ) {
        let n = indices.len();
        let big_n = pre.n_rows;
        let d = pre.n_features;
        self.n_slots = n;
        self.n_features = d;

        counts.clear();
        counts.resize(big_n, 0);
        for &row in indices {
            counts[row] += 1;
        }
        next.clear();
        next.resize(big_n, 0);

        self.values.clear();
        self.values.resize(d * n, 0.0);
        self.order.clear();
        self.order.resize(d * n, 0);
        for f in 0..d {
            let src = &pre.values[f * big_n..(f + 1) * big_n];
            let dst = &mut self.values[f * n..(f + 1) * n];
            for (slot, &row) in indices.iter().enumerate() {
                dst[slot] = src[row];
            }
            let mut pos = 0u32;
            for &row in &pre.order[f * big_n..(f + 1) * big_n] {
                let row = usize_from_u32(row);
                next[row] = pos;
                pos += counts[row];
            }
            let ord = &mut self.order[f * n..(f + 1) * n];
            for (slot, &row) in indices.iter().enumerate() {
                ord[usize_from_u32(next[row])] = u32_from_usize(slot);
                next[row] += 1;
            }
        }
    }
}

/// Reusable tree-training scratch: pre-sorted columns, partition buffers,
/// and per-slot statistics, sized on first use and recycled across fits.
///
/// One instance serves any number of *sequential* tree fits; the forest
/// threads one through each parallel worker so growing a node allocates
/// nothing.
pub struct TreeScratch {
    pub(crate) cols: PresortedColumns,
    /// Right-side spill buffer for the stable partition.
    pub(crate) tmp: Vec<u32>,
    /// Per-slot labels (classification tree).
    pub(crate) labels: Vec<bool>,
    /// Per-slot gradients (GBDT).
    pub(crate) grad: Vec<f64>,
    /// Per-slot hessians (GBDT).
    pub(crate) hess: Vec<f64>,
    /// Per-row sample multiplicities for [`PresortedColumns::build_from`].
    row_counts: Vec<u32>,
    /// Per-row next output position for [`PresortedColumns::build_from`].
    row_next: Vec<u32>,
}

impl TreeScratch {
    /// An empty scratch; buffers grow on first fit and are then reused.
    pub fn new() -> Self {
        TreeScratch {
            cols: PresortedColumns::new(),
            tmp: Vec::new(),
            labels: Vec::new(),
            grad: Vec::new(),
            hess: Vec::new(),
            row_counts: Vec::new(),
            row_next: Vec::new(),
        }
    }

    /// Builds columns + per-slot labels for a classification-tree fit.
    /// Returns the number of positive slots.
    pub(crate) fn prepare_gini(&mut self, data: &Dataset, indices: &[usize]) -> usize {
        self.cols.build(data, indices);
        self.finish_gini(data, indices)
    }

    /// [`prepare_gini`](Self::prepare_gini) deriving the orders from a
    /// shared [`PresortedDataset`] instead of sorting — the ensemble path.
    pub(crate) fn prepare_gini_from(
        &mut self,
        pre: &PresortedDataset,
        data: &Dataset,
        indices: &[usize],
    ) -> usize {
        self.cols
            .build_from(pre, indices, &mut self.row_counts, &mut self.row_next);
        self.finish_gini(data, indices)
    }

    fn finish_gini(&mut self, data: &Dataset, indices: &[usize]) -> usize {
        self.labels.clear();
        self.labels.extend(indices.iter().map(|&i| data.label(i)));
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Builds columns + per-slot gradient statistics for a GBDT round,
    /// deriving the orders from a shared [`PresortedDataset`] (the data,
    /// and hence the full-column sort, never changes across rounds).
    /// `grad`/`hess` are indexed by dataset row.
    pub(crate) fn prepare_newton_from(
        &mut self,
        pre: &PresortedDataset,
        indices: &[usize],
        grad: &[f64],
        hess: &[f64],
    ) {
        self.cols
            .build_from(pre, indices, &mut self.row_counts, &mut self.row_next);
        self.finish_newton(indices, grad, hess);
    }

    fn finish_newton(&mut self, indices: &[usize], grad: &[f64], hess: &[f64]) {
        self.grad.clear();
        self.grad.extend(indices.iter().map(|&i| grad[i]));
        self.hess.clear();
        self.hess.extend(indices.iter().map(|&i| hess[i]));
    }

    /// Partitions node `[lo, hi)` around the winning feature's first
    /// `split_at` slots. See [`PresortedColumns::apply_split`].
    pub(crate) fn apply_split(&mut self, lo: usize, hi: usize, feature: u16, split_at: usize) {
        self.cols.apply_split(lo, hi, feature, split_at, &mut self.tmp);
    }
}

impl Default for TreeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The naive per-node split finder the tree used before the pre-sorted
/// kernel, retained as a test reference: per feature it copies the node's
/// slots, sorts them by `(value, slot)`, and scans — `O(d · n log n)` for
/// a single call. `indices` lists dataset rows; slots are positions into
/// it. Semantics (candidate boundaries, `min_leaf`, tie handling,
/// threshold clamp, gain epsilon) match the production kernel exactly.
pub fn reference_best_split_gini(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    let labels: Vec<bool> = indices.iter().map(|&i| data.label(i)).collect();
    let n_pos = labels.iter().filter(|&&l| l).count();
    let node_impurity = gini(f64_from_usize(n_pos), f64_from_usize(indices.len()));
    let mut crit = GiniCriterion::new(&labels, indices.len(), n_pos, node_impurity);
    reference_scan(data, indices, min_leaf, &mut crit)
}

/// Naive reference for the GBDT's Newton-objective split finder; see
/// [`reference_best_split_gini`]. `grad`/`hess` are per-*slot* statistics
/// (parallel to `indices`); totals are summed in slot order.
pub fn reference_best_split_newton(
    data: &Dataset,
    indices: &[usize],
    grad: &[f64],
    hess: &[f64],
    lambda: f64,
    min_leaf: usize,
) -> Option<SplitChoice> {
    let g_tot: f64 = grad.iter().sum();
    let h_tot: f64 = hess.iter().sum();
    let mut crit = NewtonCriterion::new(grad, hess, g_tot, h_tot, lambda);
    reference_scan(data, indices, min_leaf, &mut crit)
}

fn reference_scan<C: SplitCriterion>(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
    crit: &mut C,
) -> Option<SplitChoice> {
    let m = indices.len();
    if m < 2 {
        return None;
    }
    let mut best: Option<SplitChoice> = None;
    for f in 0..u16_from_usize(data.n_features()) {
        let vals: Vec<f32> = indices.iter().map(|&i| data.row(i)[usize::from(f)]).collect();
        let mut order: Vec<u32> = (0..u32_from_usize(m)).collect();
        order.sort_unstable_by(|&a, &b| {
            vals[usize_from_u32(a)]
                .total_cmp(&vals[usize_from_u32(b)])
                .then(a.cmp(&b))
        });
        if let Some((threshold, gain, split_at)) = scan_feature(&order, &vals, min_leaf, crit) {
            if best.map_or(true, |b| gain > b.gain) {
                best = Some(SplitChoice { feature: f, threshold, gain, split_at });
            }
        }
    }
    best
}

/// Runs the production pre-sorted kernel as a one-shot root-node split
/// finder over all features — the head-to-head counterpart of
/// [`reference_best_split_gini`] for the equivalence property tests.
pub fn presorted_best_split_gini(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    let mut scratch = TreeScratch::new();
    let n_pos = scratch.prepare_gini(data, indices);
    let node_impurity = gini(f64_from_usize(n_pos), f64_from_usize(indices.len()));
    let mut crit = GiniCriterion::new(&scratch.labels, indices.len(), n_pos, node_impurity);
    presorted_scan(&scratch.cols, data.n_features(), indices.len(), min_leaf, &mut crit)
}

/// Pre-sorted counterpart of [`reference_best_split_newton`].
pub fn presorted_best_split_newton(
    data: &Dataset,
    indices: &[usize],
    grad: &[f64],
    hess: &[f64],
    lambda: f64,
    min_leaf: usize,
) -> Option<SplitChoice> {
    let mut cols = PresortedColumns::new();
    cols.build(data, indices);
    let g_tot: f64 = grad.iter().sum();
    let h_tot: f64 = hess.iter().sum();
    let mut crit = NewtonCriterion::new(grad, hess, g_tot, h_tot, lambda);
    presorted_scan(&cols, data.n_features(), indices.len(), min_leaf, &mut crit)
}

fn presorted_scan<C: SplitCriterion>(
    cols: &PresortedColumns,
    d: usize,
    n: usize,
    min_leaf: usize,
    crit: &mut C,
) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    for f in 0..u16_from_usize(d) {
        let order = cols.order_segment(f, 0, n);
        let values = cols.values_of(f);
        if let Some((threshold, gain, split_at)) = scan_feature(order, values, min_leaf, crit) {
            if best.map_or(true, |b| gain > b.gain) {
                best = Some(SplitChoice { feature: f, threshold, gain, split_at });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_feature_data() -> Dataset {
        // Feature 0 separates perfectly at 0.5; feature 1 is constant.
        let mut d = Dataset::with_dims(2);
        for i in 0..8 {
            let x = i as f32 / 8.0;
            d.push_row(&[x, 1.0], x >= 0.5, i as u32);
        }
        d
    }

    #[test]
    fn presort_orders_every_feature() {
        let d = two_feature_data();
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        let mut cols = PresortedColumns::new();
        cols.build(&d, &indices);
        for f in 0..2u16 {
            let vals = cols.values_of(f);
            let ord = cols.order_segment(f, 0, d.n_rows());
            for w in ord.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(
                    vals[a] < vals[b] || (vals[a] == vals[b] && a < b),
                    "feature {f} not (value, slot)-sorted"
                );
            }
        }
    }

    #[test]
    fn kernel_finds_the_separating_split() {
        let d = two_feature_data();
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        let got = presorted_best_split_gini(&d, &indices, 1).expect("split");
        assert_eq!(got.feature, 0);
        assert_eq!(got.split_at, 4);
        assert!(got.threshold >= 3.0 / 8.0 && got.threshold < 0.5);
        let reference = reference_best_split_gini(&d, &indices, 1).expect("split");
        assert_eq!(got, reference);
    }

    #[test]
    fn partition_keeps_segments_sorted() {
        // Feature 0 separates at 0.5 as in `two_feature_data`; feature 1
        // is a permutation of 0..8 that interleaves the two halves, so the
        // split really partitions it through the side flags.
        let mut d = Dataset::with_dims(2);
        for i in 0..8u32 {
            let x = i as f32 / 8.0;
            d.push_row(&[x, ((i * 5) % 8) as f32], x >= 0.5, i);
        }
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        let mut scratch = TreeScratch::new();
        scratch.prepare_gini(&d, &indices);
        scratch.apply_split(0, 8, 0, 4);
        for f in 0..2u16 {
            let vals = scratch.cols.values_of(f);
            for seg in [
                scratch.cols.order_segment(f, 0, 4),
                scratch.cols.order_segment(f, 4, 8),
            ] {
                for w in seg.windows(2) {
                    let (a, b) = (w[0] as usize, w[1] as usize);
                    assert!(vals[a] < vals[b] || (vals[a] == vals[b] && a < b));
                }
            }
        }
        // Left block of every feature holds exactly the low-x slots 0..4.
        for f in 0..2u16 {
            let mut left: Vec<u32> = scratch.cols.order_segment(f, 0, 4).to_vec();
            left.sort_unstable();
            assert_eq!(left, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn constant_features_stay_unsplittable_in_both_children() {
        // f0 separates the halves, f1 is constant everywhere, f2 is
        // constant on the low half only, f3 alternates.
        let mut d = Dataset::with_dims(4);
        for i in 0..8u32 {
            let x = i as f32 / 8.0;
            let f2 = if i < 4 { 0.0 } else { i as f32 };
            d.push_row(&[x, 1.0, f2, (i % 2) as f32], i % 3 == 0, i);
        }
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        let mut scratch = TreeScratch::new();
        let n_pos = scratch.prepare_gini(&d, &indices);
        let no_split = |scratch: &TreeScratch, f: u16, lo: usize, hi: usize| {
            let mut crit = GiniCriterion::new(&scratch.labels, hi - lo, n_pos, 0.5);
            let order = scratch.cols.order_segment(f, lo, hi);
            scan_feature(order, scratch.cols.values_of(f), 1, &mut crit).is_none()
        };
        let members = |scratch: &TreeScratch, f: u16, lo: usize, hi: usize| {
            let mut m = scratch.cols.order_segment(f, lo, hi).to_vec();
            m.sort_unstable();
            m
        };

        // Root split on f0: f1 is constant and left unpartitioned.
        scratch.apply_split(0, 8, 0, 4);
        for (lo, hi) in [(0, 4), (4, 8)] {
            assert!(no_split(&scratch, 1, lo, hi), "f1 splits in [{lo}, {hi})");
        }
        assert_eq!(members(&scratch, 2, 0, 4), vec![0, 1, 2, 3]);
        assert_eq!(members(&scratch, 3, 4, 8), vec![4, 5, 6, 7]);

        // Low-half split on f3: f2 is constant there and left as is;
        // the member list is still partitioned.
        scratch.apply_split(0, 4, 3, 2);
        for (lo, hi) in [(0, 2), (2, 4)] {
            assert!(no_split(&scratch, 1, lo, hi), "f1 splits in [{lo}, {hi})");
            assert!(no_split(&scratch, 2, lo, hi), "f2 splits in [{lo}, {hi})");
        }
        assert_eq!(scratch.cols.members(0, 2), [0, 2]);
        assert_eq!(scratch.cols.members(2, 4), [1, 3]);
    }

    #[test]
    fn split_threshold_clamps_adjacent_floats() {
        // Adjacent mantissas where the naive midpoint rounds up to v_hi.
        let v_lo = f32::from_bits(0x3F80_0001);
        let v_hi = f32::from_bits(0x3F80_0002);
        let t = split_threshold(v_lo, v_hi);
        assert!(v_lo <= t && t < v_hi, "threshold {t} not in [{v_lo}, {v_hi})");
        // A comfortably-separated pair still gets the true midpoint.
        assert_eq!(split_threshold(1.0, 2.0), 1.5);
    }

    #[test]
    fn derived_orders_match_per_sample_sort() {
        // Identity indices: build_from's (value, row, slot) key collapses
        // to build's (value, slot) key, so the orders agree exactly.
        let d = two_feature_data();
        let identity: Vec<usize> = (0..d.n_rows()).collect();
        let pre = PresortedDataset::build(&d);
        let (mut sorted, mut derived) = (PresortedColumns::new(), PresortedColumns::new());
        sorted.build(&d, &identity);
        let (mut off, mut slots) = (Vec::new(), Vec::new());
        derived.build_from(&pre, &identity, &mut off, &mut slots);
        assert_eq!(sorted.values, derived.values);
        assert_eq!(sorted.order, derived.order);

        // Bootstrap-style duplicates: values gather identically and every
        // derived order is (value, slot-of-equal-row)-sorted.
        let boot = vec![3usize, 0, 3, 5, 1, 1, 7];
        sorted.build(&d, &boot);
        derived.build_from(&pre, &boot, &mut off, &mut slots);
        assert_eq!(sorted.values, derived.values);
        for f in 0..2u16 {
            let vals = derived.values_of(f);
            let ord = derived.order_segment(f, 0, boot.len());
            for w in ord.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(
                    vals[a] < vals[b]
                        || (vals[a] == vals[b] && (boot[a], a) < (boot[b], b)),
                    "feature {f} derived order violates (value, row, slot)"
                );
            }
            let mut seen: Vec<u32> = ord.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..boot.len() as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn duplicate_indices_are_distinct_slots() {
        // Bootstrap draws repeat rows; each draw must be its own slot.
        let d = two_feature_data();
        let indices = vec![0usize, 0, 0, 7, 7, 7];
        let got = presorted_best_split_gini(&d, &indices, 1).expect("split");
        assert_eq!(got.split_at, 3);
        assert_eq!(got, reference_best_split_gini(&d, &indices, 1).unwrap());
    }
}
