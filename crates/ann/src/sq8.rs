//! SQ8 scalar quantization: the compressed vector plane (DESIGN.md §12).
//!
//! Every embedding dimension is affinely mapped to a `u8` code with its own
//! `scale`/`offset` (per-dimension min/max over the corpus), shrinking the
//! resident vector plane ~4× and making the candidate-generation scan
//! memory-bandwidth-cheap. Searches run **two-stage**: a quantized scan over
//! the codes collects the top `RESCORE_FACTOR · k` candidates, then the
//! survivors are rescored with the exact f32 vectors, so the returned
//! distances are exact and recall stays within noise of the uncompressed
//! scan.
//!
//! The asymmetric kernels (`deepjoin-simd`) never dequantize a row: for L2
//! the query is re-expressed as `t = q − offset` once and the per-row score
//! `Σ (t_d − s_d·c_d)²` equals the exact squared distance between the query
//! and the dequantized row; for dot-ranked metrics the constant
//! `q₀ = Σ q_d·offset_d` and the folded query `t₂ = q ∘ s` reduce each row
//! to one f32×u8 dot.

use crate::budget::{BudgetedSearch, Effort};
use crate::distance::Metric;
use crate::flat::scan_wave;
use crate::index::{push_top, Neighbor, SearchRequest};
use crate::plane::PodVec;

/// Candidate over-fetch for the quantized first stage: the quantized scan
/// keeps `RESCORE_FACTOR · k` rows for the exact rescore. 4 is generous —
/// SQ8 surrogate error is a fraction of typical inter-neighbor gaps — and
/// keeps the rescore cost negligible next to the scan.
pub const RESCORE_FACTOR: usize = 4;

/// Per-dimension affine-quantized (`u8`) copy of an embedding matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8Plane {
    dim: usize,
    /// Per-dimension step size `(max − min) / 255` (0 for constant dims).
    /// All four arrays are [`PodVec`]s: heap after quantization, zero-copy
    /// views when decoded from a mapped v2 artifact section.
    scale: PodVec<f32>,
    /// Per-dimension minimum (the value code 0 decodes to).
    offset: PodVec<f32>,
    /// Row-major `n × dim` codes.
    codes: PodVec<u8>,
    /// L2 norm of each *dequantized* row, for cosine without the unit-norm
    /// promise.
    row_norm: PodVec<f32>,
}

impl Sq8Plane {
    /// Quantize a row-major `n × dim` matrix. Each dimension gets its own
    /// min/max affine map; a constant dimension gets `scale = 0` and decodes
    /// exactly.
    pub fn quantize(data: &[f32], dim: usize) -> Self {
        let (scale, offset) = Self::affine_from(data, dim);
        let mut plane = Self::with_affine(dim, scale, offset);
        plane.codes.make_mut().reserve(data.len());
        plane.row_norm.make_mut().reserve(data.len() / dim.max(1));
        for row in data.chunks_exact(dim) {
            plane.push(row);
        }
        plane
    }

    /// Learn per-dimension affine parameters (min/max map) from a training
    /// matrix without encoding it — for planes that grow row by row via
    /// [`Sq8Plane::push`] (the IVFPQ refinement layer trains here and
    /// encodes at `add` time).
    pub fn affine_from(data: &[f32], dim: usize) -> (Vec<f32>, Vec<f32>) {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "row-major shape mismatch");
        let n = data.len() / dim;
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for row in data.chunks_exact(dim) {
            for (d, &x) in row.iter().enumerate() {
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let mut scale = vec![0f32; dim];
        let mut offset = vec![0f32; dim];
        for d in 0..dim {
            if n == 0 {
                continue;
            }
            offset[d] = lo[d];
            let range = hi[d] - lo[d];
            if range > 0.0 {
                scale[d] = range / 255.0;
            }
        }
        (scale, offset)
    }

    /// Empty plane with fixed affine parameters; rows are appended with
    /// [`Sq8Plane::push`].
    pub fn with_affine(dim: usize, scale: Vec<f32>, offset: Vec<f32>) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(scale.len(), dim, "scale length mismatch");
        assert_eq!(offset.len(), dim, "offset length mismatch");
        Self {
            dim,
            scale: scale.into(),
            offset: offset.into(),
            codes: PodVec::new(),
            row_norm: PodVec::new(),
        }
    }

    /// Encode and append one row under the plane's fixed affine map.
    /// Values outside the trained range saturate at codes 0/255.
    pub fn push(&mut self, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "dimension mismatch");
        let mut norm_sq = 0f32;
        let codes = self.codes.make_mut();
        for (d, &x) in vector.iter().enumerate() {
            let c = if self.scale[d] > 0.0 {
                ((x - self.offset[d]) / self.scale[d])
                    .round()
                    .clamp(0.0, 255.0) as u8
            } else {
                0
            };
            codes.push(c);
            let deq = self.offset[d] + self.scale[d] * c as f32;
            norm_sq += deq * deq;
        }
        self.row_norm.make_mut().push(norm_sq.sqrt());
    }

    /// Reassemble a plane from decoded parts (the `DJQ2` codec).
    /// Accepts owned `Vec`s or zero-copy [`PodVec`] views alike. Shape
    /// validation is the codec's job; this only debug-asserts.
    pub fn from_parts(
        dim: usize,
        scale: impl Into<PodVec<f32>>,
        offset: impl Into<PodVec<f32>>,
        codes: impl Into<PodVec<u8>>,
        row_norm: impl Into<PodVec<f32>>,
    ) -> Self {
        let (scale, offset, codes, row_norm) =
            (scale.into(), offset.into(), codes.into(), row_norm.into());
        debug_assert_eq!(scale.len(), dim);
        debug_assert_eq!(offset.len(), dim);
        debug_assert_eq!(codes.len(), row_norm.len() * dim.max(1));
        Self {
            dim,
            scale,
            offset,
            codes,
            row_norm,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of quantized rows.
    pub fn len(&self) -> usize {
        self.codes.len() / self.dim
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Per-dimension scales.
    pub fn scale(&self) -> &[f32] {
        &self.scale
    }

    /// Per-dimension offsets.
    pub fn offset(&self) -> &[f32] {
        &self.offset
    }

    /// Raw row-major codes.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Dequantized row norms.
    pub fn row_norms(&self) -> &[f32] {
        &self.row_norm
    }

    /// Code row by id.
    pub fn code(&self, id: u32) -> &[u8] {
        let i = id as usize * self.dim;
        &self.codes[i..i + self.dim]
    }

    /// Dequantize row `id` into `out` (`x̂_d = offset_d + scale_d · c_d`).
    pub fn dequantize_into(&self, id: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "dimension mismatch");
        for (d, (&c, o)) in self.code(id).iter().zip(out.iter_mut()).enumerate() {
            *o = self.offset[d] + self.scale[d] * c as f32;
        }
    }

    /// Heap bytes resident for this plane (codes + per-dim maps + row
    /// norms). Mapped arrays count zero — their pages are file-backed.
    pub fn resident_bytes(&self) -> usize {
        self.codes.resident_bytes()
            + self.scale.resident_bytes()
            + self.offset.resident_bytes()
            + self.row_norm.resident_bytes()
    }

    /// Bytes of the plane (codes + per-dim maps + row norms), wherever they
    /// live: [`Self::resident_bytes`] counts only the heap-backed ones.
    pub fn byte_len(&self) -> usize {
        self.codes.len()
            + std::mem::size_of::<f32>()
                * (self.scale.len() + self.offset.len() + self.row_norm.len())
    }

    /// True when the code matrix is a zero-copy view of a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.codes.is_mapped()
    }

    /// Fold a query into the precomputed form the asymmetric kernels
    /// consume. One `prepare` amortizes over every row the query scores.
    pub fn prepare(&self, query: &[f32], metric: Metric, unit_norm: bool) -> Sq8Query {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        let inner = match (metric, unit_norm) {
            (Metric::L2, _) => Prepared::L2 {
                t: query
                    .iter()
                    .zip(&self.offset)
                    .map(|(&q, &o)| q - o)
                    .collect(),
            },
            (Metric::InnerProduct, _) | (Metric::Cosine, true) => Prepared::Dot {
                t2: query.iter().zip(&self.scale).map(|(&q, &s)| q * s).collect(),
                q0: query
                    .iter()
                    .zip(&self.offset)
                    .map(|(&q, &o)| q * o)
                    .sum(),
            },
            (Metric::Cosine, false) => Prepared::CosineFull {
                t2: query.iter().zip(&self.scale).map(|(&q, &s)| q * s).collect(),
                q0: query
                    .iter()
                    .zip(&self.offset)
                    .map(|(&q, &o)| q * o)
                    .sum(),
                q_norm: deepjoin_simd::dot(query, query).sqrt(),
            },
        };
        Sq8Query { inner }
    }

    /// Quantized surrogate score for one row: the same ordering semantics
    /// as [`Metric::surrogate_un`] evaluated against the dequantized row.
    #[inline]
    pub fn surrogate(&self, prep: &Sq8Query, id: u32) -> f32 {
        let code = self.code(id);
        match &prep.inner {
            Prepared::L2 { t } => deepjoin_simd::l2_sq_f32u8(t, &self.scale, code),
            Prepared::Dot { t2, q0 } => -(q0 + deepjoin_simd::dot_f32u8(t2, code)),
            Prepared::CosineFull { t2, q0, q_norm } => {
                let denom = q_norm * self.row_norm[id as usize];
                if denom == 0.0 {
                    1.0
                } else {
                    1.0 - (q0 + deepjoin_simd::dot_f32u8(t2, code)) / denom
                }
            }
        }
    }

    /// Blocked quantized surrogates for rows `[base, base + out.len())`.
    fn surrogate_block(&self, prep: &Sq8Query, base: usize, out: &mut [f32]) {
        let rows = out.len();
        let codes = &self.codes[base * self.dim..(base + rows) * self.dim];
        match &prep.inner {
            Prepared::L2 { t } => {
                deepjoin_simd::l2_sq_f32u8_block(t, &self.scale, codes, out);
            }
            Prepared::Dot { t2, q0 } => {
                deepjoin_simd::dot_f32u8_block(t2, codes, out);
                for s in out.iter_mut() {
                    *s = -(q0 + *s);
                }
            }
            Prepared::CosineFull { t2, q0, q_norm } => {
                deepjoin_simd::dot_f32u8_block(t2, codes, out);
                for (i, s) in out.iter_mut().enumerate() {
                    let denom = q_norm * self.row_norm[base + i];
                    *s = if denom == 0.0 {
                        1.0
                    } else {
                        1.0 - (q0 + *s) / denom
                    };
                }
            }
        }
    }
}

/// A query folded against a plane's scale/offset (see
/// [`Sq8Plane::prepare`]).
#[derive(Debug, Clone)]
pub struct Sq8Query {
    inner: Prepared,
}

#[derive(Debug, Clone)]
enum Prepared {
    /// `t = q − offset`; score `Σ (t_d − s_d·c_d)²` is the exact squared
    /// L2 to the dequantized row.
    L2 { t: Vec<f32> },
    /// `t₂ = q ∘ s`, `q₀ = q · offset`; `q₀ + t₂·c` is the exact dot with
    /// the dequantized row (negated to rank as a distance).
    Dot { t2: Vec<f32>, q0: f32 },
    /// Full cosine needs the dequantized row norms on top of the dot.
    CosineFull { t2: Vec<f32>, q0: f32, q_norm: f32 },
}

impl Sq8Plane {
    /// Two-stage wave: the blocked scan ([`scan_wave`]) scores the plane's
    /// codes with each member's prepared query into a `RESCORE_FACTOR · k`
    /// pool, then the survivors are rescored exactly against `exact` (the
    /// row-major uncompressed matrix, same row ids). Returned distances are
    /// exact; `visited` counts quantized rows scored plus rows rescored.
    ///
    /// The rescore is cheap (≤ `RESCORE_FACTOR · k` rows), so it runs even
    /// when the budget expired mid-scan — partial results stay exact. From
    /// brownout rung 2 ([`Effort::Surrogate`]) there is no rescore and no
    /// pool to over-collect into: the quantized scores are served as-is,
    /// distances carry quantization error and the caller flags the reply
    /// degraded.
    pub(crate) fn two_stage_wave(
        &self,
        exact: &[f32],
        metric: Metric,
        unit_norm: bool,
        req: &SearchRequest<'_>,
    ) -> Vec<BudgetedSearch> {
        let (dim, k) = (self.dim, req.k);
        debug_assert_eq!(exact.len(), self.codes.len());
        let preps: Vec<Sq8Query> = req
            .members(dim)
            .map(|q| self.prepare(q, metric, unit_norm))
            .collect();
        let rescore = req.budget.effort() < Effort::Surrogate;
        let pool = if rescore {
            k.saturating_mul(RESCORE_FACTOR).max(k)
        } else {
            k
        };
        let mut wave = scan_wave(
            self.len(),
            preps.len(),
            pool,
            req.budget,
            req.deleted,
            |m, base, out| self.surrogate_block(&preps[m], base, out),
        );
        for (result, query) in wave.iter_mut().zip(req.members(dim)) {
            if rescore {
                let survivors = std::mem::replace(&mut result.hits, Vec::with_capacity(k));
                result.visited += survivors.len();
                for h in &survivors {
                    let row = &exact[h.id as usize * dim..(h.id as usize + 1) * dim];
                    let score = metric.surrogate_un(query, row, unit_norm);
                    push_top(&mut result.hits, k, h.id, score);
                }
                result.hits.sort_by(Neighbor::rank);
            }
            for h in &mut result.hits {
                h.distance = metric.distance_from_surrogate(h.distance, unit_norm);
            }
        }
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::flat::SCAN_BLOCK;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One L2 query as a wave of one over `plane`, rescored against `data`.
    fn scan(plane: &Sq8Plane, data: &[f32], q: &[f32], budget: &Budget) -> BudgetedSearch {
        let req = SearchRequest::one(q, 5, budget);
        plane.two_stage_wave(data, Metric::L2, false, &req).remove(0)
    }

    fn matrix(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Round-trip error is bounded by half a quantization step per
    /// dimension: |x − x̂| ≤ scale_d / 2.
    #[test]
    fn dequantize_error_bounded_by_half_step_per_dim() {
        let (n, dim) = (200, 24);
        let data = matrix(n, dim, 7);
        let plane = Sq8Plane::quantize(&data, dim);
        let mut out = vec![0f32; dim];
        for i in 0..n {
            plane.dequantize_into(i as u32, &mut out);
            for d in 0..dim {
                let err = (data[i * dim + d] - out[d]).abs();
                let bound = plane.scale()[d] * 0.5 + 1e-6;
                assert!(
                    err <= bound,
                    "row {i} dim {d}: err {err} > half-step {bound}"
                );
            }
        }
    }

    #[test]
    fn constant_dimension_decodes_exactly() {
        // Dim 1 is constant 0.75 across all rows: scale 0, exact decode.
        let data = vec![0.1, 0.75, -0.3, 0.75, 0.9, 0.75];
        let plane = Sq8Plane::quantize(&data, 2);
        assert_eq!(plane.scale()[1], 0.0);
        let mut out = vec![0f32; 2];
        for i in 0..3 {
            plane.dequantize_into(i, &mut out);
            assert_eq!(out[1], 0.75);
        }
    }

    /// The quantized surrogate must equal `Metric::surrogate_un` evaluated
    /// against the dequantized row, for every metric × unit_norm combination
    /// — that is the property the two-stage scan's candidate ordering rests
    /// on.
    #[test]
    fn surrogate_matches_dequantized_f32_surrogate() {
        let (n, dim) = (60, 19);
        let data = matrix(n, dim, 11);
        let plane = Sq8Plane::quantize(&data, dim);
        let q = matrix(1, dim, 12);
        let mut deq = vec![0f32; dim];
        for (metric, unit_norm) in [
            (Metric::L2, false),
            (Metric::InnerProduct, false),
            (Metric::Cosine, true),
            (Metric::Cosine, false),
        ] {
            let prep = plane.prepare(&q, metric, unit_norm);
            for i in 0..n as u32 {
                plane.dequantize_into(i, &mut deq);
                let want = metric.surrogate_un(&q, &deq, unit_norm);
                let got = plane.surrogate(&prep, i);
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{metric:?} un={unit_norm} row {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn blocked_surrogates_match_per_row() {
        let (n, dim) = (300, 17);
        let data = matrix(n, dim, 13);
        let plane = Sq8Plane::quantize(&data, dim);
        let q = matrix(1, dim, 14);
        for (metric, unit_norm) in [
            (Metric::L2, false),
            (Metric::InnerProduct, false),
            (Metric::Cosine, true),
            (Metric::Cosine, false),
        ] {
            let prep = plane.prepare(&q, metric, unit_norm);
            let mut out = vec![0f32; n];
            // Whole-matrix block in SCAN_BLOCK chunks like the scan does.
            let mut base = 0;
            while base < n {
                let rows = SCAN_BLOCK.min(n - base);
                let (_, tail) = out.split_at_mut(base);
                plane.surrogate_block(&prep, base, &mut tail[..rows]);
                base += rows;
            }
            for i in 0..n as u32 {
                let want = plane.surrogate(&prep, i);
                let got = out[i as usize];
                assert!(
                    (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "{metric:?} un={unit_norm} row {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn two_stage_scan_returns_exact_distances() {
        let (n, dim) = (500, 16);
        let data = matrix(n, dim, 17);
        let plane = Sq8Plane::quantize(&data, dim);
        let q = matrix(1, dim, 18);
        let out = scan(&plane, &data, &q, &Budget::unlimited());
        assert!(out.complete);
        assert_eq!(out.hits.len(), 5);
        // Every returned distance is the exact f32 distance.
        for h in &out.hits {
            let row = &data[h.id as usize * dim..(h.id as usize + 1) * dim];
            let want = Metric::L2.distance(&q, row);
            assert!(
                (h.distance - want).abs() <= 1e-5 * want.max(1.0),
                "id {}: {} vs {want}",
                h.id,
                h.distance
            );
        }
    }

    #[test]
    fn surrogate_effort_skips_the_rescore_but_stays_near_exact() {
        let (n, dim) = (500, 16);
        let data = matrix(n, dim, 17);
        let plane = Sq8Plane::quantize(&data, dim);
        let q = matrix(1, dim, 18);
        let exact = scan(&plane, &data, &q, &Budget::unlimited());
        let cheap = scan(&plane, &data, &q, &Budget::unlimited().with_effort(Effort::Surrogate));
        assert!(cheap.complete);
        assert_eq!(cheap.hits.len(), 5);
        // Surrogate mode skips the per-survivor f32 reads entirely.
        assert!(cheap.visited < exact.visited);
        // Quantized distances track the exact ones within SQ8 error.
        for (a, b) in exact.hits.iter().zip(&cheap.hits) {
            assert!(
                (a.distance - b.distance).abs() <= 0.05 * a.distance.max(1.0),
                "exact {} vs surrogate {}",
                a.distance,
                b.distance
            );
        }
    }

    #[test]
    fn expired_budget_yields_partial_but_exact_results() {
        let (n, dim) = (SCAN_BLOCK * 4, 8);
        let data = matrix(n, dim, 19);
        let plane = Sq8Plane::quantize(&data, dim);
        let q = matrix(1, dim, 20);
        let expired = Budget::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let out = scan(&plane, &data, &q, &expired);
        assert!(!out.complete);
        for h in &out.hits {
            let row = &data[h.id as usize * dim..(h.id as usize + 1) * dim];
            let want = Metric::L2.distance(&q, row);
            assert!((h.distance - want).abs() <= 1e-5 * want.max(1.0));
        }
    }

    #[test]
    fn resident_bytes_shrink_vs_f32() {
        let (n, dim) = (1000, 64);
        let data = matrix(n, dim, 23);
        let plane = Sq8Plane::quantize(&data, dim);
        let f32_bytes = data.len() * 4;
        assert!(
            (plane.resident_bytes() as f64) < f32_bytes as f64 / 3.5,
            "plane {} vs f32 {}",
            plane.resident_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn empty_matrix_quantizes_to_empty_plane() {
        let plane = Sq8Plane::quantize(&[], 8);
        assert!(plane.is_empty());
        assert_eq!(plane.len(), 0);
        let out = scan(&plane, &[], &[0f32; 8], &Budget::unlimited());
        assert!(out.complete);
        assert!(out.hits.is_empty());
    }
}
