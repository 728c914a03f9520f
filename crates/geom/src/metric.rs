//! Distance metrics and the bound functions used by the join algorithms.
//!
//! The incremental distance join needs a family of *consistent* distance
//! functions (paper §2.2): for items `i1`, `i2` (objects, object bounding
//! rectangles, or node regions), the queue key `MINDIST(i1, i2)` must never
//! exceed the distance of any object/object pair generated from `(i1, i2)`.
//!
//! Three kinds of bounds are provided here:
//!
//! * **MINDIST** — a lower bound on the distance of *every* object pair
//!   generated from the pair. Used as the priority-queue key.
//! * **MAXDIST** — an upper bound on the distance of *every* generated object
//!   pair (the distance between the farthest corners). Used for pruning
//!   against a minimum distance (`MAXDIST < Dmin` ⇒ discard) and for the
//!   maximum-distance estimation of §2.2.4, where eligibility requires that
//!   *all* generated pairs fall inside `[Dmin, Dmax]`.
//! * **MINMAXDIST** — an upper bound on the distance of the *closest*
//!   generated object pair (Roussopoulos et al.'s bound, relying on minimal
//!   bounding rectangles: every face of an MBR touches its object). Used by
//!   the distance semi-join's `d_max` pruning strategies, where knowing that
//!   *some* partner exists within a radius lets further pairs be discarded.

use crate::{Point, Rect};

/// A distance metric on points; all bound functions are derived from it.
///
/// The paper's experiments use [`Metric::Euclidean`]; the Manhattan (`L1`)
/// and Chessboard (`L∞`) metrics are supported as §2.2 promises.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Metric {
    /// `L2`: straight-line distance.
    #[default]
    Euclidean,
    /// `L1`: sum of coordinate differences.
    Manhattan,
    /// `L∞`: maximum coordinate difference.
    Chessboard,
}

impl Metric {
    /// Folds a per-axis absolute difference into the running accumulator.
    ///
    /// Deliberately *not* `mul_add`: the squared-key contract ([`KeySpace`],
    /// `kernels`) promises bit-identical results for the exact two-rounding
    /// sequence below wherever it is evaluated, and a fused operation would
    /// also lower to a libm call on targets without native FMA — the wrong
    /// trade for the hottest arithmetic in the join.
    #[allow(clippy::suboptimal_flops)]
    #[inline]
    pub(crate) fn accumulate(self, acc: f64, delta: f64) -> f64 {
        match self {
            Metric::Euclidean => acc + delta * delta,
            Metric::Manhattan => acc + delta,
            Metric::Chessboard => acc.max(delta),
        }
    }

    /// Finishes an accumulated value into a distance.
    #[inline]
    fn finish(self, acc: f64) -> f64 {
        match self {
            Metric::Euclidean => acc.sqrt(),
            Metric::Manhattan | Metric::Chessboard => acc,
        }
    }

    /// Combines an iterator of per-axis absolute differences into a distance.
    #[inline]
    fn combine(self, deltas: impl Iterator<Item = f64>) -> f64 {
        self.finish(deltas.fold(0.0, |acc, d| self.accumulate(acc, d)))
    }

    /// Distance between two points.
    #[must_use]
    pub fn distance<const D: usize>(self, p: &Point<D>, q: &Point<D>) -> f64 {
        self.combine(
            p.coords()
                .iter()
                .zip(q.coords())
                .map(|(a, b)| (a - b).abs()),
        )
    }

    /// MINDIST between a point and a rectangle: the distance from the point
    /// to the nearest point of the rectangle (zero if inside).
    ///
    /// Returns `+inf` for empty rectangles, which makes pairs involving empty
    /// regions sort last and never produce results.
    #[must_use]
    pub fn mindist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| axis_gap(p.coord(a), p.coord(a), r.lo()[a], r.hi()[a])))
    }

    /// MINDIST between two rectangles: the distance between their nearest
    /// points (zero if they intersect).
    #[must_use]
    pub fn mindist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| axis_gap(r.lo()[a], r.hi()[a], s.lo()[a], s.hi()[a])))
    }

    /// MAXDIST between a point and a rectangle: distance from the point to
    /// the farthest point of the rectangle.
    #[must_use]
    pub fn maxdist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| {
            let c = p.coord(a);
            (c - r.lo()[a]).abs().max((c - r.hi()[a]).abs())
        }))
    }

    /// MAXDIST between two rectangles: an upper bound on the distance of any
    /// point of one to any point of the other.
    #[must_use]
    pub fn maxdist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| {
            let d1 = (r.hi()[a] - s.lo()[a]).abs();
            let d2 = (s.hi()[a] - r.lo()[a]).abs();
            d1.max(d2)
        }))
    }

    /// MINMAXDIST between a point and a minimal bounding rectangle: an upper
    /// bound on the distance from `p` to the nearest object bounded by `r`
    /// (Roussopoulos et al., as recalled in §2.2.3 of the paper).
    ///
    /// For each axis `k`, the object must touch one of the two faces
    /// orthogonal to `k`; taking the nearer face on axis `k` and the farther
    /// coordinate on every other axis yields an upper bound, and the minimum
    /// over `k` is the tightest such bound.
    #[must_use]
    pub fn minmaxdist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        // Precompute the "far" contribution of each axis, and the accumulator
        // over all far contributions so each candidate axis k can be formed
        // cheaply. (For Chessboard, `max` is not invertible, so fall back to
        // recomputing per k; D is small.)
        let near = |a: usize| {
            let c = p.coord(a);
            if c <= 0.5 * (r.lo()[a] + r.hi()[a]) {
                (c - r.lo()[a]).abs()
            } else {
                (c - r.hi()[a]).abs()
            }
        };
        let far = |a: usize| {
            let c = p.coord(a);
            (c - r.lo()[a]).abs().max((c - r.hi()[a]).abs())
        };
        let mut best = f64::INFINITY;
        for k in 0..D {
            let acc = (0..D).fold(0.0, |acc, a| {
                self.accumulate(acc, if a == k { near(a) } else { far(a) })
            });
            best = best.min(self.finish(acc));
        }
        best
    }

    /// MINMAXDIST between two minimal bounding rectangles: an upper bound on
    /// the distance between the *closest* pair of objects bounded by `r` and
    /// `s` respectively (paper §2.2.3,
    /// `d_max(b1, b2) = min_{f_j ∈ F(b1), f_k ∈ F(b2)} max_{p ∈ f_j, q ∈ f_k} d(p, q)`).
    ///
    /// The maximum of a metric distance over two axis-aligned faces is
    /// attained at face corners, so each face pair is evaluated by
    /// enumerating corner pairs. Cost is `O(D^2 · 4^D)`; fine for the low
    /// dimensions spatial databases use and only paid when semi-join pruning
    /// or estimation asks for it.
    #[must_use]
    pub fn minmaxdist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        // Degenerate rectangles are points; their single "face" makes the
        // face-pair minimax collapse to the (much cheaper) point/rect form.
        // This is the hot path for point data sets, where every object
        // bounding rectangle is degenerate.
        if r.margin() == 0.0 {
            return self.minmaxdist_point_rect(&r.center(), s);
        }
        if s.margin() == 0.0 {
            return self.minmaxdist_point_rect(&s.center(), r);
        }
        let faces_r = r.faces();
        let faces_s = s.faces();
        let mut best = f64::INFINITY;
        for fr in &faces_r {
            let cr = fr.corners();
            for fs in &faces_s {
                let cs = fs.corners();
                let mut face_max: f64 = 0.0;
                for p in &cr {
                    for q in &cs {
                        face_max = face_max.max(self.distance(p, q));
                    }
                }
                best = best.min(face_max);
            }
        }
        best
    }
}

/// A monotone *key domain* for one metric: the domain in which priority-queue
/// keys, pruning bounds and tier boundaries live.
///
/// For the Euclidean metric the natural key is the **squared** distance —
/// every bound function is a fold of per-axis terms finished by a single
/// `sqrt`, and because `sqrt` is strictly monotone on `[0, +inf]` the
/// ordering of squared keys is exactly the ordering of distances. Working in
/// the squared domain removes the `sqrt` from every bound evaluation and
/// comparison; the one remaining `sqrt` happens when a key is converted back
/// to a reportable distance with [`KeySpace::to_distance`].
///
/// Manhattan and Chessboard distances are already sums/maxima with an
/// identity finish, so their key domain is the distance itself and every
/// conversion below is a no-op.
///
/// Bitwise note: the scalar Euclidean bound is `sqrt(acc)` of an accumulator
/// folded over axes `0..D`; the key-domain bound is that same `acc`, so
/// `to_distance(key)` reproduces the scalar distance *bit for bit* as long as
/// callers keep the axis fold order (all functions here and in
/// [`kernels`](crate::kernels) do).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeySpace {
    metric: Metric,
    squared: bool,
}

impl KeySpace {
    /// The sqrt-free key domain for `metric`: squared keys for Euclidean,
    /// identity for Manhattan/Chessboard.
    #[must_use]
    pub fn squared(metric: Metric) -> Self {
        Self {
            metric,
            squared: matches!(metric, Metric::Euclidean),
        }
    }

    /// The identity key domain: keys *are* distances for every metric. The
    /// kernel-equivalence tests use it as the reference for the squared
    /// domain.
    #[must_use]
    pub fn plain(metric: Metric) -> Self {
        Self {
            metric,
            squared: false,
        }
    }

    /// The underlying metric.
    #[must_use]
    pub fn metric(self) -> Metric {
        self.metric
    }

    /// True if keys are squared distances.
    #[must_use]
    pub fn is_squared(self) -> bool {
        self.squared
    }

    /// Maps a distance into the key domain (monotone on `[0, +inf]`).
    #[must_use]
    pub fn to_key(self, d: f64) -> f64 {
        if self.squared {
            d * d
        } else {
            d
        }
    }

    /// Maps a key back to a distance. This is the *only* place a `sqrt` is
    /// paid in the squared domain.
    #[must_use]
    pub fn to_distance(self, k: f64) -> f64 {
        if self.squared {
            k.sqrt()
        } else {
            k
        }
    }

    /// Finishes a metric accumulator into a key (identity in the squared
    /// domain — that is the whole point).
    #[inline]
    pub(crate) fn finish_acc(self, acc: f64) -> f64 {
        if self.squared {
            acc
        } else {
            self.metric.finish(acc)
        }
    }

    /// Combines per-axis absolute differences into a key.
    #[inline]
    fn combine(self, deltas: impl Iterator<Item = f64>) -> f64 {
        self.finish_acc(deltas.fold(0.0, |acc, d| self.metric.accumulate(acc, d)))
    }

    /// True if a non-negative single-axis gap (in coordinate units) already
    /// exceeds the bound `key`. Lets the plane sweep of §2.2.2 compare axis
    /// gaps against key-domain bounds without leaving the key domain: a
    /// one-axis gap `g` contributes at least `g` (L1/L∞) or `g²` (squared L2)
    /// to any key involving it.
    #[must_use]
    pub fn axis_gap_exceeds(self, gap: f64, key: f64) -> bool {
        if self.squared {
            gap * gap > key
        } else {
            gap > key
        }
    }

    /// Point distance in the key domain.
    #[must_use]
    pub fn distance<const D: usize>(self, p: &Point<D>, q: &Point<D>) -> f64 {
        self.combine(
            p.coords()
                .iter()
                .zip(q.coords())
                .map(|(a, b)| (a - b).abs()),
        )
    }

    /// MINDIST key between a point and a rectangle.
    #[must_use]
    pub fn mindist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| axis_gap(p.coord(a), p.coord(a), r.lo()[a], r.hi()[a])))
    }

    /// MINDIST key between two rectangles.
    #[must_use]
    pub fn mindist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| axis_gap(r.lo()[a], r.hi()[a], s.lo()[a], s.hi()[a])))
    }

    /// MAXDIST key between a point and a rectangle.
    #[must_use]
    pub fn maxdist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| {
            let c = p.coord(a);
            (c - r.lo()[a]).abs().max((c - r.hi()[a]).abs())
        }))
    }

    /// MAXDIST key between two rectangles.
    #[must_use]
    pub fn maxdist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        self.combine((0..D).map(|a| {
            let d1 = (r.hi()[a] - s.lo()[a]).abs();
            let d2 = (s.hi()[a] - r.lo()[a]).abs();
            d1.max(d2)
        }))
    }

    /// MINMAXDIST key between a point and a minimal bounding rectangle.
    ///
    /// The minimum over candidate axes commutes with the monotone map, so
    /// this is exactly `to_key(metric.minmaxdist_point_rect(..))` up to the
    /// deferred finish: `min_k sqrt(acc_k) = sqrt(min_k acc_k)`.
    #[must_use]
    pub fn minmaxdist_point_rect<const D: usize>(self, p: &Point<D>, r: &Rect<D>) -> f64 {
        if r.is_empty() {
            return f64::INFINITY;
        }
        let near = |a: usize| {
            let c = p.coord(a);
            if c <= 0.5 * (r.lo()[a] + r.hi()[a]) {
                (c - r.lo()[a]).abs()
            } else {
                (c - r.hi()[a]).abs()
            }
        };
        let far = |a: usize| {
            let c = p.coord(a);
            (c - r.lo()[a]).abs().max((c - r.hi()[a]).abs())
        };
        let mut best = f64::INFINITY;
        for k in 0..D {
            let acc = (0..D).fold(0.0, |acc, a| {
                self.metric
                    .accumulate(acc, if a == k { near(a) } else { far(a) })
            });
            best = best.min(self.finish_acc(acc));
        }
        best
    }

    /// MINMAXDIST key between two minimal bounding rectangles (the face-pair
    /// minimax of §2.2.3, in the key domain).
    #[must_use]
    pub fn minmaxdist_rect_rect<const D: usize>(self, r: &Rect<D>, s: &Rect<D>) -> f64 {
        if r.is_empty() || s.is_empty() {
            return f64::INFINITY;
        }
        if r.margin() == 0.0 {
            return self.minmaxdist_point_rect(&r.center(), s);
        }
        if s.margin() == 0.0 {
            return self.minmaxdist_point_rect(&s.center(), r);
        }
        let faces_r = r.faces();
        let faces_s = s.faces();
        let mut best = f64::INFINITY;
        for fr in &faces_r {
            let cr = fr.corners();
            for fs in &faces_s {
                let cs = fs.corners();
                let mut face_max: f64 = 0.0;
                for p in &cr {
                    for q in &cs {
                        face_max = face_max.max(self.distance(p, q));
                    }
                }
                best = best.min(face_max);
            }
        }
        best
    }
}

/// Distance along one axis between two intervals (zero if they overlap).
#[inline]
pub(crate) fn axis_gap(alo: f64, ahi: f64, blo: f64, bhi: f64) -> f64 {
    if ahi < blo {
        blo - ahi
    } else if bhi < alo {
        alo - bhi
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chessboard];

    #[test]
    fn point_distances() {
        let p = Point::xy(0.0, 0.0);
        let q = Point::xy(3.0, 4.0);
        assert!(approx_eq(Metric::Euclidean.distance(&p, &q), 5.0));
        assert!(approx_eq(Metric::Manhattan.distance(&p, &q), 7.0));
        assert!(approx_eq(Metric::Chessboard.distance(&p, &q), 4.0));
    }

    #[test]
    fn mindist_point_rect_inside_is_zero() {
        let r = Rect::new([0.0, 0.0], [10.0, 10.0]);
        let p = Point::xy(5.0, 5.0);
        for m in METRICS {
            assert_eq!(m.mindist_point_rect(&p, &r), 0.0);
        }
    }

    #[test]
    fn mindist_point_rect_outside() {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let p = Point::xy(4.0, 5.0);
        assert!(approx_eq(Metric::Euclidean.mindist_point_rect(&p, &r), 5.0));
        assert!(approx_eq(Metric::Manhattan.mindist_point_rect(&p, &r), 7.0));
        assert!(approx_eq(
            Metric::Chessboard.mindist_point_rect(&p, &r),
            4.0
        ));
    }

    #[test]
    fn mindist_rect_rect_overlapping_is_zero() {
        let a = Rect::new([0.0, 0.0], [2.0, 2.0]);
        let b = Rect::new([1.0, 1.0], [3.0, 3.0]);
        for m in METRICS {
            assert_eq!(m.mindist_rect_rect(&a, &b), 0.0);
        }
    }

    #[test]
    fn mindist_rect_rect_disjoint() {
        let a = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let b = Rect::new([4.0, 5.0], [6.0, 7.0]);
        assert!(approx_eq(Metric::Euclidean.mindist_rect_rect(&a, &b), 5.0));
        assert!(approx_eq(Metric::Manhattan.mindist_rect_rect(&a, &b), 7.0));
        assert!(approx_eq(Metric::Chessboard.mindist_rect_rect(&a, &b), 4.0));
    }

    #[test]
    fn maxdist_point_rect_is_far_corner() {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let p = Point::xy(-1.0, -1.0);
        assert!(approx_eq(
            Metric::Euclidean.maxdist_point_rect(&p, &r),
            8.0_f64.sqrt()
        ));
        assert!(approx_eq(Metric::Manhattan.maxdist_point_rect(&p, &r), 4.0));
        assert!(approx_eq(
            Metric::Chessboard.maxdist_point_rect(&p, &r),
            2.0
        ));
    }

    #[test]
    fn minmaxdist_point_rect_known_value() {
        // Unit square, query point at (-1, 0.5). Nearest face on x is x=0
        // (near dist 1); on y the farther coordinate is |0.5-0|=0.5 either
        // way. Candidates (Euclidean):
        //   k=x: near_x=1,   far_y=0.5 -> sqrt(1.25)
        //   k=y: near_y=0.5, far_x=2   -> sqrt(4.25)
        // min = sqrt(1.25).
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let p = Point::xy(-1.0, 0.5);
        assert!(approx_eq(
            Metric::Euclidean.minmaxdist_point_rect(&p, &r),
            1.25_f64.sqrt()
        ));
    }

    #[test]
    fn minmaxdist_degenerate_rect_equals_distance() {
        let q = Point::xy(3.0, 4.0);
        let r = q.to_rect();
        let p = Point::xy(0.0, 0.0);
        for m in METRICS {
            assert!(approx_eq(
                m.minmaxdist_point_rect(&p, &r),
                m.distance(&p, &q)
            ));
            assert!(approx_eq(
                m.minmaxdist_rect_rect(&p.to_rect(), &r),
                m.distance(&p, &q)
            ));
        }
    }

    #[test]
    fn empty_rect_distances_are_infinite() {
        let e = Rect::<2>::empty();
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let p = Point::xy(0.0, 0.0);
        for m in METRICS {
            assert_eq!(m.mindist_point_rect(&p, &e), f64::INFINITY);
            assert_eq!(m.mindist_rect_rect(&r, &e), f64::INFINITY);
            assert_eq!(m.maxdist_point_rect(&p, &e), f64::INFINITY);
            assert_eq!(m.maxdist_rect_rect(&e, &r), f64::INFINITY);
            assert_eq!(m.minmaxdist_point_rect(&p, &e), f64::INFINITY);
            assert_eq!(m.minmaxdist_rect_rect(&e, &r), f64::INFINITY);
        }
    }

    fn arb_point() -> impl Strategy<Value = Point<2>> {
        (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::xy(x, y))
    }

    fn arb_rect() -> impl Strategy<Value = Rect<2>> {
        (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(&a, &b))
    }

    fn arb_metric() -> impl Strategy<Value = Metric> {
        prop::sample::select(METRICS.to_vec())
    }

    proptest! {
        /// Triangle inequality for the point metric.
        #[test]
        fn triangle_inequality(m in arb_metric(), a in arb_point(), b in arb_point(), c in arb_point()) {
            let d_ac = m.distance(&a, &c);
            let d_ab = m.distance(&a, &b);
            let d_bc = m.distance(&b, &c);
            prop_assert!(d_ac <= d_ab + d_bc + 1e-9);
        }

        /// Symmetry and identity of the point metric.
        #[test]
        fn metric_axioms(m in arb_metric(), a in arb_point(), b in arb_point()) {
            prop_assert!(approx_eq(m.distance(&a, &b), m.distance(&b, &a)));
            prop_assert_eq!(m.distance(&a, &a), 0.0);
            prop_assert!(m.distance(&a, &b) >= 0.0);
        }

        /// MINDIST is a lower bound over contained points (consistency, §2.2).
        #[test]
        fn mindist_lower_bounds_contained_points(
            m in arb_metric(), r in arb_rect(), s in arb_rect(),
            t in 0.0..=1.0f64, u in 0.0..=1.0f64, v in 0.0..=1.0f64, w in 0.0..=1.0f64,
        ) {
            let p = Point::xy(
                r.lo()[0] + t * r.extent(0),
                r.lo()[1] + u * r.extent(1),
            );
            let q = Point::xy(
                s.lo()[0] + v * s.extent(0),
                s.lo()[1] + w * s.extent(1),
            );
            let d = m.distance(&p, &q);
            prop_assert!(m.mindist_rect_rect(&r, &s) <= d + 1e-9);
            prop_assert!(m.mindist_point_rect(&p, &s) <= d + 1e-9);
            prop_assert!(d <= m.maxdist_rect_rect(&r, &s) + 1e-9);
            prop_assert!(d <= m.maxdist_point_rect(&p, &s) + 1e-9);
        }

        /// The bound sandwich: MINDIST <= MINMAXDIST <= MAXDIST.
        #[test]
        fn bound_sandwich(m in arb_metric(), p in arb_point(), r in arb_rect(), s in arb_rect()) {
            let lo = m.mindist_point_rect(&p, &r);
            let mid = m.minmaxdist_point_rect(&p, &r);
            let hi = m.maxdist_point_rect(&p, &r);
            prop_assert!(lo <= mid + 1e-9, "point/rect: {lo} > {mid}");
            prop_assert!(mid <= hi + 1e-9, "point/rect: {mid} > {hi}");

            let lo = m.mindist_rect_rect(&r, &s);
            let mid = m.minmaxdist_rect_rect(&r, &s);
            let hi = m.maxdist_rect_rect(&r, &s);
            prop_assert!(lo <= mid + 1e-9, "rect/rect: {lo} > {mid}");
            prop_assert!(mid <= hi + 1e-9, "rect/rect: {mid} > {hi}");
        }

        /// Shrinking one rectangle (a child region) never decreases MINDIST —
        /// the monotonicity the priority queue relies on.
        #[test]
        fn mindist_monotone_under_shrinking(
            m in arb_metric(), r in arb_rect(), s in arb_rect(),
            t in 0.0..=1.0f64, u in 0.0..=1.0f64,
        ) {
            // Build a sub-rectangle of r.
            let lo = [
                (0.5 * t).mul_add(r.extent(0), r.lo()[0]),
                (0.5 * u).mul_add(r.extent(1), r.lo()[1]),
            ];
            let hi = [
                (-0.25 * t).mul_add(r.extent(0), r.hi()[0]),
                (-0.25 * u).mul_add(r.extent(1), r.hi()[1]),
            ];
            let sub = Rect::new(lo, hi);
            prop_assert!(r.contains_rect(&sub));
            prop_assert!(m.mindist_rect_rect(&sub, &s) + 1e-9 >= m.mindist_rect_rect(&r, &s));
            prop_assert!(m.maxdist_rect_rect(&sub, &s) <= m.maxdist_rect_rect(&r, &s) + 1e-9);
        }

        /// MAXDIST point/rect equals the max over corner distances.
        #[test]
        fn maxdist_point_rect_matches_corners(m in arb_metric(), p in arb_point(), r in arb_rect()) {
            let corner_max = r
                .corners()
                .iter()
                .map(|c| m.distance(&p, c))
                .fold(0.0f64, f64::max);
            prop_assert!(approx_eq(m.maxdist_point_rect(&p, &r), corner_max));
        }

        /// MINMAXDIST rect/rect is symmetric (the face-pair formula is), and
        /// the degenerate fast path agrees with the point/rect form.
        #[test]
        fn minmaxdist_rect_rect_symmetric(m in arb_metric(), p in arb_point(), r in arb_rect(), s in arb_rect()) {
            prop_assert!(approx_eq(
                m.minmaxdist_rect_rect(&r, &s),
                m.minmaxdist_rect_rect(&s, &r)
            ));
            // Degenerate first argument hits the fast path; the swapped call
            // exercises the degenerate-second-argument path.
            let pr = p.to_rect();
            let a = m.minmaxdist_rect_rect(&pr, &r);
            let b = m.minmaxdist_rect_rect(&r, &pr);
            prop_assert!(approx_eq(a, m.minmaxdist_point_rect(&p, &r)));
            prop_assert!(approx_eq(a, b));
        }

        /// Key-domain bounds reproduce the scalar bounds bit for bit after
        /// the deferred finish, in both the squared and the plain domain.
        #[test]
        fn key_space_matches_scalar_bounds(m in arb_metric(), p in arb_point(), r in arb_rect(), s in arb_rect()) {
            for ks in [KeySpace::squared(m), KeySpace::plain(m)] {
                prop_assert_eq!(ks.to_distance(ks.distance(&p, &s.center())), m.distance(&p, &s.center()));
                prop_assert_eq!(ks.to_distance(ks.mindist_point_rect(&p, &r)), m.mindist_point_rect(&p, &r));
                prop_assert_eq!(ks.to_distance(ks.mindist_rect_rect(&r, &s)), m.mindist_rect_rect(&r, &s));
                prop_assert_eq!(ks.to_distance(ks.maxdist_point_rect(&p, &r)), m.maxdist_point_rect(&p, &r));
                prop_assert_eq!(ks.to_distance(ks.maxdist_rect_rect(&r, &s)), m.maxdist_rect_rect(&r, &s));
                prop_assert_eq!(
                    ks.to_distance(ks.minmaxdist_point_rect(&p, &r)),
                    m.minmaxdist_point_rect(&p, &r)
                );
                prop_assert_eq!(
                    ks.to_distance(ks.minmaxdist_rect_rect(&r, &s)),
                    m.minmaxdist_rect_rect(&r, &s)
                );
            }
        }

        /// The key map is monotone: ordering of keys equals ordering of
        /// distances, so queues keyed in either domain pop identically.
        #[test]
        fn key_space_preserves_ordering(m in arb_metric(), r in arb_rect(), s in arb_rect(), t in arb_rect()) {
            let ks = KeySpace::squared(m);
            let (d1, d2) = (m.mindist_rect_rect(&r, &s), m.mindist_rect_rect(&r, &t));
            let (k1, k2) = (ks.mindist_rect_rect(&r, &s), ks.mindist_rect_rect(&r, &t));
            // Strict distance order forces strict key order; key order can
            // only collapse to equality after the rounding of the final sqrt.
            // (All values are finite and non-negative, so >= is the clean
            // negation of <.)
            prop_assert!(d1 >= d2 || k1 < k2);
            prop_assert!(k1 >= k2 || d1 <= d2);
        }

        /// `axis_gap_exceeds(g, key)` agrees with comparing the gap against
        /// the distance the key encodes.
        #[test]
        fn axis_gap_exceeds_matches_distance_compare(
            m in arb_metric(), gap in 0.0..50.0f64, d in 0.0..50.0f64,
        ) {
            let ks = KeySpace::squared(m);
            prop_assert_eq!(ks.axis_gap_exceeds(gap, ks.to_key(d)), gap > d);
        }

        /// MINMAXDIST point/rect agrees with a brute-force evaluation of the
        /// face formula.
        #[test]
        fn minmaxdist_point_rect_matches_bruteforce(m in arb_metric(), p in arb_point(), r in arb_rect()) {
            let brute = r
                .faces()
                .iter()
                .map(|f| {
                    f.corners()
                        .iter()
                        .map(|c| m.distance(&p, c))
                        .fold(0.0f64, f64::max)
                })
                .fold(f64::INFINITY, f64::min);
            prop_assert!(approx_eq(m.minmaxdist_point_rect(&p, &r), brute));
        }
    }
}
