//! Sqrt accounting of the squared key domain: Euclidean queue keys and
//! bounds are squared distances, so the engine pays exactly one `sqrt` per
//! reported result, on any configuration, with and without a
//! `[Dmin, Dmax]` restriction.

use proptest::prelude::*;
use sdj_core::{
    DistanceJoin, DmaxStrategy, JoinConfig, JoinStats, ResultOrder, SemiConfig, SemiFilter,
    TraversalPolicy,
};
use sdj_geom::{Metric, Point};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn tree(points: &[Point<2>], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
    }
    t
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0..10.0f64, 0.0..10.0f64), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::xy(x, y)).collect())
}

#[derive(Clone, Debug)]
struct Case {
    a: Vec<Point<2>>,
    b: Vec<Point<2>>,
    fanout: usize,
    traversal: TraversalPolicy,
    metric: Metric,
    range: Option<(f64, f64)>,
    max_pairs: Option<u64>,
    descending: bool,
    semi: Option<(SemiFilter, DmaxStrategy)>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let traversal = prop::sample::select(vec![
        TraversalPolicy::Basic,
        TraversalPolicy::Even,
        TraversalPolicy::Simultaneous,
    ]);
    let metric = prop::sample::select(vec![
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chessboard,
    ]);
    let semi = prop::option::of((
        prop::sample::select(vec![
            SemiFilter::Outside,
            SemiFilter::Inside1,
            SemiFilter::Inside2,
        ]),
        prop::sample::select(vec![
            DmaxStrategy::None,
            DmaxStrategy::Local,
            DmaxStrategy::GlobalNodes,
            DmaxStrategy::GlobalAll,
        ]),
    ));
    (
        arb_points(40),
        arb_points(50),
        3usize..7,
        traversal,
        metric,
        prop::option::of((0.0..4.0f64, 0.0..10.0f64)),
        prop::option::of(1u64..60),
        any::<bool>(),
        semi,
    )
        .prop_map(
            |(a, b, fanout, traversal, metric, range, max_pairs, descending, semi)| Case {
                a,
                b,
                fanout,
                traversal,
                metric,
                range: range.map(|(lo, w)| (lo, lo + w)),
                max_pairs,
                descending,
                semi,
            },
        )
}

/// The full result stream of one configuration, with distances as raw bits,
/// plus the run's final stats.
fn stream(case: &Case) -> (Vec<(u64, u64, u64)>, JoinStats) {
    let mut config = JoinConfig {
        traversal: case.traversal,
        metric: case.metric,
        ..JoinConfig::default()
    };
    if let Some((lo, hi)) = case.range {
        config = config.with_range(lo, hi);
    }
    if let Some(k) = case.max_pairs {
        config.max_pairs = Some(k);
    }
    let descending_ok = case
        .semi
        .is_none_or(|(_, dmax)| matches!(dmax, DmaxStrategy::None));
    if case.descending && descending_ok {
        config.order = ResultOrder::Descending;
    }
    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    match case.semi {
        None => {
            let mut join = DistanceJoin::new(&t1, &t2, config);
            let out = join
                .by_ref()
                .map(|r| (r.oid1.0, r.oid2.0, r.distance.to_bits()))
                .collect();
            assert!(join.take_error().is_none());
            (out, join.stats())
        }
        Some((filter, dmax)) => {
            let semi = SemiConfig { filter, dmax };
            let mut join = DistanceJoin::semi(&t1, &t2, config, semi);
            let out = join
                .by_ref()
                .map(|r| (r.oid1.0, r.oid2.0, r.distance.to_bits()))
                .collect();
            assert!(join.take_error().is_none());
            (out, join.stats())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under squared Euclidean keys, `sqrt` is paid exactly once per
    /// reported result; the L1/L∞ metrics (whose key domain is the
    /// identity) never pay one.
    #[test]
    fn sqrt_calls_equal_reported_results(case in arb_case()) {
        let (results, stats) = stream(&case);
        if matches!(case.metric, Metric::Euclidean) {
            prop_assert_eq!(stats.sqrt_calls, results.len() as u64);
            prop_assert_eq!(stats.sqrt_calls, stats.pairs_reported);
        } else {
            prop_assert_eq!(stats.sqrt_calls, 0);
        }
    }
}
