//! Semi-join completion: a distance semi-join answers each object of the
//! first relation at most once, so once every one of them is answered the
//! stream is complete and the engine must stop without draining the rest of
//! its queue.
//!
//! The proptest runs every `SemiFilter` × `DmaxStrategy`, both result
//! orders, self semi-joins with `exclude_equal_ids`, spatial windows and
//! `[Dmin, Dmax]` restrictions over small grid-snapped point sets (so
//! duplicate locations and distance ties are common), and checks each
//! stream against a brute-force nearest-partner oracle. Whenever every
//! outer object is answered, `pairs_dequeued` must not grow after the
//! |R1|-th result.
//!
//! Grid coordinates are integers, so squared distances are exact integers;
//! windows and range bounds sit on half-integers, so no object or distance
//! lies on a boundary and the oracle can decide membership exactly.

use proptest::prelude::*;
use sdj_core::{DistanceJoin, DmaxStrategy, JoinConfig, ResultOrder, SemiConfig, SemiFilter};
use sdj_geom::{Point, Rect};
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

const GRID: u32 = 8;

/// An inclusive integer window `[x0, x1] × [y0, y1]`.
type Window = (u32, u32, u32, u32);

#[derive(Clone, Debug)]
struct Case {
    a: Vec<(u32, u32)>,
    b: Vec<(u32, u32)>,
    fanout: usize,
    /// Self semi-join of `a` with `exclude_equal_ids` (`b` is unused).
    self_join: bool,
    descending: bool,
    filter: SemiFilter,
    dmax: DmaxStrategy,
    window1: Option<Window>,
    window2: Option<Window>,
    /// Squared-distance range `[lo, lo + width]`.
    range: Option<(u32, u32)>,
}

fn arb_points() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..GRID, 0..GRID), 1..40)
}

fn arb_window() -> impl Strategy<Value = Option<Window>> {
    prop::option::of(
        (0..GRID, 0..GRID, 0..GRID, 0..GRID)
            .prop_map(|(x0, x1, y0, y1)| (x0.min(x1), x0.max(x1), y0.min(y1), y0.max(y1))),
    )
}

fn arb_case() -> impl Strategy<Value = Case> {
    let filter = prop::sample::select(vec![
        SemiFilter::Outside,
        SemiFilter::Inside1,
        SemiFilter::Inside2,
    ]);
    let dmax = prop::sample::select(vec![
        DmaxStrategy::None,
        DmaxStrategy::Local,
        DmaxStrategy::GlobalNodes,
        DmaxStrategy::GlobalAll,
    ]);
    (
        (arb_points(), arb_points(), 3usize..7, any::<bool>()),
        (any::<bool>(), filter, dmax),
        (
            arb_window(),
            arb_window(),
            prop::option::of((0u32..20, 0u32..60)),
        ),
    )
        .prop_map(
            |((a, b, fanout, self_join), (descending, filter, dmax), (window1, window2, range))| {
                Case {
                    a,
                    b,
                    fanout,
                    self_join,
                    descending,
                    filter,
                    dmax,
                    window1,
                    window2,
                    range,
                }
            },
        )
}

fn point((x, y): (u32, u32)) -> Point<2> {
    Point::xy(f64::from(x), f64::from(y))
}

fn tree(points: &[(u32, u32)], fanout: usize) -> RTree<2> {
    let mut t = RTree::new(RTreeConfig::small(fanout));
    for (i, &p) in points.iter().enumerate() {
        t.insert(ObjectId(i as u64), point(p).to_rect()).unwrap();
    }
    t
}

fn window_rect((x0, x1, y0, y1): Window) -> Rect<2> {
    Rect::new(
        [f64::from(x0) - 0.5, f64::from(y0) - 0.5],
        [f64::from(x1) + 0.5, f64::from(y1) + 0.5],
    )
}

fn in_window(w: Option<Window>, (x, y): (u32, u32)) -> bool {
    w.is_none_or(|(x0, x1, y0, y1)| (x0..=x1).contains(&x) && (y0..=y1).contains(&y))
}

fn squared((x1, y1): (u32, u32), (x2, y2): (u32, u32)) -> u32 {
    x1.abs_diff(x2).pow(2) + y1.abs_diff(y2).pow(2)
}

/// Brute force: every outer object with at least one qualifying partner,
/// mapped to its nearest (ascending) or farthest (descending) partner's
/// distance, sorted by object id.
fn oracle(case: &Case, descending: bool) -> Vec<(u64, f64)> {
    let inner = if case.self_join { &case.a } else { &case.b };
    let mut out = Vec::new();
    for (i, &p) in case.a.iter().enumerate() {
        if !in_window(case.window1, p) {
            continue;
        }
        let candidates = inner
            .iter()
            .enumerate()
            .filter(|&(j, &q)| !(case.self_join && i == j) && in_window(case.window2, q))
            .map(|(_, &q)| squared(p, q))
            .filter(|&s| case.range.is_none_or(|(lo, w)| s >= lo && s <= lo + w));
        let best = if descending {
            candidates.max()
        } else {
            candidates.min()
        };
        if let Some(s) = best {
            out.push((i as u64, f64::from(s).sqrt()));
        }
    }
    out
}

fn run_case(case: &Case) -> Result<(), TestCaseError> {
    // The d_max strategies bound nearest partners and need ascending order.
    let descending = case.descending && matches!(case.dmax, DmaxStrategy::None);
    let mut config = JoinConfig {
        exclude_equal_ids: case.self_join,
        ..JoinConfig::default()
    };
    if descending {
        config.order = ResultOrder::Descending;
    }
    if let Some((lo, w)) = case.range {
        let min = if lo == 0 {
            0.0
        } else {
            (f64::from(lo) - 0.5).sqrt()
        };
        config = config.with_range(min, (f64::from(lo + w) + 0.5).sqrt());
    }
    let semi = SemiConfig {
        filter: case.filter,
        dmax: case.dmax,
    };

    let t1 = tree(&case.a, case.fanout);
    let t2 = tree(&case.b, case.fanout);
    let inner = if case.self_join { &t1 } else { &t2 };
    let mut join = DistanceJoin::semi(&t1, inner, config, semi);
    if case.window1.is_some() || case.window2.is_some() {
        join = join.with_windows(case.window1.map(window_rect), case.window2.map(window_rect));
    }

    let mut got = Vec::new();
    let mut dequeued_at_last = 0;
    while let Some(r) = join.next() {
        got.push(r);
        dequeued_at_last = join.stats().pairs_dequeued;
    }
    prop_assert!(join.take_error().is_none());

    for w in got.windows(2) {
        if descending {
            prop_assert!(w[0].distance >= w[1].distance, "stream must descend");
        } else {
            prop_assert!(w[0].distance <= w[1].distance, "stream must ascend");
        }
    }
    let mut by_object: Vec<(u64, f64)> = got.iter().map(|r| (r.oid1.0, r.distance)).collect();
    by_object.sort_by_key(|&(o, _)| o);
    let want = oracle(case, descending);
    prop_assert_eq!(
        by_object.len(),
        want.len(),
        "one result per answerable object"
    );
    for ((go, gd), (wo, wd)) in by_object.iter().zip(&want) {
        prop_assert_eq!(go, wo);
        prop_assert!((gd - wd).abs() < 1e-9, "object {}: {} vs {}", go, gd, wd);
    }

    if got.len() == t1.len() {
        prop_assert_eq!(
            join.stats().pairs_dequeued,
            dequeued_at_last,
            "the engine kept popping after every outer object was answered"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn semi_join_matches_oracle_and_stops_when_complete(case in arb_case()) {
        run_case(&case)?;
    }
}

/// On fixed uniform data every strategy answers every outer object, and the
/// engine stops at the |R1|-th result with its queue not yet empty: the
/// tail it skips is real work, not an already-drained queue.
#[test]
fn completion_stops_with_work_left_in_the_queue() {
    let unit = sdj_datagen::unit_box();
    let build = |points: &[Point<2>]| {
        let mut t = RTree::new(RTreeConfig::small(8));
        for (i, p) in points.iter().enumerate() {
            t.insert(ObjectId(i as u64), p.to_rect()).unwrap();
        }
        t
    };
    let t1 = build(&sdj_datagen::uniform_points(300, &unit, 5));
    let t2 = build(&sdj_datagen::uniform_points(400, &unit, 6));
    for filter in [
        SemiFilter::Outside,
        SemiFilter::Inside1,
        SemiFilter::Inside2,
    ] {
        for dmax in [
            DmaxStrategy::None,
            DmaxStrategy::Local,
            DmaxStrategy::GlobalNodes,
            DmaxStrategy::GlobalAll,
        ] {
            let semi = SemiConfig { filter, dmax };
            let mut join = DistanceJoin::semi(&t1, &t2, JoinConfig::default(), semi);
            let answered = join.by_ref().take(t1.len()).count();
            assert_eq!(answered, t1.len(), "{semi:?}");
            assert!(join.is_done(), "{semi:?}: done at the last outer object");
            assert!(
                join.queue_len() > 0,
                "{semi:?}: stopped before the queue ran dry"
            );
            let dequeued = join.stats().pairs_dequeued;
            assert_eq!(join.next(), None);
            assert_eq!(join.stats().pairs_dequeued, dequeued, "{semi:?}");
        }
    }
}
