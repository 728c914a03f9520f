//! Ending a parallel run early: a semi-join's merged stream ends once every
//! first object is answered, and a consumer that returns early stops every
//! worker at its next pop instead of letting it run its shard dry — also a
//! worker that never sends, which channel disconnection alone cannot reach.

use sdj_core::{DistanceJoin, JoinConfig, SemiConfig};
use sdj_exec::{ParallelConfig, ParallelDistanceJoin};
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};

fn uniform_tree(n: usize, seed: u64) -> RTree<2> {
    let items = sdj_datagen::uniform_points(n, &sdj_datagen::unit_box(), seed)
        .iter()
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    RTree::bulk_load(RTreeConfig::small(16), items)
}

/// Exact comparison key: uniform data has no distance ties, so the parallel
/// stream must equal the serial one element by element.
fn key(r: &sdj_core::ResultPair) -> (u64, u64, u64) {
    (r.distance.to_bits(), r.oid1.0, r.oid2.0)
}

#[test]
fn parallel_semi_join_equals_the_serial_stream() {
    let t1 = uniform_tree(3_000, 81);
    let t2 = uniform_tree(4_000, 82);
    let semi = SemiConfig::default();
    let serial: Vec<_> = DistanceJoin::semi(&t1, &t2, JoinConfig::default(), semi)
        .map(|r| key(&r))
        .collect();
    assert_eq!(serial.len(), t1.len());
    for threads in [2, 4] {
        let run = ParallelDistanceJoin::semi(
            &t1,
            &t2,
            JoinConfig::default(),
            semi,
            ParallelConfig::with_threads(threads),
        )
        .collect();
        assert_eq!(run.error, None);
        assert!(
            run.workers_spawned > 1,
            "threads={threads}: the run must shard"
        );
        assert_eq!(
            run.value.iter().map(key).collect::<Vec<_>>(),
            serial,
            "threads={threads}"
        );
    }
}

/// Channels deep enough that no worker ever blocks on a send, so only the
/// close signal can stop a worker before its shard runs dry. The first
/// result costs every intersecting node pair (their MINDIST is 0); after
/// it, the four workers must stop rather than finish the range join.
#[test]
fn an_early_return_stops_every_worker() {
    let t1 = uniform_tree(20_000, 91);
    let t2 = uniform_tree(20_000, 92);
    let config = JoinConfig::default().with_range(0.0, 0.01);
    let parallel = ParallelConfig {
        threads: 4,
        frontier_factor: 64,
        channel_capacity: 1 << 18,
    };
    let full = ParallelDistanceJoin::new(&t1, &t2, config, parallel).collect();
    assert_eq!(full.error, None);
    assert!(full.value.len() > 100_000);
    let first = ParallelDistanceJoin::new(&t1, &t2, config, parallel).run(|s| s.take(1).count());
    assert_eq!(first.error, None);
    assert_eq!(first.value, 1);
    assert_eq!(first.workers_spawned, 4);
    assert!(
        first.stats.pairs_dequeued * 4 < full.stats.pairs_dequeued,
        "take(1) popped {} pairs, a full collect {}",
        first.stats.pairs_dequeued,
        full.stats.pairs_dequeued
    );
}

/// A join with plenty of candidate pairs and no result: grid points have
/// integer squared distances, and none lies in `[2.2, 2.8]`. Every worker
/// is result-free for its whole shard, never sends, and so never sees its
/// channel close; only the close signal stops it once the consumer leaves.
#[test]
fn an_unread_stream_stops_result_free_workers() {
    let items = (0..120)
        .flat_map(|x| (0..120).map(move |y| Point::xy(f64::from(x), f64::from(y))))
        .enumerate()
        .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
        .collect();
    let grid = RTree::bulk_load(RTreeConfig::small(16), items);
    let config = JoinConfig::default().with_range(2.2f64.sqrt(), 2.8f64.sqrt());
    let parallel = ParallelConfig::with_threads(4);
    let full = ParallelDistanceJoin::new(&grid, &grid, config, parallel).collect();
    assert_eq!(full.error, None);
    assert!(full.value.is_empty());
    let unread = ParallelDistanceJoin::new(&grid, &grid, config, parallel).run(|_| ());
    assert_eq!(unread.error, None);
    assert_eq!(unread.workers_spawned, 4);
    assert!(
        unread.stats.pairs_dequeued * 4 < full.stats.pairs_dequeued,
        "an unread stream popped {} pairs, a full drain {}",
        unread.stats.pairs_dequeued,
        full.stats.pairs_dequeued
    );
}
