//! Inputs, set-up and the pieces every workload shares: seed derivation,
//! tree building, the per-instance set-ups behind `setup_s`, the serial cursor
//! loop and the counters read off the library's public stats structs.

use std::time::Instant;

use sdj_core::{DistanceJoin, JoinStats, ResultPair};
use sdj_datagen::tiger;
use sdj_geom::Point;
use sdj_rtree::{ObjectId, RTree, RTreeConfig};
use sdj_storage::PoolStats;

use crate::report::{median, Metrics, QueryTime};
use crate::trace::Trace;

/// Results per pull: cursors are drained in batches of this size, and the
/// service is asked for batches of this size.
pub const BATCH: usize = 256;
/// Buffer frames per tree in the paper's setup (§3.1).
pub const PAPER_FRAMES: usize = 128;

/// A generator seed for input stream `stream`, derived from the workload
/// seed (splitmix64), so no two generators share a seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Time spent in each set-up phase of one repetition.
#[derive(Default)]
pub struct Phases {
    pub datagen_ms: f64,
    pub load_ms: f64,
}

impl Phases {
    /// Runs a generator under a `datagen` span, charging its time.
    pub fn datagen<T>(&mut self, tr: &mut Trace, f: impl FnOnce() -> T) -> T {
        let span = tr.begin("datagen", 0);
        let t = Instant::now();
        let out = f();
        self.datagen_ms += ms_since(t);
        tr.end(span);
        out
    }

    /// STR-loads a tree with fan-out 50 and `frames` buffer frames under an
    /// `rtree.bulk_load` span, charging its time.
    pub fn load(&mut self, tr: &mut Trace, points: &[Point<2>], frames: usize) -> RTree<2> {
        let items: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (ObjectId(i as u64), p.to_rect()))
            .collect();
        let config = RTreeConfig {
            buffer_frames: frames,
            ..RTreeConfig::default()
        };
        let span = tr.begin("rtree.bulk_load", 0);
        let t = Instant::now();
        let tree = RTree::bulk_load(config, items);
        self.load_ms += ms_since(t);
        tr.end(span);
        tree
    }
}

/// Timings of every set-up a run performed. Each timed cycle, pass or
/// drain runs on a fresh input instance, set up just before it and dropped
/// after it, so a run holds one instance at a time.
#[derive(Default)]
pub struct Setups {
    total_s: Vec<f64>,
    datagen_ms: Vec<f64>,
    load_ms: Vec<f64>,
}

impl Setups {
    /// Sets up one instance under a `setup` span, recording its timings.
    pub fn build<T>(&mut self, tr: &mut Trace, f: impl FnOnce(&mut Trace, &mut Phases) -> T) -> T {
        let mut phases = Phases::default();
        let span = tr.begin("setup", 0);
        let t = Instant::now();
        let value = f(tr, &mut phases);
        self.total_s.push(t.elapsed().as_secs_f64());
        tr.end(span);
        self.datagen_ms.push(phases.datagen_ms);
        self.load_ms.push(phases.load_ms);
        value
    }

    /// Median set-up time (`setup_s`).
    pub fn setup_s(&self) -> f64 {
        median(&self.total_s)
    }

    /// Median `datagen.ms` and `rtree.bulk_load_ms`.
    pub fn write(&self, m: &mut Metrics) {
        m.set("datagen.ms", median(&self.datagen_ms), "ms");
        m.set("rtree.bulk_load_ms", median(&self.load_ms), "ms");
    }
}

/// Water-like × Roads-like trees over one coordinate frame.
pub struct TigerTrees {
    pub water: RTree<2>,
    pub roads: RTree<2>,
    pub water_pts: Vec<Point<2>>,
}

/// Generates the two tiger point sets of input instance `instance` (seeds
/// derived from the workload `seed`), drops their corner piles, and loads
/// their trees with [`PAPER_FRAMES`] frames each.
pub fn tiger_trees(
    seed: u64,
    instance: usize,
    n_water: usize,
    n_roads: usize,
    tr: &mut Trace,
    ph: &mut Phases,
) -> TigerTrees {
    let base = 2 * instance as u64;
    let water_pts = ph.datagen(tr, || {
        off_corners(tiger::water_like(n_water, derive(seed, base + 1)))
    });
    let roads_pts = ph.datagen(tr, || {
        off_corners(tiger::roads_like(n_roads, derive(seed, base + 2)))
    });
    let water = ph.load(tr, &water_pts, PAPER_FRAMES);
    let roads = ph.load(tr, &roads_pts, PAPER_FRAMES);
    TigerTrees {
        water,
        roads,
        water_pts,
    }
}

/// Drops points on the corners of the unit box. The tiger generators clamp
/// polylines that leave the box, which piles up to ~100 identical points on
/// a corner; when both relations have a pile on one corner, the join's first
/// pairs are at distance 0 and arrive after a few thousand bounds instead of
/// ~2M. That happens on about half of all seeds and makes every time to a
/// first result bimodal. Dropping the piles removes under 0.1% of points.
fn off_corners(points: Vec<Point<2>>) -> Vec<Point<2>> {
    let edge = |v: f64| v == 0.0 || v == 1.0;
    points
        .into_iter()
        .filter(|p| !(edge(p.x()) && edge(p.y())))
        .collect()
}

/// One serial cursor drained by [`drive`].
pub struct CursorRun {
    pub time: QueryTime,
    pub results: Vec<ResultPair>,
    pub stats: JoinStats,
    /// Queue pops when the last result was produced (tracked on request).
    pub pops_at_last: u64,
    pub error: Option<String>,
}

/// What [`drive`] should keep besides timings.
#[derive(Clone, Copy)]
pub struct Keep {
    pub results: bool,
    pub tail: bool,
}

/// Pulls up to `limit` results from `join` in batches of [`BATCH`], each
/// batch under a `core.join.pull` span. Times are taken from `opened`.
pub fn drive(
    join: &mut DistanceJoin<'_, 2>,
    class: &str,
    limit: u64,
    opened: Instant,
    keep: Keep,
    tr: &mut Trace,
    q: u64,
) -> CursorRun {
    let mut results = Vec::new();
    let (mut pairs, mut pops_at_last) = (0u64, 0u64);
    let (mut first, mut last) = (None, opened);
    let mut done = false;
    while pairs < limit && !done {
        let span = tr.begin("core.join.pull", q);
        let n = (limit - pairs).min(BATCH as u64);
        for _ in 0..n {
            match join.next() {
                Some(r) => {
                    last = Instant::now();
                    first.get_or_insert(last);
                    pairs += 1;
                    if keep.results {
                        results.push(r);
                    }
                    if keep.tail {
                        pops_at_last = join.stats().pairs_dequeued;
                    }
                }
                None => {
                    done = true;
                    break;
                }
            }
        }
        tr.end(span);
    }
    let end_ms = ms_since(opened);
    let error = join.take_error().map(|e| e.to_string());
    let since = |t: Instant| t.duration_since(opened).as_secs_f64() * 1e3;
    CursorRun {
        time: QueryTime {
            class: class.to_string(),
            first_ms: first.map_or(end_ms, since),
            last_ms: since(last),
            end_ms,
            pairs,
        },
        results,
        stats: join.stats(),
        pops_at_last,
        error,
    }
}

/// Work counters summed over the queries of a counted pass, read from
/// [`JoinStats`] at the benchmark's call boundaries.
#[derive(Default)]
pub struct Counts {
    pub distance_calcs: u64,
    pub object_distance_calcs: u64,
    pub node_accesses: u64,
    pub pushes: u64,
    pub pops: u64,
    pub reported: u64,
    pub max_len: u64,
    pub peak_bytes: u64,
    pub pruned: u64,
    pub filtered_seen: u64,
}

impl Counts {
    pub fn absorb(&mut self, s: &JoinStats) {
        self.distance_calcs += s.distance_calcs;
        self.object_distance_calcs += s.object_distance_calcs;
        self.node_accesses += s.node_accesses;
        self.pushes += s.pairs_enqueued;
        self.pops += s.pairs_dequeued;
        self.reported += s.pairs_reported;
        self.max_len = self.max_len.max(s.max_queue as u64);
        self.peak_bytes = self.peak_bytes.max(s.queue_bytes_peak as u64);
        self.pruned += s.total_pruned() - s.filtered_seen - s.filtered_self;
        self.filtered_seen += s.filtered_seen;
    }

    /// Writes the geom, rtree, pqueue and core.join counters.
    pub fn write(&self, m: &mut Metrics) {
        m.set("geom.distance_calcs", self.distance_calcs as f64, "count");
        m.set(
            "geom.object_distance_calcs",
            self.object_distance_calcs as f64,
            "count",
        );
        m.set("rtree.node_accesses", self.node_accesses as f64, "count");
        m.set("pqueue.pushes", self.pushes as f64, "count");
        m.set("pqueue.pops", self.pops as f64, "count");
        m.set("pqueue.max_len", self.max_len as f64, "count");
        m.set("pqueue.peak_bytes", self.peak_bytes as f64, "bytes");
        let per_pair = if self.max_len == 0 {
            0.0
        } else {
            self.peak_bytes as f64 / self.max_len as f64
        };
        m.set("pqueue.bytes_per_pair", per_pair, "B/pair");
        let pops_per_result = if self.reported == 0 {
            0.0
        } else {
            self.pops as f64 / self.reported as f64
        };
        m.set("core.join.pops_per_result", pops_per_result, "ratio");
        m.set("core.join.pruned", self.pruned as f64, "count");
        m.set(
            "core.semi.filtered_seen",
            self.filtered_seen as f64,
            "count",
        );
    }
}

/// Buffer-pool and pager counters of a set of trees at one instant.
#[derive(Clone, Copy, Default)]
pub struct Io {
    pub pool: PoolStats,
    pub reads: u64,
    pub writes: u64,
}

impl Io {
    pub fn of(trees: &[&RTree<2>]) -> Self {
        let mut io = Io::default();
        for t in trees {
            io.pool.absorb(&t.pool_stats());
            let d = t.disk_stats();
            io.reads += d.reads;
            io.writes += d.writes;
        }
        io
    }

    /// Counters accrued since `base`.
    pub fn since(&self, base: &Io) -> Io {
        Io {
            pool: self.pool.since(&base.pool),
            reads: self.reads - base.reads,
            writes: self.writes - base.writes,
        }
    }

    /// Writes the storage counters (`extra_writes`: pages written by other
    /// pagers, such as a hybrid queue's spill area).
    pub fn write(&self, m: &mut Metrics, extra_writes: u64) {
        let p = &self.pool;
        m.set("storage.hits", p.hits as f64, "count");
        m.set("storage.misses", p.misses as f64, "count");
        let accesses = p.hits + p.misses;
        let ratio = if accesses == 0 {
            0.0
        } else {
            p.hits as f64 / accesses as f64
        };
        m.set("storage.hit_ratio", ratio, "ratio");
        m.set("storage.evictions", p.evictions as f64, "count");
        m.set("storage.pager_reads", self.reads as f64, "count");
        m.set(
            "storage.pager_writes",
            (self.writes + extra_writes) as f64,
            "count",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }
}
