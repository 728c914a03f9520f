//! Buffer-pool I/O report for the sharded pool.
//!
//! Joins two uniform 100k-point sets, consuming the K = 100,000 closest
//! pairs through the serial engine under each shard count, and writes the
//! measurements to `BENCH_io.json` in the current directory.
//!
//! The `1 shard, LRU` sample is the historical single-mutex pool: its
//! demand-miss count is the paper's node-I/O measure and is byte-identical
//! to the pre-sharding implementation (the storage test suite pins this).
//! Every shard count emits the identical result stream — the exec
//! equivalence suites pin that too — so the numbers isolate the I/O
//! behaviour, not the answer.
//!
//! The report states counters (demand misses, pager-lock acquisitions
//! avoided) next to single-shot wall clock, not parallel speedups. The
//! lock-avoidance counter is the number of page accesses served without
//! touching the shared pager mutex — the contention the sharded pool
//! removes when several cores read at once.

use std::time::Instant;

use sdj_bench::build_tree;
use sdj_core::{DistanceJoin, JoinConfig};
use sdj_datagen::{uniform_points, unit_box};
use sdj_geom::Point;
use sdj_rtree::RTree;
use sdj_storage::PoolStats;

struct Sample {
    label: String,
    shards: usize,
    seconds: f64,
    pairs: u64,
    stats: PoolStats,
    shard_misses: Vec<u64>,
}

fn measure(t1: &mut RTree<2>, t2: &mut RTree<2>, frames: usize, shards: usize, k: u64) -> Sample {
    // Fresh cold pool per run: every sample pays the same cold start, and
    // the shard setting applies from the first fault.
    t1.rebuild_buffer(frames, shards).expect("rebuild buffer");
    t2.rebuild_buffer(frames, shards).expect("rebuild buffer");
    let config = JoinConfig::default().with_max_pairs(k);
    let start = Instant::now();
    let pairs = DistanceJoin::new(&*t1, &*t2, config).count() as u64;
    let seconds = start.elapsed().as_secs_f64();
    let mut stats = t1.io_stats();
    stats.absorb(&t2.io_stats());
    let mut shard_misses: Vec<u64> = t1.shard_io_stats().iter().map(|s| s.misses).collect();
    for (m, s) in shard_misses.iter_mut().zip(t2.shard_io_stats()) {
        *m += s.misses;
    }
    let policy = if shards <= 1 { "LRU" } else { "CLOCK" };
    Sample {
        label: format!("{shards} shard(s), {policy}"),
        shards,
        seconds,
        pairs,
        stats,
        shard_misses,
    }
}

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a number")),
        Err(_) => default,
    }
}

fn main() {
    let n: usize = env_num("SDJ_BENCH_N", 100_000);
    let k: u64 = env_num("SDJ_BENCH_K", 100_000);
    let frames: usize = env_num("SDJ_BENCH_FRAMES", 128);

    eprintln!("# building two uniform {n}-point trees ...");
    let a: Vec<Point<2>> = uniform_points(n, &unit_box(), 97);
    let b: Vec<Point<2>> = uniform_points(n, &unit_box(), 98);
    let mut t1 = build_tree(&a);
    let mut t2 = build_tree(&b);

    let mut samples = Vec::new();
    for shards in [1, 4] {
        eprintln!("# serial join, K={k}, {frames} frames, {shards} shard(s) ...");
        samples.push(measure(&mut t1, &mut t2, frames, shards, k));
    }
    // Warm-read zero-copy, counter-verified: the join's node reads go
    // through cached views and page guards, never the copying `read` API.
    for s in &samples {
        assert_eq!(
            s.stats.read_copies, 0,
            "join hot path performed a page copy ({})",
            s.label
        );
    }

    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let st = &s.stats;
        // Demand accesses that never touched the shared pager mutex: hits
        // complete entirely under their shard's lock. (Misses must
        // serialise on the pager — that's the disk.)
        let avoided = st.hits;
        let spread = s
            .shard_misses
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        rows.push_str(&format!(
            "    {{\"label\": \"{}\", \"shards\": {}, \
             \"seconds\": {:.6}, \"pairs\": {}, \"accesses\": {}, \"hits\": {}, \
             \"demand_misses\": {}, \"evictions\": {}, \"read_copies\": {}, \
             \"pager_lock_acquisitions\": {}, \"pager_locks_avoided\": {}, \
             \"per_shard_misses\": [{}]}}",
            s.label,
            s.shards,
            s.seconds,
            s.pairs,
            st.accesses(),
            st.hits,
            st.misses,
            st.evictions,
            st.read_copies,
            st.shared_lock_acquisitions,
            avoided,
            spread,
        ));
    }
    let host = sdj_obs::HostInfo::detect();
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"benchmark\": \"serial incremental distance join, \
         uniform {n} x {n} points, K = {k} closest pairs, {frames}-frame buffer per tree, \
         shard counts\",\n  \
         \"host\": {{\"nproc\": {}, \"build_profile\": \"{}\"}},\n  \
         \"note\": \"single-shot serial wall-clock; every shard count emits the identical \
         stream. demand_misses of the 1-shard row is the historical pool's node-I/O count; \
         pager_locks_avoided counts demand accesses served entirely under one shard's \
         lock, never touching the shared pager mutex (the historical pool serialised \
         every access on one mutex). Counters, not speedups: the join is serial on a \
         host with {} CPU(s).\",\n  \
         \"samples\": [\n{rows}\n  ]\n}}\n",
        host.nproc, host.build_profile, host.nproc,
    );
    sdj_obs::write_atomic("BENCH_io.json", json.as_bytes()).expect("write BENCH_io.json");
    print!("{json}");

    eprintln!("# wrote BENCH_io.json");
}
