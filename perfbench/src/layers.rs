//! The per-layer metric set, shared across workloads: the full list every
//! traced run reports (a layer a workload never enters reads 0), the
//! calibration replays, the reconciliation of per-call cost × call count
//! against wall clock, and the tracing-overhead measurement.

use std::time::Instant;

use sdj_rtree::RTree;

use crate::replay;
use crate::report::{median, Metrics};
use crate::setup::{ms_since, CursorRun};
use crate::trace::Trace;

/// Every per-layer metric, in report order, with its unit. `BENCHMARK.json`
/// lists the same names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.ms", "ms"),
    ("rtree.bulk_load_ms", "ms"),
    ("geom.distance_calcs", "count"),
    ("geom.object_distance_calcs", "count"),
    ("geom.ns_per_bound", "ns"),
    ("rtree.node_accesses", "count"),
    ("rtree.scan_ns_per_node", "ns"),
    ("storage.hits", "count"),
    ("storage.misses", "count"),
    ("storage.hit_ratio", "ratio"),
    ("storage.evictions", "count"),
    ("storage.pager_reads", "count"),
    ("storage.pager_writes", "count"),
    ("storage.hit_ns", "ns"),
    ("storage.miss_ns", "ns"),
    ("pqueue.pushes", "count"),
    ("pqueue.pops", "count"),
    ("pqueue.max_len", "count"),
    ("pqueue.peak_bytes", "bytes"),
    ("pqueue.bytes_per_pair", "B/pair"),
    ("pqueue.spilled", "count"),
    ("pqueue.push_ns", "ns"),
    ("pqueue.pop_ns", "ns"),
    ("core.join.pops_per_result", "ratio"),
    ("core.join.pruned", "count"),
    ("core.join.next_ns", "ns"),
    ("core.semi.filtered_seen", "count"),
    ("core.semi.tail_pops", "count"),
    ("core.semi.tail_share", "ratio"),
    ("core.bulk.cells_swept", "count"),
    ("core.bulk.pairs_deduped", "count"),
    ("core.bulk.distance_calcs", "count"),
    ("core.plan.ns", "ns"),
    ("core.plan.choice.range", "share"),
    ("core.plan.choice.topk", "share"),
    ("core.plan.choice.open_cursor", "share"),
    ("core.plan.replans", "count"),
    ("exec.workers_spawned", "count"),
    ("exec.run_planned_ms.range", "ms"),
    ("exec.run_planned_ms.topk", "ms"),
    ("exec.pruned_by_shared", "count"),
    ("exec.counter_spread", "ratio"),
    ("service.open_ns", "ns"),
    ("service.next_batch_ms", "ms"),
    ("service.held_bytes_peak", "bytes"),
    ("service.sessions_opened", "count"),
    ("service.sessions_failed", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead", "share"),
    ("trace.spans", "count"),
];

/// `m` restricted to and ordered by [`PER_LAYER`], with 0 for every metric
/// the workload did not set.
pub fn complete(m: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in PER_LAYER {
        out.set(name, m.get(name), unit);
    }
    out
}

/// Runs the calibration replays against the workload's trees (`small`
/// joined against `large`; the scan and storage replays use `large`, the
/// tree with more pages) and the counted pass's queue length and push/pop
/// ratio.
pub fn replays(m: &mut Metrics, small: &RTree<2>, large: &RTree<2>, tr: &mut Trace) {
    let span = tr.begin("replay.geom", 0);
    m.set(
        "geom.ns_per_bound",
        replay::geom_ns_per_bound(small, large),
        "ns",
    );
    tr.end(span);
    let span = tr.begin("replay.rtree_scan", 0);
    m.set(
        "rtree.scan_ns_per_node",
        replay::rtree_scan_ns_per_node(large),
        "ns",
    );
    tr.end(span);
    let span = tr.begin("replay.storage", 0);
    let pages = replay::pages(large).len();
    let (hit, miss) = replay::storage_hit_miss_ns(
        large.config().page_size,
        pages,
        large.config().buffer_frames,
    );
    m.set("storage.hit_ns", hit, "ns");
    m.set("storage.miss_ns", miss, "ns");
    tr.end(span);
    let span = tr.begin("replay.pqueue", 0);
    let ratio = m.get("pqueue.pushes") / m.get("pqueue.pops").max(1.0);
    let (push, pop) = replay::pqueue_push_pop_ns(m.get("pqueue.max_len") as usize, ratio);
    m.set("pqueue.push_ns", push, "ns");
    m.set("pqueue.pop_ns", pop, "ns");
    tr.end(span);
}

/// `1 − Σ (replayed ns/op × counted calls) ÷ wall` of the counted pass:
/// the share of wall clock the per-layer costs do not explain. Node scans
/// are charged at the hit cost, and each miss adds the miss–hit difference.
pub fn write_unattributed(m: &mut Metrics, wall_ms: f64) {
    let attributed_ns = m.get("geom.ns_per_bound") * m.get("geom.distance_calcs")
        + m.get("rtree.scan_ns_per_node") * m.get("rtree.node_accesses")
        + (m.get("storage.miss_ns") - m.get("storage.hit_ns")).max(0.0) * m.get("storage.misses")
        + m.get("pqueue.push_ns") * m.get("pqueue.pushes")
        + m.get("pqueue.pop_ns") * m.get("pqueue.pops");
    m.set("trace.wall_ms", wall_ms, "ms");
    let share = if wall_ms > 0.0 {
        1.0 - attributed_ns / (wall_ms * 1e6)
    } else {
        0.0
    };
    m.set("trace.unattributed_share", share, "share");
}

/// Alternates untraced and traced repetitions of `cycle` until `deadline`
/// (at least one of each) and writes `trace.overhead`: the traced median
/// wall over the untraced one, minus 1.
pub fn write_overhead(
    m: &mut Metrics,
    tr: &mut Trace,
    deadline: Instant,
    mut cycle: impl FnMut(&mut Trace),
) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    while on.is_empty() || off.is_empty() || Instant::now() < deadline {
        let traced = off.len() > on.len();
        tr.set_enabled(traced);
        let t = Instant::now();
        cycle(tr);
        let wall = ms_since(t);
        if traced {
            on.push(wall);
        } else {
            off.push(wall);
        }
    }
    tr.set_enabled(true);
    m.set("trace.overhead", median(&on) / median(&off) - 1.0, "share");
}

/// `core.join.next_ns`: time inside `core.join.pull` spans per result.
pub fn write_next_ns(m: &mut Metrics, tr: &Trace, results: u64) {
    if results > 0 {
        let pulls = tr.total("core.join.pull");
        m.set(
            "core.join.next_ns",
            pulls.total_ns as f64 / results as f64,
            "ns",
        );
    }
}

/// `core.semi.tail_pops` / `tail_share`: queue pops after the last result,
/// and their share of all pops.
pub fn write_semi_tail(m: &mut Metrics, semi: &CursorRun) {
    let pops = semi.stats.pairs_dequeued;
    let tail = pops.saturating_sub(semi.pops_at_last);
    m.set("core.semi.tail_pops", tail as f64, "count");
    let share = if pops == 0 {
        0.0
    } else {
        tail as f64 / pops as f64
    };
    m.set("core.semi.tail_share", share, "ratio");
}
