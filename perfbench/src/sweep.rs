//! `sweep`: uniform 100k × 100k and 32-cluster Gaussian (σ = 0.01)
//! 100k × 100k, with pools that hold every page. One client calls
//! `sdj_exec::run_planned` on two threads for two range drains and two
//! `STOP AFTER` queries per dataset.

use std::time::{Duration, Instant};

use sdj_core::{plan_for_trees, AdaptiveConfig, BulkConfig, DistanceJoin, JoinConfig, PlanChoice};
use sdj_datagen::{gaussian_clusters, uniform_points, unit_box};
use sdj_exec::{run_planned, ParallelConfig, PlannedRun};
use sdj_geom::Point;
use sdj_rtree::RTree;

use crate::check;
use crate::layers;
use crate::report::{end_to_end, Metrics, QueryTime};
use crate::setup::{derive, ms_since, Counts, Io, Phases, Setups};
use crate::trace::Trace;
use crate::{Args, Outcome, Tally};

const N: usize = 100_000;
/// Frames per tree: more than the ~2,100 pages of a 100k-point tree.
const FRAMES: usize = 4_096;
const THREADS: usize = 2;
const CLUSTERS: usize = 32;
const SIGMA: f64 = 0.01;
const TOPK: [u64; 2] = [10_000, 100_000];

struct Dataset {
    name: &'static str,
    t1: RTree<2>,
    t2: RTree<2>,
    /// Range-drain distances. Clustered pairs are ~25× denser than uniform
    /// ones, so its ranges are a decade lower to keep result sizes alike.
    ranges: [f64; 2],
}

struct Query {
    label: String,
    class: &'static str,
    dataset: usize,
    config: JoinConfig,
}

fn datasets(seed: u64, instance: usize, tr: &mut Trace, ph: &mut Phases) -> Vec<Dataset> {
    let bbox = unit_box();
    let stream = 1000 + 3 * instance as u64;
    let a = ph.datagen(tr, || uniform_points(N, &bbox, derive(seed, stream)));
    let b = ph.datagen(tr, || uniform_points(N, &bbox, derive(seed, stream + 1)));
    // One draw of 2N clustered points, split in alternating runs of
    // `CLUSTERS` points: point i belongs to cluster i % CLUSTERS, so both
    // sides share every cluster centre.
    let both = ph.datagen(tr, || {
        gaussian_clusters(2 * N, CLUSTERS, SIGMA, &bbox, derive(seed, stream + 2))
    });
    let (c1, c2): (Vec<Point<2>>, Vec<Point<2>>) = {
        let (x, y): (Vec<_>, Vec<_>) = both
            .iter()
            .enumerate()
            .partition(|(i, _)| (i / CLUSTERS).is_multiple_of(2));
        (
            x.into_iter().map(|(_, p)| *p).collect(),
            y.into_iter().map(|(_, p)| *p).collect(),
        )
    };
    vec![
        Dataset {
            name: "uniform",
            t1: ph.load(tr, &a, FRAMES),
            t2: ph.load(tr, &b, FRAMES),
            ranges: [0.001, 0.003],
        },
        Dataset {
            name: "clustered",
            t1: ph.load(tr, &c1, FRAMES),
            t2: ph.load(tr, &c2, FRAMES),
            ranges: [0.0003, 0.001],
        },
    ]
}

fn queries(ds: &[Dataset]) -> Vec<Query> {
    let mut out = Vec::new();
    for (i, d) in ds.iter().enumerate() {
        for r in d.ranges {
            out.push(Query {
                label: format!("{}_range_{r}", d.name),
                class: "range",
                dataset: i,
                config: JoinConfig::default().with_range(0.0, r),
            });
        }
        for k in TOPK {
            out.push(Query {
                label: format!("{}_top_{k}", d.name),
                class: "topk",
                dataset: i,
                config: JoinConfig::default().with_max_pairs(k),
            });
        }
    }
    out
}

fn planned(d: &Dataset, config: JoinConfig) -> PlannedRun {
    run_planned(
        &d.t1,
        &d.t2,
        config,
        ParallelConfig::with_threads(THREADS),
        BulkConfig::default(),
        AdaptiveConfig::default(),
        None,
        None,
    )
}

/// One planned call per query, each under `query` / `exec.run_planned`
/// spans.
fn cycle(
    ds: &[Dataset],
    qs: &[Query],
    tr: &mut Trace,
    tally: &mut Tally,
) -> Vec<(QueryTime, PlannedRun)> {
    let mut out = Vec::with_capacity(qs.len());
    for query in qs {
        let q = tr.query_id();
        let run = tally.op(&query.label, || {
            let span = tr.begin("query", q);
            let t = Instant::now();
            let exec = tr.begin("exec.run_planned", q);
            let run = planned(&ds[query.dataset], query.config);
            tr.end(exec);
            let ms = ms_since(t);
            tr.end(span);
            match &run.error {
                Some(e) => Err(e.to_string()),
                None => Ok((
                    QueryTime {
                        class: query.label.clone(),
                        first_ms: ms,
                        last_ms: ms,
                        end_ms: ms,
                        pairs: run.results.len() as u64,
                    },
                    run,
                )),
            }
        });
        out.extend(run);
    }
    out
}

/// Every planned result equals the serial `DistanceJoin` stream for the
/// same config.
fn checks(ds: &[Dataset], qs: &[Query], runs: &[(QueryTime, PlannedRun)], tally: &mut Tally) {
    for (query, (time, run)) in qs.iter().zip(runs) {
        debug_assert_eq!(query.label, time.class);
        let d = &ds[query.dataset];
        let serial: Vec<_> = DistanceJoin::new(&d.t1, &d.t2, query.config).collect();
        tally.check(
            &format!("{} equals the serial stream", query.label),
            check::same_stream(&run.results, &serial, query.class == "range"),
        );
    }
}

pub fn run(args: &Args, tr: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let mut instance =
        |i: usize, tr: &mut Trace| setups.build(tr, |tr, ph| datasets(args.seed, i, tr, ph));

    if args.trace {
        let ds = instance(0, tr);
        let qs = queries(&ds);
        let trees: Vec<&RTree<2>> = ds.iter().flat_map(|d| [&d.t1, &d.t2]).collect();
        let deadline = Instant::now() + args.seconds;
        let io0 = Io::of(&trees);
        let pass = Instant::now();
        let runs = cycle(&ds, &qs, tr, &mut out.tally);
        let wall_ms = ms_since(pass);
        let m = &mut out.per_layer;
        setups.write(m);
        Io::of(&trees).since(&io0).write(m, 0);
        let calcs = write_counts(m, &runs);
        write_plans(m, &ds, &qs, tr);
        checks(&ds, &qs, &runs, &mut out.tally);
        drop(runs);
        let mut repeat_calcs = Vec::new();
        layers::write_overhead(m, tr, deadline, |tr| {
            let traced = tr.enabled();
            let runs = cycle(&ds, &qs, tr, &mut out.tally);
            if traced {
                repeat_calcs.push(
                    runs.iter()
                        .map(|(_, r)| r.stats.distance_calcs)
                        .sum::<u64>(),
                );
            }
        });
        let spread = repeat_calcs
            .iter()
            .map(|&c| (c as f64 - calcs as f64).abs() / (calcs as f64).max(1.0))
            .fold(0.0, f64::max);
        m.set("exec.counter_spread", spread, "ratio");
        layers::replays(m, &ds[0].t1, &ds[0].t2, tr);
        layers::write_unattributed(m, wall_ms);
        return out;
    }

    // Cycle i runs on instance i; the timed total excludes set-ups and the
    // checks of instance 0.
    let mut queries_run: Vec<QueryTime> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut i = 0;
    let mut qs = Vec::new();
    while i == 0 || timed < args.seconds {
        let ds = instance(i, tr);
        qs = queries(&ds);
        let start = Instant::now();
        let runs = cycle(&ds, &qs, tr, &mut out.tally);
        timed += start.elapsed();
        queries_run.extend(runs.iter().map(|(t, _)| t.clone()));
        if i == 0 {
            checks(&ds, &qs, &runs, &mut out.tally);
        }
        i += 1;
    }
    out.end_to_end = end_to_end(&queries_run, timed.as_secs_f64(), setups.setup_s());
    write_detail(&mut out.detail, &qs, &queries_run);
    out
}

/// Counters of the counted pass; returns its total distance calculations
/// (the figure `exec.counter_spread` compares repeats against).
fn write_counts(m: &mut Metrics, runs: &[(QueryTime, PlannedRun)]) -> u64 {
    let mut counts = Counts::default();
    let (mut range_ms, mut topk_ms) = (Vec::new(), Vec::new());
    for (time, run) in runs {
        counts.absorb(&run.stats);
        if let Some(b) = &run.bulk {
            m.add("core.bulk.cells_swept", b.cell_pairs_swept as f64, "count");
            m.add("core.bulk.pairs_deduped", b.pairs_deduped as f64, "count");
        }
        if run.executed == PlanChoice::Bulk {
            m.add(
                "core.bulk.distance_calcs",
                run.stats.distance_calcs as f64,
                "count",
            );
        }
        m.add("exec.workers_spawned", run.workers_spawned as f64, "count");
        m.add(
            "exec.pruned_by_shared",
            run.stats.pruned_by_shared as f64,
            "count",
        );
        m.add(
            "core.plan.replans",
            f64::from(u8::from(run.replanned.is_some())),
            "count",
        );
        if time.class.contains("_range_") {
            range_ms.push(time.end_ms);
        } else {
            topk_ms.push(time.end_ms);
        }
    }
    counts.write(m);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set("exec.run_planned_ms.range", mean(&range_ms), "ms");
    m.set("exec.run_planned_ms.topk", mean(&topk_ms), "ms");
    counts.distance_calcs
}

/// The planner's verdict per query class, each call under a `core.plan`
/// span. The open cursor (no `STOP AFTER`, no range) is planned on the
/// uniform trees as well, to record defect (a) of the notes.
fn write_plans(m: &mut Metrics, ds: &[Dataset], qs: &[Query], tr: &mut Trace) {
    let mut plan = |d: &Dataset, config: &JoinConfig| {
        let span = tr.begin("core.plan", 0);
        let p = plan_for_trees(&d.t1, &d.t2, config);
        tr.end(span);
        f64::from(u8::from(p.choice == PlanChoice::Bulk))
    };
    let (mut range, mut topk) = (Vec::new(), Vec::new());
    for q in qs {
        let bulk = plan(&ds[q.dataset], &q.config);
        if q.class == "range" {
            range.push(bulk);
        } else {
            topk.push(bulk);
        }
    }
    let open = plan(&ds[0], &JoinConfig::default());
    let share = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.set("core.plan.choice.range", share(&range), "share");
    m.set("core.plan.choice.topk", share(&topk), "share");
    m.set("core.plan.choice.open_cursor", open, "share");
    m.set("core.plan.ns", tr.total("core.plan").mean_ns(), "ns");
}

fn write_detail(m: &mut Metrics, qs: &[Query], queries: &[QueryTime]) {
    let rate = |class: &str| {
        let (mut pairs, mut ms) = (0u64, 0.0);
        for t in queries {
            if qs.iter().any(|q| q.label == t.class && q.class == class) {
                pairs += t.pairs;
                ms += t.end_ms;
            }
        }
        pairs as f64 / (ms / 1e3).max(1e-9)
    };
    m.set("range_pairs_per_s", rate("range"), "pairs/s");
    m.set("topk_pairs_per_s", rate("topk"), "pairs/s");
    m.set("cycles", (queries.len() / qs.len().max(1)) as f64, "count");
}
