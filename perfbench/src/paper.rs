//! `paper`: the §3.1 setup. One client runs serial `DistanceJoin` cursors
//! with the default config over Water × Roads in a repeating cycle: an open
//! cursor pulled to 100,000 pairs, a `STOP AFTER 1,000` query and a
//! Figure-10 semi-join (Inside2/Local) pulled to 10,000 results.

use std::time::{Duration, Instant};

use sdj_core::{DistanceJoin, DmaxStrategy, JoinConfig, SemiConfig, SemiFilter};
use sdj_datagen::tiger::{ROADS_FULL, WATER_FULL};
use sdj_geom::Metric;

use crate::check;
use crate::layers;
use crate::report::{end_to_end, median, Metrics, QueryTime};
use crate::setup::{drive, ms_since, tiger_trees, Counts, CursorRun, Io, Keep, Setups, TigerTrees};
use crate::trace::Trace;
use crate::{Args, Outcome, Tally};

const OPEN_PAIRS: u64 = 100_000;
const TOPK: u64 = 1_000;
const SEMI_RESULTS: u64 = 10_000;
/// Every this many semi-join results, the partner distance is checked
/// against the R-tree's own nearest-neighbour search.
const SEMI_SAMPLE_STRIDE: usize = 50;

/// The Figure-10 semi-join configuration.
pub fn semi_config() -> SemiConfig {
    SemiConfig {
        filter: SemiFilter::Inside2,
        dmax: DmaxStrategy::Local,
    }
}

/// One cycle's three cursors: open, top-k, semi.
struct Cycle {
    runs: Vec<CursorRun>,
}

fn cycle(t: &TigerTrees, keep: Keep, tr: &mut Trace, tally: &mut Tally) -> Cycle {
    let mut runs = Vec::with_capacity(3);
    let queries: [(&str, u64, JoinConfig, bool); 3] = [
        ("open_cursor", OPEN_PAIRS, JoinConfig::default(), false),
        (
            "topk1000",
            u64::MAX,
            JoinConfig::default().with_max_pairs(TOPK),
            false,
        ),
        ("semi10k", SEMI_RESULTS, JoinConfig::default(), true),
    ];
    for (class, limit, config, semi) in queries {
        let q = tr.query_id();
        let run = tally.op(class, || {
            let span = tr.begin("query", q);
            let opened = Instant::now();
            let open = tr.begin("core.join.open", q);
            let mut join = if semi {
                DistanceJoin::semi(&t.water, &t.roads, config, semi_config())
            } else {
                DistanceJoin::new(&t.water, &t.roads, config)
            };
            tr.end(open);
            let run = drive(&mut join, class, limit, opened, keep, tr, q);
            tr.end(span);
            match &run.error {
                Some(e) => Err(e.clone()),
                None => Ok(run),
            }
        });
        if let Some(run) = run {
            runs.push(run);
        }
    }
    Cycle { runs }
}

fn checks(t: &TigerTrees, c: &Cycle, tally: &mut Tally) {
    let find = |class: &str| c.runs.iter().find(|r| r.time.class == class);
    let (Some(open), Some(topk), Some(semi)) =
        (find("open_cursor"), find("topk1000"), find("semi10k"))
    else {
        return; // the failed query is already counted
    };
    let count = |r: &CursorRun, want: u64| {
        if r.results.len() as u64 == want {
            Ok(())
        } else {
            Err(format!("{} results, expected {want}", r.results.len()))
        }
    };
    tally.check("open_cursor count", count(open, OPEN_PAIRS));
    tally.check("open_cursor order", check::non_decreasing(&open.results));
    tally.check("topk1000 count", count(topk, TOPK));
    let prefix = &open.results[..(TOPK as usize).min(open.results.len())];
    tally.check(
        "topk1000 equals the open cursor's first 1000",
        check::same_stream(&topk.results, prefix, false),
    );
    tally.check("semi10k count", count(semi, SEMI_RESULTS));
    tally.check("semi10k order", check::non_decreasing(&semi.results));
    tally.check("semi10k outer ids", check::distinct_outer(&semi.results));
    for r in semi.results.iter().step_by(SEMI_SAMPLE_STRIDE) {
        let p = t.water_pts[r.oid1.0 as usize];
        let nn = t.roads.k_nearest(p, 1, Metric::Euclidean);
        let ok = nn
            .first()
            .is_some_and(|n| (n.distance - r.distance).abs() <= 1e-12 * n.distance.max(1.0));
        if !ok {
            tally.check(
                "semi10k partner",
                Err(format!(
                    "outer {} at {} but its nearest neighbour is at {:?}",
                    r.oid1.0,
                    r.distance,
                    nn.first().map(|n| n.distance)
                )),
            );
            break;
        }
    }
}

pub fn run(args: &Args, tr: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let instance = |i: usize, setups: &mut Setups, tr: &mut Trace| {
        setups.build(tr, |tr, ph| {
            tiger_trees(args.seed, i, WATER_FULL, ROADS_FULL, tr, ph)
        })
    };
    let keep_all = Keep {
        results: true,
        tail: args.trace,
    };
    let skip = Keep {
        results: false,
        tail: false,
    };

    if args.trace {
        let t = instance(0, &mut setups, tr);
        let deadline = Instant::now() + args.seconds;
        let io0 = Io::of(&[&t.water, &t.roads]);
        let pass = Instant::now();
        let c = cycle(&t, keep_all, tr, &mut out.tally);
        let wall_ms = ms_since(pass);
        let io = Io::of(&[&t.water, &t.roads]).since(&io0);
        let m = &mut out.per_layer;
        setups.write(m);
        let mut counts = Counts::default();
        for r in &c.runs {
            counts.absorb(&r.stats);
        }
        counts.write(m);
        io.write(m, 0);
        layers::write_next_ns(m, tr, c.runs.iter().map(|r| r.time.pairs).sum());
        if let Some(semi) = c.runs.iter().find(|r| r.time.class == "semi10k") {
            layers::write_semi_tail(m, semi);
        }
        checks(&t, &c, &mut out.tally);
        layers::write_overhead(m, tr, deadline, |tr| {
            cycle(&t, skip, tr, &mut out.tally);
        });
        layers::replays(m, &t.water, &t.roads, tr);
        layers::write_unattributed(m, wall_ms);
        return out;
    }

    // Cycle i runs on instance i; the timed total excludes set-ups and the
    // checks of instance 0.
    let mut queries: Vec<QueryTime> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut i = 0;
    while i == 0 || timed < args.seconds {
        let t = instance(i, &mut setups, tr);
        let start = Instant::now();
        let c = cycle(&t, if i == 0 { keep_all } else { skip }, tr, &mut out.tally);
        timed += start.elapsed();
        queries.extend(c.runs.iter().map(|r| r.time.clone()));
        if i == 0 {
            checks(&t, &c, &mut out.tally);
        }
        i += 1;
    }
    out.end_to_end = end_to_end(&queries, timed.as_secs_f64(), setups.setup_s());
    write_detail(&mut out.detail, &queries);
    out
}

fn write_detail(m: &mut Metrics, queries: &[QueryTime]) {
    let med = |class: &str, pick: fn(&QueryTime) -> f64| {
        let v: Vec<f64> = queries
            .iter()
            .filter(|q| q.class == class)
            .map(pick)
            .collect();
        median(&v)
    };
    m.set(
        "join_first_pair_ms",
        med("open_cursor", |q| q.first_ms),
        "ms",
    );
    m.set("join_100k_ms", med("open_cursor", |q| q.end_ms), "ms");
    m.set("topk1000_ms", med("topk1000", |q| q.end_ms), "ms");
    m.set("semi_10k_ms", med("semi10k", |q| q.end_ms), "ms");
    m.set("cycles", (queries.len() / 3) as f64, "count");
}
