//! `semi-drain`: the tiger generators at ¼ cardinality (9,374 × 50,120)
//! with 128 frames per tree. One client pulls Figure-10 semi-join cursors
//! until `next()` returns `None`, the only workload that measures the end
//! of a stream.

use std::time::{Duration, Instant};

use sdj_core::{DistanceJoin, JoinConfig};

use crate::check;
use crate::layers;
use crate::paper::semi_config;
use crate::report::{end_to_end, median, QueryTime};
use crate::setup::{drive, ms_since, tiger_trees, Counts, CursorRun, Io, Keep, Setups, TigerTrees};
use crate::trace::Trace;
use crate::{Args, Outcome, Tally};

const WATER_QUARTER: usize = 9_374;
const ROADS_QUARTER: usize = 50_120;

fn drain(t: &TigerTrees, keep: Keep, tr: &mut Trace, tally: &mut Tally) -> Option<CursorRun> {
    let q = tr.query_id();
    tally.op("semi drain", || {
        let span = tr.begin("query", q);
        let opened = Instant::now();
        let open = tr.begin("core.join.open", q);
        let mut join = DistanceJoin::semi(&t.water, &t.roads, JoinConfig::default(), semi_config());
        tr.end(open);
        let run = drive(&mut join, "semi_drain", u64::MAX, opened, keep, tr, q);
        tr.end(span);
        match &run.error {
            Some(e) => Err(e.clone()),
            None => Ok(run),
        }
    })
}

fn checks(t: &TigerTrees, run: &CursorRun, tally: &mut Tally) {
    let (n, outer) = (run.results.len(), t.water_pts.len());
    let r = if n != outer {
        Err(format!("{n} results for {outer} outer objects"))
    } else if let Some(bad) = run.results.iter().find(|r| r.oid1.0 as usize >= outer) {
        Err(format!("unknown outer object {}", bad.oid1.0))
    } else {
        check::distinct_outer(&run.results).and_then(|()| check::non_decreasing(&run.results))
    };
    tally.check("semi drain: every outer object exactly once", r);
}

pub fn run(args: &Args, tr: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let instance = |i: usize, setups: &mut Setups, tr: &mut Trace| {
        setups.build(tr, |tr, ph| {
            tiger_trees(args.seed, i, WATER_QUARTER, ROADS_QUARTER, tr, ph)
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
        let run = drain(&t, keep_all, tr, &mut out.tally);
        let wall_ms = ms_since(pass);
        let m = &mut out.per_layer;
        setups.write(m);
        Io::of(&[&t.water, &t.roads]).since(&io0).write(m, 0);
        if let Some(run) = &run {
            let mut counts = Counts::default();
            counts.absorb(&run.stats);
            counts.write(m);
            layers::write_next_ns(m, tr, run.time.pairs);
            layers::write_semi_tail(m, run);
            checks(&t, run, &mut out.tally);
        }
        layers::write_overhead(m, tr, deadline, |tr| {
            drain(&t, skip, tr, &mut out.tally);
        });
        layers::replays(m, &t.water, &t.roads, tr);
        layers::write_unattributed(m, wall_ms);
        return out;
    }

    // Drain i runs on instance i; the timed total excludes set-ups and the
    // check of instance 0.
    let mut queries: Vec<QueryTime> = Vec::new();
    let mut timed = Duration::ZERO;
    let mut i = 0;
    while i == 0 || timed < args.seconds {
        let t = instance(i, &mut setups, tr);
        let start = Instant::now();
        let run = drain(&t, if i == 0 { keep_all } else { skip }, tr, &mut out.tally);
        timed += start.elapsed();
        if let Some(run) = run {
            if i == 0 {
                checks(&t, &run, &mut out.tally);
            }
            queries.push(run.time);
        }
        i += 1;
    }
    out.end_to_end = end_to_end(&queries, timed.as_secs_f64(), setups.setup_s());
    let last: Vec<f64> = queries.iter().map(|q| q.last_ms).collect();
    let end: Vec<f64> = queries.iter().map(|q| q.end_ms).collect();
    out.detail.set("semi_last_ms", median(&last), "ms");
    out.detail.set("semi_exhaust_ms", median(&end), "ms");
    out.detail.set("drains", queries.len() as f64, "count");
    out
}
