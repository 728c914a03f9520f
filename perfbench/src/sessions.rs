//! `sessions`: the `paper` trees and pools behind one `JoinService`. Eight
//! clients are multiplexed on one thread in round robin, each pulling
//! `next_batch(256)` from its session. The loop is closed per pass: in a
//! pass every client runs one session, and the next pass starts when the
//! last session of this one has ended.

use std::time::{Duration, Instant};

use sdj_core::{
    plan_for_trees, AdaptiveConfig, BulkConfig, DistanceJoin, JoinConfig, PlanChoice, QueueBackend,
    ResultPair,
};
use sdj_datagen::tiger::{ROADS_FULL, WATER_FULL};
use sdj_pqueue::HybridConfig;
use sdj_service::{JoinService, ServiceConfig, SessionConfig, SessionHandle};

use crate::check;
use crate::layers;
use crate::report::{end_to_end, median, percentile, Metrics, QueryTime};
use crate::setup::{
    drive, ms_since, tiger_trees, Counts, CursorRun, Io, Keep, Phases, Setups, TigerTrees, BATCH,
};
use crate::trace::Trace;
use crate::{Args, Outcome, Tally};

/// Rank of the join pair whose distance is the hybrid queue's `D_T`
/// (Figure 8's first setting).
const DT_RANK: usize = 7_663;
/// Rank of the join pair whose distance bounds the range class.
const RANGE_RANK: usize = 10_000;
const TOPK_SMALL: u64 = 1_000;
const TOPK_LARGE: u64 = 100_000;
/// Open cursors are cancelled after this many pairs.
const OPEN_CANCEL_AT: u64 = 20_000;
/// Per-session memory budget.
const BUDGET: usize = 1536 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Top1000,
    Hybrid,
    Adaptive,
    Range,
    Open,
}

/// The eight clients, by the class of session each keeps opening.
const CLIENTS: [Class; 8] = [
    Class::Top1000,
    Class::Top1000,
    Class::Hybrid,
    Class::Adaptive,
    Class::Range,
    Class::Range,
    Class::Open,
    Class::Open,
];

/// Distances probed during set-up.
struct Probes {
    dt: f64,
    range: f64,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Top1000 => "top1000",
            Class::Hybrid => "hybrid_top100k",
            Class::Adaptive => "adaptive_top100k",
            Class::Range => "range_d10k",
            Class::Open => "open_cursor",
        }
    }

    fn join(self, p: &Probes) -> JoinConfig {
        let base = JoinConfig::default();
        match self {
            Class::Top1000 => base.with_max_pairs(TOPK_SMALL),
            Class::Hybrid => JoinConfig {
                queue: QueueBackend::Hybrid(HybridConfig::with_dt(p.dt)),
                ..base.with_max_pairs(TOPK_LARGE)
            },
            Class::Adaptive => base.with_max_pairs(TOPK_LARGE),
            Class::Range => base.with_range(0.0, p.range),
            Class::Open => base,
        }
    }

    /// Forced paths: the hybrid queue only exists on the incremental path,
    /// and the open cursor must not be planned as bulk (defect (a) of the
    /// notes: a bulk open cursor materialises the whole cross product).
    fn force(self) -> Option<PlanChoice> {
        match self {
            Class::Hybrid | Class::Open => Some(PlanChoice::Incremental),
            Class::Adaptive => Some(PlanChoice::Adaptive),
            Class::Top1000 | Class::Range => None,
        }
    }

    /// Built field by field: `SessionConfig::default()` would read the
    /// `SDJ_ADAPTIVE_*` environment.
    fn session(self, p: &Probes) -> SessionConfig {
        SessionConfig {
            join: self.join(p),
            force_plan: self.force(),
            adaptive: AdaptiveConfig::default(),
            bulk: BulkConfig::default(),
            budget: None,
            label: Some(self.name().to_string()),
        }
    }

    fn limit(self) -> u64 {
        match self {
            Class::Open => OPEN_CANCEL_AT,
            _ => u64::MAX,
        }
    }
}

struct State {
    trees: TigerTrees,
    probes: Probes,
}

fn setup(seed: u64, instance: usize, tr: &mut Trace, ph: &mut Phases) -> State {
    let trees = tiger_trees(seed, instance, WATER_FULL, ROADS_FULL, tr, ph);
    let span = tr.begin("setup.probe", 0);
    let head: Vec<ResultPair> =
        DistanceJoin::new(&trees.water, &trees.roads, JoinConfig::default())
            .take(RANGE_RANK)
            .collect();
    tr.end(span);
    assert_eq!(head.len(), RANGE_RANK, "the probe join ended early");
    let probes = Probes {
        dt: head[DT_RANK - 1].distance,
        range: head[RANGE_RANK - 1].distance,
    };
    State { trees, probes }
}

struct Live<'t> {
    handle: SessionHandle<'t, 2>,
    q: u64,
    opened: Instant,
    first_ms: Option<f64>,
    last_ms: f64,
    pairs: u64,
    kept: Option<Vec<ResultPair>>,
}

struct Client<'t> {
    class: Class,
    live: Option<Live<'t>>,
    opened: bool,
}

/// What one pass of the clients observed.
#[derive(Default)]
struct Pass {
    sessions: Vec<QueryTime>,
    pulls_ms: Vec<f64>,
    pairs: u64,
    /// Every session's stream, when the pass keeps them for the checks.
    kept: Vec<(Class, Vec<ResultPair>)>,
    opened: u64,
    failed: u64,
    held_peak: usize,
}

/// One turn of client `c`: one pull from its session, opened first on the
/// client's first turn.
fn step<'t>(
    svc: &JoinService<'t, 2>,
    c: &mut Client<'t>,
    p: &Probes,
    keep: bool,
    tr: &mut Trace,
    tally: &mut Tally,
    pass: &mut Pass,
) {
    if !c.opened {
        c.opened = true;
        let q = tr.query_id();
        let opened = Instant::now();
        let span = tr.begin("service.open", q);
        let handle = tally.op("open", || {
            svc.open(c.class.session(p)).map_err(|e| e.to_string())
        });
        tr.end(span);
        match handle {
            Some(handle) => {
                pass.opened += 1;
                c.live = Some(Live {
                    handle,
                    q,
                    opened,
                    first_ms: None,
                    last_ms: 0.0,
                    pairs: 0,
                    kept: keep.then(Vec::new),
                });
            }
            None => pass.failed += 1,
        }
    }
    let Some(live) = c.live.as_mut() else {
        return;
    };
    let want = (c.class.limit() - live.pairs).min(BATCH as u64) as usize;
    let t = Instant::now();
    let span = tr.begin("service.next_batch", live.q);
    let batch = tally.op("next_batch", || {
        live.handle.next_batch(want).map_err(|e| e.to_string())
    });
    tr.end(span);
    pass.pulls_ms.push(ms_since(t));
    let Some(batch) = batch else {
        pass.failed += 1;
        c.live = None;
        return;
    };
    let n = batch.results.len() as u64;
    if n > 0 {
        let since = ms_since(live.opened);
        live.first_ms.get_or_insert(since);
        live.last_ms = since;
    }
    live.pairs += n;
    pass.pairs += n;
    pass.held_peak = pass.held_peak.max(live.handle.held_bytes());
    if let Some(kept) = &mut live.kept {
        kept.extend(batch.results);
    }
    let cancel = live.pairs >= c.class.limit();
    if batch.done || cancel {
        if cancel {
            live.handle.cancel();
        }
        let end_ms = ms_since(live.opened);
        pass.sessions.push(QueryTime {
            class: c.class.name().to_string(),
            first_ms: live.first_ms.unwrap_or(end_ms),
            last_ms: live.last_ms,
            end_ms,
            pairs: live.pairs,
        });
        if let Some(kept) = live.kept.take() {
            pass.kept.push((c.class, kept));
        }
        c.live = None;
    }
}

/// One pass: the eight clients each open one session at their first turn
/// and pull from it round robin until every session has ended.
fn pass(
    svc: &JoinService<'_, 2>,
    p: &Probes,
    keep: bool,
    tr: &mut Trace,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass::default();
    let mut cs: Vec<Client<'_>> = CLIENTS
        .iter()
        .map(|&class| Client {
            class,
            live: None,
            opened: false,
        })
        .collect();
    while cs.iter().any(|c| c.live.is_some() || !c.opened) {
        for c in &mut cs {
            step(svc, c, p, keep, tr, tally, &mut pass);
        }
    }
    pass
}

fn service(t: &TigerTrees) -> JoinService<'_, 2> {
    JoinService::new(
        &t.water,
        &t.roads,
        ServiceConfig {
            max_sessions: 16,
            session_budget: Some(BUDGET),
        },
    )
}

/// The class's stream run alone through a serial cursor with the same
/// join config: the reference for the checks, and the source of the
/// engine counters the service does not expose.
fn solo(
    t: &TigerTrees,
    class: Class,
    p: &Probes,
    tr: &mut Trace,
    tally: &mut Tally,
) -> Option<(CursorRun, Option<u64>, u64)> {
    let q = tr.query_id();
    tally.op(class.name(), || {
        let opened = Instant::now();
        let mut join = DistanceJoin::new(&t.water, &t.roads, class.join(p));
        let keep = Keep {
            results: true,
            tail: false,
        };
        let run = drive(&mut join, class.name(), class.limit(), opened, keep, tr, q);
        let spilled = join.hybrid_queue_info().map(|(s, _)| s.spilled);
        let spill_writes = join.queue_pool_stats().writebacks;
        match &run.error {
            Some(e) => Err(e.clone()),
            None => Ok((run, spilled, spill_writes)),
        }
    })
}

/// Each kept session stream equals its class's solo stream.
fn checks(kept: &[(Class, Vec<ResultPair>)], solos: &[(Class, CursorRun)], tally: &mut Tally) {
    for (class, got) in kept {
        let Some((_, want)) = solos.iter().find(|(c, _)| c == class) else {
            continue; // the solo run's failure is already counted
        };
        tally.check(
            &format!("{} session equals its solo run", class.name()),
            check::same_stream(got, &want.results, *class == Class::Range),
        );
    }
}

pub fn run(args: &Args, tr: &mut Trace) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let mut instance =
        |i: usize, tr: &mut Trace| setups.build(tr, |tr, ph| setup(args.seed, i, tr, ph));
    let mut classes = CLIENTS.to_vec();
    classes.dedup();

    if args.trace {
        let State {
            trees: t,
            probes: p,
        } = &instance(0, tr);
        let svc = service(t);
        let deadline = Instant::now() + args.seconds;
        let io0 = Io::of(&[&t.water, &t.roads]);
        let pass_t = Instant::now();
        let first = pass(&svc, p, true, tr, &mut out.tally);
        let wall_ms = ms_since(pass_t);
        let io = Io::of(&[&t.water, &t.roads]).since(&io0);
        let m = &mut out.per_layer;
        setups.write(m);
        m.set("service.open_ns", tr.total("service.open").mean_ns(), "ns");
        m.set(
            "service.next_batch_ms",
            tr.total("service.next_batch").mean_ns() / 1e6,
            "ms",
        );
        m.set("service.held_bytes_peak", first.held_peak as f64, "bytes");
        m.set("service.sessions_opened", first.opened as f64, "count");
        m.set("service.sessions_failed", first.failed as f64, "count");
        write_plans(m, t, p, tr);
        let pulls_before = tr.total("core.join.pull").total_ns;
        let mut solos = Vec::new();
        let (mut counts, mut spill_writes, mut solo_pairs) = (Counts::default(), 0, 0);
        for &class in &classes {
            if let Some((run, spilled, writes)) = solo(t, class, p, tr, &mut out.tally) {
                let clients = CLIENTS.iter().filter(|&&c| c == class).count() as u64;
                for _ in 0..clients {
                    counts.absorb(&run.stats);
                }
                solo_pairs += run.time.pairs;
                spill_writes += writes;
                if let Some(s) = spilled {
                    m.add("pqueue.spilled", s as f64, "count");
                }
                solos.push((class, run));
            }
        }
        counts.write(m);
        io.write(m, spill_writes);
        let pull_ns = tr.total("core.join.pull").total_ns - pulls_before;
        m.set(
            "core.join.next_ns",
            pull_ns as f64 / solo_pairs.max(1) as f64,
            "ns",
        );
        checks(&first.kept, &solos, &mut out.tally);
        drop(solos);
        layers::write_overhead(m, tr, deadline, |tr| {
            pass(&svc, p, false, tr, &mut out.tally);
        });
        layers::replays(m, &t.water, &t.roads, tr);
        layers::write_unattributed(m, wall_ms);
        return out;
    }

    // Pass i runs on instance i behind a fresh service; the timed total
    // excludes set-ups and the checks of instance 0.
    let mut all = Pass::default();
    let mut timed = Duration::ZERO;
    let mut i = 0;
    while i == 0 || timed < args.seconds {
        let State {
            trees: t,
            probes: p,
        } = &instance(i, tr);
        let svc = service(t);
        let start = Instant::now();
        let mut one = pass(&svc, p, i == 0, tr, &mut out.tally);
        timed += start.elapsed();
        if i == 0 {
            let solos: Vec<_> = classes
                .iter()
                .filter_map(|&class| {
                    solo(t, class, p, tr, &mut out.tally).map(|(run, ..)| (class, run))
                })
                .collect();
            checks(&one.kept, &solos, &mut out.tally);
        }
        all.sessions.append(&mut one.sessions);
        all.pulls_ms.append(&mut one.pulls_ms);
        all.pairs += one.pairs;
        i += 1;
    }
    let timed_s = timed.as_secs_f64();
    out.end_to_end = end_to_end(&all.sessions, timed_s, setups.setup_s());
    out.end_to_end
        .set("pairs_per_s", all.pairs as f64 / timed_s, "pairs/s");
    write_detail(&mut out.detail, &all, timed_s, i);
    out
}

/// The planner's verdict per class (unforced), each under a `core.plan`
/// span. `open_cursor` records defect (a) of the notes.
fn write_plans(m: &mut Metrics, t: &TigerTrees, p: &Probes, tr: &mut Trace) {
    let mut bulk = |class: Class| {
        let span = tr.begin("core.plan", 0);
        let plan = plan_for_trees(&t.water, &t.roads, &class.join(p));
        tr.end(span);
        f64::from(u8::from(plan.choice == PlanChoice::Bulk))
    };
    let topk = [Class::Top1000, Class::Hybrid, Class::Adaptive].map(&mut bulk);
    m.set(
        "core.plan.choice.topk",
        topk.iter().sum::<f64>() / 3.0,
        "share",
    );
    m.set("core.plan.choice.range", bulk(Class::Range), "share");
    m.set("core.plan.choice.open_cursor", bulk(Class::Open), "share");
    m.set("core.plan.ns", tr.total("core.plan").mean_ns(), "ns");
}

fn write_detail(m: &mut Metrics, pass: &Pass, timed_s: f64, passes: usize) {
    let first: Vec<f64> = pass.sessions.iter().map(|s| s.first_ms).collect();
    m.set("first_batch_ms_p50", median(&first), "ms");
    m.set("pull_ms_p50", median(&pass.pulls_ms), "ms");
    m.set("pull_ms_p99", percentile(&pass.pulls_ms, 99.0), "ms");
    m.set(
        "session_pairs_per_s",
        pass.pairs as f64 / timed_s,
        "pairs/s",
    );
    m.set("sessions", pass.sessions.len() as f64, "count");
    m.set("passes", passes as f64, "count");
    m.set("pulls", pass.pulls_ms.len() as f64, "count");
}
