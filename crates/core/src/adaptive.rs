//! Adaptive mid-query replanning: incremental → bulk frontier handoff.
//!
//! The static planner ([`crate::plan`]) must commit to an execution path
//! before the first page is read, from nothing but catalog-grade inputs
//! (cardinalities, extents, the query's restrictions) and a one-node
//! frontier probe. When those inputs mislead — a clustered workload probed
//! at a uniform-looking root, a `STOP AFTER k` whose k-th distance is far
//! beyond what the selectivity model guessed — the chosen path can be
//! several times slower than the alternative, and a static plan has no way
//! back.
//!
//! [`AdaptiveDistanceJoin`] removes the cliff. Every query starts on the
//! incremental engine (which is the right choice whenever few results are
//! consumed, and whose queue is, conveniently, a complete serialisation of
//! its own progress). At every `pop_stride` pops the driver reads the live
//! run signals that cost nothing to collect — pops, results, queue length,
//! pairs enqueued — and re-evaluates the PR 6 cost model with the static
//! frontier estimate *ratcheted up* by what the run has actually staged
//! ([`crate::plan::replan`]). When the model says the remaining incremental
//! work exceeds a frontier-seeded bulk run by at least a hysteresis margin,
//! the engine is paused, its queue exported ([`DistanceJoin::into_frontier`]
//! with one shard), the frontier's items harvested down to object entries,
//! and the remainder of the query handed to a [`BulkDistanceJoin`] seeded
//! with exactly those entries.
//!
//! # Why the handoff is exact
//!
//! The seeded bulk run sweeps the cross product of the harvested sides,
//! which *over*-generates relative to the frontier's true descendant pair
//! set: two objects harvested from different queue entries may form a pair
//! that was already emitted, or one that the paused engine had legitimately
//! pruned. Every such pair is re-excluded by construction:
//!
//! * **Already emitted** — ascending emission is monotone in the key
//!   domain, so every emitted pair lies at or below the engine's
//!   [`EmissionWatermark`] (last emitted key plus the tie set at exactly
//!   that key). The bulk sweep drops candidates strictly below the floor
//!   key, and candidates *at* the floor key iff they are in the tie set.
//!   Keys are compared bit-for-bit: both engines compute MINDIST with the
//!   same kernels in the same key domain, no `sqrt` round-trip.
//! * **Estimator-pruned** — the engine's maximum-distance bound only ever
//!   tightens, so a pair pruned at any earlier bound also exceeds the
//!   final bound exported as [`JoinFrontier::dmax_hint`]; the seeded run
//!   applies that hint as its maximum key.
//! * **Range-restricted / self pairs** — the bulk sweep re-applies
//!   `[Dmin, Dmax]` and `exclude_equal_ids` to every candidate.
//!
//! Completeness is the best-first invariant: every qualifying pair not yet
//! emitted is a descendant of exactly one queue entry, and harvesting an
//! entry's subtree(s) yields supersets of each side of every descendant
//! pair. With `STOP AFTER k`, the seeded run's `max_pairs` is set to the
//! results still owed, and its ordered merge truncates exactly there.
//!
//! Consequently `prefix ++ seeded-bulk(ordered)` reproduces the pure
//! incremental stream's distance sequence bit-for-bit (tie order within an
//! equal-distance group follows the bulk path's deterministic merge, the
//! same contract the forced-bulk and parallel paths already have), and the
//! unordered variant is multiset-equal — the property
//! `crates/core/tests/adaptive_equivalence.rs` fuzzes with handoffs forced
//! at arbitrary checkpoints.

use std::collections::{HashSet, VecDeque};

use sdj_geom::Rect;
use sdj_obs::{Event, ObsContext, Phase, PlanPath};
use sdj_rtree::{ObjectId, RTree};
use sdj_storage::StorageError;

use crate::bulk::{BulkConfig, BulkDistanceJoin, BulkStats};
use crate::config::{JoinConfig, ResultOrder};
use crate::index::{IndexEntry, IndexNode, NodeId, SpatialIndex};
use crate::join::{DistanceJoin, ResultPair};
use crate::oracle::MbrOracle;
use crate::pair::Item;
use crate::plan::{self, ObservedProgress, PlanInputs};
use crate::stats::JoinStats;

/// Knobs of the adaptive driver.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Queue pops between checkpoints. Signals are read and the model
    /// re-evaluated once per stride; the default keeps checkpoint overhead
    /// well below one part in a thousand of the pop work itself.
    pub pop_stride: u64,
    /// Hysteresis margin: the switch fires only when the re-costed
    /// remaining incremental work exceeds `hysteresis ×` the seeded-bulk
    /// estimate. Guards against flapping on model noise near the
    /// break-even point.
    pub hysteresis: f64,
    /// Maximum number of replans per run (the handoff is one-way, so this
    /// caps how many times the model may fire; the default allows the
    /// single incremental → bulk switch).
    pub max_replans: u32,
    /// Test knob: unconditionally hand off at the first checkpoint at or
    /// after this many pops, ignoring the cost model (`Some(0)` = before
    /// any pop). The equivalence suite uses it to force handoffs at
    /// arbitrary points; production runs leave it `None`.
    pub force_handoff_at: Option<u64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            pop_stride: 4096,
            hysteresis: 1.05,
            max_replans: 1,
            force_handoff_at: None,
        }
    }
}

impl AdaptiveConfig {
    /// The defaults overridden from the environment, the same idiom as the
    /// planner's `SDJ_PLAN_BIAS`: `SDJ_ADAPTIVE_STRIDE` (pops between
    /// checkpoints), `SDJ_ADAPTIVE_HYSTERESIS` (switch margin), and
    /// `SDJ_ADAPTIVE_FORCE_AT` (unconditional handoff after N pops — the
    /// CI adaptive gate uses it to exercise a deterministic switch on
    /// workloads where the live model would correctly stay incremental).
    /// Unset or unparsable variables leave the default untouched.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(v) = env_parse::<u64>("SDJ_ADAPTIVE_STRIDE") {
            if v > 0 {
                config.pop_stride = v;
            }
        }
        if let Some(v) = env_parse::<f64>("SDJ_ADAPTIVE_HYSTERESIS") {
            if v.is_finite() && v > 0.0 {
                config.hysteresis = v;
            }
        }
        config.force_handoff_at = env_parse::<u64>("SDJ_ADAPTIVE_FORCE_AT");
        config
    }
}

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

/// The signals read at one checkpoint, plus the re-costing verdict — kept
/// so reports and tests can replay why (and why not) a run switched.
#[derive(Clone, Copy, Debug)]
pub struct ReplanSignals {
    /// 1-based checkpoint index.
    pub checkpoint: u64,
    /// Pops performed when the checkpoint fired.
    pub pops: u64,
    /// Results emitted so far.
    pub results: u64,
    /// Queue length at the checkpoint.
    pub queue_len: usize,
    /// Pairs enqueued so far.
    pub pairs_enqueued: u64,
    /// The ratcheted frontier estimate (see [`crate::plan::replan`]).
    pub observed_frontier: f64,
    /// Pops per result so far (`inf` before the first result).
    pub pops_per_result: f64,
    /// Net queue growth per pop since the start.
    pub queue_growth_per_pop: f64,
    /// Sampled share of run self-time spent in queue phases
    /// (pop/push/spill/reload), when span profiling is on.
    pub queue_self_share: Option<f64>,
    /// Re-costed remaining work of staying incremental.
    pub est_incremental_remaining: f64,
    /// Re-costed work of the frontier-seeded bulk remainder.
    pub est_bulk_remaining: f64,
    /// Whether this checkpoint triggered the handoff.
    pub switched: bool,
}

/// Where and why a run switched paths.
#[derive(Clone, Copy, Debug)]
pub struct ReplanInfo {
    /// Pops performed when the switch fired.
    pub at_pop: u64,
    /// Results already emitted when the switch fired.
    pub at_pair: u64,
    /// Re-costed remaining incremental work at the switch.
    pub est_incremental_remaining: f64,
    /// Re-costed seeded-bulk work at the switch.
    pub est_bulk_remaining: f64,
    /// True when [`AdaptiveConfig::force_handoff_at`] fired instead of the
    /// cost model.
    pub forced: bool,
}

/// A finished (or failed-clean) adaptive run.
#[derive(Debug)]
pub struct AdaptiveRun {
    /// The result stream: the incremental prefix followed by the seeded
    /// bulk remainder (empty tail when no replan fired).
    pub results: Vec<ResultPair>,
    /// Counters of the incremental phase (including frontier harvest
    /// node accesses when a handoff ran).
    pub stats: JoinStats,
    /// Bulk-phase counters, when a handoff ran.
    pub bulk_stats: Option<BulkStats>,
    /// The switch record, when a handoff ran.
    pub replanned: Option<ReplanInfo>,
    /// Every checkpoint's signals, in order.
    pub signals: Vec<ReplanSignals>,
    /// Fail-clean terminal error: when `Some`, `results` is a correct
    /// prefix of the fault-free stream (the PR 5 contract — a fault inside
    /// the handoff itself surfaces here too, never as wrong results).
    pub error: Option<StorageError>,
}

/// An adaptive run paused at the handoff: the incremental prefix plus the
/// seeded bulk join, not yet swept — so an executor can sweep its cells
/// with a worker pool instead of serially.
pub struct Handoff<const D: usize> {
    /// Results the incremental phase emitted, in order.
    pub prefix: Vec<ResultPair>,
    /// The frontier-seeded bulk join, replicated and ready to run.
    pub bulk: BulkDistanceJoin<D>,
    /// The switch record.
    pub info: ReplanInfo,
    /// Incremental-phase counters (including harvest node accesses).
    pub inc_stats: JoinStats,
    /// Every checkpoint's signals, in order.
    pub signals: Vec<ReplanSignals>,
}

/// What [`AdaptiveDistanceJoin::execute`] produced.
///
/// Both variants are fat (a finished run's stats + signals, or a whole
/// seeded [`BulkDistanceJoin`]), but the value exists once per query and
/// is destructured immediately by the caller — boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum AdaptiveOutcome<const D: usize> {
    /// The incremental engine finished (or failed clean) before any
    /// checkpoint chose to switch — the run is complete.
    Completed(AdaptiveRun),
    /// A checkpoint switched: the remainder is the seeded bulk join.
    Handoff(Handoff<D>),
}

/// The adaptive driver: an incremental join that may hand its remainder to
/// a frontier-seeded bulk join mid-run. See the module docs.
///
/// Adaptivity is gated to plain ascending joins: descending order has no
/// monotone watermark, and the semi-join / window variants carry engine
/// state (seen-sets, clip windows) the bulk path does not model. Ineligible
/// configurations run the incremental engine to completion unchanged.
pub struct AdaptiveDistanceJoin<'a, const D: usize, I1 = RTree<D>, I2 = RTree<D>> {
    tree1: &'a I1,
    tree2: &'a I2,
    config: JoinConfig,
    bulk_config: BulkConfig,
    adaptive: AdaptiveConfig,
    ctx: Option<ObsContext>,
    queue_fault: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
    queue_retry_limit: Option<u32>,
}

impl<'a, const D: usize, I1, I2> AdaptiveDistanceJoin<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Starts an adaptive join with default bulk and adaptive knobs.
    #[must_use]
    pub fn new(tree1: &'a I1, tree2: &'a I2, config: JoinConfig) -> Self {
        Self::with_configs(
            tree1,
            tree2,
            config,
            BulkConfig::default(),
            AdaptiveConfig::default(),
        )
    }

    /// Starts an adaptive join with explicit bulk and adaptive knobs.
    #[must_use]
    pub fn with_configs(
        tree1: &'a I1,
        tree2: &'a I2,
        config: JoinConfig,
        bulk_config: BulkConfig,
        adaptive: AdaptiveConfig,
    ) -> Self {
        config.assert_valid();
        Self {
            tree1,
            tree2,
            config,
            bulk_config,
            adaptive,
            ctx: None,
            queue_fault: None,
            queue_retry_limit: None,
        }
    }

    /// Attaches instrumentation: the inner engines report through `ctx`,
    /// checkpoints sample the queue self-time share from its span registry,
    /// and a handoff emits [`Event::Replanned`] plus the `plan.replans` /
    /// `plan.replan_at_pair` gauges.
    #[must_use]
    pub fn with_obs(mut self, ctx: &ObsContext) -> Self {
        self.ctx = Some(ctx.clone());
        self
    }

    /// Injects faults into the incremental engine's hybrid queue pager
    /// (chaos testing; see [`DistanceJoin::set_queue_fault_injector`]).
    pub fn set_queue_fault_injector(
        &mut self,
        injector: Option<std::sync::Arc<sdj_storage::FaultInjector>>,
    ) {
        self.queue_fault = injector;
    }

    /// Bounds transient-fault retries of the hybrid queue's pager.
    pub fn set_queue_retry_limit(&mut self, limit: u32) {
        self.queue_retry_limit = Some(limit);
    }

    /// True when this configuration may replan (plain ascending join).
    #[must_use]
    pub fn eligible(&self) -> bool {
        matches!(self.config.order, ResultOrder::Ascending)
    }

    /// Runs to completion serially: drives the incremental engine through
    /// checkpoints and, if a handoff fires, sweeps the seeded bulk join
    /// ordered and appends its stream to the prefix.
    #[must_use]
    pub fn run(self) -> AdaptiveRun {
        match self.execute() {
            AdaptiveOutcome::Completed(run) => run,
            AdaptiveOutcome::Handoff(h) => {
                let mut bulk = h.bulk;
                let tail = bulk.run();
                let mut results = h.prefix;
                results.extend(tail);
                AdaptiveRun {
                    results,
                    stats: h.inc_stats,
                    bulk_stats: Some(bulk.bulk_stats()),
                    replanned: Some(h.info),
                    signals: h.signals,
                    error: None,
                }
            }
        }
    }

    /// Runs the incremental phase through its checkpoints and stops at the
    /// first of: engine exhaustion (run complete), a clean failure, or a
    /// handoff — returning the seeded bulk join unswept so the caller
    /// chooses serial or parallel execution of the remainder.
    #[must_use]
    pub fn execute(self) -> AdaptiveOutcome<D> {
        let (inputs, mut join) = self.build_engine();

        let eligible = self.eligible();
        let stride = self.adaptive.pop_stride.max(1);
        let mut results = Vec::new();
        let mut signals: Vec<ReplanSignals> = Vec::new();
        let mut checkpoint = 0u64;

        loop {
            let can_replan = eligible
                && signals.iter().filter(|s| s.switched).count()
                    < self.adaptive.max_replans as usize;
            // Once no checkpoint can ever fire again, drain without pausing.
            let budget = if !can_replan {
                u64::MAX
            } else {
                match self.adaptive.force_handoff_at {
                    // Stop exactly at the forced pop count.
                    Some(at) => {
                        let pops = join.stats().pairs_dequeued;
                        if at <= pops {
                            0
                        } else {
                            (at - pops).min(stride)
                        }
                    }
                    None => stride,
                }
            };
            if budget > 0 {
                match join.drive(budget, &mut results) {
                    Ok(true) => {
                        return AdaptiveOutcome::Completed(
                            self.completed(results, &join, signals, None),
                        )
                    }
                    Ok(false) => {}
                    Err(e) => {
                        return AdaptiveOutcome::Completed(self.completed(
                            results,
                            &join,
                            signals,
                            Some(e),
                        ))
                    }
                }
            }

            checkpoint += 1;
            let stats = join.stats();
            let observed = ObservedProgress {
                pops: stats.pairs_dequeued,
                results: stats.pairs_reported,
                enqueued: stats.pairs_enqueued,
                queue_len: join.queue_len(),
            };
            let forced = matches!(self.adaptive.force_handoff_at, Some(at) if observed.pops >= at);
            let verdict = plan::replan(&inputs, &observed, self.adaptive.hysteresis);
            let switch = forced || verdict.switch;
            signals.push(ReplanSignals {
                checkpoint,
                pops: observed.pops,
                results: observed.results,
                queue_len: observed.queue_len,
                pairs_enqueued: observed.enqueued,
                observed_frontier: verdict.observed_frontier,
                pops_per_result: if observed.results == 0 {
                    f64::INFINITY
                } else {
                    observed.pops as f64 / observed.results as f64
                },
                queue_growth_per_pop: if observed.pops == 0 {
                    0.0
                } else {
                    observed.queue_len as f64 / observed.pops as f64
                },
                queue_self_share: self.queue_self_share(),
                est_incremental_remaining: verdict.est_incremental_remaining,
                est_bulk_remaining: verdict.est_bulk_remaining,
                switched: switch,
            });
            if !switch {
                continue;
            }

            let info = ReplanInfo {
                at_pop: observed.pops,
                at_pair: observed.results,
                est_incremental_remaining: verdict.est_incremental_remaining,
                est_bulk_remaining: verdict.est_bulk_remaining,
                forced,
            };
            return self.handoff(join, results, signals, info);
        }
    }

    /// Builds the configured incremental engine (instrumentation, fault
    /// injection, watermark tracking) plus the planner inputs checkpoints
    /// re-cost against — the shared setup of [`Self::execute`] and
    /// [`Self::cursor`].
    fn build_engine(&self) -> (PlanInputs<D>, DistanceJoin<'a, D, MbrOracle, I1, I2>) {
        let inputs = PlanInputs::from_trees(self.tree1, self.tree2, &self.config);
        let mut join = DistanceJoin::new(self.tree1, self.tree2, self.config);
        if let Some(ctx) = &self.ctx {
            join = join.with_obs(ctx);
        }
        if let Some(inj) = &self.queue_fault {
            join.set_queue_fault_injector(Some(std::sync::Arc::clone(inj)));
        }
        if let Some(limit) = self.queue_retry_limit {
            join.set_queue_retry_limit(limit);
        }
        join.track_watermark();
        (inputs, join)
    }

    /// Converts the driver into a pull-paced cursor: the same
    /// checkpoint/replan/handoff machine as [`Self::execute`], but advanced
    /// only as far as the consumer's [`AdaptiveCursor::pull`] calls demand,
    /// so a session can hold the join paused between batches with the
    /// frontier intact.
    #[must_use]
    pub fn cursor(self) -> AdaptiveCursor<'a, D, I1, I2> {
        let (inputs, join) = self.build_engine();
        AdaptiveCursor {
            driver: self,
            inputs,
            state: CursorState::Incremental(Box::new(join)),
            buf: VecDeque::new(),
            signals: Vec::new(),
            replanned: None,
            stats: JoinStats::default(),
            bulk_stats: None,
            checkpoint: 0,
            pending_error: None,
        }
    }

    /// Sampled share of run self-time spent inside the queue (pop, push,
    /// spill, reload) — one of the live signals checkpoints record. `None`
    /// without instrumentation or before any span sample lands.
    fn queue_self_share(&self) -> Option<f64> {
        let ctx = self.ctx.as_ref()?;
        let snapshot = ctx.registry.spans().snapshot();
        let mut queue_ns = 0.0;
        let mut total_ns = 0.0;
        for p in &snapshot {
            let ns = p.est_total_ns();
            total_ns += ns;
            if matches!(
                p.phase,
                Phase::QueuePop | Phase::QueuePush | Phase::Spill | Phase::Reload
            ) {
                queue_ns += ns;
            }
        }
        (total_ns > 0.0).then(|| queue_ns / total_ns)
    }

    /// Wraps an incremental-only finish (exhaustion or clean failure).
    fn completed<O>(
        &self,
        results: Vec<ResultPair>,
        join: &DistanceJoin<'a, D, O, I1, I2>,
        signals: Vec<ReplanSignals>,
        error: Option<StorageError>,
    ) -> AdaptiveRun
    where
        O: crate::oracle::DistanceOracle<D>,
    {
        AdaptiveRun {
            results,
            stats: join.stats(),
            bulk_stats: None,
            replanned: None,
            signals,
            error,
        }
    }

    /// Pauses the engine, exports and harvests its frontier, and seeds the
    /// bulk remainder. Any fault inside the export or harvest fails clean:
    /// the prefix emitted so far is returned with the typed error.
    fn handoff<O>(
        &self,
        join: DistanceJoin<'a, D, O, I1, I2>,
        mut results: Vec<ResultPair>,
        signals: Vec<ReplanSignals>,
        info: ReplanInfo,
    ) -> AdaptiveOutcome<D>
    where
        O: crate::oracle::DistanceOracle<D>,
    {
        let floor = join.watermark().cloned();
        let mut frontier = join.into_frontier(1, 0);
        results.append(&mut frontier.prefix);
        let mut inc_stats = frontier.stats;
        if let Some(e) = frontier.error {
            return AdaptiveOutcome::Completed(AdaptiveRun {
                results,
                stats: inc_stats,
                bulk_stats: None,
                replanned: None,
                signals,
                error: Some(e),
            });
        }
        if frontier.exhausted {
            return AdaptiveOutcome::Completed(AdaptiveRun {
                results,
                stats: inc_stats,
                bulk_stats: None,
                replanned: None,
                signals,
                error: None,
            });
        }

        let shard = frontier.shards.pop().unwrap_or_default();
        let mut side1 = HarvestSide::default();
        let mut side2 = HarvestSide::default();
        for (_, pair) in &shard {
            let r = side1
                .collect(self.tree1, &pair.item1, &mut inc_stats)
                .and_then(|()| side2.collect(self.tree2, &pair.item2, &mut inc_stats));
            if let Err(e) = r {
                return AdaptiveOutcome::Completed(AdaptiveRun {
                    results,
                    stats: inc_stats,
                    bulk_stats: None,
                    replanned: None,
                    signals,
                    error: Some(e),
                });
            }
        }

        let mut seeded_config = self.config;
        seeded_config.max_pairs = frontier.remaining_pairs;
        let bulk = BulkDistanceJoin::from_frontier(
            side1.entries,
            side2.entries,
            seeded_config,
            self.bulk_config,
            floor.as_ref(),
            frontier.dmax_hint,
            self.ctx.as_ref(),
        );

        if let Some(ctx) = &self.ctx {
            ctx.sink.emit(&Event::Replanned {
                from: PlanPath::Incremental,
                to: PlanPath::Bulk,
                at_pop: info.at_pop,
                at_pair: info.at_pair,
                est_incremental_remaining: info.est_incremental_remaining,
                est_bulk_remaining: info.est_bulk_remaining,
            });
            ctx.registry.gauge("plan.replans").set(1);
            ctx.registry
                .gauge("plan.replan_at_pair")
                .set(i64::try_from(info.at_pair).unwrap_or(i64::MAX));
        }

        AdaptiveOutcome::Handoff(Handoff {
            prefix: results,
            bulk,
            info,
            inc_stats,
            signals,
        })
    }
}

/// Where an [`AdaptiveCursor`] currently is in its run.
enum CursorState<'a, const D: usize, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Driving the incremental engine through checkpoints.
    Incremental(Box<DistanceJoin<'a, D, MbrOracle, I1, I2>>),
    /// A handoff fired; the seeded bulk remainder has been swept and its
    /// ordered tail is being drained.
    BulkTail(std::vec::IntoIter<ResultPair>),
    /// Exhausted (or failed clean).
    Finished,
}

/// A pull-driven adaptive join cursor.
///
/// [`AdaptiveDistanceJoin::execute`] owns its own loop: it drives the
/// engine stride after stride until exhaustion or a handoff, then hands the
/// whole remainder back at once. A cursor session cannot work that way — it
/// needs to surface results a batch at a time, pause indefinitely between
/// batches with the frontier held in place, and be cancelled mid-stream.
/// `AdaptiveCursor` is the same machine inverted: each [`Self::pull`]
/// drives at most one stride (so the checkpoint schedule, and therefore
/// the replan decision sequence, is *identical* to `execute`'s), buffers
/// any results the stride over-produced, and parks. When a checkpoint
/// fires the handoff, the seeded bulk remainder is swept serially on the
/// spot — the bulk path materialises by nature — and its ordered tail is
/// then drained batch by batch.
///
/// Fail-clean shape: a storage fault ends the stream, but every result
/// produced before it is still handed out first; the typed error surfaces
/// on the first `pull` after the buffered prefix drains (the PR 5
/// "correct prefix, then the error" contract, adapted to a pull API).
pub struct AdaptiveCursor<'a, const D: usize, I1 = RTree<D>, I2 = RTree<D>>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    driver: AdaptiveDistanceJoin<'a, D, I1, I2>,
    inputs: PlanInputs<D>,
    state: CursorState<'a, D, I1, I2>,
    /// Results a stride produced beyond what the consumer asked for.
    buf: VecDeque<ResultPair>,
    signals: Vec<ReplanSignals>,
    replanned: Option<ReplanInfo>,
    /// Incremental-phase counters, frozen when that phase ends.
    stats: JoinStats,
    bulk_stats: Option<BulkStats>,
    checkpoint: u64,
    /// A terminal fault, held until the buffered prefix has drained.
    pending_error: Option<StorageError>,
}

impl<'a, const D: usize, I1, I2> AdaptiveCursor<'a, D, I1, I2>
where
    I1: SpatialIndex<D>,
    I2: SpatialIndex<D>,
{
    /// Appends up to `n` further results to `out`, in stream order.
    ///
    /// Returns `Ok(true)` once the stream is exhausted (this call may have
    /// appended fewer than `n`, including zero). `Err` is terminal and
    /// fail-clean: everything appended across all `pull` calls so far is a
    /// correct prefix of the fault-free stream.
    pub fn pull(&mut self, n: usize, out: &mut Vec<ResultPair>) -> sdj_storage::Result<bool> {
        let target = out.len().saturating_add(n);
        while out.len() < target {
            if let Some(r) = self.buf.pop_front() {
                out.push(r);
                continue;
            }
            match &mut self.state {
                CursorState::Finished => {
                    if let Some(e) = self.pending_error.take() {
                        return Err(e);
                    }
                    return Ok(true);
                }
                CursorState::BulkTail(tail) => match tail.next() {
                    Some(r) => out.push(r),
                    None => self.state = CursorState::Finished,
                },
                CursorState::Incremental(_) => self.advance_incremental(),
            }
        }
        Ok(self.is_done())
    }

    /// One iteration of the `execute` loop: drive a stride (or up to the
    /// forced handoff point), then run the checkpoint, possibly switching
    /// to the bulk tail. Results land in `buf`; faults land in
    /// `pending_error` so the buffered prefix drains first.
    fn advance_incremental(&mut self) {
        let adaptive = self.driver.adaptive;
        let stride = adaptive.pop_stride.max(1);
        let can_replan = self.driver.eligible()
            && self.signals.iter().filter(|s| s.switched).count() < adaptive.max_replans as usize;
        let CursorState::Incremental(join) = &mut self.state else {
            return;
        };
        let budget = if !can_replan {
            u64::MAX
        } else {
            match adaptive.force_handoff_at {
                Some(at) => {
                    let pops = join.stats().pairs_dequeued;
                    if at <= pops {
                        0
                    } else {
                        (at - pops).min(stride)
                    }
                }
                None => stride,
            }
        };
        if budget > 0 {
            let mut chunk = Vec::new();
            let outcome = join.drive(budget, &mut chunk);
            self.buf.extend(chunk);
            match outcome {
                Ok(true) => {
                    self.stats = join.stats();
                    self.state = CursorState::Finished;
                    return;
                }
                Ok(false) => {}
                Err(e) => {
                    self.stats = join.stats();
                    self.pending_error = Some(e);
                    self.state = CursorState::Finished;
                    return;
                }
            }
        }

        self.checkpoint += 1;
        let stats = join.stats();
        let observed = ObservedProgress {
            pops: stats.pairs_dequeued,
            results: stats.pairs_reported,
            enqueued: stats.pairs_enqueued,
            queue_len: join.queue_len(),
        };
        let forced = matches!(adaptive.force_handoff_at, Some(at) if observed.pops >= at);
        let verdict = plan::replan(&self.inputs, &observed, adaptive.hysteresis);
        let switch = forced || verdict.switch;
        self.signals.push(ReplanSignals {
            checkpoint: self.checkpoint,
            pops: observed.pops,
            results: observed.results,
            queue_len: observed.queue_len,
            pairs_enqueued: observed.enqueued,
            observed_frontier: verdict.observed_frontier,
            pops_per_result: if observed.results == 0 {
                f64::INFINITY
            } else {
                observed.pops as f64 / observed.results as f64
            },
            queue_growth_per_pop: if observed.pops == 0 {
                0.0
            } else {
                observed.queue_len as f64 / observed.pops as f64
            },
            queue_self_share: self.driver.queue_self_share(),
            est_incremental_remaining: verdict.est_incremental_remaining,
            est_bulk_remaining: verdict.est_bulk_remaining,
            switched: switch,
        });
        if !switch {
            return;
        }

        let info = ReplanInfo {
            at_pop: observed.pops,
            at_pair: observed.results,
            est_incremental_remaining: verdict.est_incremental_remaining,
            est_bulk_remaining: verdict.est_bulk_remaining,
            forced,
        };
        let CursorState::Incremental(join) =
            std::mem::replace(&mut self.state, CursorState::Finished)
        else {
            return;
        };
        let pending: Vec<ResultPair> = self.buf.drain(..).collect();
        let signals = std::mem::take(&mut self.signals);
        match self.driver.handoff(*join, pending, signals, info) {
            AdaptiveOutcome::Completed(run) => {
                self.buf.extend(run.results);
                self.stats = run.stats;
                self.signals = run.signals;
                self.pending_error = run.error;
            }
            AdaptiveOutcome::Handoff(h) => {
                self.buf.extend(h.prefix);
                self.stats = h.inc_stats;
                self.signals = h.signals;
                self.replanned = Some(h.info);
                let mut bulk = h.bulk;
                let tail = bulk.run();
                self.bulk_stats = Some(bulk.bulk_stats());
                self.state = CursorState::BulkTail(tail.into_iter());
            }
        }
    }

    /// True once every result has been handed out and no error is pending.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.state, CursorState::Finished)
            && self.buf.is_empty()
            && self.pending_error.is_none()
    }

    /// Bytes held by the paused incremental engine's queue (all tiers).
    /// Zero once the incremental phase has ended.
    #[must_use]
    pub fn queue_bytes(&self) -> usize {
        match &self.state {
            CursorState::Incremental(j) => j.queue_bytes(),
            _ => 0,
        }
    }

    /// Bytes held by results a stride over-produced (or the materialised
    /// bulk tail still waiting to be drained).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        let tail = match &self.state {
            CursorState::BulkTail(t) => t.len(),
            _ => 0,
        };
        (self.buf.len() + tail) * std::mem::size_of::<ResultPair>()
    }

    /// Incremental-phase counters (live while that phase runs).
    #[must_use]
    pub fn stats(&self) -> JoinStats {
        match &self.state {
            CursorState::Incremental(j) => j.stats(),
            _ => self.stats,
        }
    }

    /// Bulk-phase counters, once a handoff has run.
    #[must_use]
    pub fn bulk_stats(&self) -> Option<&BulkStats> {
        self.bulk_stats.as_ref()
    }

    /// The switch record, once a handoff has fired.
    #[must_use]
    pub fn replanned(&self) -> Option<&ReplanInfo> {
        self.replanned.as_ref()
    }

    /// Every checkpoint's signals so far, in order.
    #[must_use]
    pub fn signals(&self) -> &[ReplanSignals] {
        &self.signals
    }

    /// Re-registers the underlying queue's gauges under `prefix` (e.g.
    /// `session.3.`), for per-session attribution. No-op once the
    /// incremental phase has ended.
    pub fn attach_queue_obs_prefixed(&mut self, ctx: &ObsContext, prefix: &str) {
        if let CursorState::Incremental(j) = &mut self.state {
            j.attach_queue_obs_prefixed(ctx, prefix);
        }
    }
}

/// One side's harvest state: frontier items flattened to object entries,
/// with per-side dedup. A node's subtree is walked at most once (two
/// frontier pairs may share an item), and an object reached both directly
/// and through an ancestor node's walk is kept once — object identity is
/// the dedup key, so any overlap between harvested subtrees collapses.
#[derive(Default)]
struct HarvestSide<const D: usize> {
    entries: Vec<(ObjectId, Rect<D>)>,
    visited_nodes: HashSet<NodeId>,
    seen_oids: HashSet<u64>,
    buf: IndexNode<D>,
    stack: Vec<NodeId>,
}

impl<const D: usize> HarvestSide<D> {
    fn push_object(&mut self, oid: ObjectId, mbr: Rect<D>) {
        if self.seen_oids.insert(oid.0) {
            self.entries.push((oid, mbr));
        }
    }

    fn collect<I>(
        &mut self,
        tree: &I,
        item: &Item<D>,
        stats: &mut JoinStats,
    ) -> sdj_storage::Result<()>
    where
        I: SpatialIndex<D> + ?Sized,
    {
        match *item {
            Item::Obr { oid, mbr } | Item::Object { oid, mbr } => {
                self.push_object(oid, mbr);
                Ok(())
            }
            Item::Node { page, .. } => {
                if !self.visited_nodes.insert(page) {
                    return Ok(());
                }
                self.stack.clear();
                self.stack.push(page);
                while let Some(id) = self.stack.pop() {
                    tree.read_node_into(id, &mut self.buf)?;
                    stats.node_accesses += 1;
                    // Split borrows: drain entries out of the buffer before
                    // touching `self` again.
                    let entries = std::mem::take(&mut self.buf.entries);
                    for e in &entries {
                        match *e {
                            IndexEntry::Child { id, .. } => {
                                if self.visited_nodes.insert(id) {
                                    self.stack.push(id);
                                }
                            }
                            IndexEntry::Object { oid, mbr } => self.push_object(oid, mbr),
                        }
                    }
                    self.buf.entries = entries;
                    self.buf.entries.clear();
                }
                Ok(())
            }
        }
    }
}
