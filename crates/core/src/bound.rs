//! A lock-free distance bound shared between the workers of a parallel run.
//!
//! Each worker of the parallel executor drives an independent copy of the
//! serial engine over a disjoint shard of the pair queue. A bound proven by
//! one worker's estimator ("the K results still owed all lie within `d`")
//! holds globally — the merged result set is a superset of any single
//! shard's — so workers publish their estimator's maximum distance here and
//! read the fleet-wide minimum back into their own pruning checks.
//!
//! The published values live in the join's *key domain* (squared distances
//! under the Euclidean metric, plain distances otherwise — see
//! `JoinConfig::key_space`). All workers of a run share one config and
//! therefore one domain, and the monotone distance → key map preserves the
//! min, so nothing here needs to know which domain is in use.
//!
//! The bound is a non-negative `f64` stored as its IEEE-754 bit pattern in
//! an [`AtomicU64`]. For non-negative floats the bit patterns order exactly
//! like the values, so `fetch_min` on the raw bits is `fetch_min` on the
//! distances — no compare-exchange loop needed.
//!
//! The bound also carries the run's close signal: once the consumer of the
//! merged stream is gone, nothing a worker could still produce would be
//! read, so every worker stops at its next pop ([`SharedDistanceBound::close`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A monotonically non-increasing distance bound shared across threads,
/// plus a one-way close signal.
#[derive(Debug)]
pub struct SharedDistanceBound {
    bits: AtomicU64,
    closed: AtomicBool,
}

impl Default for SharedDistanceBound {
    fn default() -> Self {
        Self::new(f64::INFINITY)
    }
}

impl SharedDistanceBound {
    /// Creates a bound starting at `initial`.
    ///
    /// # Panics
    /// Panics if `initial` is negative or NaN (the bit-pattern ordering trick
    /// requires non-negative values).
    #[must_use]
    pub fn new(initial: f64) -> Self {
        assert!(
            initial >= 0.0,
            "shared distance bounds must be non-negative"
        );
        Self {
            bits: AtomicU64::new(initial.to_bits()),
            closed: AtomicBool::new(false),
        }
    }

    /// The current bound.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Lowers the bound to `bound` if it is tighter than the current value.
    /// Non-finite or negative candidates are ignored (they can only arise
    /// from callers that have nothing to prove). Returns true when this call
    /// strictly lowered the bound — the executor emits a `BoundTightened`
    /// event per strict improvement.
    pub fn tighten(&self, bound: f64) -> bool {
        if bound.is_nan() || bound < 0.0 {
            return false;
        }
        // Non-negative f64 bit patterns are monotone in the value, so an
        // integer fetch_min implements a float min atomically.
        let prev = self.bits.fetch_min(bound.to_bits(), Ordering::AcqRel);
        bound < f64::from_bits(prev)
    }

    /// Signals that the run's consumer is gone: engines holding this bound
    /// stop at their next pop. Irreversible. The flag publishes no other
    /// data; this `Release` pairs with the `Acquire` in
    /// [`is_closed`](Self::is_closed).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// True once [`close`](Self::close) was called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_initial_and_only_tightens() {
        let b = SharedDistanceBound::new(10.0);
        assert_eq!(b.get(), 10.0);
        assert!(!b.tighten(12.0), "looser bound is not an improvement");
        assert_eq!(b.get(), 10.0, "looser bound ignored");
        assert!(b.tighten(4.5));
        assert_eq!(b.get(), 4.5);
        assert!(!b.tighten(4.5), "equal bound is not a strict improvement");
        assert_eq!(b.get(), 4.5);
    }

    #[test]
    fn default_is_unbounded() {
        let b = SharedDistanceBound::default();
        assert_eq!(b.get(), f64::INFINITY);
        b.tighten(f64::INFINITY);
        assert_eq!(b.get(), f64::INFINITY);
        b.tighten(0.0);
        assert_eq!(b.get(), 0.0);
    }

    #[test]
    fn rejects_invalid_candidates() {
        let b = SharedDistanceBound::new(5.0);
        b.tighten(-1.0);
        b.tighten(f64::NAN);
        assert_eq!(b.get(), 5.0);
    }

    #[test]
    fn close_is_one_way_and_leaves_the_bound_alone() {
        let b = SharedDistanceBound::new(3.0);
        assert!(!b.is_closed());
        b.close();
        b.close();
        assert!(b.is_closed());
        assert_eq!(b.get(), 3.0);
    }

    #[test]
    fn concurrent_tighten_converges_to_minimum() {
        let b = SharedDistanceBound::default();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let b = &b;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        b.tighten(f64::from(1 + (i.wrapping_mul(2654435761) + t) % 1000));
                    }
                });
            }
        });
        assert_eq!(b.get(), 1.0);
    }
}
