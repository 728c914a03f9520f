//! Join configuration: the paper's design space as data.

use std::fmt;

use sdj_geom::Metric;
use sdj_pqueue::HybridConfig;

pub use crate::pair::TiePolicy;
/// Queue memory layout (`DESIGN.md` §14): `Pairing` is the paper's
/// pointer-based pairing heap over fat pairs; `FlatDary` stores 16-byte
/// compact entries in a flat 4-ary implicit heap with pair payloads interned
/// in a shared item arena. Result streams are bit-identical across layouts.
pub use sdj_pqueue::Layout as QueueLayout;

/// How node/node pairs are expanded (§2.2.2, evaluated in §4.1.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TraversalPolicy {
    /// Always process item 1 (the basic algorithm of Figure 3).
    Basic,
    /// Process the node at the shallower level, keeping the two trees
    /// evenly descended (the paper's best performer).
    #[default]
    Even,
    /// Process both nodes simultaneously, pairing their entries with a
    /// plane sweep restricted by the current maximum distance.
    Simultaneous,
}

/// Queue backend (§3.2 / §4.1.3).
#[derive(Clone, Copy, Debug, Default)]
pub enum QueueBackend {
    /// Purely in-memory pairing heap.
    #[default]
    Memory,
    /// The hybrid three-tier memory/disk queue with its `D_T` increment.
    Hybrid(HybridConfig),
}

/// Which upper-bound distance feeds the maximum-distance estimator
/// (§2.2.3/§2.2.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EstimationBound {
    /// MAXDIST: bounds *every* object pair generated from the pair, so the
    /// full lower-bound subtree count may be credited.
    #[default]
    AllPairs,
    /// MINMAXDIST: bounds only the *closest* generated pair, so a single
    /// result is credited. Tighter distances, smaller counts.
    ExistsPair,
}

/// Result ordering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ResultOrder {
    /// Closest pairs first.
    #[default]
    Ascending,
    /// Farthest pairs first (§2.2.5: keys become upper-bound distances).
    Descending,
}

/// Why [`JoinConfig::validate`] rejected a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `min_distance` or `max_distance` is negative or NaN.
    InvalidBound,
    /// `min_distance` exceeds `max_distance`.
    InvertedRange,
    /// Descending order was combined with a non-memory queue backend.
    DescendingHybrid,
    /// A forced bulk-grid cell width is not positive and finite (see
    /// [`BulkConfig::validate`](crate::bulk::BulkConfig::validate)).
    InvalidCellWidth,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::InvalidBound => "distance bounds must be non-negative and not NaN",
            Self::InvertedRange => "min_distance exceeds max_distance",
            Self::DescendingHybrid => "descending joins require the memory queue backend",
            Self::InvalidCellWidth => "forced cell width must be positive and finite",
        })
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of an incremental distance join.
#[derive(Clone, Copy, Debug)]
pub struct JoinConfig {
    /// Point metric underlying all distance functions.
    pub metric: Metric,
    /// Node/node expansion policy.
    pub traversal: TraversalPolicy,
    /// Equal-distance ordering.
    pub tie: TiePolicy,
    /// Priority-queue backend.
    pub queue: QueueBackend,
    /// Priority-queue memory layout, applied to whichever backend is
    /// selected (this field overrides any layout carried by a
    /// [`HybridConfig`]). Pop order and result streams are identical across
    /// layouts; only footprint and cache behaviour differ.
    pub layout: QueueLayout,
    /// Minimum result distance (`WHERE d >= dmin`); pairs that cannot reach
    /// it are pruned via MAXDIST.
    pub min_distance: f64,
    /// Maximum result distance (`WHERE d <= dmax`).
    pub max_distance: f64,
    /// `STOP AFTER` bound on the number of result pairs; enables the
    /// maximum-distance estimation of §2.2.4.
    pub max_pairs: Option<u64>,
    /// Bound family used by the estimator.
    pub estimation: EstimationBound,
    /// Result ordering (descending disables estimation and requires the
    /// memory queue backend).
    pub order: ResultOrder,
    /// Suppress result pairs whose two object ids are equal — for
    /// self-joins such as the all-nearest-neighbours application of §1,
    /// where an object must not be its own nearest neighbour.
    pub exclude_equal_ids: bool,
}

impl Default for JoinConfig {
    fn default() -> Self {
        Self {
            metric: Metric::Euclidean,
            traversal: TraversalPolicy::default(),
            tie: TiePolicy::default(),
            queue: QueueBackend::default(),
            layout: QueueLayout::default(),
            min_distance: 0.0,
            max_distance: f64::INFINITY,
            max_pairs: None,
            estimation: EstimationBound::default(),
            order: ResultOrder::default(),
            exclude_equal_ids: false,
        }
    }
}

impl JoinConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    /// Rejects negative or NaN range bounds, an inverted range, and
    /// descending order with a hybrid queue (whose disk buckets are keyed by
    /// non-negative distance).
    pub fn validate(&self) -> Result<(), ConfigError> {
        // `!(x >= 0.0)` also catches NaN.
        if !(self.min_distance >= 0.0 && self.max_distance >= 0.0) {
            return Err(ConfigError::InvalidBound);
        }
        if self.min_distance > self.max_distance {
            return Err(ConfigError::InvertedRange);
        }
        if matches!(self.order, ResultOrder::Descending)
            && !matches!(self.queue, QueueBackend::Memory)
        {
            return Err(ConfigError::DescendingHybrid);
        }
        Ok(())
    }

    /// [`validate`](Self::validate) for the engine constructors, whose
    /// contract is to panic on an invalid configuration.
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] message when `validate` fails.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid join config: {e}");
        }
    }

    /// Convenience: limit the result to `k` pairs (enables estimation).
    #[must_use]
    pub fn with_max_pairs(mut self, k: u64) -> Self {
        self.max_pairs = Some(k);
        self
    }

    /// Convenience: restrict result distances to `[min, max]`.
    #[must_use]
    pub fn with_range(mut self, min: f64, max: f64) -> Self {
        self.min_distance = min;
        self.max_distance = max;
        self
    }

    /// Convenience: select the queue memory layout.
    #[must_use]
    pub fn with_layout(mut self, layout: QueueLayout) -> Self {
        self.layout = layout;
        self
    }

    /// The key space implied by `metric`: all queue keys, shared bounds, and
    /// range restrictions live in it. Euclidean keys are squared distances,
    /// so MINDIST/MAXDIST evaluations skip their `sqrt`; the single root is
    /// paid when a result is reported (`DESIGN.md` §8).
    #[must_use]
    pub fn key_space(&self) -> sdj_geom::KeySpace {
        sdj_geom::KeySpace::squared(self.metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_papers_best_variant() {
        let c = JoinConfig::default();
        assert_eq!(c.traversal, TraversalPolicy::Even);
        assert_eq!(c.tie, TiePolicy::DepthFirst);
        assert_eq!(c.min_distance, 0.0);
        assert_eq!(c.max_distance, f64::INFINITY);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = JoinConfig::default()
            .with_range(1.0, 5.0)
            .with_max_pairs(10);
        assert_eq!(c.min_distance, 1.0);
        assert_eq!(c.max_distance, 5.0);
        assert_eq!(c.max_pairs, Some(10));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn inverted_range_rejected() {
        let c = JoinConfig::default().with_range(5.0, 1.0);
        assert_eq!(c.validate(), Err(ConfigError::InvertedRange));
    }

    #[test]
    fn negative_and_nan_bounds_rejected() {
        for (min, max) in [(-1.0, 1.0), (0.0, -1.0), (0.0, f64::NAN), (f64::NAN, 1.0)] {
            let c = JoinConfig::default().with_range(min, max);
            assert_eq!(c.validate(), Err(ConfigError::InvalidBound), "{min}..{max}");
        }
    }

    #[test]
    fn descending_hybrid_rejected() {
        let c = JoinConfig {
            order: ResultOrder::Descending,
            queue: QueueBackend::Hybrid(HybridConfig::default()),
            ..JoinConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::DescendingHybrid));
    }
}
