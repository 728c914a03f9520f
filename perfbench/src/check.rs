//! Output checks, run outside the timed sections.
//!
//! Equal distances may legitimately come out in different orders (or, at a
//! `STOP AFTER` cut, as different members of a tied group), so streams are
//! compared tie-aware: the distance sequences must be identical, and so
//! must the sets of pairs strictly below the boundary (last) distance. A
//! stream that was drained to its end must match as a whole set.

use std::collections::HashSet;

use sdj_core::ResultPair;

fn key(r: &ResultPair) -> (u64, u64) {
    (r.oid1.0, r.oid2.0)
}

/// Distances never decrease along the stream.
pub fn non_decreasing(stream: &[ResultPair]) -> Result<(), String> {
    match stream
        .windows(2)
        .position(|w| w[1].distance < w[0].distance)
    {
        Some(i) => Err(format!(
            "distance decreases at #{}: {} after {}",
            i + 1,
            stream[i + 1].distance,
            stream[i].distance
        )),
        None => Ok(()),
    }
}

/// Tie-aware equality of `got` against the reference `want`; `complete`
/// says both streams ran to their end.
pub fn same_stream(got: &[ResultPair], want: &[ResultPair], complete: bool) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} results, reference has {}",
            got.len(),
            want.len()
        ));
    }
    non_decreasing(got)?;
    if let Some(i) = got
        .iter()
        .zip(want)
        .position(|(g, w)| g.distance.to_bits() != w.distance.to_bits())
    {
        return Err(format!(
            "distance #{i} is {}, reference has {}",
            got[i].distance, want[i].distance
        ));
    }
    let Some(boundary) = want.last().map(|r| r.distance) else {
        return Ok(());
    };
    let below = |s: &[ResultPair]| -> HashSet<(u64, u64)> {
        s.iter()
            .filter(|r| complete || r.distance < boundary)
            .map(key)
            .collect()
    };
    if below(got) != below(want) {
        return Err(format!(
            "pair sets differ below the boundary distance {boundary}"
        ));
    }
    Ok(())
}

/// A semi-join stream names each outer object at most once.
pub fn distinct_outer(stream: &[ResultPair]) -> Result<(), String> {
    let mut seen = HashSet::with_capacity(stream.len());
    for r in stream {
        if !seen.insert(r.oid1.0) {
            return Err(format!("outer object {} reported twice", r.oid1.0));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdj_rtree::ObjectId;

    fn rp(a: u64, b: u64, d: f64) -> ResultPair {
        ResultPair {
            oid1: ObjectId(a),
            oid2: ObjectId(b),
            distance: d,
        }
    }

    #[test]
    fn ties_at_the_boundary_may_differ() {
        let want = [rp(1, 1, 0.1), rp(2, 2, 0.5), rp(3, 3, 0.5)];
        let got = [rp(1, 1, 0.1), rp(3, 3, 0.5), rp(4, 4, 0.5)];
        assert!(same_stream(&got, &want, false).is_ok());
        assert!(same_stream(&got, &want, true).is_err());
    }

    #[test]
    fn pairs_below_the_boundary_must_match() {
        let want = [rp(1, 1, 0.1), rp(2, 2, 0.5)];
        let got = [rp(9, 9, 0.1), rp(2, 2, 0.5)];
        assert!(same_stream(&got, &want, false).is_err());
        let shifted = [rp(1, 1, 0.1), rp(2, 2, 0.6)];
        assert!(same_stream(&shifted, &want, false).is_err());
    }

    #[test]
    fn outer_ids_must_be_distinct() {
        assert!(distinct_outer(&[rp(1, 2, 0.0), rp(2, 2, 0.1)]).is_ok());
        assert!(distinct_outer(&[rp(1, 2, 0.0), rp(1, 3, 0.1)]).is_err());
    }
}
