//! Answer checking: an order-independent digest of a join's pair set,
//! the SUPER-EGO reference it is compared against, and the linear-scan
//! oracle for serve neighbour lists.

use epsgrid::{within_epsilon, Point};

/// Pair count plus an order-independent digest of an ordered pair set.
///
/// The digest is a wrapping sum of a 64-bit mix of each pair, so any two
/// enumerations of the same multiset of pairs agree, and a missing, extra
/// or altered pair changes it with overwhelming probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDigest {
    /// Number of ordered pairs.
    pub pairs: u64,
    /// Wrapping sum of the mixed pairs.
    pub digest: u64,
}

impl PairDigest {
    /// Digests `pairs` in any order.
    pub fn of(pairs: &[(u32, u32)]) -> Self {
        let digest = pairs.iter().fold(0u64, |acc, &(a, b)| {
            acc.wrapping_add(mix64((u64::from(a) << 32) | u64::from(b)))
        });
        Self {
            pairs: pairs.len() as u64,
            digest,
        }
    }
}

/// A bijective 64-bit mix (one splitmix64 step from state `z`).
fn mix64(z: u64) -> u64 {
    crate::Rng(z).next_u64()
}

/// The reference answer of the self-join: SUPER-EGO, an independent CPU
/// algorithm, on `threads` workers.
pub fn reference<const N: usize>(points: &[Point<N>], epsilon: f32, threads: usize) -> PairDigest {
    let mut config = superego::SuperEgoConfig::new(epsilon);
    config.threads = threads;
    PairDigest::of(&superego::super_ego_join(points, &config).pairs)
}

/// The exact ε-neighbourhood of `points[query]` by linear scan, in
/// ascending id order and excluding the query itself — the form of a
/// serve `Neighbors` reply.
pub fn scan_neighbors<const N: usize>(points: &[Point<N>], query: u32, epsilon: f32) -> Vec<u32> {
    let q = &points[query as usize];
    (0..points.len() as u32)
        .filter(|&c| c != query && within_epsilon(q, &points[c as usize], epsilon))
        .collect()
}

/// Compares a serve reply's neighbour list against the linear scan.
pub fn check_neighbors<const N: usize>(
    points: &[Point<N>],
    query: u32,
    epsilon: f32,
    reply: &[u32],
) -> Result<(), String> {
    if query as usize >= points.len() {
        return Err(format!(
            "query id {query} is outside the {} current points",
            points.len()
        ));
    }
    let expected = scan_neighbors(points, query, epsilon);
    if expected == reply {
        return Ok(());
    }
    let first_diff = expected
        .iter()
        .zip(reply)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(reply.len()));
    Err(format!(
        "query {query} at eps {epsilon}: {} neighbours replied, {} expected, first difference at position {first_diff}",
        reply.len(),
        expected.len()
    ))
}

/// The benchmark's own copy of a churned point set, applying the serve
/// daemon's id rules: an insert takes the next dense id, a remove
/// swap-removes and renames the last point into the freed id.
#[derive(Debug, Clone)]
pub struct Mirror<const N: usize> {
    /// The current points, indexed by their current ids.
    pub points: Vec<Point<N>>,
}

impl<const N: usize> Mirror<N> {
    /// Appends `p` and returns its id.
    pub fn insert(&mut self, p: Point<N>) -> u32 {
        self.points.push(p);
        (self.points.len() - 1) as u32
    }

    /// Removes `pid` and returns the id renamed into it, if any.
    pub fn remove(&mut self, pid: u32) -> Option<u32> {
        let last = self.points.len() - 1;
        self.points.swap_remove(pid as usize);
        (pid as usize != last).then_some(last as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_catches_changes() {
        let pairs = vec![(0, 1), (1, 0), (2, 3), (3, 2)];
        let mut shuffled = pairs.clone();
        shuffled.reverse();
        assert_eq!(PairDigest::of(&pairs), PairDigest::of(&shuffled));
        let mut swapped = pairs.clone();
        swapped[2] = (2, 4);
        assert_ne!(PairDigest::of(&pairs), PairDigest::of(&swapped));
    }

    #[test]
    fn mirror_follows_swap_remove() {
        let mut m = Mirror {
            points: vec![[0.0f32, 0.0], [1.0, 1.0], [2.0, 2.0]],
        };
        assert_eq!(m.remove(0), Some(2));
        assert_eq!(m.points[0], [2.0, 2.0]);
        assert_eq!(m.remove(1), None);
        assert_eq!(m.insert([5.0, 5.0]), 1);
    }
}
