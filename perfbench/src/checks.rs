//! Output checks that hold for every correct run, whatever the seed,
//! thread count or timing: structural invariants, never quality floors.

use std::collections::BTreeSet;
use vaer::core::cluster::{EntityCluster, RowId};

/// Why a link list breaks the `Resolution::links` contract, if it does:
/// every link in range, finite, at or above the threshold, sorted by
/// descending probability, and one-to-one.
pub fn link_violation(
    links: &[(usize, usize, f32)],
    len_a: usize,
    len_b: usize,
    threshold: f32,
) -> Option<String> {
    let mut seen_a = BTreeSet::new();
    let mut seen_b = BTreeSet::new();
    for (i, &(a, b, p)) in links.iter().enumerate() {
        if a >= len_a || b >= len_b {
            return Some(format!("link {i} ({a}, {b}) out of range {len_a}x{len_b}"));
        }
        if !p.is_finite() || p < threshold {
            return Some(format!(
                "link {i} probability {p} below threshold {threshold}"
            ));
        }
        if i > 0 && links[i - 1].2 < p {
            return Some(format!("link {i} not in descending probability order"));
        }
        if !seen_a.insert(a) || !seen_b.insert(b) {
            return Some(format!("link {i} ({a}, {b}) is not one-to-one"));
        }
    }
    None
}

/// Why clusters built without singletons from one-to-one links are
/// malformed, if they are: each must hold exactly one A row and one B row.
pub fn cluster_violation(clusters: &[EntityCluster]) -> Option<String> {
    clusters.iter().enumerate().find_map(|(i, c)| {
        let a = c
            .members
            .iter()
            .filter(|r| matches!(r, RowId::A(_)))
            .count();
        let b = c.members.len() - a;
        (a != 1 || b != 1).then(|| format!("cluster {i} has {a} A rows and {b} B rows"))
    })
}

/// F1 of predicted `(a, b)` pairs against the true duplicates.
pub fn pair_f1(
    predicted: impl Iterator<Item = (usize, usize)>,
    truth: &BTreeSet<(usize, usize)>,
) -> f64 {
    let predicted: BTreeSet<(usize, usize)> = predicted.collect();
    let tp = predicted.intersection(truth).count() as f64;
    if tp == 0.0 {
        return 0.0;
    }
    let precision = tp / predicted.len() as f64;
    let recall = tp / truth.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// FNV-1a digest of a link list, probabilities bit-exact.
pub fn link_digest(links: &[(usize, usize, f32)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(a, b, p) in links {
        for word in [a as u64, b as u64, u64::from(p.to_bits())] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_contract_violations_are_named() {
        let ok = [(0, 1, 0.9), (1, 0, 0.6)];
        assert_eq!(link_violation(&ok, 2, 2, 0.5), None);
        assert!(link_violation(&[(2, 0, 0.9)], 2, 2, 0.5).is_some());
        assert!(link_violation(&[(0, 0, 0.4)], 2, 2, 0.5).is_some());
        assert!(link_violation(&[(0, 0, f32::NAN)], 2, 2, 0.0).is_some());
        assert!(link_violation(&[(0, 0, 0.6), (1, 1, 0.9)], 2, 2, 0.5).is_some());
        assert!(link_violation(&[(0, 0, 0.9), (0, 1, 0.8)], 2, 2, 0.5).is_some());
        assert!(link_violation(&[(0, 0, 0.9), (1, 0, 0.8)], 2, 2, 0.5).is_some());
    }

    #[test]
    fn f1_and_digest() {
        let truth: BTreeSet<_> = [(0, 0), (1, 1)].into_iter().collect();
        assert_eq!(pair_f1([(0, 0), (1, 1)].into_iter(), &truth), 1.0);
        assert!((pair_f1([(0, 0), (1, 0)].into_iter(), &truth) - 0.5).abs() < 1e-12);
        assert_eq!(pair_f1(std::iter::empty(), &truth), 0.0);
        assert_ne!(link_digest(&[(0, 1, 0.5)]), link_digest(&[(1, 0, 0.5)]));
        assert_eq!(link_digest(&[(0, 1, 0.5)]), link_digest(&[(0, 1, 0.5)]));
    }
}
