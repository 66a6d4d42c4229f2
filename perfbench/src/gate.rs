//! The correctness gate: engine answers must be byte-identical to the
//! `BruteForce` oracle over the same objects.

use pivot_metric_repro::{BruteForce, Metric, MetricIndex, Neighbor, ObjId, Query, QueryResult};

/// The oracle's answer to one query, in global ids.
#[derive(Debug, PartialEq)]
pub enum Expected {
    /// Ascending ids.
    Range(Vec<ObjId>),
    /// Ascending by `(distance, id)`.
    Knn(Vec<Neighbor>),
}

/// Answers `queries` by brute force over `objects`, whose global ids are
/// `ids` (ascending, one per object).
pub fn oracle<M>(
    objects: Vec<Vec<f32>>,
    ids: &[ObjId],
    metric: M,
    queries: &[Query<Vec<f32>>],
) -> Vec<Expected>
where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    assert_eq!(objects.len(), ids.len(), "one id per oracle object");
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "oracle ids ascend");
    let bf = BruteForce::new(objects, metric);
    // Local ids ascend with global ids, so the oracle's `(dist, local id)`
    // order is the engine's `(dist, global id)` order.
    queries
        .iter()
        .map(|q| match q {
            Query::Range { q, radius } => {
                let mut v: Vec<ObjId> = bf
                    .range_query(q, *radius)
                    .into_iter()
                    .map(|l| ids[l as usize])
                    .collect();
                v.sort_unstable();
                Expected::Range(v)
            }
            Query::Knn { q, k } => Expected::Knn(
                bf.knn_query(q, *k)
                    .into_iter()
                    .map(|n| Neighbor::new(ids[n.id as usize], n.dist))
                    .collect(),
            ),
        })
        .collect()
}

/// Checks `got` against `want` position by position; the error names the
/// first mismatch. Degraded, shed or failed answers never match.
pub fn check(what: &str, got: &[QueryResult], want: &[Expected]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} answers for {} queries",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = match (g, w) {
            (QueryResult::Range(a), Expected::Range(b)) => a == b,
            (QueryResult::Knn(a), Expected::Knn(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.id == y.id && x.dist.to_bits() == y.dist.to_bits())
            }
            _ => false,
        };
        if !same {
            return Err(format!(
                "{what}: query {i} answered {g:?}, oracle says {w:?}"
            ));
        }
    }
    Ok(())
}

/// Corrupts the first answer, to prove the gate catches a wrong one.
pub fn plant_wrong_answer(results: &mut [QueryResult]) {
    match results.first_mut() {
        Some(QueryResult::Range(v)) => v.push(ObjId::MAX),
        Some(QueryResult::Knn(v)) => match v.last_mut() {
            Some(n) => n.id ^= 1,
            None => v.push(Neighbor::new(0, 0.0)),
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_metric_repro::{datasets, DegradeReason, Degraded, L2};

    fn setup() -> (Vec<Query<Vec<f32>>>, Vec<Expected>, Vec<QueryResult>) {
        let objects = datasets::la(300, 9);
        let ids: Vec<ObjId> = (0..300).map(|i| 2 * i + 1).collect();
        let queries = vec![
            Query::range(objects[4].clone(), 600.0),
            Query::knn(objects[7].clone(), 5),
        ];
        let want = oracle(objects, &ids, L2, &queries);
        let got = want
            .iter()
            .map(|w| match w {
                Expected::Range(v) => QueryResult::Range(v.clone()),
                Expected::Knn(v) => QueryResult::Knn(v.clone()),
            })
            .collect();
        (queries, want, got)
    }

    #[test]
    fn exact_answers_pass_and_map_to_global_ids() {
        let (_, want, got) = setup();
        assert_eq!(check("t", &got, &want), Ok(()));
        match &want[1] {
            Expected::Knn(v) => {
                assert_eq!(v.len(), 5);
                assert!(v.iter().all(|n| n.id % 2 == 1), "global ids are odd");
            }
            e => panic!("expected knn, got {e:?}"),
        }
    }

    #[test]
    fn planted_wrong_answer_fails_the_gate() {
        let (_, want, mut got) = setup();
        plant_wrong_answer(&mut got);
        assert!(check("t", &got, &want).is_err());
        let (_, want, mut got) = setup();
        got.swap(0, 1);
        plant_wrong_answer(&mut got);
        assert!(check("t", &got, &want).is_err());
    }

    #[test]
    fn degraded_or_missing_answers_fail_the_gate() {
        let (_, want, mut got) = setup();
        if let QueryResult::Range(v) = &got[0] {
            got[0] = QueryResult::PartialRange(
                v.clone(),
                Degraded {
                    shards_skipped: 1,
                    reason: DegradeReason::Quarantined,
                },
            );
        }
        assert!(check("t", &got, &want).is_err());
        assert!(check("t", &got[..1], &want).is_err());
    }
}
