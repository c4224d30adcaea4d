//! Output checks: what the program answers against an independent
//! recomputation over an independently maintained [`Database`].

use crate::metrics::Report;
use crate::scenario::Inputs;
use cq_updates::prelude::*;
use cq_updates::storage::Tuple;

/// Sorted result of every query over `db`, by [`RecomputeEngine`] — a
/// static join that shares no code with the dynamic engines. With
/// `corrupt` the first query's expectation loses a row (or gains one),
/// to prove a wrong answer fails the run.
pub fn expected(inputs: &Inputs, db: &Database, corrupt: bool) -> Vec<Vec<Tuple>> {
    let mut all: Vec<Vec<Tuple>> = inputs
        .queries
        .iter()
        .map(|(_, q, _)| RecomputeEngine::new(q, db).results_sorted())
        .collect();
    if corrupt && all[0].pop().is_none() {
        all[0].push(vec![0; inputs.queries[0].1.arity()]);
    }
    all
}

/// Compares one query's count and sorted rows against the expectation.
pub fn rows(
    report: &mut Report,
    what: &str,
    name: &str,
    count: u64,
    got: &[Tuple],
    want: &[Tuple],
) {
    report.check(count == want.len() as u64, || {
        format!(
            "{what}: count({name}) = {count}, recompute has {}",
            want.len()
        )
    });
    report.check(got == want, || {
        let at = got.iter().zip(want).position(|(g, w)| g != w);
        format!(
            "{what}: rows of {name} differ from recompute ({} vs {} rows, first difference at {at:?})",
            got.len(),
            want.len()
        )
    });
}

/// Checks every query of a stack through `answer(name) -> (count, sorted
/// rows)`.
pub fn all_queries(
    report: &mut Report,
    what: &str,
    inputs: &Inputs,
    want: &[Vec<Tuple>],
    mut answer: impl FnMut(&str) -> (u64, Vec<Tuple>),
) {
    for ((name, _, _), want) in inputs.queries.iter().zip(want) {
        let (count, got) = answer(name);
        rows(report, what, name, count, &got, want);
    }
}

/// `(count, sorted rows)` of a pinned snapshot.
pub fn of_snapshot(snap: &QuerySnapshot) -> (u64, Vec<Tuple>) {
    (snap.count(), snap.results_sorted())
}
