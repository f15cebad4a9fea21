//! The plan cache's counters under a planning race. Alone in its test
//! binary: the counters are process-wide, and exact deltas need a
//! process nothing else plans in.

use galiot_dsp::engine::{plan, stats};
use std::sync::{Arc, Barrier};

#[test]
fn a_planning_race_counts_one_miss_and_the_rest_hits() {
    const RACERS: usize = 4;
    let before = stats();
    let gate = Barrier::new(RACERS);
    let plans: Vec<_> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    // Large enough that planning outlasts the others'
                    // cache lookups: every racer plans.
                    plan(1 << 17)
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer panicked"))
            .collect()
    });
    assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
    let raced = stats().since(&before);
    // One plan went into the cache; every other caller was served it,
    // whether it found it there or lost the race to put it there.
    assert_eq!(raced.plan_misses, 1);
    assert_eq!(raced.plan_hits, RACERS as u64 - 1);
    assert!(Arc::ptr_eq(&plan(1 << 17), &plans[0]));
    assert_eq!(stats().since(&before).plan_hits, RACERS as u64);
}
