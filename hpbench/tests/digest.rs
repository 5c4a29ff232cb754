//! The cold correctness check is stable: repeated runs of the same job
//! encode to the same bytes, and those bytes match the digests pinned
//! from the seed commit.

use heteropipe_hpbench::cold::{cold_small, large, report_digest, JobSet};
use heteropipe_hpbench::pins;

#[test]
fn digests_repeat_and_match_the_pins() {
    let cold = cold_small();
    let jobs = JobSet::build(&cold);
    let pinned = pins::digests(cold.name);
    assert_eq!(pinned.len(), jobs.len());
    for i in [0, 1, 17, 90, 91] {
        let s = jobs.spec(i);
        let run = || {
            heteropipe::run::run(
                s.pipeline,
                s.config,
                s.organization,
                s.misalignment_sensitive,
            )
        };
        let (a, b) = (report_digest(&run()), report_digest(&run()));
        assert_eq!(a, b, "job {i} is not deterministic");
        assert_eq!(a, pinned[i], "job {i} drifted from its pinned digest");
    }
    assert_eq!(pins::digests(large().name).len(), 12);
}
