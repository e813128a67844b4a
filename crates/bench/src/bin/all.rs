//! Regenerate every archive in `results/` in one process: the paper's
//! tables and figures, `mode_switch`, `switch_timeline`, and the
//! campaigns `fault_campaign --seed 7`, `serving_tail --seed 11
//! --live-update` and `serving_tail --seed 11 --fleet --live-update`.
//! Exits non-zero if any suite's own gates failed; every suite still
//! runs and archives.

use mercury_bench::{
    exit_with, faults, mode_switch, paper, run_archived, serving, switch_timeline, Opts,
};

fn main() {
    let mut ok = run_archived("all", None, paper::run);
    ok &= run_archived("mode_switch", None, mode_switch::run);
    ok &= run_archived("switch_timeline", None, switch_timeline::run);
    let faults = Opts::new("fault_campaign", 7);
    ok &= run_archived(&faults.command(), Some(faults.seed), || {
        faults::run(&faults)
    });
    let mut serving = Opts::new("serving_tail", 11);
    serving.live_update = true;
    ok &= run_archived(&serving.command(), Some(serving.seed), || {
        serving::run(&serving)
    });
    serving.fleet = true;
    ok &= run_archived(&serving.command(), Some(serving.seed), || {
        serving::run(&serving)
    });
    exit_with(ok)
}
