//! §7.3 per-phase switch decomposition; writes
//! `results/switch_timeline.json` and `results/switch_timeline.trace.json`.

fn main() {
    use mercury_bench::{exit_with, run_archived, switch_timeline};
    exit_with(run_archived("switch_timeline", None, switch_timeline::run))
}
