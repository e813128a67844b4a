//! §7.4 mode switch times; writes `results/mode_switch.json`.

fn main() {
    use mercury_bench::{exit_with, mode_switch, run_archived};
    exit_with(run_archived("mode_switch", None, mode_switch::run))
}
