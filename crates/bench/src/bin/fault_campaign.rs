//! Seeded fault-injection campaigns; writes `results/faults.json`.
//! `--seed N` (default 7), `--campaign`.

fn main() {
    use mercury_bench::{exit_with, faults, run_archived, Opts};
    let opts = Opts::from_args("fault_campaign", 7, &["--campaign"]);
    exit_with(run_archived(&opts.command(), Some(opts.seed), || {
        faults::run(&opts)
    }))
}
