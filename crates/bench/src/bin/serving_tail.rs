//! Serving tail latency under self-virtualization; writes
//! `results/serving.json`, or `results/fleet.json` with `--fleet`.
//! `--seed N` (default 11), `--campaign`, `--fleet`, `--live-update`.

fn main() {
    use mercury_bench::{exit_with, run_archived, serving, Opts};
    let flags = ["--campaign", "--fleet", "--live-update"];
    let opts = Opts::from_args("serving_tail", 11, &flags);
    exit_with(run_archived(&opts.command(), Some(opts.seed), || {
        serving::run(&opts)
    }))
}
