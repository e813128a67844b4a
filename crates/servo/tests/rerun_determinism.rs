//! Serving is a pure function of its seed (DESIGN.md §14.3): two
//! same-seed runs on fresh nodes must produce bit-identical request
//! records — arrival, start and finish cycles, worker assignment,
//! outcome — and identical scrubber work.  The campaign binaries make
//! the same re-run before they archive anything; these tests pin it
//! at unit scale.

use mercury_cluster::{Node, NodeConfig};
use mercury_servo::{generate, LoadConfig, NodeServer, RequestRecord, ServerConfig};
use mercury_workloads::mix::CostMix;

/// One full serving run on a fresh node, gaps donated to the scrubber.
/// Returns the records plus the scrubber's revalidation count.
fn run_once(seed: u64, cpus: usize) -> (Vec<RequestRecord>, u64) {
    let node = Node::launch(
        "reruntest",
        &NodeConfig {
            num_cpus: cpus,
            ..NodeConfig::default()
        },
    );
    let mut server = NodeServer::new(
        &node,
        0,
        ServerConfig {
            workers: cpus,
            ..ServerConfig::default()
        },
    );
    server.donate_gaps_to_scrubber();
    let traffic = generate(&LoadConfig {
        seed,
        mean_gap_cycles: 300_000 / cpus as u64,
        requests: 400,
        mix: CostMix::oltp(),
    });
    server.run(&traffic, |_, _| {});
    (server.records().to_vec(), node.scrubber().revalidated())
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    for seed in [11u64, 42, 987] {
        let (first, scrub_first) = run_once(seed, 1);
        let (second, scrub_second) = run_once(seed, 1);
        assert_eq!(first.len(), 400, "seed {seed}: every arrival is recorded");
        assert_eq!(
            first, second,
            "seed {seed}: a re-run must not change a single record"
        );
        assert_eq!(
            scrub_first, scrub_second,
            "seed {seed}: gap donation must revalidate the same frames"
        );
    }
}

#[test]
fn smp_serving_reruns_are_bit_identical() {
    // Steady-state SMP serving is simulation-deterministic (no switch
    // during traffic), so worker assignment and queueing must not shift
    // between same-seed runs either.
    let (first, scrub_first) = run_once(7, 2);
    let (second, scrub_second) = run_once(7, 2);
    assert_eq!(first, second, "2-cpu records must be re-run invariant");
    assert_eq!(scrub_first, scrub_second);
}
