//! A VMM-corruption fault whose live-update recovery rolled back is
//! healed by the next completed update — and recorded as recovered at
//! that update's cycle, not left `recovered: false`, and traced as a
//! recovery like any other.
//!
//! Lives in the bench crate for the live fault hooks (see
//! `watchdog_under_load.rs`), in its own test binary because the fault
//! injector is process-global.

use faultgen::{FaultSpec, FaultTarget};
use mercury_cluster::{Watchdog, WatchdogPolicy};
use mercury_workloads::configs::{SysKind, TestBed};
use nimbus::kernel::MmapBacking;
use nimbus::mm::Prot;
use simx86::VirtAddr;
use std::sync::Arc;

#[test]
fn rolled_back_update_is_recovered_by_the_next_completed_one() {
    let bed = TestBed::build(SysKind::MV, 1);
    let cpu = bed.machine.boot_cpu();
    let mercury = Arc::clone(bed.mercury.as_ref().expect("MV bed has mercury"));
    let mut dog = Watchdog::new(
        Arc::clone(&mercury),
        Arc::clone(&bed.machine),
        Arc::clone(&bed.kernel),
        WatchdogPolicy::default(),
    );
    let sess = bed.session(0);
    let va = sess.mmap(2, Prot::RW, MmapBacking::Anon).unwrap();
    faultgen::reset();
    merctrace::reset();
    merctrace::arm();
    for (i, abort) in [(0u64, true), (1, false)] {
        faultgen::arm(vec![FaultSpec {
            id: 100 + i,
            due_cycle: 0,
            target: FaultTarget::VmmState {
                cpu: 0,
                frame: 8 + i as u32,
            },
        }]);
        if abort {
            mercury.inject_update_abort(Some(mercury::LiveUpdatePhase::Handshake));
        }
        // The page-table hypercall is the service point the fault
        // lands on.
        sess.poke(VirtAddr(va.0 + i * 4096), i).unwrap();
        assert_eq!(dog.poll(cpu), 1);
        assert_eq!(faultgen::outstanding(), usize::from(abort));
    }
    let [rolled_back, healer] = dog.reports() else {
        panic!("one report per fault")
    };
    assert!(rolled_back.recovered && healer.recovered);
    assert_eq!(rolled_back.recovered_cycle, healer.recovered_cycle);
    assert!(healer.recovered_cycle > Some(rolled_back.detected_cycle));
    merctrace::disarm();
    // Traced runs count the same recoveries the reports do.
    assert_eq!(merctrace::snapshot().counter("watchdog.fault.recovered"), 2);
    faultgen::reset();
}
