//! §7.4: mode switch times (`results/mode_switch.json`).
//!
//! Paper: "the average time is about 0.22 ms to do a switch from native
//! mode to virtual mode, and 0.06 ms to a switch back" (3 GHz Xeon).
//!
//! Also reports the §5.1.2 active-tracking alternative and the two
//! attach-cost optimizations layered on top of the paper's numbers:
//! incremental (dirty-frame) revalidation for warm re-attaches, and the
//! §5.4 sharded recompute where the rendezvoused peer CPUs split the
//! `page_info` walk with the control processor.

use crate::{measure_sharded_recompute, measure_switch_times, Json, Outcome};
use mercury::TrackingStrategy;

/// Measure every strategy and print the §7.4 report.
pub fn run() -> Outcome {
    let t = measure_switch_times(TrackingStrategy::RecomputeOnSwitch, 20);
    println!("Mode switch time (strategy: recompute-on-switch, paper default)");
    println!(
        "  native -> virtual : {:>8.1} us   (paper: ~220 us)",
        t.attach_us
    );
    println!(
        "  virtual -> native : {:>8.1} us   (paper: ~60 us)",
        t.detach_us
    );
    println!("  samples           : {:>8}", t.samples);

    let a = measure_switch_times(TrackingStrategy::ActiveTracking, 20);
    println!("\nActive tracking (§5.1.2 alternative, strategy: active-tracking)");
    println!("  native -> virtual : {:>8.1} us", a.attach_us);
    println!("  virtual -> native : {:>8.1} us", a.detach_us);

    let d = measure_switch_times(TrackingStrategy::DirtyRecompute, 20);
    println!("\nIncremental re-attach (strategy: dirty-recompute, the default)");
    println!(
        "  cold attach       : {:>8.1} us   (boot pre-cache: warm from the first attach)",
        d.cold_attach_us
    );
    println!(
        "  warm re-attach    : {:>8.1} us   ({:.1}x cheaper than recompute-on-switch)",
        d.warm_attach_us,
        t.attach_us / d.warm_attach_us
    );
    println!(
        "  virtual -> native : {:>8.1} us   (snapshot retained; O(tables) release)",
        d.detach_us
    );

    let s = measure_sharded_recompute(4, 10);
    println!("\nSharded attach-time recompute ({}-CPU rig, rendezvoused peers)", s.cpus);
    println!("  serial pginfo walk : {:>8.1} us", s.serial_pginfo_us);
    println!("  sharded (makespan) : {:>8.1} us", s.sharded_pginfo_us);
    println!("  speedup            : {:>8.2}x", s.speedup);

    Outcome {
        name: "mode_switch",
        metrics: Json::obj([
            ("recompute_on_switch", t.to_json()),
            ("active_tracking", a.to_json()),
            ("dirty_recompute", d.to_json()),
            ("sharded_recompute", s.to_json()),
        ]),
        ok: true,
    }
}
