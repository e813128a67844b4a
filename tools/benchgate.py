#!/usr/bin/env python3
"""CI perf-regression gate over the `results/` archives.

Every archive in `results/` has the shape `{"provenance": {commit,
command, seed, rustc, host, wall_s}, "metrics": {...}}`, and the
`mercury-bench` binary `all` regenerates every one of them in a single
process.  With no arguments the gate cargo-runs `all` in
`target/benchgate/` and gates the fresh `target/benchgate/results/`
against the committed `results/`; `--results DIR` gates archives
generated elsewhere (the nightly campaign runs) instead.  Every archive
present in the fresh directory is gated three ways:

* **Provenance.**  The fresh and the committed archive must both carry
  all six provenance fields (`seed` may be null for suites that take
  none), or the gate fails.
* **Bands.**  Metrics are compared with the committed archive inside
  declared tolerance bands, but only when both came from the same
  command (`provenance.command`): a `--campaign` run is not
  comparable with the full-size archive.  A slowdown beyond its
  band fails; an improvement beyond it is reported, because refreshing
  the archive is a deliberate human action, not a CI failure.
* **Hard checks.**  Ceilings and invariants apply to every fresh run,
  whatever the command, and a regressed archive cannot grandfather a
  breach in.

Tolerance bands
---------------
The uniprocessor switch paths run entirely on the simulated cycle
clock, so they are identical on every host, every run; their tight
band (1%) only absorbs float formatting.  The sharded-recompute
makespan depends on host scheduling of real rendezvous-peer threads,
so it gets a wide band (50%).  Serving and fleet tails are
simulation-deterministic per seed but move with legitimate code
changes; their bands flag step changes, not drift.  Simulated
throughput (host time) must stay above 80% of the archived value, but
only when both archives also name the same host (`provenance.host`):
host time from another machine says nothing about the code.

Hard checks
-----------
* `mode_switch`: the sharded recompute beats serial by at least 1.5x.
* `switch_timeline`: every measured phase fits its static cycle budget
  in `volint_budget.json`, every leg fits the sum of its phase budgets,
  and a phase with no budget entry fails (the volint cost model drifted
  under the code).  A budget over 400x its measurement is a stale-bounds
  note.
* `faults`: two-pass determinism `verified`, at least one recovered
  fault.
* `serving`: determinism, every scenario completed requests, and the
  switch- and update-under-load p99 inflation stays under 2.0x steady
  native: under the always-on dirty baseline a mode switch or a live
  update landing mid-stream must read as a tail event, not an outage.
* `fleet`: determinism, zero lost requests, `offered == completed +
  shed`, every evacuation re-homed (`migrations == 2 x evacuations`),
  and ceilings on the worst migration downtime and the fleet p999.

Usage
-----
    python3 tools/benchgate.py                 # run `all`, gate every archive
    python3 tools/benchgate.py --results DIR   # gate the archives in DIR

Stdlib only; no third-party imports.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARCHIVES = ("paper", "mode_switch", "switch_timeline", "faults", "serving", "fleet")
PROVENANCE = ("commit", "command", "seed", "rustc", "host", "wall_s")

# (section, metric, rel_tol, abs_floor_us).  rel_tol is the allowed
# relative slowdown; abs_floor_us absorbs noise on metrics whose
# absolute value is tiny (a 10% band on 0.02 µs is silly).
MODE_SWITCH_CHECKS = [
    ("recompute_on_switch", "attach_us", 0.01, 0.05),
    ("recompute_on_switch", "detach_us", 0.01, 0.05),
    ("dirty_recompute", "attach_us", 0.01, 0.05),
    # With the boot-time pre-cache the "cold" attach only pays for the
    # frames the warm-up dirtied since install — a handful of tables, so
    # the metric sits near the warm number and a small change in the
    # warm-up's table layout moves it by whole frames.  Wider floor.
    ("dirty_recompute", "cold_attach_us", 0.01, 0.5),
    ("dirty_recompute", "warm_attach_us", 0.01, 0.05),
    ("dirty_recompute", "detach_us", 0.01, 0.05),
    # Host-thread-timing dependent: wide band.
    ("sharded_recompute", "serial_pginfo_us", 0.01, 0.05),
    ("sharded_recompute", "sharded_pginfo_us", 0.50, 1.0),
]
SHARDED_SPEEDUP_FLOOR = 1.5

TIMELINE_PHASE_TOL = 0.01
TIMELINE_PHASE_FLOOR = 0.05  # µs — phases like flip_tables sit at 0.02 µs

# A phase whose static budget exceeds its measurement by this factor is
# carrying stale bounds (the annotations over-claim).  Measurements
# below BUDGET_STALE_MIN_US are skipped: the worst-case model is
# *supposed* to dwarf a phase that measured ~zero.
BUDGET_STALE_RATIO = 400.0
BUDGET_STALE_MIN_US = 0.001

# Serving-tail inflation ratios (dimensionless): key in the
# `inflation_vs_steady_native_1cpu` section, rel_tol, abs_floor.
SERVING_INFLATION_CHECKS = [
    ("steady_virtual_p99", 0.05, 0.02),
    ("switch_under_load_p99", 0.05, 0.10),
    ("switch_under_load_p999", 0.05, 0.10),
    ("update_under_load_p99", 0.05, 0.10),
    ("update_under_load_p999", 0.05, 0.10),
]

# Hard absolute ceilings on the fresh inflation ratios.
SERVING_INFLATION_CEILINGS = {
    "switch_under_load_p99": 2.0,
    "update_under_load_p99": 2.0,
}

# Absolute tail anchors: (scenario name, metric, rel_tol, abs_floor_us).
SERVING_SCENARIO_CHECKS = [
    ("steady-virtual-1cpu", "p99_us", 0.05, 0.5),
    ("switch-under-load-1cpu", "p99_us", 0.05, 1.0),
]

# Fresh mcycles_per_host_second below this fraction of the archived
# value fails.  Host timing is noisy, so the band is wide; what it
# catches is a cliff in host cost per simulated cycle.
SIM_SPEED_MIN_FRACTION = 0.8

# The per-node serving p999 sits near 20 µs; a fleet request that ever
# waits out a stop-and-copy or a storage copy lands in the millisecond
# range, so 1 ms catches migration blocking the serving path with wide
# headroom over queueing noise.  The downtime ceiling bounds the worst
# single stop-and-copy + storage-copy window; a pre-copy that stopped
# converging blows through it.
FLEET_P999_CEILING_US = 1_000.0
FLEET_DOWNTIME_CEILING_US = 50_000.0

# Relative bands against the archived fleet run: (key path, rel_tol,
# abs_floor_us).
FLEET_ARCHIVE_CHECKS = [
    (("p50_us",), 0.25, 2.0),
    (("p99_us",), 0.25, 2.0),
    (("p999_us",), 0.25, 5.0),
    (("downtime_us", "p50"), 0.50, 5.0),
]


def dig(obj, path):
    for k in path:
        obj = obj[k]
    return obj


def run_all(cwd):
    """Cargo-run `all` in `cwd`: archives land in `cwd/results/`, the
    printed tables in `cwd/all.log`.  Returns the exit code."""
    cmd = [
        "cargo",
        "run",
        "--release",
        "--locked",
        "-q",
        "--manifest-path",
        os.path.join(REPO, "Cargo.toml"),
        "-p",
        "mercury-bench",
        "--bin",
        "all",
    ]
    print("benchgate: running all …", flush=True)
    env = {**os.environ, "CARGO_TARGET_DIR": os.path.join(REPO, "target")}
    with open(os.path.join(cwd, "all.log"), "w") as log:
        return subprocess.run(cmd, cwd=cwd, env=env, stdout=log).returncode


class Gate:
    def __init__(self):
        self.rows = []  # (name, archived or limit, fresh, band, status)
        self.regressions = []
        self.improvements = []
        self.notes = []

    def check(self, name, archived, fresh, rel_tol, abs_floor):
        """Band check: fresh may not exceed archived by more than the band."""
        delta = fresh - archived
        band = max(abs(archived) * rel_tol, abs_floor)
        if delta > band:
            status = "REGRESSED"
            self.regressions.append(name)
        elif delta < -band:
            status = "improved"
            self.improvements.append(name)
        else:
            status = "ok"
        self.rows.append((name, archived, fresh, band, status))

    def hard(self, name, ok, limit, fresh, why, band="hard"):
        """Pass/fail check of `fresh` against `limit`; `why` explains a failure."""
        self.rows.append((name, limit, fresh, band, "ok" if ok else "REGRESSED"))
        if not ok:
            self.regressions.append(f"{name} ({why})")

    def info(self, name, archived, fresh, status):
        self.rows.append((name, archived, fresh, "", status))

    def finish(self):
        """Print the table, notes and verdict; return the exit code."""
        def show(x):
            if isinstance(x, float):
                return f"{x:.4f}"
            return "" if x is None else str(x)

        w = max([len(r[0]) for r in self.rows] + [6])
        print(f"\n{'metric'.ljust(w)} | {'archived/limit':>14} | {'fresh':>12} | {'band':>8} | status")
        print(f"{'-' * w}-|{'-' * 16}|{'-' * 14}|{'-' * 10}|-------")
        for name, ref, fresh, band, status in self.rows:
            print(f"{name.ljust(w)} | {show(ref):>14} | {show(fresh):>12} | {show(band):>8} | {status}")
        for note in self.notes:
            print(f"\nbenchgate: note — {note}")
        if self.improvements:
            print(
                f"\nbenchgate: {len(self.improvements)} metric(s) improved beyond their band "
                f"— consider refreshing results/: {', '.join(self.improvements)}"
            )
        if self.regressions:
            print(f"\nbenchgate: FAIL — {len(self.regressions)} regression(s):", file=sys.stderr)
            for r in self.regressions:
                print(f"  {r}", file=sys.stderr)
            return 1
        print("\nbenchgate: PASS")
        return 0


def provenance_gaps(doc):
    """The provenance fields (and sections) `doc` lacks; `seed` may be null."""
    prov = doc.get("provenance")
    if not isinstance(prov, dict):
        return list(PROVENANCE)
    missing = [k for k in PROVENANCE if k not in prov or (k != "seed" and prov[k] in (None, ""))]
    return missing + ([] if "metrics" in doc else ["metrics"])


def gate_determinism(gate, name, fresh):
    d = fresh.get("determinism")
    gate.hard(f"{name}.determinism", d == "verified", "verified", d, f"two-pass check reported {d!r}")


def gate_sim_speed(gate, name, archived, fresh):
    if archived is not None and "sim_speed" in archived:
        # A band in effect (same command and host only), but one-sided
        # on a ratio.
        a_tp = archived["sim_speed"]["mcycles_per_host_second"]
        f_tp = fresh["sim_speed"]["mcycles_per_host_second"]
        floor = a_tp * SIM_SPEED_MIN_FRACTION
        gate.hard(
            f"{name}.sim_speed.mcycles_per_host_second",
            f_tp >= floor,
            floor,
            f_tp,
            f"below {SIM_SPEED_MIN_FRACTION:.0%} of archived {a_tp:.1f} — the simulator got slower per simulated cycle",
            band=f">={SIM_SPEED_MIN_FRACTION:.0%}",
        )


def gate_budget(gate, fresh_tl):
    """Measured phase times vs the committed static cycle budget.

    Every leg the timeline emits is cross-checked — the default
    attach/detach, the recompute-on-switch anchors (`*_full`), the
    lazy-validate legs (`*_lazy`) and the live update — so a phase
    without a volint budget entry cannot hide in a secondary leg.
    """
    with open(os.path.join(REPO, "volint_budget.json")) as f:
        budget = json.load(f)["phases"]
    for leg in sorted(fresh_tl):
        leg_budget_sum = 0.0
        for phase, fresh_us in sorted(fresh_tl[leg]["phases_us"].items()):
            name = f"budget.{leg}.{phase}"
            entry = budget.get(phase)
            if entry is None:
                gate.hard(name, False, None, fresh_us, "no static budget for this phase — annotate its span costs and regenerate volint_budget.json")
                continue
            budget_us = entry["us"]
            leg_budget_sum += budget_us
            gate.hard(
                name,
                fresh_us <= budget_us,
                budget_us,
                fresh_us,
                f"measured {fresh_us:.3f} µs breaches the static budget {budget_us:.3f} µs — the volint cost model drifted under the code",
            )
            if BUDGET_STALE_MIN_US <= fresh_us <= budget_us and budget_us / fresh_us > BUDGET_STALE_RATIO:
                gate.notes.append(
                    f"{name}: static budget {budget_us:.3f} µs is {budget_us / fresh_us:.0f}x the "
                    f"measured {fresh_us:.3f} µs — bounds look stale, consider tightening the annotations"
                )
        # The whole leg must fit inside the sum of its phase budgets:
        # un-spanned inter-phase work cannot hide in the gaps.
        e2e = fresh_tl[leg]["end_to_end_us"]
        gate.hard(
            f"budget.{leg}.end_to_end",
            e2e <= leg_budget_sum,
            leg_budget_sum,
            e2e,
            f"end-to-end {e2e:.3f} µs exceeds the summed phase budgets {leg_budget_sum:.3f} µs",
        )


def gate_mode_switch(gate, archived, fresh):
    if archived is not None:
        for section, metric, rel, floor in MODE_SWITCH_CHECKS:
            gate.check(f"mode_switch.{section}.{metric}", archived[section][metric], fresh[section][metric], rel, floor)
    # Lower-bounded, not banded: any host should beat serial by a clear
    # margin on a 4-CPU shard.
    s = fresh["sharded_recompute"]["speedup"]
    gate.hard("mode_switch.sharded_recompute.speedup", s >= SHARDED_SPEEDUP_FLOOR, SHARDED_SPEEDUP_FLOOR, s, f"{s:.2f}x below the serial-beating floor")


def gate_switch_timeline(gate, archived, fresh):
    # Every archived leg and phase is banded; one missing from the fresh
    # run is a regression, a brand-new one is informational.
    for leg in sorted(archived or ()):
        a_leg = archived[leg]
        if leg not in fresh:
            gate.hard(f"switch_timeline.{leg}", False, a_leg["end_to_end_us"], None, "leg missing from fresh results")
            continue
        gate.check(f"switch_timeline.{leg}.end_to_end_us", a_leg["end_to_end_us"], fresh[leg]["end_to_end_us"], TIMELINE_PHASE_TOL, TIMELINE_PHASE_FLOOR)
        f_phases = fresh[leg]["phases_us"]
        for phase, archived_us in a_leg["phases_us"].items():
            name = f"switch_timeline.{leg}.{phase}"
            if phase not in f_phases:
                gate.hard(name, False, archived_us, None, "phase missing from fresh results")
                continue
            gate.check(name, archived_us, f_phases[phase], TIMELINE_PHASE_TOL, TIMELINE_PHASE_FLOOR)
        for phase in sorted(f_phases.keys() - a_leg["phases_us"].keys()):
            gate.info(f"switch_timeline.{leg}.{phase}", None, f_phases[phase], "new phase")
    if archived is not None:
        for leg in sorted(set(fresh) - set(archived)):
            gate.info(f"switch_timeline.{leg}", None, fresh[leg]["end_to_end_us"], "new leg")
    gate_budget(gate, fresh)


def gate_faults(gate, archived, fresh):
    gate_determinism(gate, "faults", fresh)
    recovered = fresh["summary"]["recovered"]
    gate.hard("faults.recovered", recovered >= 1, 1, recovered, "no fault was recovered")
    gate_sim_speed(gate, "faults", archived, fresh)


def gate_serving(gate, archived, fresh):
    gate_determinism(gate, "serving", fresh)
    for s in fresh["scenarios"]:
        gate.hard(f"serving.{s['name']}.completed", s["completed"] > 0, 1, s["completed"], "no request completed")
    fresh_inf = fresh["inflation_vs_steady_native_1cpu"]
    if archived is not None:
        archived_inf = archived["inflation_vs_steady_native_1cpu"]
        for key, rel, floor in SERVING_INFLATION_CHECKS:
            name = f"serving.inflation.{key}"
            if key not in fresh_inf:
                # The update_under_load pair only exists with --live-update.
                gate.notes.append(f"{name}: not in the fresh run — band skipped")
            elif key not in archived_inf:
                gate.notes.append(f"{name}: fresh run has a new inflation key ({fresh_inf[key]:.2f}x) — archive it")
                gate.info(name, None, fresh_inf[key], "new key")
            else:
                gate.check(name, archived_inf[key], fresh_inf[key], rel, floor)
        archived_by = {s["name"]: s for s in archived["scenarios"]}
        fresh_by = {s["name"]: s for s in fresh["scenarios"]}
        for scen, metric, rel, floor in SERVING_SCENARIO_CHECKS:
            name = f"serving.{scen}.{metric}"
            if scen not in fresh_by:
                gate.hard(name, False, archived_by[scen][metric], None, "scenario missing from fresh results")
                continue
            gate.check(name, archived_by[scen][metric], fresh_by[scen][metric], rel, floor)
    for key, ceiling in SERVING_INFLATION_CEILINGS.items():
        name = f"serving.ceiling.{key}"
        value = fresh_inf.get(key)
        if value is None:
            gate.notes.append(f"{name}: not in the fresh run — ceiling skipped")
            continue
        gate.hard(name, value < ceiling, ceiling, value, f"inflation {value:.2f}x breaches the hard {ceiling:.1f}x ceiling — a switch or update under load must stay a tail event")
    gate_sim_speed(gate, "serving", archived, fresh)


def gate_fleet(gate, archived, fresh):
    gate_determinism(gate, "fleet", fresh)
    gate.hard("fleet.lost", fresh["lost"] == 0, 0, fresh["lost"], "requests lost — every offered request must be accounted completed or shed across migrations")
    accounted = fresh["completed"] + fresh["shed"]
    gate.hard("fleet.accounting", fresh["offered"] == accounted, fresh["offered"], accounted, "offered != completed + shed")
    evac, mig = fresh["evacuations"], fresh["migrations"]
    gate.hard("fleet.migrations", mig == 2 * evac, 2 * evac, mig, "every evacuation must re-home: migrations != 2 x evacuations")
    dt = fresh["downtime_us"]["max"]
    gate.hard("fleet.downtime_ceiling", dt <= FLEET_DOWNTIME_CEILING_US, FLEET_DOWNTIME_CEILING_US, dt, f"worst migration downtime {dt:.1f} µs")
    p999 = fresh["p999_us"]
    gate.hard("fleet.p999_ceiling", p999 <= FLEET_P999_CEILING_US, FLEET_P999_CEILING_US, p999, f"fleet p999 {p999:.1f} µs — a tail in the millisecond range means something blocked the serving path")
    if archived is not None:
        for path, rel, floor in FLEET_ARCHIVE_CHECKS:
            gate.check(f"fleet.{'.'.join(path)}", dig(archived, path), dig(fresh, path), rel, floor)


GATES = {
    "paper": None,
    "mode_switch": gate_mode_switch,
    "switch_timeline": gate_switch_timeline,
    "faults": gate_faults,
    "serving": gate_serving,
    "fleet": gate_fleet,
}


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def gate_archives(gate, fresh_dir, require_all):
    """Gate every archive in `fresh_dir` against the committed `results/`."""
    found = 0
    for name in ARCHIVES:
        fresh = load(os.path.join(fresh_dir, f"{name}.json"))
        if fresh is None:
            if require_all:
                gate.hard(f"{name}.archive", False, "present", "missing", "`all` wrote no archive")
            continue
        found += 1
        archived = load(os.path.join(REPO, "results", f"{name}.json"))
        gaps = {label: provenance_gaps(doc) for label, doc in (("fresh", fresh), ("committed", archived)) if doc is not None}
        for label, missing in gaps.items():
            gate.hard(f"{name}.provenance.{label}", not missing, "complete", ", ".join(missing) or "complete", f"incomplete provenance, missing {', '.join(missing)}")
        if any(gaps.values()):
            continue
        command = fresh["provenance"]["command"]
        if archived is None:
            gate.notes.append(f"{name}: no committed archive — bands skipped, hard checks applied")
        elif archived["provenance"]["command"] != command:
            gate.notes.append(
                f"{name}: fresh command {command!r} differs from the committed "
                f"{archived['provenance']['command']!r} — bands skipped, hard checks applied"
            )
            archived = None
        metrics = archived and archived["metrics"]
        host = fresh["provenance"]["host"]
        if metrics and "sim_speed" in metrics and archived["provenance"]["host"] != host:
            gate.notes.append(
                f"{name}.sim_speed: fresh host {host!r} differs from the committed "
                f"{archived['provenance']['host']!r} — host-time floor skipped"
            )
            metrics = {k: v for k, v in metrics.items() if k != "sim_speed"}
        if GATES[name] is not None:
            GATES[name](gate, metrics, fresh["metrics"])
    if not found:
        gate.hard("results", False, "archives", "none", f"no archive in {fresh_dir}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--results",
        metavar="DIR",
        help="gate the archives already in DIR instead of running `all` "
        "(default: run `all` in target/benchgate/ and gate its results/)",
    )
    args = ap.parse_args()
    gate = Gate()
    if args.results:
        gate_archives(gate, args.results, require_all=False)
    else:
        workdir = os.path.join(REPO, "target", "benchgate")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        rc = run_all(workdir)
        gate.hard("all.exit_code", rc == 0, 0, rc, "`all` did not build, or a suite failed its own gates")
        gate_archives(gate, os.path.join(workdir, "results"), require_all=True)
    sys.exit(gate.finish())


if __name__ == "__main__":
    main()
