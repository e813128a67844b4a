#!/usr/bin/env python3
"""Self-tests for the perf-regression gate (tools/benchgate.py).

The gate is itself load-bearing CI: a bug here fails — or worse,
silently passes — every PR.  These tests exercise the pure decision
logic against the checked-in fixture archives in `tools/fixtures/`
(same `{provenance, metrics}` schema as `results/`), no cargo involved:

* band math (relative tolerance, absolute floors, improvement vs
  regression asymmetry),
* the static-budget cross-check (missing phases, budget breaches,
  end-to-end vs summed-phase containment, stale-bounds notes),
* provenance: an archive missing a field is rejected,
* command matching: a run of another command skips the bands but never
  the ceilings and invariants,
* the per-archive hard checks (serving ceilings, fleet zero-lost /
  accounting / migrations / ceilings, fault determinism and recovery,
  sim-speed floors, the host-time one only on the archive's own host).

Run directly: `python3 tools/test_benchgate.py` (stdlib only).
"""

import contextlib
import copy
import importlib.util
import io
import json
import os
import shutil
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

spec = importlib.util.spec_from_file_location("benchgate", os.path.join(HERE, "benchgate.py"))
bg = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bg)


def fixture(name):
    with open(os.path.join(FIXTURES, f"{name}.json")) as f:
        return json.load(f)


@contextlib.contextmanager
def quiet():
    """Swallow the gate's report tables; return the captured text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        yield buf


class BandMath(unittest.TestCase):
    def test_within_band_is_ok(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 100.5, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "ok")
        self.assertFalse(gate.regressions)
        self.assertFalse(gate.improvements)

    def test_slowdown_beyond_band_regresses(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 102.0, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "REGRESSED")
        self.assertEqual(gate.regressions, ["m"])

    def test_improvement_beyond_band_does_not_fail(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 90.0, 0.01, 0.0)
        self.assertEqual(gate.rows[-1][-1], "improved")
        self.assertFalse(gate.regressions)
        self.assertEqual(gate.improvements, ["m"])

    def test_absolute_floor_absorbs_tiny_metrics(self):
        # 4x relative change on a 0.01 µs metric stays inside the
        # 0.05 µs floor: bands are max(rel, floor).
        gate = bg.Gate()
        gate.check("m", 0.01, 0.04, 0.01, 0.05)
        self.assertEqual(gate.rows[-1][-1], "ok")

    def test_band_is_max_of_relative_and_floor(self):
        gate = bg.Gate()
        gate.check("m", 100.0, 103.0, 0.05, 0.1)  # 5% of 100 beats the floor
        self.assertEqual(gate.rows[-1][-1], "ok")
        gate.check("m2", 100.0, 106.0, 0.05, 0.1)
        self.assertEqual(gate.rows[-1][-1], "REGRESSED")


class TempRepo(unittest.TestCase):
    """bg.REPO pointed at a scratch tree with `results/` and a fresh dir."""

    def setUp(self):
        self.saved_repo = bg.REPO
        self.tmp = tempfile.mkdtemp(prefix="benchgate-test-")
        bg.REPO = self.tmp
        self.fresh_dir = os.path.join(self.tmp, "fresh")
        os.makedirs(os.path.join(self.tmp, "results"))
        os.makedirs(self.fresh_dir)
        with open(os.path.join(self.tmp, "volint_budget.json"), "w") as f:
            json.dump({"phases": {"phase.a": {"us": 10.0}, "phase.b": {"us": 5.0}}}, f)

    def tearDown(self):
        shutil.rmtree(self.tmp)
        bg.REPO = self.saved_repo

    def gate(self, name, fresh, committed=None):
        """Gate `fresh` (and `committed`, when given) as archive `name`."""
        for where, doc in ((self.fresh_dir, fresh), (os.path.join(self.tmp, "results"), committed)):
            if doc is not None:
                with open(os.path.join(where, f"{name}.json"), "w") as f:
                    json.dump(doc, f)
        gate = bg.Gate()
        bg.gate_archives(gate, self.fresh_dir, require_all=False)
        return gate

    def assertRegressed(self, gate, prefix):
        self.assertTrue(any(r.startswith(prefix) for r in gate.regressions), (prefix, gate.regressions))

    def assertNotRegressed(self, gate, prefix):
        self.assertFalse(any(r.startswith(prefix) for r in gate.regressions), (prefix, gate.regressions))


class BudgetCrossCheck(TempRepo):
    @staticmethod
    def leg(phases, e2e):
        return {"leg": {"phases_us": phases, "end_to_end_us": e2e, "samples": 20}}

    def test_within_budget_passes(self):
        gate = bg.Gate()
        bg.gate_budget(gate, self.leg({"phase.a": 8.0, "phase.b": 4.0}, 12.5))
        self.assertFalse(gate.regressions)

    def test_phase_over_budget_regresses(self):
        gate = bg.Gate()
        bg.gate_budget(gate, self.leg({"phase.a": 11.0}, 11.0))
        self.assertTrue(any("phase.a" in r for r in gate.regressions))

    def test_unbudgeted_phase_regresses(self):
        gate = bg.Gate()
        bg.gate_budget(gate, self.leg({"phase.zzz": 0.1}, 0.1))
        self.assertTrue(any("no static budget" in r for r in gate.regressions))

    def test_end_to_end_must_fit_summed_budgets(self):
        # Un-spanned inter-phase work cannot hide in the gaps.
        gate = bg.Gate()
        bg.gate_budget(gate, self.leg({"phase.a": 8.0, "phase.b": 4.0}, 16.0))
        self.assertTrue(any("end_to_end" in r for r in gate.regressions))

    def test_stale_bounds_are_a_note_not_a_failure(self):
        gate = bg.Gate()
        bg.gate_budget(gate, self.leg({"phase.a": 0.01}, 0.01))
        self.assertFalse(gate.regressions)
        self.assertTrue(any("stale" in n for n in gate.notes))


class Provenance(TempRepo):
    def test_archive_missing_a_provenance_field_is_rejected(self):
        for field in bg.PROVENANCE:
            fresh = fixture("fleet")
            del fresh["provenance"][field]
            gate = self.gate("fleet", fresh, committed=fixture("fleet"))
            self.assertRegressed(gate, "fleet.provenance.fresh")
            # Rejected before any band or invariant reads it.
            self.assertFalse([r for r in gate.rows if r[0] == "fleet.lost"])

    def test_committed_archive_missing_provenance_is_rejected(self):
        committed = fixture("serving")
        del committed["provenance"]
        gate = self.gate("serving", fixture("serving"), committed=committed)
        self.assertRegressed(gate, "serving.provenance.committed")

    def test_empty_field_is_incomplete_but_null_seed_is_not(self):
        fresh = fixture("faults")
        fresh["provenance"]["commit"] = ""
        self.assertRegressed(self.gate("faults", fresh), "faults.provenance.fresh")
        fresh = fixture("faults")
        fresh["provenance"]["seed"] = None
        self.assertFalse(self.gate("faults", fresh).regressions)

    def test_missing_archives_fail_only_when_all_must_have_run(self):
        gate = bg.Gate()
        bg.gate_archives(gate, self.fresh_dir, require_all=True)
        for name in bg.ARCHIVES:
            self.assertRegressed(gate, f"{name}.archive")
        gate = bg.Gate()
        bg.gate_archives(gate, self.fresh_dir, require_all=False)
        self.assertEqual(gate.regressions[0].split()[0], "results")


class ServingGate(TempRepo):
    def test_in_band_run_passes(self):
        gate = self.gate("serving", fixture("serving"), committed=fixture("serving"))
        self.assertFalse(gate.regressions)
        self.assertTrue(any(r[0] == "serving.inflation.steady_virtual_p99" for r in gate.rows))

    def test_out_of_band_run_regresses_under_the_same_command(self):
        fresh = fixture("serving")
        fresh["metrics"]["inflation_vs_steady_native_1cpu"]["steady_virtual_p99"] = 1.5
        gate = self.gate("serving", fresh, committed=fixture("serving"))
        self.assertEqual(gate.regressions, ["serving.inflation.steady_virtual_p99"])

    def test_mismatched_command_skips_bands_but_keeps_ceilings_and_invariants(self):
        fresh = fixture("serving")
        fresh["provenance"]["command"] += " --campaign"
        m = fresh["metrics"]
        m["inflation_vs_steady_native_1cpu"]["steady_virtual_p99"] = 1.5  # out of band…
        m["inflation_vs_steady_native_1cpu"]["update_under_load_p99"] = 2.5  # …over the ceiling
        m["scenarios"][1]["completed"] = 0
        m["determinism"] = "FAILED"
        gate = self.gate("serving", fresh, committed=fixture("serving"))
        self.assertNotRegressed(gate, "serving.inflation.")
        self.assertRegressed(gate, "serving.ceiling.update_under_load_p99")
        self.assertRegressed(gate, "serving.switch-under-load-1cpu.completed")
        self.assertRegressed(gate, "serving.determinism")
        self.assertTrue(any("bands skipped" in n for n in gate.notes))

    def test_update_ceiling_breach_regresses(self):
        gate = bg.Gate()
        archived, fresh = fixture("serving")["metrics"], fixture("serving")["metrics"]
        # In band relative to a (bad) archive, but over the absolute line.
        archived["inflation_vs_steady_native_1cpu"]["update_under_load_p99"] = 2.6
        fresh["inflation_vs_steady_native_1cpu"]["update_under_load_p99"] = 2.5
        bg.gate_serving(gate, archived, fresh)
        self.assertTrue(any("ceiling.update_under_load_p99" in r for r in gate.regressions))

    def test_missing_optional_keys_note_instead_of_crashing(self):
        # A sweep run without --live-update has no update_under_load
        # keys; the gate must skip both band and ceiling with notes.
        gate = bg.Gate()
        archived, fresh = fixture("serving")["metrics"], fixture("serving")["metrics"]
        for key in ("update_under_load_p99", "update_under_load_p999"):
            del fresh["inflation_vs_steady_native_1cpu"][key]
        bg.gate_serving(gate, archived, fresh)
        self.assertFalse(gate.regressions)
        self.assertTrue(any("update_under_load_p99: not in the fresh run" in n for n in gate.notes))
        self.assertTrue(any("ceiling" in n and "skipped" in n for n in gate.notes))

    def test_new_fresh_key_is_informational(self):
        gate = bg.Gate()
        archived, fresh = fixture("serving")["metrics"], fixture("serving")["metrics"]
        del archived["inflation_vs_steady_native_1cpu"]["update_under_load_p999"]
        bg.gate_serving(gate, archived, fresh)
        self.assertFalse(gate.regressions)
        self.assertTrue(any("archive it" in n for n in gate.notes))


class FleetGate(TempRepo):
    def run_gate(self, fresh, committed):
        with quiet() as out:
            code = self.gate("fleet", fresh, committed).finish()
        return code, out.getvalue()

    def test_clean_run_passes_against_matching_archive(self):
        code, out = self.run_gate(fixture("fleet"), fixture("fleet"))
        self.assertEqual(code, 0)
        self.assertIn("fleet.p99_us", out)

    def test_lost_requests_fail_hard(self):
        fleet = fixture("fleet")
        fleet["metrics"]["lost"] = 1
        self.assertEqual(self.run_gate(fleet, fixture("fleet"))[0], 1)

    def test_accounting_mismatch_fails_hard(self):
        fleet = fixture("fleet")
        fleet["metrics"]["completed"] -= 7  # offered != completed + shed
        self.assertEqual(self.run_gate(fleet, fixture("fleet"))[0], 1)

    def test_every_evacuation_must_rehome(self):
        fleet = fixture("fleet")
        fleet["metrics"]["migrations"] -= 1
        self.assertRegressed(self.gate("fleet", fleet, fixture("fleet")), "fleet.migrations")

    def test_p999_ceiling_is_absolute(self):
        fleet = fixture("fleet")
        fleet["metrics"]["p999_us"] = bg.FLEET_P999_CEILING_US + 1.0
        # Archive the same breach: it must not grandfather it in.
        gate = self.gate("fleet", fleet, copy.deepcopy(fleet))
        self.assertEqual(gate.regressions[0].split()[0], "fleet.p999_ceiling")

    def test_tail_band_against_archive(self):
        fleet = fixture("fleet")
        fleet["metrics"]["p99_us"] *= 2.0
        self.assertEqual(self.gate("fleet", fleet, fixture("fleet")).regressions, ["fleet.p99_us"])

    def test_mismatched_command_skips_bands_but_keeps_invariants(self):
        fleet = fixture("fleet")
        fleet["provenance"]["command"] += " --campaign"
        fleet["metrics"]["p99_us"] *= 2.0  # out of band, but not comparable
        gate = self.gate("fleet", fleet, fixture("fleet"))
        self.assertFalse(gate.regressions)
        self.assertTrue(any("bands skipped" in n for n in gate.notes))
        fleet["metrics"]["lost"] = 3
        fleet["metrics"]["downtime_us"]["max"] = bg.FLEET_DOWNTIME_CEILING_US * 2
        gate = self.gate("fleet", fleet, fixture("fleet"))
        self.assertRegressed(gate, "fleet.lost")
        self.assertRegressed(gate, "fleet.downtime_ceiling")
        self.assertNotRegressed(gate, "fleet.p99_us")


class FaultGate(TempRepo):
    def test_clean_run_passes(self):
        self.assertFalse(self.gate("faults", fixture("faults"), fixture("faults")).regressions)

    def test_fault_invariants_are_checked(self):
        fresh = fixture("faults")
        fresh["provenance"]["command"] += " --campaign"  # invariants apply regardless
        fresh["metrics"]["determinism"] = "FAILED"
        fresh["metrics"]["summary"]["recovered"] = 0
        gate = self.gate("faults", fresh, fixture("faults"))
        self.assertRegressed(gate, "faults.determinism")
        self.assertRegressed(gate, "faults.recovered")

    def test_throughput_cliff_fails_under_the_same_command(self):
        fresh = fixture("faults")
        fresh["metrics"]["sim_speed"]["mcycles_per_host_second"] *= bg.SIM_SPEED_MIN_FRACTION * 0.9
        self.assertRegressed(self.gate("faults", fresh, fixture("faults")), "faults.sim_speed.mcycles_per_host_second")
        fresh["provenance"]["command"] += " --campaign"
        self.assertFalse(self.gate("faults", fresh, fixture("faults")).regressions)

    def test_throughput_floor_needs_the_same_host(self):
        # Host time from another machine says nothing about the code:
        # the floor is skipped loudly, the invariants still apply.
        fresh = fixture("faults")
        fresh["provenance"]["host"] = "x86_64-linux, 4 cpus, some other cpu"
        fresh["metrics"]["sim_speed"]["mcycles_per_host_second"] *= bg.SIM_SPEED_MIN_FRACTION * 0.9
        gate = self.gate("faults", fresh, fixture("faults"))
        self.assertFalse(gate.regressions)
        self.assertFalse([r for r in gate.rows if r[0] == "faults.sim_speed.mcycles_per_host_second"])
        self.assertTrue(any("host-time floor skipped" in n for n in gate.notes))
        fresh["metrics"]["determinism"] = "FAILED"
        self.assertRegressed(self.gate("faults", fresh, fixture("faults")), "faults.determinism")


class RunAll(unittest.TestCase):
    def test_cargo_finds_the_workspace_from_a_scratch_dir(self):
        # Default mode runs `all` in target/benchgate/, which holds no
        # Cargo.toml: the command itself must name the manifest.
        with tempfile.TemporaryDirectory() as cwd, mock.patch.object(bg.subprocess, "run") as run, quiet():
            bg.run_all(cwd)
        (cmd,), kwargs = run.call_args
        self.assertEqual(kwargs["cwd"], cwd)
        i = cmd.index("--manifest-path")
        self.assertEqual(cmd[i + 1], os.path.join(bg.REPO, "Cargo.toml"))
        self.assertTrue(os.path.isfile(cmd[i + 1]))
        self.assertEqual(cmd[-2:], ["--bin", "all"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
