"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They use small slices of the workloads, so they take seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (first: puts the checkout's src/ on sys.path)
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import qfsplit  # noqa: E402
from qfsplit.rings import Polynomial  # noqa: E402
from qfsplit.strata import StrataPolynomials  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def small_workloads(seed: int = 3) -> list[workloads.Workload]:
    """Cheap slices that still reach every engine: fedder, local-chain and
    (through the quartic-free cy rows) graded-cy and quick-tests, plus a
    strata-sweep of 40 members."""
    rdp = workloads.build("rdp-table", seed)
    rdp.problems = [p for p in rdp.problems if p.pid in {"D4^0@p2", "D5^1@p2", "E6^0@p2", "E8^1@p5", "E7^0@p3"}]
    cy = workloads.build("cy-graded", seed)
    cy.problems = [p for p in cy.problems if not p.pid.startswith("quartic")]
    sweep = workloads.build("strata-sweep", seed)
    sweep.problems = sweep.problems[:40]
    return [rdp, cy, sweep]


def run_pass(wl: workloads.Workload, mark=lambda pid: None) -> list[workloads.Outcome]:
    return wl.run(mark).outcomes


def test_slices_pass_the_correctness_gate():
    for wl in small_workloads():
        outcomes = run_pass(wl)
        assert [o.failures for o in outcomes if o.failures] == [], wl.name
        assert len(outcomes) == len(wl.problems)


def test_wrong_expectation_is_reported_by_name():
    wl = small_workloads()[0]
    wrong = wl.problems[1]
    wrong.expected = (workloads.FINITE, wrong.expected[1] + 1)
    outcomes = run_pass(wl)
    failed = {o.problem.pid: o.failures for o in outcomes if o.failures}
    assert list(failed) == [wrong.pid]
    assert "expected" in failed[wrong.pid][0]


def test_raising_problem_is_a_failure_not_a_crash():
    wl = small_workloads()[0]
    broken = wl.problems[0]
    broken.gens = (broken.gens[0], workloads.PolynomialRing(workloads.PrimeField(7), ("t",)).one)
    outcomes = run_pass(wl)
    assert outcomes[0].failures and outcomes[0].failures[0].startswith("raised")
    assert all(not o.failures for o in outcomes[1:])


def test_wrong_stratum_profile_is_reported():
    out = run_pass(small_workloads()[2])[0]
    assert not out.failures
    out.profile += 1
    workloads._check_answer(out)
    assert out.failures and out.failures[0].startswith("stratum profile")


def test_pass_times_add_up():
    sweep = small_workloads()[2]
    done = sweep.run()
    assert done.prelude_s > 0 and done.prelude_steps > 0
    assert done.solve_s == done.prelude_s + sum(o.solve_s for o in done.outcomes)
    assert done.verify_s == sum(o.verify_s for o in done.outcomes) > 0
    assert done.budget_steps == done.prelude_steps + sum(o.result.steps for o in done.outcomes)
    assert done.wall_solve_s == done.solve_s and done.wall_verify_s == done.verify_s


def test_host_speed_scales_each_problem_by_the_samples_around_it():
    sweep = small_workloads()[2]
    speed = hostspeed.HostSpeed()
    speed.sample()
    done = sweep.run(speed=speed)
    scales = [o.scale for o in done.outcomes]
    assert len(speed.samples) >= 3  # opening, at least the prelude's, closing
    assert all(hostspeed.REF_S / max(speed.samples) <= c <= hostspeed.REF_S / min(speed.samples)
               for c in scales + [done.prelude_scale])
    assert done.solve_s == pytest.approx(
        done.prelude_s * done.prelude_scale + sum(o.solve_s * o.scale for o in done.outcomes))
    assert done.verify_s == pytest.approx(sum(o.verify_s * o.scale for o in done.outcomes))
    assert not [o.failures for o in done.outcomes if o.failures]


def test_wrapping_changes_no_result_and_is_undone():
    originals = {
        "criteria.delta1": qfsplit.criteria.delta1,
        "groebner.normal_form": qfsplit.groebner.normal_form,
        "capped_mul": Polynomial.__dict__["capped_mul"],
        "pow": Polynomial.__dict__["__pow__"],
        "profile": StrataPolynomials.__dict__["profile"],
    }
    plain = [workloads.digest(run_pass(wl)) for wl in small_workloads()]
    fresh = small_workloads()  # set-up stays outside the traced span tree
    tr = tracer.Tracer()
    tr.install()
    try:
        # the name is looked up in each namespace that imported it
        for wrapped in (
            qfsplit.criteria.delta1, qfsplit.strata.delta1, qfsplit.witt.delta1,
            qfsplit.criteria.theta, qfsplit.groebner.buchberger, qfsplit.groebner.normal_form,
            qfsplit.criteria.ideal_membership, Polynomial.capped_mul, Polynomial.__pow__,
        ):
            assert hasattr(wrapped, "__wrapped__"), wrapped
        traced = [workloads.digest(run_pass(wl, tr.mark)) for wl in fresh]
    finally:
        tr.uninstall()
    assert traced == plain
    assert qfsplit.criteria.delta1 is originals["criteria.delta1"]
    assert qfsplit.strata.delta1 is originals["criteria.delta1"]
    assert qfsplit.groebner.normal_form is originals["groebner.normal_form"]
    assert Polynomial.__dict__["capped_mul"] is originals["capped_mul"]
    assert Polynomial.__dict__["__pow__"] is originals["pow"]
    assert StrataPolynomials.__dict__["profile"] is originals["profile"]

    layers = tr.layer_metrics()
    for name in ("criteria.height", "groebner.buchberger", "groebner.module_buchberger",
                 "witt.delta1", "frobenius.theta", "strata.profile", "criteria.verify_certificate",
                 "groebner.ideal_membership", "rings.capped_mul"):
        assert layers.get(f"{name}.calls", 1) > 0 and layers.get(f"{name}.s", 1) > 0, name
    assert 0 < layers["groebner.buchberger.useful_ratio"] <= 1
    assert layers["groebner.buchberger.steps"] > 0
    assert all(s[tracer.PROBLEM] is not None for s in tr.spans)


def test_self_time_excludes_children_and_nesting_is_counted_once():
    tr = tracer.Tracer()
    tr.spans[:] = [
        ["criteria.verify_certificate", 0.0, 10.0, -1, "p", None, None],
        ["groebner.ideal_membership", 1.0, 4.0, 0, "p", None, None],
        ["criteria.verify_certificate", 5.0, 7.0, 0, "p", None, None],
    ]
    m = tr.layer_metrics()
    assert m["criteria.verify_certificate.calls"] == 2
    assert m["criteria.verify_certificate.s"] == 10.0
    assert m["criteria.verify_certificate.self_s"] == 5.0 + 2.0
    assert m["groebner.ideal_membership.s"] == 3.0


def test_benchmark_json_names_every_printed_metric():
    assert [m["name"] for m in SPEC["per_layer"]] == tracer.metric_names()
    plain = [{"solve_s": 1.0, "verify_s": 0.5, "budget_steps": 7, "peak_rss_mb": 30.0}]
    assert set(run.end_to_end(plain, [0.1])) == {m["name"] for m in SPEC["end_to_end"]}
    assert workloads.NAMES == run.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]


def test_passes_run_without_an_ambient_budget(monkeypatch):
    monkeypatch.setenv("QFSPLIT_GB_BUDGET", "5")
    assert "QFSPLIT_GB_BUDGET" not in run._child_env()


def test_strata_members_come_from_the_seed_and_draw_alone():
    a = workloads.strata_points(7, count=200)
    assert a == workloads.strata_points(7, 0, 200)
    assert a != workloads.strata_points(8, 0, 200)
    assert a != workloads.strata_points(7, 1, 200)
    assert all(any(v) for v in a) and len(a) == 200


def test_inputs_digest_tells_draws_apart_only_when_seeded():
    same = [workloads.inputs_digest(workloads.build("rdp-table", 1, k)) for k in (0, 1)]
    assert same[0] == same[1]
    sweeps = [workloads.build("strata-sweep", 1, k) for k in (0, 0, 1)]
    for wl in sweeps:
        wl.problems = wl.problems[:50]
    a, b, c = (workloads.inputs_digest(wl) for wl in sweeps)
    assert a == b != c


DIGEST_SNIPPET = """
import sys
sys.path.insert(0, {here!r})
import test_perfbench as t
print(" ".join(t.workloads.digest(t.run_pass(wl)) for wl in t.small_workloads()))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_digest_does_not_depend_on_hash_seed(hash_seed):
    here = [workloads.digest(run_pass(wl)) for wl in small_workloads()]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env.pop("QFSPLIT_GB_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SNIPPET.format(here=str(HERE))],
        env=env, capture_output=True, text=True, timeout=300, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == here


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rdp-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
