"""Smoke runs of the scripts under scripts/: each exits as documented and
prints its key line."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfsplit
from qfsplit.criteria import LOWER_BOUND, HeightResult

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    """``python scripts/<name> args`` in a child interpreter that imports the
    same package as the tests."""
    env = dict(os.environ)
    src = str(Path(qfsplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_worked_examples_cusp():
    proc = run_script("worked_examples.py", "--only", "cusp")
    assert proc.returncode == 0, proc.stderr
    for p in (2, 3, 5, 7):
        line = f"p={p}: quasi-F-split=False, fixed point after 1 iteration(s), re-verified=True"
        assert line in proc.stdout


def test_strata_scan_samples():
    proc = run_script("strata_scan.py", "--samples", "20")
    assert proc.returncode == 0, proc.stderr
    assert "20 members  (profile, exact height, smooth-at-rational-points):" in proc.stdout


def test_search_heights_finds_height_one():
    proc = run_script("search_heights.py", "--h-max", "1", "--samples", "200")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("h=1: ")
    assert "(certificate re-verified=True)" in proc.stdout


@pytest.mark.parametrize(
    "args,message",
    [
        (["--h-max", "0"], "--h-max must be a positive height, got 0"),
        (["--h-max", "1", "--samples", "0"], "--samples must be a positive count, got 0"),
    ],
    ids=["h-max-zero", "samples-zero"],
)
def test_search_heights_rejects_an_empty_search(args, message):
    proc = run_script("search_heights.py", *args)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert proc.stdout == ""


def load_script(name):
    """scripts/<name> as a module, so that a test can patch its names."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fault", ["height", "certificate"])
def test_search_heights_fails_on_a_hit_it_cannot_confirm(monkeypatch, capsys, fault):
    """A hit whose exact height or certificate check fails is an error
    (exit 1 with a message), under `python -O` too: no assert does it."""
    module = load_script("search_heights.py")
    if fault == "height":
        monkeypatch.setattr(
            module, "height_graded_cy", lambda *args, **kw: HeightResult(LOWER_BOUND, 1, None)
        )
    else:
        monkeypatch.setattr(module, "verify_certificate", lambda I, cert: False)
    monkeypatch.setattr(sys, "argv", ["search_heights.py", "--h-max", "1", "--samples", "200"])
    assert module.main() == 1
    assert "error: h=1: " in capsys.readouterr().err
