"""qfsplit benchmark: end-to-end and per-layer figures for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: rdp-table, sextic, cy-graded, strata-sweep (see README.md beside
this file).  Load shape: a closed loop with one caller.  A run starts a few
set-up-only processes, then passes one after another, each a fresh process
(`one_pass.py`) so that import and cold caches are paid as a CLI user pays
them, and stops starting passes once the next one would end past S seconds
(it always makes at least one).  Nothing runs in parallel.  On a seeded
workload (strata-sweep) untraced pass k draws its members from (N, k), so a
run's medians rest on several draws rather than one; a traced pass k repeats
the draw of untraced pass k.

--trace 0 reports the end-to-end metrics: medians over the run's passes of
setup_s, solve_s, verify_s, budget_steps and peak_rss_mb.  The three times
are scaled to a host of fixed speed by reference timings taken during each
pass (see hostspeed.py); the unscaled wall times are printed beside them.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead (traced minus untraced solve_s).
Human-readable lines come first; the last line of standard output is one
JSON object {correct, attempted, failed, metrics}.  Every answer is checked
against the paper's value and every certificate re-verified right after it
is made; a failure is printed by problem name and makes `correct` false.
Exit status is nonzero, with no JSON line, when a pass cannot run at all
(for example when the checkout has no src/qfsplit).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rdp-table", "sextic", "cy-graded", "strata-sweep")
SETUP_PROBES = 4  # set-up-only processes per run, so setup_s has several samples
DEADLINE_S = 170  # a run must end within 180 s; no pass may start a wait past this
TAIL_PERCENTILES = (99.9, 99, 95, 90)


class PassError(RuntimeError):
    """A pass process failed or printed no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # an ambient budget would change budget_steps or turn verdicts into Unknown
    env.pop("QFSPLIT_GB_BUDGET", None)
    return env


def run_pass(workload: str, seed: int, draw: int, timeout: float, setup_only=False, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--draw", str(draw)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--trace", str(spans)]
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]
            return text + f", p{q:g} {cut:.4f} (n={n})"
    return text + f", max {max(values):.4f} (n={n}; too few for a tail percentile)"


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Run passes until the next one would overrun `seconds`.  Returns the
    untraced and traced pass reports and every set-up report seen."""
    start = time.monotonic()
    spans = ROOT / ".perfbench_out" / f"{workload}-seed{seed}.spans.jsonl"
    if trace:
        spans.parent.mkdir(exist_ok=True)

    def budget_left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    setups = [run_pass(workload, seed, 0, budget_left(), setup_only=True) for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = {False: 0.0, True: 0.0}
    while True:
        # when tracing, alternate: each traced pass is compared with an untraced one
        kind = trace and len(traced) < len(plain)
        required = not plain or (trace and not traced)
        if not required and time.monotonic() - start + longest[kind] > seconds:
            break
        t0 = time.monotonic()
        if kind:  # each traced pass overwrites the spans of the one before
            traced.append(run_pass(workload, seed, len(traced), budget_left(), spans=spans))
        else:
            plain.append(run_pass(workload, seed, len(plain), budget_left()))
            setups.append(plain[-1])
        longest[kind] = max(longest[kind], time.monotonic() - t0)
    return plain, traced, setups


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """The untraced metrics: medians over the run's passes."""
    out = {"setup_s": statistics.median(setups)}
    for key in ("solve_s", "verify_s", "budget_steps", "peak_rss_mb"):
        out[key] = statistics.median(r[key] for r in plain)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians of the traced passes' layer figures, and the tracing overhead."""
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["solve_s"] for r in traced)
                               - statistics.median(r["solve_s"] for r in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        plain, traced, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"benchmark could not run {args.workload}: {exc}", file=sys.stderr)
        return 2

    reports = plain + traced
    failures = {}
    for i, rep in enumerate(reports):
        for pid, why in rep["failures"].items():
            failures.setdefault(pid, (i, why))
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(len(r["failures"]) for r in reports)
    # passes with the same inputs must agree: untraced with untraced, traced with untraced
    groups: dict[str, dict[str, set]] = {}
    for kind, rows in (("plain", plain), ("traced", traced)):
        for r in rows:
            g = groups.setdefault(r["inputs"], {"plain": set(), "traced": set(), "steps": set()})
            g[kind].add(r["digest"])
            g["steps"].add(r["budget_steps"])

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  set-up samples {len(setups)}")
    for g in groups.values():
        print(f"digest {' '.join(sorted(g['plain']))}"
              + ("" if len(g["plain"]) == 1 else "  UNSTABLE across passes with equal inputs"))
        if len(g["steps"]) > 1:
            print(f"budget_steps UNSTABLE across passes with equal inputs: {sorted(g['steps'])}")
    for pid, (i, why) in sorted(failures.items()):
        print(f"FAIL {pid} (pass {i}): {' | '.join(why)}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} (failed/attempted)")
    for key, rows in (("setup_s", setups), ("solve_s", plain), ("verify_s", plain)):
        print(f"{key:14s} {tail([r[key] for r in rows])}  (scaled)")
        print(f"{'':14s} {tail([r['wall_' + key] for r in rows])}  (wall)")
    refs = [t for r in plain for t in r["ref_s"]]
    print(f"host reference {tail(refs)} s (nominal {hostspeed.REF_S} s)")
    per_solve = [t for r in plain for t in r["problem_solve_s"]]
    per_verify = [t for r in plain for t in r["problem_verify_s"]]
    print(f"per-problem solve_s  {tail(per_solve)}  (scaled)")
    print(f"per-problem verify_s {tail(per_verify)}  (scaled)")
    print("routes " + ", ".join(f"{k} {v}" for k, v in sorted(plain[0]["routes"].items())))

    correct = failed == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer(plain, traced)
        print(f"tracing overhead {values['trace.overhead_s']:.4f} s per pass "
              "(traced minus untraced solve_s, medians)")
        for g in groups.values():
            if g["traced"] and g["traced"] != g["plain"]:
                correct = False
                print(f"TRACED DIGEST DIFFERS: {' '.join(sorted(g['traced']))}")
        names = spec["per_layer"]
    else:
        values = end_to_end(plain, [r["setup_s"] for r in setups])
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
