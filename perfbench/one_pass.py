"""One pass of a workload in a fresh process, as a command-line user pays for it.

    python3 perfbench/one_pass.py --workload NAME --seed N [--draw K] --launch T [--setup-only] [--trace FILE]

`--launch` is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the first engine call and so covers
interpreter start, importing qfsplit, building rings and making the inputs.
It is scaled by the median of three host-speed samples taken right after it
(see `hostspeed`); the unscaled figures are reported as `wall_*`.
The pass then solves every problem, re-verifies its certificate right after,
and prints one JSON object as its last line.  With `--trace FILE` the layer wrappers
are installed after set-up and the spans are written to FILE at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import Counter


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draw", type=int, default=0, help="which draw of a seeded workload")
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="file to write the spans to")
    args = ap.parse_args()

    import workloads  # imports qfsplit from the checkout's src/
    from hostspeed import HostSpeed

    wl = workloads.build(args.workload, args.seed, args.draw)
    tracer = None
    if args.trace:
        from tracer import ROUTES, Tracer

        tracer = Tracer()
        tracer.install()
    wall_setup_s = time.monotonic() - args.launch
    speed = HostSpeed()
    setup_s = wall_setup_s * speed.steady_scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0

    done = wl.run(tracer.mark if tracer else (lambda pid: None), speed)
    outcomes = done.outcomes
    routes = Counter(o.result.route for o in outcomes if o.result is not None)
    report = {
        "setup_s": setup_s,
        "solve_s": done.solve_s,
        "verify_s": done.verify_s,
        "wall_setup_s": wall_setup_s,
        "wall_solve_s": done.wall_solve_s,
        "wall_verify_s": done.wall_verify_s,
        "ref_s": speed.samples,
        "budget_steps": done.budget_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcomes),
        "failures": {o.problem.pid: o.failures for o in outcomes if o.failures},
        "digest": workloads.digest(outcomes),
        "inputs": workloads.inputs_digest(wl),
        "problem_solve_s": [o.solve_s * o.scale for o in outcomes],
        "problem_verify_s": [o.verify_s * o.scale for o in outcomes],
        "routes": dict(routes),
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        report["layers"].update({f"criteria.route.{r}": routes[r] for r in ROUTES})
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
