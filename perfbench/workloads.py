"""Workload definitions and the solve / verify / check passes over them.

Every workload is a list of `Problem`s with the answer the paper gives for
each.  `Workload.run` makes one pass: it runs the library on every problem in
order (one caller, one process, each problem starting when the previous one
ends), re-verifies each certificate right after it is made, and turns wrong
answers, rejected certificates, `Unknown` verdicts and exceptions into named
failures.  Given a `HostSpeed`, it also samples the host's speed between
problems and scales each problem's times by it (see `hostspeed`).  The
library is looked up through its module namespaces at call
time (`criteria.height`, not a bound name), so the wrappers of `tracer`
see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import qfsplit  # noqa: E402
import qfsplit.cli as cli  # noqa: E402
import qfsplit.criteria as criteria  # noqa: E402
import qfsplit.strata as strata  # noqa: E402
from qfsplit import Grading, Ideal, PolynomialRing, PrimeField  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

if SRC not in Path(qfsplit.__file__).resolve().parents:
    raise ImportError(f"qfsplit was imported from {qfsplit.__file__}, not from {SRC}")

FINITE, INFINITE, UNKNOWN = criteria.FINITE, criteria.INFINITE, criteria.UNKNOWN

# strata-sweep: plane cubics at p = 3, stratum polynomials b_1, b_2 (h_max = 3)
STRATA_P = 3
STRATA_NVARS = 3
STRATA_H_MAX = 3
STRATA_MEMBERS = 2500

SEXTIC_G1 = "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z"
SEXTIC_G2 = "x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z"

# (name, p, variables, equation, expected verdict, expected height)
CY_ROWS = (
    ("quartic@p5", 5, "xyzw", "x^4 + y^4 + z^4 + w^4 + x*y*z*w + x^2*y*z", FINITE, 2),
    ("cubic-a@p7", 7, "xyz", "y^2*z + 6*x^3 + 6*x*z^2", FINITE, 2),
    ("cubic-b@p5", 5, "xyz", "y^2*z + 4*x^3 + 4*z^3", FINITE, 2),
    ("cubic-c@p5", 5, "xyz", "x^3 + y^3 + z^3 + x*y*z", FINITE, 2),
    ("cubic-fsplit@p5", 5, "xyz", "x^3 + y^3 + z^3 + x*y*z + x^2*y + y^2*z", FINITE, 1),
    ("fermat-quartic@p3", 3, "xyzw", "x^4 + y^4 + z^4 + w^4", INFINITE, None),
)
CY_N_MAX = 4


@dataclass
class Problem:
    """One height question.  `expected` is (verdict, n); strata-sweep members
    have none and are checked against their stratum profile instead, so they
    carry their coefficient vector in `point`."""

    pid: str
    gens: tuple
    n_max: int
    expected: Optional[tuple[str, Optional[int]]] = None
    point: Optional[tuple[int, ...]] = None


@dataclass
class Outcome:
    problem: Problem
    result: Optional[criteria.HeightResult] = None
    solve_s: float = 0.0  # wall time
    verify_s: float = 0.0  # wall time
    scale: float = 1.0  # host-speed scale of this problem's segment
    profile: Optional[int] = None
    failures: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    problems: list[Problem]
    family: Optional[strata.FamilyContext] = None

    def run(self, mark: Callable[[str], None] = lambda pid: None,
            speed: Optional[HostSpeed] = None) -> "Pass":
        """One pass: solve each problem and re-verify its certificate right
        after, as `qfsplit height --verify` does, then check the answer.
        `mark` is told which problem the calls that follow belong to.  With
        `speed`, the host is sampled between problems and the pass's times
        are scaled; without it every scale is 1."""
        done = Pass([])
        segments: list[int] = []  # index of the sample that opens each problem's segment
        table = None
        if self.family is not None:
            mark("strata")
            prelude_k = speed.due() if speed is not None else 0
            budget = qfsplit.Budget()
            t0 = time.perf_counter()
            table = strata.strata_polynomials(self.family, STRATA_H_MAX, budget)
            done.prelude_s = time.perf_counter() - t0
            done.prelude_steps = budget.steps
            grading = Grading.standard(STRATA_NVARS)
        for prob in self.problems:
            segments.append(speed.due() if speed is not None else 0)
            mark(prob.pid)
            out = Outcome(prob)
            t0 = time.perf_counter()
            try:
                if table is not None:
                    out.profile = table.profile(prob.point)
                    out.result = criteria.height_graded_cy(
                        list(prob.gens), grading, n_max=prob.n_max
                    )
                else:
                    system = prob.gens[0] if len(prob.gens) == 1 else list(prob.gens)
                    out.result = criteria.height(system, n_max=prob.n_max)
            except Exception:  # a raising problem is a failure, not a crash
                out.failures.append("raised " + traceback.format_exc(limit=-1).strip())
            t1 = time.perf_counter()
            try:
                _verify_one(out)
            except Exception:
                out.failures.append("verify raised " + traceback.format_exc(limit=-1).strip())
            out.solve_s, out.verify_s = t1 - t0, time.perf_counter() - t1
            _check_answer(out)
            done.outcomes.append(out)
        if speed is not None:
            speed.sample()  # closes the last segment
            if self.family is not None:
                done.prelude_scale = speed.segment_scale(prelude_k)
            for out, k in zip(done.outcomes, segments):
                out.scale = speed.segment_scale(k)
        return done


@dataclass
class Pass:
    """The outcomes of one pass.  The stratum polynomials of strata-sweep
    (`prelude_*`) count as solve work.  `solve_s` and `verify_s` are scaled
    to the host speed of `hostspeed.REF_S`; the `wall_*` sums are not."""

    outcomes: list[Outcome]
    prelude_s: float = 0.0
    prelude_steps: int = 0
    prelude_scale: float = 1.0

    @property
    def solve_s(self) -> float:
        return self.prelude_s * self.prelude_scale + sum(o.solve_s * o.scale for o in self.outcomes)

    @property
    def verify_s(self) -> float:
        return sum(o.verify_s * o.scale for o in self.outcomes)

    @property
    def wall_solve_s(self) -> float:
        return self.prelude_s + sum(o.solve_s for o in self.outcomes)

    @property
    def wall_verify_s(self) -> float:
        return sum(o.verify_s for o in self.outcomes)

    @property
    def budget_steps(self) -> int:
        return self.prelude_steps + sum(o.result.steps for o in self.outcomes if o.result)


def _verify_one(out: Outcome) -> None:
    res = out.result
    if res is None or res.certificate is None:
        return
    ring = out.problem.gens[0].ring
    reasons: list[str] = []
    if not criteria.verify_certificate(
        Ideal(ring, list(out.problem.gens)), res.certificate, reasons=reasons
    ):
        out.failures.append(f"certificate rejected: {'; '.join(reasons) or 'no reason given'}")


def _check_answer(out: Outcome) -> None:
    res = out.result
    if res is None:
        return  # the exception is already recorded
    if res.verdict == UNKNOWN:
        out.failures.append(f"Unknown: {'; '.join(res.diagnostics)}")
        return
    if res.verdict in (FINITE, INFINITE) and res.certificate is None:
        out.failures.append(f"{res.verdict} verdict without a certificate")
    got = (res.verdict, res.n)
    if out.problem.expected is None:
        capped = res.n if res.verdict == FINITE else STRATA_H_MAX
        if out.profile != capped:
            out.failures.append(
                f"stratum profile {out.profile} != capped height {capped} ({res.verdict} {res.n})"
            )
    elif got != out.problem.expected:
        out.failures.append(f"got {got[0]} {got[1]}, expected {out.problem.expected}")


def digest(outcomes: list[Outcome]) -> str:
    """sha256 over (problem, verdict, n, route, steps, certificate, profile)."""
    h = hashlib.sha256()
    for out in outcomes:
        res = out.result
        if res is None:
            row = [out.problem.pid, "raised"]
        else:
            cert = criteria.certificate_to_json(res.certificate)
            row = [out.problem.pid, res.verdict, res.n, res.route, res.steps, cert, out.profile]
        h.update(json.dumps(row, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------


def _rdp_table(seed: int, draw: int) -> Workload:
    rings = {p: PolynomialRing(PrimeField(p), ("x", "y", "z")) for p in (2, 3, 5)}
    problems = []
    for row in cli.rdp_rows((2, 3, 5), 8):
        f = rings[row["p"]].parse(row["f"])
        problems.append(
            Problem(
                f"{row['type']}@p{row['p']}",
                (f,),
                max(10, row["expected"] + 2),  # as cli.rdp_compute_row does
                (FINITE, row["expected"]),
            )
        )
    return Workload("rdp-table", problems)


def _sextic(seed: int, draw: int) -> Workload:
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w", "u", "s"))
    g1, g2 = ring.parse(SEXTIC_G1), ring.parse(SEXTIC_G2)
    s = ring.variable("s")
    return Workload(
        "sextic",
        [
            Problem("g1", (g1,), 4, (INFINITE, None)),
            Problem("g1|s=0", (g1, s), 4, (FINITE, 2)),
            Problem("g2", (g2,), 5, (FINITE, 3)),
            Problem("g2|s=0", (g2, s), 4, (FINITE, 2)),
        ],
    )


def _cy_graded(seed: int, draw: int) -> Workload:
    problems = []
    for name, p, names, text, verdict, n in CY_ROWS:
        ring = PolynomialRing(PrimeField(p), tuple(names))
        problems.append(Problem(name, (ring.parse(text),), CY_N_MAX, (verdict, n)))
    return Workload("cy-graded", problems)


def strata_points(seed: int, draw: int = 0, count: int = STRATA_MEMBERS) -> list[tuple[int, ...]]:
    """`count` nonzero coefficient vectors of plane cubics over F_3, drawn
    from `seed` and `draw` alone."""
    rng = random.Random(f"{seed}/{draw}")
    nmono = len(strata.degree_monomials(STRATA_NVARS, STRATA_NVARS))
    points = []
    while len(points) < count:
        v = tuple(rng.randrange(STRATA_P) for _ in range(nmono))
        if any(v):
            points.append(v)
    return points


def _strata_sweep(seed: int, draw: int) -> Workload:
    ctx = strata.FamilyContext.create(STRATA_P, STRATA_NVARS)
    problems = [
        Problem(f"m{i}", (ctx.specialize_generic(v),), STRATA_H_MAX, None, v)
        for i, v in enumerate(strata_points(seed, draw))
    ]
    return Workload("strata-sweep", problems, family=ctx)


_FACTORIES = {
    "rdp-table": _rdp_table,
    "sextic": _sextic,
    "cy-graded": _cy_graded,
    "strata-sweep": _strata_sweep,
}
NAMES = tuple(_FACTORIES)


def build(name: str, seed: int, draw: int = 0) -> Workload:
    """Rings, parsed inputs and generated members of a workload: its set-up.
    Seeded workloads (strata-sweep) draw their members from `seed` and
    `draw`, so the passes of a run can each measure a fresh draw; the
    others are fixed problem lists and ignore both."""
    return _FACTORIES[name](seed, draw)


def inputs_digest(wl: Workload) -> str:
    """sha256 over the problems as given: passes with equal inputs must give
    equal result digests."""
    h = hashlib.sha256()
    for prob in wl.problems:
        row = [prob.pid, [str(g) for g in prob.gens], prob.n_max, prob.expected, prob.point]
        h.update(json.dumps(row).encode())
        h.update(b"\n")
    return h.hexdigest()
