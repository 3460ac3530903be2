"""Command-line interface: height jobs, certificate verification, the
rational-double-point table harness, family strata, and batch runs.

Exit codes: 0 for every computed verdict (including Infinite and a failed
verification, which are answers), 2 when the Groebner step budget aborts a
computation, 1 for input errors (bad polynomials, bad primes, bad files).
The rdp-table command additionally exits 1 when a computed height disagrees
with the expected closed form.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .rings import (
    Grading,
    HomogeneityError,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RingError,
    check_homogeneous,
)
from .groebner import Budget, BudgetExceededError, Ideal, colon_ideal, ideal_equal
from .criteria import (
    CHAIN_WITNESS,
    Certificate,
    FINITE,
    INFINITE,
    I_INFTY_STABILIZED,
    UNKNOWN,
    certificate_to_json,
    enclosure_closure,
    fedder_fsplit,
    height,
    qfs_decide,
    product_witness,
    result_to_json,
    verify_certificate,
)
from .criteria import height_graded_cy
from .strata import FamilyContext, search_height, strata_polynomials


class InputError(Exception):
    """User-facing input problem; maps to exit code 1."""


@dataclass
class Job:
    """One validated unit of work."""

    command: str
    p: int
    variables: tuple[str, ...]
    polynomials: tuple[str, ...] = ()
    grading: Optional[Grading] = None
    options: dict[str, Any] = field(default_factory=dict)

    def ring(self) -> PolynomialRing:
        return PolynomialRing(PrimeField(self.p), self.variables)

    def parsed(self) -> list[Polynomial]:
        ring = self.ring()
        out = []
        for text in self.polynomials:
            try:
                out.append(ring.parse(text))
            except ParseError as exc:
                raise InputError(f"bad polynomial {text!r}: {exc}") from exc
        if self.grading is not None:
            for f in out:
                check_homogeneous(f, self.grading)
        return out


def _split_polys(chunks: Sequence[str]) -> tuple[str, ...]:
    out = []
    for chunk in chunks:
        out.extend(s.strip() for s in chunk.split(";") if s.strip())
    return tuple(out)


def parse_grading(text: str, nvars: int) -> Grading:
    """Rows separated by '|' or ';', entries by commas."""
    rows = []
    for row in text.replace("|", ";").split(";"):
        row = row.strip()
        if not row:
            continue
        try:
            rows.append(tuple(int(v) for v in row.split(",")))
        except ValueError as exc:
            raise InputError(f"bad grading row {row!r}") from exc
    if not rows:
        raise InputError("empty grading")
    for r in rows:
        if len(r) != nvars:
            raise InputError(
                f"grading row has {len(r)} entries for {nvars} variables"
            )
    return Grading(tuple(rows))


def _auto_n_max(polys: Sequence[Polynomial]) -> int:
    # chain length grows like log2 of the degree in the worst families seen
    deg = max((f.total_degree() for f in polys if f), default=1)
    return max(10, deg.bit_length() + 2)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive(value: Any) -> bool:
    return _is_int(value) and value > 0


_STRATEGIES = ("auto", "graded", "local", "qfs")

# what each job option must be: the check its flag gets
_OPTION_RULES = {
    "n_max": (_positive, "a positive chain length"),
    "budget": (_positive, "a positive number of steps"),
    "verify": (lambda v: isinstance(v, bool), "true or false"),
    "strategy": (lambda v: v in _STRATEGIES, "one of " + ", ".join(_STRATEGIES)),
}
# the options each job command reads (the other commands read their flags directly)
_JOB_OPTIONS = {"height": tuple(_OPTION_RULES), "fsplit": (), "qfs": ("budget", "verify")}


def _options(command: str, options: dict[str, Any]) -> dict[str, Any]:
    """The options of a job, each checked; one its command does not read is
    an input error."""
    for key, value in options.items():
        if key not in _JOB_OPTIONS[command]:
            raise InputError(f"{command} takes no option {key!r}")
        ok, must = _OPTION_RULES[key]
        if not ok(value):
            raise InputError(f"{key} must be {must}, got {value!r}")
    return options


def _job_from_args(args, command: str) -> Job:
    p = PrimeField(args.p).p
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if len(set(variables)) != len(variables) or not variables:
        raise InputError(f"bad variable list {args.vars!r}")
    polys = _split_polys(args.poly or [])
    grading = None
    if args.grading:
        grading = parse_grading(args.grading, len(variables))
    options = {
        key: getattr(args, key)
        for key in _JOB_OPTIONS.get(command, ())
        if getattr(args, key) is not None
    }
    return Job(command, p, variables, polys, grading, _options(command, options))


def _polynomials(job: Job) -> list[Polynomial]:
    """The job's parsed polynomials: at least one, and none zero or
    constant, since no regular sequence has such an element."""
    polys = job.parsed()
    if not polys:
        raise InputError(f"{job.command} needs at least one polynomial")
    if not all(polys):
        raise InputError("a zero generator is not part of a regular sequence")
    for f in polys:
        if f.total_degree() == 0:
            raise InputError(
                f"generator '{f}' is constant, so the generators are not a regular sequence"
            )
    return polys


def _generators(job: Job) -> list[Polynomial]:
    """The job's parsed generators: at least one, and a regular sequence,
    which is checked when they are homogeneous and noted otherwise."""
    polys = _polynomials(job)
    if len(polys) > 1:
        grading = job.grading or Grading.standard(len(job.variables))
        try:
            for f in polys:
                check_homogeneous(f, grading)
        except HomogeneityError:
            print(
                "note: generators are assumed to form a regular sequence; "
                "this is not verified.",
                file=sys.stderr,
            )
        else:
            _require_regular_sequence(polys, Budget(job.options.get("budget")))
    return polys


def _require_regular_sequence(polys: Sequence[Polynomial], budget: Budget) -> None:
    """Input error unless the homogeneous, nonconstant ``polys`` form a
    regular sequence: (f_1..f_{i−1}) : f_i = (f_1..f_{i−1}) for i ≥ 2.
    Gradings are positive, so such generators lie in m, and their order does
    not matter."""
    ring = polys[0].ring
    for i in range(1, len(polys)):
        before = Ideal(ring, polys[:i])
        if not ideal_equal(colon_ideal(before, Ideal(ring, [polys[i]]), budget), before, budget):
            raise InputError(
                f"generators are not a regular sequence: '{polys[i]}' is a zero "
                "divisor modulo the generators before it"
            )


def _add_verification(
    payload: dict,
    I: Ideal,
    cert: Certificate,
    budget: Optional[Budget] = None,
    key: str = "verify_reasons",
) -> None:
    """The CLI's one check: re-verify ``cert`` against I within ``budget``
    and set ``verified`` in ``payload`` (where it already stands, if it
    does) and, on failure, the reasons under ``key``."""
    reasons: list[str] = []
    payload["verified"] = verify_certificate(I, cert, budget, reasons)
    if reasons:
        payload[key] = reasons


def _verify_input(args, text: str, what: str, item: str) -> tuple[Ideal, list[Polynomial]]:
    """The ideal of a verify command's ``--poly`` flags and the
    ';'-separated polynomials of ``text``, its ``what`` (at least one)."""
    polys = _polynomials(_job_from_args(args, args.command))
    ring = polys[0].ring
    try:
        parsed = [ring.parse(t) for t in _split_polys([text])]
    except ParseError as exc:
        raise InputError(f"bad {what} {item}: {exc}") from exc
    if not parsed:
        raise InputError(f"empty {what}")
    return Ideal(ring, polys), parsed


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)
# ---------------------------------------------------------------------------


def _run_height(job: Job) -> tuple[dict, int]:
    polys = _generators(job)
    n_max = job.options.get("n_max") or _auto_n_max(polys)
    res = height(
        polys,
        grading=job.grading,
        n_max=n_max,
        strategy=job.options.get("strategy", "auto"),
        budget=Budget(job.options.get("budget")),
    )
    payload = result_to_json(res)
    code = 2 if res.verdict == UNKNOWN else 0
    if job.options.get("verify") and res.certificate is not None and code == 0:
        _add_verification(payload, Ideal(polys[0].ring, polys), res.certificate)
    return payload, code


def _run_fsplit(job: Job) -> tuple[dict, int]:
    return {"fsplit": fedder_fsplit(_generators(job))}, 0


def _run_qfs(job: Job) -> tuple[dict, int]:
    polys = _generators(job)
    budget = Budget(job.options.get("budget"))
    I = Ideal(polys[0].ring, polys)
    is_qfs, cert = qfs_decide(I, budget)
    payload = {
        "qfs": is_qfs,
        "verdict": "QuasiFSplit" if is_qfs else INFINITE,
        "certificate": certificate_to_json(cert),
    }
    if job.options.get("verify"):
        _add_verification(payload, I, cert)
    return payload, 0


def _run_verify_chain(args) -> tuple[dict, int]:
    I, chain = _verify_input(args, args.chain, "chain", "element")
    # `verified` leads the report: the text format prints keys in this order
    payload: dict[str, Any] = {"verified": None, "chain_length": len(chain)}
    cert = Certificate(CHAIN_WITNESS, {"chain": chain})
    _add_verification(payload, I, cert, Budget(args.budget), "reasons")
    return payload, 0


def _run_verify_infty(args) -> tuple[dict, int]:
    I, trap = _verify_input(args, args.trap, "trap ideal", "generator")
    budget = Budget(args.budget)
    payload: dict[str, Any] = {}
    if args.close:
        trap = list(enclosure_closure(I, trap, budget).gens)
        payload["closure_generators"] = [str(g) for g in trap]
    cert = Certificate(I_INFTY_STABILIZED, {"generators": trap})
    _add_verification(payload, I, cert, budget, "reasons")
    return payload, 0


def _run_product(args) -> tuple[dict, int]:
    field = PrimeField(args.p)
    xvars = tuple(v.strip() for v in args.x_vars.split(",") if v.strip())
    yvars = tuple(v.strip() for v in args.y_vars.split(",") if v.strip())
    rx = PolynomialRing(field, xvars)
    ry = PolynomialRing(field, yvars)
    if bool(args.x_poly) != bool(args.y_poly):
        raise InputError("--x-poly and --y-poly go together: give both factor equations or neither")
    gs = [rx.parse(t) for t in _split_polys([args.chain])]
    h = ry.parse(args.splitting)
    fx = rx.parse(args.x_poly) if args.x_poly else None
    fy = ry.parse(args.y_poly) if args.y_poly else None
    ws = product_witness(gs, h, len(gs), fx=fx, fy=fy)
    payload = {"witnesses": [str(w) for w in ws], "n": len(ws)}
    if fx is not None:
        joint = ws[0].ring
        joint_ideal = Ideal(joint, [joint.parse(args.x_poly), joint.parse(args.y_poly)])
        cert = Certificate(CHAIN_WITNESS, {"chain": ws})
        _add_verification(payload, joint_ideal, cert, key="reasons")
    return payload, 0


def _run_strata(args) -> tuple[dict, int]:
    ctx = FamilyContext.create(args.p, args.nvars)
    strata = strata_polynomials(ctx, args.h_max, Budget(args.budget))
    return {
        "p": ctx.p,
        "nvars": args.nvars,
        "monomials": len(ctx.monomials),
        "coefficients": list(ctx.coefficient_names),
        "b": [str(b) for b in strata.polynomials],
    }, 0


def _run_search(args) -> tuple[dict, int]:
    if args.target < 1:
        raise InputError(f"--target must be a positive height, got {args.target}")
    if args.samples < 1:
        raise InputError(f"--samples must be a positive count, got {args.samples}")
    ctx = FamilyContext.create(args.p, args.nvars)
    witness = search_height(
        ctx,
        args.target,
        samples=args.samples,
        smoothness_check=not args.no_smoothness,
        restrict=args.restrict,
        seed=args.seed,
        budget=Budget(args.budget),
    )
    if witness is None:
        return {"found": False, "samples": args.samples}, 0
    res = height_graded_cy(
        [witness], Grading.standard(args.nvars), n_max=args.target
    )
    return {
        "found": True,
        "witness": str(witness),
        "report": result_to_json(res),
    }, 0


# ---------------------------------------------------------------------------
# the rational double point table
# ---------------------------------------------------------------------------

# E-type rows: (p, label, equation, expected height)
RDP_E_ROWS: tuple[tuple[int, str, str, int], ...] = (
    (2, "E6^0", "z^2 + x^3 + y^2*z", 2),
    (2, "E6^1", "z^2 + x^3 + y^2*z + x*y*z", 1),
    (2, "E7^0", "z^2 + x^3 + x*y^3", 4),
    (2, "E7^1", "z^2 + x^3 + x*y^3 + x^2*y*z", 3),
    (2, "E7^2", "z^2 + x^3 + x*y^3 + y^3*z", 2),
    (2, "E7^3", "z^2 + x^3 + x*y^3 + x*y*z", 1),
    (2, "E8^0", "z^2 + x^3 + y^5", 4),
    (2, "E8^1", "z^2 + x^3 + y^5 + x*y^3*z", 4),
    (2, "E8^2", "z^2 + x^3 + y^5 + x*y^2*z", 3),
    (2, "E8^3", "z^2 + x^3 + y^5 + y^3*z", 2),
    (2, "E8^4", "z^2 + x^3 + y^5 + x*y*z", 1),
    (3, "E6^0", "z^2 + x^3 + y^4", 2),
    (3, "E6^1", "z^2 + x^3 + y^4 + x^2*y^2", 1),
    (3, "E7^0", "z^2 + x^3 + x*y^3", 2),
    (3, "E7^1", "z^2 + x^3 + x*y^3 + x^2*y^2", 1),
    (3, "E8^0", "z^2 + x^3 + y^5", 3),
    (3, "E8^1", "z^2 + x^3 + y^5 + x^2*y^3", 2),
    (3, "E8^2", "z^2 + x^3 + y^5 + x^2*y^2", 1),
    (5, "E8^0", "z^2 + x^3 + y^5", 2),
    (5, "E8^1", "z^2 + x^3 + y^5 + x*y^4", 1),
)


def rdp_rows(p_set: Sequence[int], n_bound: int) -> list[dict[str, Any]]:
    """Every table row as {p, type, f, expected}: the two D-families at p = 2
    (coindex r = 0..n−1, 2 ≤ n ≤ n_bound) and the E-rows for p ∈ {2,3,5}."""
    rows: list[dict[str, Any]] = []
    if 2 in p_set:
        for n in range(2, n_bound + 1):
            for r in range(0, n):
                expected = math.ceil(math.log2(n - r)) + 1
                tail = f" + x*y^{n - r}*z" if r else ""
                rows.append(
                    {
                        "p": 2,
                        "type": f"D{2 * n}^{r}",
                        "f": f"z^2 + x^2*y + x*y^{n}" + tail,
                        "expected": expected,
                    }
                )
                rows.append(
                    {
                        "p": 2,
                        "type": f"D{2 * n + 1}^{r}",
                        "f": f"z^2 + x^2*y + y^{n}*z" + tail,
                        "expected": expected,
                    }
                )
    for p, label, f, expected in RDP_E_ROWS:
        if p in p_set:
            rows.append({"p": p, "type": label, "f": f, "expected": expected})
    return rows


def rdp_compute_row(row: dict[str, Any]) -> dict[str, Any]:
    ring = PolynomialRing(PrimeField(row["p"]), ("x", "y", "z"))
    f = ring.parse(row["f"])
    res = height(f, n_max=max(10, row["expected"] + 2))
    computed = res.n if res.verdict == FINITE else res.verdict
    out = dict(row)
    out["computed"] = computed
    out["match"] = computed == row["expected"]
    return out


def _run_rdp_table(args) -> tuple[dict, int]:
    try:
        p_set = sorted({int(v) for v in args.primes.split(",")})
    except ValueError as exc:
        raise InputError(f"bad prime list {args.primes!r}: {exc}") from exc
    bad = [p for p in p_set if p not in (2, 3, 5)]
    if bad:
        raise InputError(f"no table rows for p = {bad}; choose among 2,3,5")
    if args.n_bound < 2:
        # the D-families start at n = 2 (D4, D5); a smaller bound drops them all
        raise InputError(f"--n-bound must be at least 2, got {args.n_bound}")
    rows = [rdp_compute_row(r) for r in rdp_rows(p_set, args.n_bound)]
    mismatches = [r for r in rows if not r["match"]]
    payload = {
        "rows": rows,
        "total": len(rows),
        "mismatches": len(mismatches),
    }
    return payload, (1 if mismatches else 0)


def _format_rdp_table(payload: dict, fmt: str) -> str:
    rows = payload["rows"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "type", "f", "expected", "computed", "match"])
        for r in rows:
            writer.writerow(
                [r["p"], r["type"], r["f"], r["expected"], r["computed"], r["match"]]
            )
        return buf.getvalue()
    lines = [
        "| p | type | f | expected | computed | match |",
        "|---|------|---|----------|----------|-------|",
    ]
    for r in rows:
        lines.append(
            f"| {r['p']} | {r['type']} | {r['f']} | {r['expected']}"
            f" | {r['computed']} | {'yes' if r['match'] else 'NO'} |"
        )
    lines.append(
        f"\n{payload['total']} rows, {payload['mismatches']} mismatches"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def _is_list_of(ok):
    """The check that a value is a list whose items all pass ``ok``."""
    return lambda value: isinstance(value, list) and all(ok(v) for v in value)


# what each field of a batch record must be; the first three are required
_RECORD_FIELDS = {
    "command": (lambda v: isinstance(v, str), "a string"),
    "p": (_is_int, "an integer"),
    "vars": (_is_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "polys": (_is_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "grading": (_is_list_of(_is_list_of(_is_int)), "a list of lists of integers"),
}


def _job_from_record(record: Any) -> Job:
    if not isinstance(record, dict):
        raise InputError(f"job record must be an object, got {record!r}")
    for key, (ok, must) in _RECORD_FIELDS.items():
        if record.get(key) is None:
            if key in ("command", "p", "vars"):
                raise InputError(f"job record missing field {key!r}")
        elif not ok(record[key]):
            raise InputError(f"job field {key} must be {must}, got {record[key]!r}")
    command = record["command"]
    p = PrimeField(record["p"]).p
    variables = tuple(record["vars"])
    polys = tuple(record.get("polys") or ())
    grading = None
    if record.get("grading"):
        grading = Grading(record["grading"])
        if grading.nvars != len(variables):
            raise InputError("grading width disagrees with variable count")
    if command not in _JOB_COMMANDS:
        raise InputError(f"unsupported batch command {command!r}")
    options = record.get("options", {})
    if not isinstance(options, dict):
        raise InputError(f"job options must be an object, got {options!r}")
    return Job(command, p, variables, polys, grading, _options(command, dict(options)))


def run_batch_record(record: dict[str, Any]) -> tuple[dict, int]:
    """One batch entry; errors are captured, not raised (isolation)."""
    try:
        job = _job_from_record(record)
        return _JOB_COMMANDS[job.command](job)
    except (InputError, RingError) as exc:
        return {"error": str(exc)}, 1
    except BudgetExceededError as exc:
        return {"error": f"budget exhausted after {exc.steps} steps"}, 2


def _run_batch(args) -> tuple[dict, int]:
    if args.workers is not None and args.workers < 1:
        raise InputError(f"--workers must be a positive count, got {args.workers}")
    try:
        with open(args.jobfile) as fh:
            records = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read job file: {exc}") from exc
    if not isinstance(records, list):
        raise InputError("job file must contain a JSON list")
    if not records:
        return {"jobs": [], "exit": 0}, 0
    if args.serial or len(records) == 1:
        results = [run_batch_record(r) for r in records]
    else:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts every worker at once: never more than one per job
        workers = min(args.workers or os.cpu_count() or 1, len(records))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_batch_record, records))
    reports = [
        {"index": i, "exit": code, "report": payload}
        for i, (payload, code) in enumerate(results)
    ]
    worst = max(code for _, code in results)
    return {"jobs": reports, "exit": worst}, worst


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

# commands that run one Job, from the command line or from a batch record
_JOB_COMMANDS = {"height": _run_height, "fsplit": _run_fsplit, "qfs": _run_qfs}

# commands that read their own arguments
_ARG_COMMANDS = {
    "verify-chain": _run_verify_chain,
    "verify-infty": _run_verify_infty,
    "product": _run_product,
    "strata": _run_strata,
    "search": _run_search,
    "rdp-table": _run_rdp_table,
    "batch": _run_batch,
}


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, since exit code 2 means an exhausted budget."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--vars", required=True, help="comma-separated variables")
    sub.add_argument(
        "--poly",
        action="append",
        help="generator polynomial (repeatable; ';' separates within one flag)",
    )
    sub.add_argument("--grading", help="grading rows 'a,b,c|d,e,f' (or ';')")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfsplit",
        description="quasi-F-split heights of hypersurfaces and complete intersections",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("height", help="compute the quasi-F-split height")
    _add_common(sp)
    sp.add_argument(
        "--n-max",
        dest="n_max",
        type=int,
        help="cutoff of the graded engine and --strategy local; auto reads the chain past it",
    )
    sp.add_argument("--budget", type=int, help="Groebner step budget")
    sp.add_argument("--verify", action="store_true", help="re-verify certificates before printing")
    sp.add_argument(
        "--strategy",
        choices=_STRATEGIES,
        default="auto",
        help="force a computation route",
    )

    sp = subs.add_parser("fsplit", help="Fedder F-splitting test")
    _add_common(sp)

    sp = subs.add_parser("qfs", help="decide quasi-F-splitness via the I_n chain")
    _add_common(sp)
    sp.add_argument("--budget", type=int, help="Groebner step budget")
    sp.add_argument("--verify", action="store_true", help="re-verify certificates before printing")

    sp = subs.add_parser("verify-chain", help="check a strict θ-chain certificate")
    _add_common(sp)
    sp.add_argument("--budget", type=int, help="Groebner step budget")
    sp.add_argument("--chain", required=True, help="';'-separated chain elements")

    sp = subs.add_parser("verify-infty", help="check a trap ideal certifying height ∞")
    _add_common(sp)
    sp.add_argument("--budget", type=int, help="Groebner step budget")
    sp.add_argument("--trap", required=True, help="';'-separated trap ideal generators")
    sp.add_argument(
        "--close",
        action="store_true",
        help="close the trap ideal under θ(F_*·∩Ker u) before checking",
    )

    sp = subs.add_parser("product", help="combine witnesses for a fiber product")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--x-vars", dest="x_vars", required=True)
    sp.add_argument("--y-vars", dest="y_vars", required=True)
    sp.add_argument("--chain", required=True, help="chain for the first factor")
    sp.add_argument("--splitting", required=True, help="splitting element for the second")
    sp.add_argument("--x-poly", dest="x_poly", help="first factor equation (enables exact chain + verify)")
    sp.add_argument("--y-poly", dest="y_poly", help="second factor equation")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = subs.add_parser("strata", help="stratum polynomials of the degree-N family")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--nvars", type=int, required=True, help="N (= degree)")
    sp.add_argument("--h-max", dest="h_max", type=int, default=3)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = subs.add_parser("search", help="search the family for a prescribed height")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--nvars", type=int, required=True)
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--restrict", action="store_true", help="x1-subfamily only")
    sp.add_argument("--no-smoothness", action="store_true")
    sp.add_argument("--budget", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = subs.add_parser("rdp-table", help="reproduce the double-point height table")
    sp.add_argument("--primes", default="2,3,5", help="subset of 2,3,5")
    sp.add_argument("--n-bound", dest="n_bound", type=int, default=8)
    sp.add_argument("--format", choices=("md", "csv", "json"), default="md")

    sp = subs.add_parser("batch", help="run a JSON list of jobs")
    sp.add_argument("jobfile")
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--serial", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="json")
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{key}: {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in _JOB_COMMANDS:
            payload, code = _JOB_COMMANDS[args.command](_job_from_args(args, args.command))
        else:
            payload, code = _ARG_COMMANDS[args.command](args)
    except (InputError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"error: budget exhausted after {exc.steps} steps", file=sys.stderr)
        return 2
    if args.command == "rdp-table" and args.format in ("md", "csv"):
        print(_format_rdp_table(payload, args.format))
    else:
        _emit(payload, args.format)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
