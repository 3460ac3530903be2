"""Outside-in layer tracing: wrap qfsplit's public functions, record spans.

`Tracer.install()` replaces each traced function in every qfsplit namespace
that holds it.  A module that did ``from .witt import delta1`` looks the name
up in its own globals, so patching `qfsplit.witt.delta1` alone would miss
`qfsplit.criteria.delta1` and `qfsplit.strata.delta1`.  Methods are patched
on their class.  Spans (name, start, end, parent, problem id) stay in memory
until `write_spans`; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import qfsplit  # noqa: F401  (imports every submodule named in TARGETS)


def _len_out(args, out):
    return len(out)


def _nonzero_out(args, out):
    return bool(out)


def _delta1_terms(args, out):
    return (len(args[0]), len(out))


def _theta_terms(args, out):
    return len(args[0])


# metric prefix -> (home module, attribute, budget argument position, value of a call)
TARGETS: dict[str, tuple[str, str, Optional[int], Optional[Callable[[tuple, Any], Any]]]] = {
    "groebner.buchberger": ("qfsplit.groebner", "buchberger", 2, _len_out),
    "groebner.module_buchberger": ("qfsplit.groebner", "module_buchberger", 2, _len_out),
    "groebner.normal_form": ("qfsplit.groebner", "normal_form", None, _nonzero_out),
    "groebner.module_normal_form": ("qfsplit.groebner", "module_normal_form", None, _nonzero_out),
    "groebner.frobenius_module_intersect_keru": (
        "qfsplit.groebner", "frobenius_module_intersect_keru", None, _len_out,
    ),
    "groebner.ideal_equal": ("qfsplit.groebner", "ideal_equal", None, None),
    "groebner.colon_ideal": ("qfsplit.groebner", "colon_ideal", None, None),
    "groebner.ideal_membership": ("qfsplit.groebner", "ideal_membership", None, None),
    "witt.delta1": ("qfsplit.witt", "delta1", None, _delta1_terms),
    "frobenius.theta": ("qfsplit.frobenius", "theta", None, _theta_terms),
    "frobenius.u_map": ("qfsplit.frobenius", "u_map", None, None),
    "rings.capped_mul": ("qfsplit.rings", "Polynomial.capped_mul", None, None),
    "rings.pow": ("qfsplit.rings", "Polynomial.__pow__", None, None),
    "strata.strata_polynomials": ("qfsplit.strata", "strata_polynomials", None, None),
    "strata.delta1_tilde": ("qfsplit.strata", "delta1_tilde", None, None),
    "strata.profile": ("qfsplit.strata", "StrataPolynomials.profile", None, None),
    "criteria.height": ("qfsplit.criteria", "height", None, None),
    "criteria.height_graded_cy": ("qfsplit.criteria", "height_graded_cy", None, None),
    "criteria.height_local": ("qfsplit.criteria", "height_local", None, None),
    "criteria.qfs_decide": ("qfsplit.criteria", "qfs_decide", None, None),
    "criteria.non_qfs_quick": ("qfsplit.criteria", "non_qfs_quick", None, None),
    "criteria.verify_certificate": ("qfsplit.criteria", "verify_certificate", None, None),
}

# the per-layer metrics a traced pass reports, beside the route counts
LAYER_FIELDS: dict[str, tuple[str, ...]] = {
    "groebner.buchberger": ("calls", "s", "self_s", "steps", "basis_max", "useful_ratio"),
    "groebner.module_buchberger": ("calls", "s", "self_s", "steps", "basis_max", "useful_ratio"),
    "groebner.normal_form": ("calls", "s"),
    "groebner.module_normal_form": ("calls", "s"),
    "groebner.frobenius_module_intersect_keru": ("calls", "s", "gens_out"),
    "groebner.ideal_equal": ("calls", "s"),
    "groebner.colon_ideal": ("calls", "s"),
    "groebner.ideal_membership": ("calls", "s"),
    "witt.delta1": ("calls", "s", "terms_in", "terms_out"),
    "frobenius.theta": ("calls", "s", "terms_in"),
    "frobenius.u_map": ("calls", "s"),
    "rings.capped_mul": ("calls", "s"),
    "rings.pow": ("calls", "s"),
    "strata.strata_polynomials": ("s",),
    "strata.delta1_tilde": ("s",),
    "strata.profile": ("calls", "s"),
    "criteria.height": ("calls", "self_s"),
    "criteria.height_graded_cy": ("calls", "s"),
    "criteria.height_local": ("calls", "s"),
    "criteria.qfs_decide": ("calls", "s"),
    "criteria.non_qfs_quick": ("s",),
    "criteria.verify_certificate": ("calls", "s", "self_s"),
}
ROUTES = ("fedder", "graded-cy", "quick-tests", "local-chain", "i-infinity")

# the normal form whose results make up a Buchberger span's useful_ratio
_REDUCER = {
    "groebner.buchberger": "groebner.normal_form",
    "groebner.module_buchberger": "groebner.module_normal_form",
}

# span record slots
NAME, START, END, PARENT, PROBLEM, VALUE, STEPS = range(7)


def _budget_steps(args, kwargs, pos):
    budget = args[pos] if len(args) > pos else kwargs.get("budget")
    return None if budget is None else budget.steps, budget


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans: list[list] = []
        self.problem: Optional[str] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def mark(self, problem: str) -> None:
        self.problem = problem

    def _wrap(self, name, fn, budget_pos, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, None, None]
            if budget_pos is not None:
                before, budget = _budget_steps(args, kwargs, budget_pos)
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if value is not None:
                rec[VALUE] = value(args, out)
            if budget_pos is not None and budget is not None:
                rec[STEPS] = budget.steps - before
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, budget_pos, value) in TARGETS.items():
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[home], owner_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig, self._wrap(name, orig, budget_pos, value))
                continue
            orig = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, orig, budget_pos, value)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qfsplit" and not mod_name.startswith("qfsplit."):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """One JSON object per line, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "problem": s[PROBLEM],
                }) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over every span recorded so far."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_s[s[PARENT]] += s[END] - s[START]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        steps: dict[str, int] = defaultdict(int)
        basis_max: dict[str, int] = defaultdict(int)
        reduced: dict[str, int] = defaultdict(int)
        useful: dict[str, int] = defaultdict(int)
        terms_in: dict[str, int] = defaultdict(int)
        terms_out: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] += 1
            self_s[name] += dur - child_s[i]
            if not _inside_same(spans, i):
                incl[name] += dur
            if s[STEPS] is not None:
                steps[name] += s[STEPS]
            val = s[VALUE]
            if val is None:  # no value recorded, or the call raised
                continue
            if name in _REDUCER:
                basis_max[name] = max(basis_max[name], val)
            elif name in ("groebner.normal_form", "groebner.module_normal_form"):
                parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
                if _REDUCER.get(parent) == name:
                    reduced[parent] += 1
                    useful[parent] += val
            elif name == "witt.delta1":
                terms_in[name] += val[0]
                terms_out[name] += val[1]
            else:  # theta terms_in, intersection gens_out
                terms_in[name] += val
        out: dict[str, float] = {}
        for name, fields in LAYER_FIELDS.items():
            for f in fields:
                key = f"{name}.{f}"
                if f == "calls":
                    out[key] = calls[name]
                elif f == "s":
                    out[key] = incl[name]
                elif f == "self_s":
                    out[key] = self_s[name]
                elif f == "steps":
                    out[key] = steps[name]
                elif f == "basis_max":
                    out[key] = basis_max[name]
                elif f == "useful_ratio":
                    out[key] = useful[name] / reduced[name] if reduced[name] else 0.0
                elif f in ("terms_in", "gens_out"):
                    out[key] = terms_in[name]
                elif f == "terms_out":
                    out[key] = terms_out[name]
        return out


def _inside_same(spans, i) -> bool:
    """Whether span i runs inside another span of the same name."""
    name, j = spans[i][NAME], spans[i][PARENT]
    while j >= 0:
        if spans[j][NAME] == name:
            return True
        j = spans[j][PARENT]
    return False


def metric_names() -> list[str]:
    """Every per-layer metric name a traced run prints, in order."""
    names = [f"{n}.{f}" for n, fields in LAYER_FIELDS.items() for f in fields]
    names += [f"criteria.route.{r}" for r in ROUTES]
    return names + ["trace.overhead_s"]
