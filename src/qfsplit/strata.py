"""Height stratification of degree-N hypersurface families.

The generic member G = Σ a_i·m_i of the family of degree-N hypersurfaces in
N variables lives in the enlarged ring F_p[x_1..x_N, a_1..a_M] (one
coefficient variable per degree-N monomial).  The stratum polynomial b_i is
the coefficient of (x_1⋯x_N)^{p^i−1} in
G_i := G^{p−1}·Δ̃₁(G^{p−1})^{1+p+⋯+p^{i−2}}, a homogeneous polynomial of
degree p^i−1 in the a-variables; the locus of height ≥ h in the family is
cut out by b_1 = ⋯ = b_{h−1} = 0.  Δ̃₁ is the Witt carry of G^{p−1} taken
with respect to its decomposition grouped by x-monomial (each a-coefficient
rides inside its group), which makes specialization of the a-variables
commute with the construction.  Each b_i is read by
`criteria.capped_coefficients`, the capped recursion E_{i+1} = E_i^p·Δ̃₁
for E_i = Δ̃₁(G^{p−1})^{1+p+⋯+p^{i−2}} and a pairing of G^{p−1} with E_i
at the target x-monomial, the reader that also re-verifies coefficient
witnesses from level 3 on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .rings import Grading, Polynomial, PolynomialRing, PrimeField, RingError
from .witt import delta1
from .groebner import Budget, BudgetExceededError
from .criteria import FINITE, UNKNOWN, capped_coefficients, height_graded_cy


def degree_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree `degree` in `nvars` variables,
    in lexicographic order (first variable's exponent decreasing)."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in degree_monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _coefficient_name(exps: Sequence[int]) -> str:
    if all(e <= 9 for e in exps):
        return "a" + "".join(str(e) for e in exps)
    return "a" + "_".join(str(e) for e in exps)


@dataclass(frozen=True)
class FamilyContext:
    """The family of all degree-N hypersurfaces in N variables over F_p.

    `ring` is F_p[x's, a's] with one a-variable per monomial in `monomials`
    (named after the exponent tuple: a_{xyz} for N = 3 is ``a111``); `generic`
    is G = Σ a_i·m_i, bihomogeneous of degree N in the x's, 1 in the a's.
    """

    p: int
    nvars: int
    ring: PolynomialRing
    monomials: tuple[tuple[int, ...], ...]
    generic: Polynomial

    @classmethod
    def create(cls, p: int, nvars: int) -> "FamilyContext":
        if nvars < 2:
            raise RingError("need at least two variables")
        monomials = tuple(degree_monomials(nvars, nvars))
        x_names = tuple(f"x{i}" for i in range(1, nvars + 1))
        a_names = tuple(_coefficient_name(m) for m in monomials)
        ring = PolynomialRing(PrimeField(p), x_names + a_names)
        g = ring.zero
        for j, m in enumerate(monomials):
            exps = tuple(m) + tuple(1 if i == j else 0 for i in range(len(monomials)))
            g = g + ring.monomial(exps)
        return cls(p, nvars, ring, monomials, g)

    @property
    def coefficient_names(self) -> tuple[str, ...]:
        return self.ring.variables[self.nvars:]

    @cached_property
    def x_ring(self) -> PolynomialRing:
        """F_p[x_1..x_N], the ring of the family's members; one per context."""
        return PolynomialRing(self.ring.field, self.ring.variables[: self.nvars])

    def specialize_generic(
        self, point: Union[Mapping[str, int], Sequence[int]]
    ) -> Polynomial:
        """G with the a-variables evaluated at `point`, as a polynomial in
        the x-variables only.  `point` is a mapping from a-variable names, or
        a sequence aligned with `monomials`."""
        values = self._point_values(point)
        return self.x_ring.from_terms(dict(zip(self.monomials, values)))

    def _point_values(
        self, point: Union[Mapping[str, int], Sequence[int]]
    ) -> list[int]:
        if isinstance(point, Mapping):
            missing = [n for n in self.coefficient_names if n not in point]
            if missing:
                raise ValueError(f"assignment misses coefficients {missing}")
            return [int(point[n]) for n in self.coefficient_names]
        vals = list(point)
        if len(vals) != len(self.monomials):
            raise ValueError(
                f"expected {len(self.monomials)} coefficients, got {len(vals)}"
            )
        return [int(v) for v in vals]


@dataclass(frozen=True)
class StrataPolynomials:
    """b_1, …, b_{h−1} for the family: polynomials in the a-variables whose
    simultaneous vanishing at a point is equivalent to height ≥ h there."""

    context: FamilyContext
    polynomials: tuple[Polynomial, ...]

    def profile(self, point: Union[Mapping[str, int], Sequence[int]]) -> int:
        """Largest h with b_1 = ⋯ = b_{h−1} = 0 at the point (so the fiber's
        height is at least h; h = len+1 means every computed b vanished)."""
        p = self.context.p
        values = [v % p for v in self.context._point_values(point)]
        zeros = frozenset(j for j, v in enumerate(values) if not v)
        h = 1
        for form in self._forms:
            total = 0
            for c, factors, support in form:
                if zeros.isdisjoint(support):
                    # values in [0, p): exact integer powers, one reduction per b_i
                    for j, e in factors:
                        c *= values[j] ** e
                    total += c
            if total % p:
                break
            h += 1
        return h

    @cached_property
    def _forms(self) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...], frozenset[int]], ...], ...]:
        """Each b_i compiled for `profile`: per term, the coefficient, its
        (a-index, exponent) pairs and its support (the a-indices), so that a
        term vanishing at the point is skipped unevaluated.  Raises RingError
        if a b_i involves an x-variable."""
        nx = self.context.nvars
        forms = []
        for b in self.polynomials:
            form = []
            for exps, c in b.terms.items():
                if any(exps[:nx]):
                    raise RingError("polynomial is not free of the x-variables")
                factors = tuple((j, e) for j, e in enumerate(exps[nx:]) if e)
                form.append((c, factors, frozenset(j for j, _ in factors)))
            forms.append(tuple(form))
        return tuple(forms)


def _group_by_x_monomial(ctx: FamilyContext, poly: Polynomial) -> list[Polynomial]:
    """Split into summands sharing an x-monomial (a-parts ride along)."""
    nx = ctx.nvars
    groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, c in poly.terms.items():
        groups.setdefault(exps[:nx], {})[exps] = c
    return [ctx.ring.from_terms(terms) for _, terms in sorted(groups.items())]


def delta1_tilde(ctx: FamilyContext, poly: Polynomial) -> Polynomial:
    """Δ̃₁: the Witt carry with respect to the grouped-by-x-monomial
    decomposition, so that specializing the a's commutes with Δ₁."""
    return delta1(poly, summands=_group_by_x_monomial(ctx, poly))


def strata_polynomials(
    ctx: FamilyContext, h_max: int, budget: Optional[Budget] = None
) -> StrataPolynomials:
    """b_1, …, b_{h_max−1} by capped expansion: `criteria.capped_coefficients`
    on G^{p−1} and Δ̃₁(G^{p−1}), with the x-exponents of E_i capped at p^i−1
    and the a-variables never capped.  Cost grows roughly like the number of
    monomials below the cap; intended for small h_max (every acceptance use
    is h_max ≤ 4).
    """
    if budget is None:
        budget = Budget()
    if h_max < 1:
        raise RingError("h_max must be positive")
    gp = ctx.generic ** (ctx.p - 1)
    # Δ̃₁ is read from level 2 on
    delta = delta1_tilde(ctx, gp) if h_max >= 3 else ctx.ring.zero
    return StrataPolynomials(
        ctx, tuple(capped_coefficients(gp, delta, h_max - 1, ctx.nvars, budget))
    )


# ---------------------------------------------------------------------------
# searching the family for a prescribed height
# ---------------------------------------------------------------------------


def _partial(poly: Polynomial, index: int) -> Polynomial:
    ring = poly.ring
    p = ring.field.p
    out = {}
    for exps, c in poly.terms.items():
        e = exps[index]
        if e % p == 0:
            continue
        lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
        out[lowered] = (out.get(lowered, 0) + c * e) % p
    return ring.from_terms({k: v for k, v in out.items() if v})


def is_smooth_at_rational_points(f: Polynomial) -> bool:
    """Jacobian criterion at the F_p-rational points only: no nonzero point
    where f and all its partials vanish.  A pass is necessary but not
    sufficient for smoothness (singular points over extensions are unseen)."""
    ring = f.ring
    p = ring.field.p
    partials = [_partial(f, i) for i in range(ring.nvars)]
    points = [[]]
    for _ in range(ring.nvars):
        points = [pt + [v] for pt in points for v in range(p)]
    for pt in points:
        if not any(pt):
            continue
        if _evaluate(f, pt) == 0 and all(_evaluate(d, pt) == 0 for d in partials):
            return False
    return True


def _evaluate(poly: Polynomial, values: Sequence[int]) -> int:
    p = poly.ring.field.p
    total = 0
    for exps, c in poly.terms.items():
        term = c
        for e, v in zip(exps, values):
            if e:
                term = term * pow(v, e, p) % p
        total = (total + term) % p
    return total % p


def search_height(
    ctx: FamilyContext,
    target_h: int,
    samples: int = 1000,
    smoothness_check: bool = True,
    restrict: bool = False,
    seed: int = 0,
    budget: Optional[Budget] = None,
) -> Optional[Polynomial]:
    """First sampled member of the family with height exactly `target_h`.

    Samples coefficient vectors over F_p (deterministically from `seed`),
    rejects by the stratum polynomials first (height ≥ target is the cheap
    necessary condition), then confirms with the exact graded-coefficient
    computation at n_max = target_h — Finite(target_h) accepts, LowerBound
    means the height overshoots.  With `restrict`, sampling is confined to
    the sub-family spanned by x_1^N and the monomials not divisible by x_1,
    inside which every finite height l satisfies p^l ≡ 1 (mod N) (the
    x_1-exponents of the escape-test polynomial are multiples of N there),
    so for N = p^h−1 every member has height ≥ h.  Returns None
    when the sample budget runs out; that is a report, not a proof of
    absence.  One step budget serves the stratum polynomials and every
    sample: once it runs out, the graded run answers Unknown and the search
    raises BudgetExceededError rather than sample on.  `smoothness_check`
    rejects candidates singular at an F_p-rational point (partial check;
    see is_smooth_at_rational_points).
    """
    if budget is None:
        budget = Budget()
    rng = random.Random(seed)
    strata = strata_polynomials(ctx, target_h, budget)
    p = ctx.p
    allowed = [
        j
        for j, m in enumerate(ctx.monomials)
        if not restrict or m[0] == ctx.nvars or m[0] == 0
    ]
    for _ in range(samples):
        values = [0] * len(ctx.monomials)
        for j in allowed:
            values[j] = rng.randrange(p)
        if not any(values):
            continue
        if strata.profile(values) < target_h:
            continue
        g = ctx.specialize_generic(values)
        if not g:
            continue
        if smoothness_check and not is_smooth_at_rational_points(g):
            continue
        result = height_graded_cy(
            [g], Grading.standard(ctx.nvars), n_max=target_h, budget=budget
        )
        if result.verdict == UNKNOWN:
            raise BudgetExceededError(budget.steps)
        if result.verdict == FINITE and result.n == target_h:
            return g
    return None
