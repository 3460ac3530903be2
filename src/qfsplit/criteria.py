"""Decision procedures for quasi-F-split heights, with re-verifiable certificates.

For a regular sequence f'_1, ..., f'_m in the maximal ideal of S = F_p[x], set
f := f'_1⋯f'_m and

    I_1 := (f^{p−1}) + ((f'_1)^p, ..., (f'_m)^p),
    I_{n+1} := θ(F_*I_n ∩ Ker u) + I_1,       θ(F_*a) := u(F_*(Δ₁(f^{p−1})·a)).

The height of S/(f'_i) is the first n with I_n ⊄ m^{[p]} (infinite if none).
Three engines compute it:

* `height_graded_cy` — for homogeneous systems whose degrees sum to the
  anticanonical degree.  Tracks t_n := u^{n−1}(F^{n−1}_* f_n) for
  f_n := f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1} through the one-step recursion
  t_{n+1} = θ(F_* t_n); the height is the first n whose t_n has a nonzero
  (x_1⋯x_N)^{p−1} coefficient.  Degrees stay bounded, so this is fast.
* `height_local` — the I_n chain itself, via module syzygies for the kernel
  intersection.  Works for any input; extracts chain certificates.
* `qfs_decide` — the fixed-point iteration for the smallest ideal I_∞ with
  I_∞ ⊇ θ(F_*I_∞ ∩ Ker u) + I_1; quasi-F-split iff I_∞ ⊄ m^{[p]}.  For a
  regular sequence I_1 = (I^{[p]} : I) (Fedder).

`height` orchestrates all of them plus the quick non-splitting tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Optional, Sequence, Union

from .rings import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Grading,
    HomogeneityError,
    Polynomial,
    PolynomialRing,
    RingError,
    check_homogeneous,
)
from .witt import delta1, delta1_power
from .frobenius import (
    in_max_ideal_frobenius_power,
    iterated_u,
    theta,
    u_map,
)
from .groebner import (
    Budget,
    BudgetExceededError,
    Ideal,
    frobenius_module_intersect_keru,
    ideal_equal,
    ideal_membership,
)

DEFAULT_N_MAX = 32

# verdict strings
FINITE = "Finite"
INFINITE = "Infinite"
LOWER_BOUND = "LowerBound"
UNKNOWN = "Unknown"

# certificate kinds
COEFFICIENT_WITNESS = "CoefficientWitness"
CHAIN_WITNESS = "ChainWitness"
I_INFTY_STABILIZED = "IInftyStabilized"
NON_QFS = "NonQFS"
FIXED_POINT_ENCLOSURE = "FixedPointEnclosure"

# NonQFS tags (each names the verified containment)
TAG_FPM2 = "f^(p-2) in m^[p]"
TAG_PRODUCT = "(f^(p-2), I^[p]) * f^(p*(p-2)) * delta1(f) in m^[p^2]"
TAG_I_INFTY = "I_infinity in m^[p]"


@dataclass(frozen=True)
class ChainStep:
    """One transition record: w ∈ I_l ∩ Ker u together with θ(F_*w)."""

    element: Polynomial
    image: Polynomial


@dataclass
class Certificate:
    """A tagged bundle of evidence; `data` holds only what re-verification needs.

    Kinds and payloads:
      CoefficientWitness  {level, coefficient, grading}
      ChainWitness        {chain} (a strict θ-chain) or, when no strict
                          chain was found, {levels, escape, escape_level}
      IInftyStabilized    {generators, iterations}
      NonQFS              {tag, ...containment details}
      FixedPointEnclosure {generators}
    """

    kind: str
    data: dict[str, Any]


@dataclass
class HeightResult:
    """Outcome of a height computation.

    verdict: Finite | Infinite | LowerBound | Unknown.  `n` is the height for
    Finite, the exhausted cutoff for LowerBound, None otherwise.  LowerBound
    means every test up to the cutoff stayed inside m^{[p]} (resp. m^{[p^n]});
    Unknown records a budget abort in `diagnostics`.
    """

    verdict: str
    n: Optional[int]
    certificate: Optional[Certificate]
    steps: int = 0
    wall_time_ms: float = 0.0
    route: str = ""
    diagnostics: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _as_gen_list(arg: Union[Ideal, Polynomial, Sequence[Polynomial]]) -> list[Polynomial]:
    if isinstance(arg, Ideal):
        return list(arg.gens)
    if isinstance(arg, Polynomial):
        return [arg]
    return list(arg)


def _dedupe(polys: Iterable[Polynomial]) -> list[Polynomial]:
    out: list[Polynomial] = []
    seen: set[Polynomial] = set()
    for g in polys:
        if g and g not in seen:
            seen.add(g)
            out.append(g)
    return out


class _Splitting:
    """The derived data of one problem I = (f'_1, ..., f'_m): f = Π f'_i, and
    f^{p−1}, f^{p−2}, I_1's generators and Δ₁(f^{p−1}) computed on first use,
    so a route forms only what it reads (the graded engine's level-1 reading
    needs f^{p−2} but not f^{p−1}).  Δ₁(f^{p−1}) comes from
    `witt.delta1_power` (the δ-ring product rule), never from the p-th power
    of f^{p−1}; the graded engine, the certificate verifier and the I_n chain
    all read it here."""

    def __init__(self, gens: Sequence[Polynomial]):
        self.gens = list(gens)
        self.ring = self.gens[0].ring
        self.p = self.ring.field.p
        f = self.gens[0]
        for g in self.gens[1:]:
            f = f * g
        self.f = f

    @cached_property
    def fp1(self) -> Polynomial:
        """f^{p−1}, the generator of I_1 that decides F-splitting."""
        return self.f ** (self.p - 1)

    @cached_property
    def i1(self) -> list[Polynomial]:
        """Generators of I_1 = (f^{p−1}) + ((f'_i)^p)."""
        return _dedupe([self.fp1] + [g.pth_power() for g in self.gens])

    @cached_property
    def fp2(self) -> Polynomial:
        """f^{p−2}, read by the quick non-splitting tests and their verifier."""
        return self.f ** (self.p - 2)

    @cached_property
    def delta(self) -> Polynomial:
        """Δ₁(f^{p−1}), the multiplier of θ."""
        return delta1_power(self.f)


def _fail(reasons: Optional[list[str]], msg: str) -> bool:
    """Record why a verification failed (when the caller collects reasons)."""
    if reasons is not None:
        reasons.append(msg)
    return False


def _stamped(res: HeightResult, budget: Budget, t0: float) -> HeightResult:
    """Fill in the steps and wall time of a result that is about to be returned."""
    res.steps = budget.steps
    res.wall_time_ms = (time.perf_counter() - t0) * 1000
    return res


def _unknown(exc: BudgetExceededError, route: str) -> HeightResult:
    """The Unknown result of a route whose step budget ran out."""
    return HeightResult(
        UNKNOWN, None, None, route=route,
        diagnostics=(f"budget exhausted after {exc.steps} steps",),
    )


def _top_residue(ring: PolynomialRing) -> tuple[int, ...]:
    return (ring.field.p - 1,) * ring.nvars


def _escapes(gens: Sequence[Polynomial]) -> Optional[Polynomial]:
    """First generator outside m^{[p]}, if any (monomial-ideal test)."""
    for g in gens:
        if g and not in_max_ideal_frobenius_power(g, 1):
            return g
    return None


def result_to_json(res: HeightResult) -> dict[str, Any]:
    """The documented report shape: {verdict, n, certificate, steps, wall_time_ms}."""
    return {
        "verdict": res.verdict,
        "n": res.n,
        "certificate": certificate_to_json(res.certificate),
        "steps": res.steps,
        "wall_time_ms": res.wall_time_ms,
        "route": res.route,
        "diagnostics": list(res.diagnostics),
    }


def certificate_to_json(cert: Optional[Certificate]) -> Optional[dict[str, Any]]:
    if cert is None:
        return None
    return {"kind": cert.kind, "data": _jsonify(cert.data)}


def _jsonify(value: Any) -> Any:
    if isinstance(value, Polynomial):
        return str(value)
    if isinstance(value, ChainStep):
        return {"element": str(value.element), "theta_image": str(value.image)}
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Fedder test (height 1)
# ---------------------------------------------------------------------------


def fedder_fsplit(I: Union[Ideal, Polynomial, Sequence[Polynomial]]) -> bool:
    """F-splitting test: I_1 ⊄ m^{[p]}.

    Since every (f'_i)^p lies in the monomial ideal m^{[p]} (the generators
    sit in m), only f^{p−1} can escape, and membership in a monomial ideal is
    a per-term check — no Groebner basis is needed.  Callers are responsible
    for the generators forming a regular sequence in m.
    """
    gens = _as_gen_list(I)
    return not gens or not in_max_ideal_frobenius_power(_Splitting(gens).fp1, 1)


# ---------------------------------------------------------------------------
# graded Calabi–Yau engine
# ---------------------------------------------------------------------------


def graded_cy_applicable(f_list: Sequence[Polynomial], g: Grading) -> Optional[str]:
    """None if the graded engine's preconditions hold, else the reason they fail."""
    if not f_list:
        return "empty polynomial system"
    ring = f_list[0].ring
    if g.nvars != ring.nvars:
        return f"grading has {g.nvars} columns but the ring has {ring.nvars} variables"
    total = tuple(0 for _ in g.rows)
    for fp in f_list:
        try:
            d = check_homogeneous(fp, g)
        except HomogeneityError as exc:
            return str(exc)
        total = tuple(a + b for a, b in zip(total, d))
    anticanonical = g.total_of_variables()
    if total != anticanonical:
        return (
            f"degree sum {total} differs from the sum of variable degrees "
            f"{anticanonical}; the coefficient criterion needs them equal"
        )
    return None


def _pairing(a: Polynomial, b: Polynomial, cap: tuple[int, ...]) -> int:
    """The x^cap coefficient of a·b, as Σ_e a[e]·b[cap−e] mod p, without
    forming the product; the sum runs over the terms of the smaller factor."""
    if len(a.terms) > len(b.terms):
        a, b = b, a
    dual = b.terms
    total = 0
    for e, c in a.terms.items():
        total += c * dual.get(tuple([t - x for t, x in zip(cap, e)]), 0)
    return total % a.ring.field.p


def height_graded_cy(
    f_list: Sequence[Polynomial],
    g: Grading,
    n_max: int = DEFAULT_N_MAX,
    budget: Optional[Budget] = None,
) -> HeightResult:
    """Height of a homogeneous system with Σ deg(f'_i) = Σ deg(x_i).

    In that case f_n := f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1} is homogeneous of
    the degree whose only monomial outside m^{[p^n]} is (x_1⋯x_N)^{p^n−1}, so
    sht = first n with that coefficient c_n nonzero.  With t_1 = f^{p−1} and
    t_{n+1} = θ(F_* t_n), c_n is the (x_1⋯x_N)^{p−1} coefficient of t_n, and
    deg t_n never exceeds (p−1)·N.  Each c_n is read as a pairing, before t_n
    is formed: c_1 = Σ_e f^{p−2}[e]·f[(p−1)𝟙 − e], and c_{n+1} =
    Σ_e t_n[e]·Δ[(p²−1)𝟙 − e] with Δ = Δ₁(f^{p−1}), because u keeps exactly
    the exponent (p²−1)𝟙 of Δ·t_n at the output (p−1)𝟙.  So t_n is formed
    only when c_n = 0, for the vanishing check and the next level: a
    Finite(1) run never forms f^{p−1}, and a Finite(h) run forms
    max(h − 2, 0) θ images.
    """
    f_list = [f for f in f_list]
    reason = graded_cy_applicable(f_list, g)
    if reason is not None:
        raise RingError(f"graded engine not applicable: {reason}")
    if budget is None:
        budget = Budget()
    t0 = time.perf_counter()
    sp = _Splitting(f_list)
    top = _top_residue(sp.ring)
    lifted = (sp.p**2 - 1,) * sp.ring.nvars
    c = _pairing(sp.fp2, sp.f, top)
    t: Optional[Polynomial] = None
    diagnostics: list[str] = []
    for n in range(1, n_max + 1):
        budget.tick()
        if c:
            cert = Certificate(
                COEFFICIENT_WITNESS,
                {"level": n, "coefficient": c, "grading": [list(r) for r in g.rows]},
            )
            return _stamped(HeightResult(FINITE, n, cert, route="graded-cy"), budget, t0)
        t = sp.fp1 if t is None else theta(t, sp.delta)
        if t.is_zero():
            diagnostics.append(
                f"theta orbit vanished at level {n}; every later coefficient is zero"
            )
            break
        if n < n_max:
            c = _pairing(t, sp.delta, lifted)
    res = HeightResult(
        LOWER_BOUND, n_max, None, route="graded-cy", diagnostics=tuple(diagnostics)
    )
    return _stamped(res, budget, t0)


def capped_delta_powers(
    delta: Polynomial, levels: int, nx: int, budget: Optional[Budget] = None
) -> list[Polynomial]:
    """E_2, …, E_levels for E_n := Δ^{1+p+⋯+p^{n−2}} by E_{n+1} = E_n^p·Δ,
    the first `nx` exponents of E_n capped at p^n−1.  Sound: a term over the
    cap stays over it in E_n^p and in every later product.  Ticks len(E_n)
    per level; shared by the coefficient verifier and the stratum polynomials."""
    ring = delta.ring
    p = ring.field.p
    powers: list[Polynomial] = []
    for n in range(2, levels + 1):
        cap = (p**n - 1,) * nx + (None,) * (ring.nvars - nx)
        base = powers[-1].pth_power() if powers else ring.one
        powers.append(base.capped_mul(delta, cap))
        if budget is not None:
            budget.tick(len(powers[-1]))
    return powers


def graded_cy_coefficient(
    f_list: Sequence[Polynomial], n: int, budget: Optional[Budget] = None
) -> int:
    """The (x_1⋯x_N)^{p^n−1} coefficient of f_n, by capped multiplication.

    Independent of the θ-orbit route from level 3 on (at level 2 both read
    the same sum): reads the target coefficient of
    f^{p−1}·E_n, E_n = Δ₁(f^{p−1})^{p^{n−2}+⋯+1} from `capped_delta_powers`,
    as Σ f^{p−1}[e]·E_n[cap−e] without forming the product.  E_2 is Δ₁(f^{p−1})
    uncapped: terms over the cap are never looked up.  Used to re-verify
    CoefficientWitness certificates.
    """
    if n < 1:
        raise RingError("level must be >= 1")
    sp = _Splitting(f_list)
    cap = (sp.p**n - 1,) * sp.ring.nvars
    if n == 1:
        return sp.fp1.coefficient_of(cap)
    epow = sp.delta if n == 2 else capped_delta_powers(sp.delta, n, sp.ring.nvars, budget)[-1]
    return _pairing(sp.fp1, epow, cap)


def verify_coefficient_witness(
    f_list: Sequence[Polynomial],
    cert: Certificate,
    budget: Optional[Budget] = None,
) -> bool:
    """Recompute the witnessed coefficient by the capped route and compare."""
    if cert.kind != COEFFICIENT_WITNESS:
        return False
    n = cert.data["level"]
    claimed = cert.data["coefficient"]
    if claimed == 0:
        return False
    return graded_cy_coefficient(f_list, n, budget) == claimed


# ---------------------------------------------------------------------------
# local engine: the I_n chain
# ---------------------------------------------------------------------------


def _theta_images(sp: _Splitting, I: Ideal, budget: Budget) -> list[ChainStep]:
    """θ(F_* (I ∩ Ker u)), one record per intersection generator.

    Takes the `Ideal` itself, not its generators: the Groebner basis that the
    intersection needs is then the one cached on I, which the chain's
    equality test and the next level read again."""
    inter = frobenius_module_intersect_keru(I, budget)
    return [ChainStep(w, theta(w, sp.delta)) for w in inter]


def _theta_step(
    sp: _Splitting, I: Ideal, base: Sequence[Polynomial], budget: Budget
) -> tuple[list[ChainStep], Ideal]:
    """The records of θ(F_*(I ∩ Ker u)) and the ideal (base) + their images."""
    steps = _theta_images(sp, I, budget)
    return steps, Ideal(sp.ring, _dedupe(list(base) + [s.image for s in steps]))


def height_local(
    I: Ideal,
    n_max: int = DEFAULT_N_MAX,
    budget: Optional[Budget] = None,
) -> HeightResult:
    """Height via the I_n chain; certificates as θ-chains.

    Returns Finite(n) at the first I_n ⊄ m^{[p]} with a ChainWitness that
    holds one proof: a strict chain g_1, ..., g_n (θ(F_*g_l) = g_{l+1}, found
    by orbit search) when one exists, else the levelled transition records
    and the escaping generator of I_n.  If the chain stabilizes with every
    generator inside m^{[p]}, the stabilized ideal is a fixed-point enclosure
    proving the height infinite.  Budget aborts return Unknown with
    diagnostics.
    """
    if budget is None:
        budget = Budget()
    t0 = time.perf_counter()

    def finish(verdict, n, cert, diagnostics=()):
        res = HeightResult(verdict, n, cert, route="local-chain", diagnostics=diagnostics)
        return _stamped(res, budget, t0)

    sp = _Splitting(I.gens)
    levels: list[list[ChainStep]] = []
    current = Ideal(sp.ring, sp.i1)
    try:
        for n in range(1, n_max + 1):
            esc = _escapes(current.gens)
            if esc is not None:
                chain = _strict_chain_search(sp, n, budget)
                if chain is not None:
                    data: dict[str, Any] = {"chain": chain}
                else:
                    data = {"levels": levels, "escape": esc, "escape_level": n}
                return finish(FINITE, n, Certificate(CHAIN_WITNESS, data))
            if n == n_max:
                break
            steps, nxt = _theta_step(sp, current, sp.i1, budget)
            # an escaping I_{n+1} cannot equal I_n ⊆ m^{[p]}, so only pay for
            # the Groebner comparison when the next level stays inside
            if _escapes(nxt.gens) is None and ideal_equal(current, nxt, budget):
                # I_{n+1} = I_n ⊆ m^{[p]}: the chain is stuck below m^{[p]} forever
                cert = Certificate(
                    FIXED_POINT_ENCLOSURE, {"generators": list(current.gens)}
                )
                return finish(
                    INFINITE, None, cert,
                    diagnostics=(f"I_n stabilized inside m^[p] at level {n}",),
                )
            levels.append(steps)
            current = nxt
    except BudgetExceededError as exc:
        return _stamped(_unknown(exc, "local-chain"), budget, t0)
    return finish(LOWER_BOUND, n_max, None)


def _integer_root(n: int, k: int) -> int:
    """The largest r ≥ 0 with r^k ≤ n, for n ≥ 0 and k ≥ 1."""
    lo, hi = 0, 2 ** (n.bit_length() // k + 1)  # hi^k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _strict_chain_search(
    sp: _Splitting,
    n: int,
    budget: Budget,
    max_candidates: int = 20000,
) -> Optional[list[Polynomial]]:
    """Look for a strict chain g_1 → ... → g_n with g_1 a monomial multiple
    of an I_1 generator.

    Monomial multipliers up to p^{n−1}−1 per exponent suffice to reach every
    chain whose level-l element is a monomial times a θ-orbit value (the
    multiplier's exponents divide by p along the orbit).  Returns None when
    the search space is exhausted or too large; the certificate then carries
    the levelled records instead.
    """
    if n == 1:
        esc = _escapes(sp.i1)
        return None if esc is None else [esc]
    nvars = sp.ring.nvars
    bound = sp.p ** (n - 1)  # exclusive per-variable multiplier bound
    if bound ** nvars * len(sp.i1) > max_candidates:
        bound = max(sp.p, _integer_root(max_candidates, nvars))
    mults = sorted(
        itertools.product(range(bound), repeat=nvars), key=sum
    )
    for mu in mults:
        for g in sp.i1:
            budget.tick()
            cand = g.mul_term(mu)
            chain = [cand]
            ok = True
            for _ in range(n - 1):
                cur = chain[-1]
                if not u_map(cur).is_zero():
                    ok = False
                    break
                chain.append(theta(cur, sp.delta))
            if ok and len(chain) == n and not in_max_ideal_frobenius_power(chain[-1], 1):
                return chain
    return None


# ---------------------------------------------------------------------------
# the I_∞ fixed point
# ---------------------------------------------------------------------------


def _theta_closure(sp: _Splitting, J: Ideal, budget: Budget) -> tuple[Ideal, int]:
    """Iterate J ← J + θ(F_*J ∩ Ker u) until it stabilizes.

    Returns the limit, presented by its reduced Groebner basis, and the number
    of θ-steps taken (the last one adds nothing new)."""
    iterations = 0
    while True:
        budget.tick()
        _, nxt = _theta_step(sp, J, J.gens, budget)
        iterations += 1
        if ideal_equal(J, nxt, budget):
            return Ideal.from_reduced_basis(sp.ring, J.groebner(budget)), iterations
        J = nxt


def qfs_decide(
    I: Ideal, budget: Optional[Budget] = None
) -> tuple[bool, Certificate]:
    """Quasi-F-splitness via the smallest fixed point I_∞.

    Iterates J_0 = I_1, J_{k+1} = J_k + θ(F_*J_k ∩ Ker u) until the chain
    stabilizes; the limit is the smallest ideal containing I_1 and closed
    under θ(F_*· ∩ Ker u), and the ring is quasi-F-split exactly when it is
    not contained in m^{[p]}.  Raises BudgetExceededError when the step
    budget runs out.
    """
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    J, iterations = _theta_closure(sp, Ideal(sp.ring, sp.i1), budget)
    gens = list(J.gens)
    cert = Certificate(
        I_INFTY_STABILIZED, {"generators": gens, "iterations": iterations}
    )
    return _escapes(gens) is not None, cert


def enclosure_closure(
    I: Ideal,
    seed: Sequence[Polynomial] = (),
    budget: Optional[Budget] = None,
) -> Ideal:
    """Smallest ideal containing I_1 and ``seed`` closed under θ(F_*· ∩ Ker u).

    Useful for completing a hand-guessed trap ideal into one that
    verify_infinity_certificate accepts: the closure always satisfies the
    containment conditions, so the only remaining question is whether it
    stays inside m^{[p]}.  With an empty seed this is the I_∞ of qfs_decide.
    """
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    return _theta_closure(sp, Ideal(sp.ring, _dedupe(list(seed) + sp.i1)), budget)[0]


# ---------------------------------------------------------------------------
# quick non-quasi-F-split tests
# ---------------------------------------------------------------------------


def _product_generators(sp: _Splitting) -> list[Polynomial]:
    """The generators (f^{p−2}, I^{[p]})·f^{p(p−2)}·Δ₁(f) of condition (2)."""
    scale = sp.fp2.pth_power() * delta1(sp.f)  # f^{p(p−2)}: Frobenius fixes F_p coefficients
    return [b * scale for b in [sp.fp2] + [g.pth_power() for g in sp.gens]]


def non_qfs_quick(f_list: Sequence[Polynomial]) -> Optional[Certificate]:
    """Sufficient conditions for infinite height, checked per-monomial only.

    (1) for p ≥ 3: f^{p−2} ∈ m^{[p]}  (at p = 2, f^0 = 1 never qualifies);
    (2) f^{p−1} ∈ m^{[p]} and every generator of
        (f^{p−2}, I^{[p]})·f^{p(p−2)}·Δ₁(f) lies in m^{[p²]}.

    Returns the first satisfied condition's certificate, else None.
    """
    gens = _as_gen_list(f_list)
    if not gens:
        return None
    sp = _Splitting(gens)
    if sp.p >= 3 and in_max_ideal_frobenius_power(sp.fp2, 1):
        return Certificate(NON_QFS, {"tag": TAG_FPM2, "element": sp.fp2})
    if not in_max_ideal_frobenius_power(sp.fp1, 1):
        return None  # F-split, certainly not infinite
    products = _product_generators(sp)
    if all(in_max_ideal_frobenius_power(q, 2) for q in products if q):
        return Certificate(NON_QFS, {"tag": TAG_PRODUCT, "generators": products})
    return None


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def verify_witness_chain(
    I: Ideal,
    chain: Sequence[Polynomial],
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """Check a strict θ-chain: g_1 ∈ I_1, u(F_*g_l) = 0 and θ(F_*g_l) = g_{l+1}
    for every step, and g_last ∉ m^{[p]}.

    A passing chain certifies height ≤ len(chain): membership g_l ∈ I_l
    follows inductively from I_{l+1} = θ(F_*I_l ∩ Ker u) + I_1."""
    if not chain:
        return _fail(reasons, "empty chain")
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    if not ideal_membership(chain[0], Ideal(sp.ring, sp.i1), budget):
        return _fail(reasons, f"step 1: {chain[0]} is not in I_1")
    for l in range(len(chain) - 1):
        g = chain[l]
        if not u_map(g).is_zero():
            return _fail(reasons, f"step {l + 1}: u(F_*g) = {u_map(g)} is nonzero")
        img = theta(g, sp.delta)
        if img != chain[l + 1]:
            return _fail(
                reasons,
                f"step {l + 1}: theta image {img} differs from recorded {chain[l + 1]}",
            )
    if in_max_ideal_frobenius_power(chain[-1], 1):
        return _fail(reasons, f"final element {chain[-1]} lies in m^[p]")
    return True


def verify_witness_levels(
    I: Ideal,
    cert: Certificate,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """Re-verify a levelled ChainWitness.

    Rebuilds the generator pools from I_1: each level-l record (w, image) must
    satisfy w ∈ (pool_l), u(F_*w) = 0 and θ(F_*w) = image; the next pool is
    I_1's generators plus the images.  The escape element must belong to the
    final pool's ideal and lie outside m^{[p]}."""
    if cert.kind != CHAIN_WITNESS:
        return _fail(reasons, f"expected a {CHAIN_WITNESS} certificate, got {cert.kind}")
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    pool = list(sp.i1)
    levels: Sequence[Sequence[ChainStep]] = cert.data.get("levels", ())
    for l, records in enumerate(levels, start=1):
        pool_ideal = Ideal(sp.ring, pool)
        images = []
        for rec in records:
            if not ideal_membership(rec.element, pool_ideal, budget):
                return _fail(reasons, f"level {l}: {rec.element} is not in I_{l}")
            if not u_map(rec.element).is_zero():
                return _fail(reasons, f"level {l}: u(F_*{rec.element}) is nonzero")
            img = theta(rec.element, sp.delta)
            if img != rec.image:
                return _fail(
                    reasons,
                    f"level {l}: theta image {img} differs from recorded {rec.image}",
                )
            images.append(rec.image)
        pool = _dedupe(sp.i1 + images)
    esc = cert.data.get("escape")
    if esc is None:
        return _fail(reasons, "certificate has no escape element")
    if not ideal_membership(esc, Ideal(sp.ring, pool), budget):
        return _fail(reasons, f"escape element {esc} is not in the final level's ideal")
    if in_max_ideal_frobenius_power(esc, 1):
        return _fail(reasons, f"escape element {esc} lies in m^[p]")
    if cert.data.get("escape_level") != len(levels) + 1:
        return _fail(reasons, "escape level disagrees with the number of recorded levels")
    return True


def verify_infinity_certificate(
    I: Ideal,
    J: Ideal,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """True iff J ⊇ θ(F_*J ∩ Ker u) + I_1 and J ⊆ m^{[p]}.

    Such a J traps the whole I_n chain: I_1 ⊆ J and inductively
    I_{n+1} = θ(F_*I_n ∩ Ker u) + I_1 ⊆ J, so no I_n escapes m^{[p]} and the
    height is infinite."""
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    for g in J.gens:
        if not in_max_ideal_frobenius_power(g, 1):
            return _fail(reasons, f"generator {g} of J escapes m^[p]")
    for g in sp.i1:
        if not ideal_membership(g, J, budget):
            return _fail(reasons, f"I_1 generator {g} is not in J")
    for step in _theta_images(sp, J, budget):
        if not ideal_membership(step.image, J, budget):
            return _fail(
                reasons, f"theta image {step.image} (of {step.element}) is not in J"
            )
    return True


def _verify_non_qfs(I: Ideal, cert: Certificate, reasons: Optional[list[str]]) -> bool:
    """Re-check a NonQFS certificate against its recorded data.

    The recorded element f^{p−2} (tag TAG_FPM2) or the recorded products
    (tag TAG_PRODUCT) are recomputed from f and must equal what the
    certificate holds; then each containment is tested term by term:
    f^{p−2} ∈ m^{[p]} (only for p ≥ 3), or f^{p−1} ∈ m^{[p]} and every
    product in m^{[p²]}."""
    sp = _Splitting(I.gens)
    tag = cert.data.get("tag")
    if tag == TAG_FPM2:
        if sp.p < 3:
            return _fail(reasons, "the f^(p-2) test needs p >= 3")
        if cert.data.get("element") != sp.fp2:
            return _fail(reasons, f"recorded element differs from f^(p-2) = {sp.fp2}")
        if not in_max_ideal_frobenius_power(sp.fp2, 1):
            return _fail(reasons, "f^(p-2) is not in m^[p]")
        return True
    if tag == TAG_PRODUCT:
        if not in_max_ideal_frobenius_power(sp.fp1, 1):
            return _fail(reasons, "f^(p-1) is not in m^[p]")
        products = _product_generators(sp)
        if list(cert.data.get("generators", ())) != products:
            return _fail(reasons, "recorded generators differ from the recomputed products")
        for q in products:
            if q and not in_max_ideal_frobenius_power(q, 2):
                return _fail(reasons, f"product {q} is not in m^[p^2]")
        return True
    return _fail(reasons, f"unknown {NON_QFS} tag {tag!r}")


def verify_certificate(
    I: Ideal,
    cert: Certificate,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """Dispatch re-verification on the certificate kind."""
    if cert.kind == COEFFICIENT_WITNESS:
        try:
            ok = verify_coefficient_witness(list(I.gens), cert, budget)
        except ExponentOverflowError as exc:
            return _fail(
                reasons,
                f"level {cert.data['level']} cannot be re-verified within the exponent "
                f"limit {EXPONENT_LIMIT}: {exc}",
            )
        return ok or _fail(reasons, "recomputed coefficient disagrees with the certificate")
    if cert.kind == CHAIN_WITNESS:
        if "chain" in cert.data:
            return verify_witness_chain(I, cert.data["chain"], budget, reasons)
        return verify_witness_levels(I, cert, budget, reasons)
    if cert.kind in (I_INFTY_STABILIZED, FIXED_POINT_ENCLOSURE):
        J = Ideal(I.ring, cert.data["generators"])
        return verify_infinity_certificate(I, J, budget, reasons)
    if cert.kind == NON_QFS:
        return _verify_non_qfs(I, cert, reasons)
    return _fail(reasons, f"unknown certificate kind {cert.kind}")


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------


def joint_ring_of(a: PolynomialRing, b: PolynomialRing) -> PolynomialRing:
    """F_p[x-block, y-block] for two rings over the same prime field."""
    if a.field != b.field:
        raise RingError("fiber products need a common prime field")
    overlap = set(a.variables) & set(b.variables)
    if overlap:
        raise RingError(f"variable blocks overlap: {sorted(overlap)}")
    return PolynomialRing(a.field, a.variables + b.variables)


def embed_left(f: Polynomial, joint: PolynomialRing) -> Polynomial:
    pad = joint.nvars - f.ring.nvars
    return Polynomial(joint, {e + (0,) * pad: c for e, c in f.terms.items()})


def embed_right(f: Polynomial, joint: PolynomialRing) -> Polynomial:
    pad = joint.nvars - f.ring.nvars
    return Polynomial(joint, {(0,) * pad + e: c for e, c in f.terms.items()})


def product_witness(
    gs: Sequence[Polynomial],
    h: Polynomial,
    n: int,
    fx: Optional[Polynomial] = None,
    fy: Optional[Polynomial] = None,
) -> list[Polynomial]:
    """Combined splitting witnesses for a fiber product, in the joint ring.

    gs is a length-n chain for the first factor (caller-verified against its
    own ideal; the u-conditions are checked here), h an element of the second
    factor's ring whose iterate u^{n−1}(F^{n−1}_*h) escapes m^{[p]} — e.g.
    f_Y^{p−1} for an F-split second factor.  The blocks must be disjoint.

    With the factor equations fx, fy supplied the result is the strict
    θ-chain of the joint hypersurface: w₁ = g₁·h and w_{l+1} = θ(F_*w_l),
    which verify_witness_chain accepts against (fx, fy).  The driving
    identity (blocks disjoint, u(F_*g_l) = 0) is

        θ(F_*(g ⊗ b)) = θ_X(F_*g) ⊗ f_Y^{p−1}·u_Y(F_*b),

    so the second tensor factor runs through u-iterates of h scaled by
    f_Y^{p−1}.  Without fx, fy the raw tensor pairs g_i ⊗ u^{i−1}(F^{i−1}_*h)
    are returned; they witness the same height bound but only through the
    level conditions of the general theory, not as a literal θ-chain.
    """
    if n < 1 or len(gs) != n:
        raise RingError(f"need a chain of length n = {n}, got {len(gs)}")
    ring_x = gs[0].ring
    ring_y = h.ring
    joint = joint_ring_of(ring_x, ring_y)
    for l, g in enumerate(gs[:-1], start=1):
        if not u_map(g).is_zero():
            raise RingError(f"chain element {l} has nonzero u-image")
    survivor = iterated_u(h, n - 1)
    if survivor.is_zero() or in_max_ideal_frobenius_power(survivor, 1):
        raise RingError(
            "u^{n-1}(F^{n-1}_*h) lies in m^[p]; h does not witness height <= n-1... "
            "choose h with a surviving Frobenius iterate"
        )
    if fx is not None and fy is not None:
        delta = _Splitting([embed_left(fx, joint), embed_right(fy, joint)]).delta
        out = [embed_left(gs[0], joint) * embed_right(h, joint)]
        for _ in range(n - 1):
            out.append(theta(out[-1], delta))
        if in_max_ideal_frobenius_power(out[-1], 1):
            raise RingError(
                f"product chain collapses: final element {out[-1]} lies in m^[p]"
            )
        return out
    out = []
    for i, g in enumerate(gs, start=1):
        w = iterated_u(h, i - 1)
        out.append(embed_left(g, joint) * embed_right(w, joint))
    return out


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------


def height(
    system: Union[Ideal, Polynomial, Sequence[Polynomial]],
    grading: Optional[Grading] = None,
    n_max: int = DEFAULT_N_MAX,
    strategy: str = "auto",
    budget: Optional[Budget] = None,
) -> HeightResult:
    """Compute the quasi-F-split height, trying the cheapest route first.

    auto strategy: (a) the F-split monomial test; (b) the graded engine when
    its degree conditions hold (with the given grading, else the standard
    one); (c) the quick infinite-height tests; (d) the I_n chain up to n_max;
    (e) the I_∞ fixed point to separate Infinite from LowerBound.  Forced
    strategies: "graded", "local", "qfs".
    """
    gens = _as_gen_list(system)
    if not gens:
        raise RingError("height needs at least one polynomial")
    ring = gens[0].ring
    I = system if isinstance(system, Ideal) else Ideal(ring, gens)
    if budget is None:
        budget = Budget()
    t0 = time.perf_counter()

    def finish(res: HeightResult) -> HeightResult:
        return _stamped(res, budget, t0)

    g = grading if grading is not None else Grading.standard(ring.nvars)

    def graded() -> HeightResult:
        try:
            return height_graded_cy(gens, g, n_max, budget)
        except BudgetExceededError as exc:
            return _unknown(exc, "graded-cy")

    if strategy == "local":
        return finish(height_local(I, n_max, budget))
    if strategy == "graded":
        return finish(graded())
    if strategy == "qfs":
        return finish(
            _i_infinity(I, budget, 1, "quasi-F-split; height finite but not computed")
        )
    if strategy != "auto":
        raise RingError(f"unknown strategy {strategy!r}")

    # (a) F-split?
    fp1 = _Splitting(gens).fp1
    if not in_max_ideal_frobenius_power(fp1, 1):
        cert = Certificate(CHAIN_WITNESS, {"chain": [fp1]})
        return finish(HeightResult(FINITE, 1, cert, route="fedder"))

    # (b) graded engine
    graded_result: Optional[HeightResult] = None
    if graded_cy_applicable(gens, g) is None:
        graded_result = graded()
        if graded_result.verdict in (FINITE, UNKNOWN):
            return finish(graded_result)

    # (c) quick infinite-height tests
    quick = non_qfs_quick(gens)
    if quick is not None:
        return finish(HeightResult(INFINITE, None, quick, route="quick-tests"))

    # (d) the local chain — unless the graded engine already exhausted n_max,
    # in which case only the Infinite/LowerBound separation remains
    if graded_result is None:
        local = height_local(I, n_max, budget)
        if local.verdict in (FINITE, INFINITE, UNKNOWN):
            return finish(local)

    # (e) I_∞ separates Infinite from LowerBound
    return finish(
        _i_infinity(
            I, budget, n_max,
            f"quasi-F-split (I_infinity escapes m^[p]) but no level <= {n_max} "
            "escaped; the height is finite and exceeds the cutoff",
        )
    )


def _i_infinity(I: Ideal, budget: Budget, n: int, note: str) -> HeightResult:
    """The I_∞ route: Infinite when I_∞ ⊆ m^{[p]}, else LowerBound(n) with
    ``note`` (the height is finite but was not found)."""
    try:
        qfs, cert = qfs_decide(I, budget)
    except BudgetExceededError as exc:
        return _unknown(exc, "i-infinity")
    if not qfs:
        return HeightResult(INFINITE, None, cert, route="i-infinity")
    return HeightResult(LOWER_BOUND, n, cert, route="i-infinity", diagnostics=(note,))

