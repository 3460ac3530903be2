"""Decision procedures for quasi-F-split heights, with re-verifiable certificates.

For a regular sequence f'_1, ..., f'_m in the maximal ideal of S = F_p[x], set
f := f'_1⋯f'_m and

    I_1 := (f^{p−1}) + ((f'_1)^p, ..., (f'_m)^p),
    I_{n+1} := θ(F_*I_n ∩ Ker u) + I_1,       θ(F_*a) := u(F_*(Δ₁(f^{p−1})·a)).

The height of S/(f'_i) is the first n with I_n ⊄ m^{[p]} (infinite if none).
Two engines compute it:

* `height_graded_cy` — for homogeneous systems whose degrees sum to the
  anticanonical degree.  Tracks t_n := u^{n−1}(F^{n−1}_* f_n) for
  f_n := f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1} through the one-step recursion
  t_{n+1} = θ(F_* t_n); the height is the first n whose t_n has a nonzero
  (x_1⋯x_N)^{p−1} coefficient.  Degrees stay bounded, so this is fast,
  and the whole run stays on packed exponents.
* the I_n chain (`_Chain`), via syzygies of the u-images for the kernel
  intersection.  Works for any input: `height_local` reads it to the first
  escape and extracts chain certificates, `qfs_decide` to its limit, the
  smallest I_∞ ⊇ θ(F_*I_∞ ∩ Ker u) + I_1; quasi-F-split iff I_∞ ⊄ m^{[p]}.
  For a regular sequence I_1 = (I^{[p]} : I) (Fedder).

`height` orchestrates both plus the quick non-splitting tests, on one
`_Splitting` (f and its derived quantities) and one I_n chain per call.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Optional, Sequence, Union

from .rings import (
    EXPONENT_LIMIT,
    ExponentCodec,
    ExponentOverflowError,
    Grading,
    HomogeneityError,
    Polynomial,
    PolynomialRing,
    RingError,
    check_homogeneous,
)
from .witt import delta1, delta1_power, packed_mul, packed_power, teichmuller_lift
from .frobenius import (
    in_max_ideal_frobenius_power,
    iterated_u,
    packed_theta,
    residue_table,
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


class _cached:
    """`functools.cached_property` without the lock that it takes on every
    first read before Python 3.12: a splitting is read by one thread, and
    on small problems the lock costs more than the quantity it guards."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


# codecs hold no state, so problems of one shape share theirs
_codec = lru_cache(maxsize=64)(ExponentCodec)


class _Splitting:
    """The derived data of one problem I = (f'_1, ..., f'_m): f = Π f'_i, and
    f^{p−2}, f^{p−1}, I_1's generators and Δ = Δ₁(f^{p−1}), each computed on
    first use, so a route forms only what it reads (the graded engine's
    level-1 reading needs f^{p−2} but not f^{p−1}).  `height` builds one per
    call and hands it to every stage.

    f, its Teichmüller lift F over ℤ/p², the powers and Δ live packed under
    one `ExponentCodec` per problem, wide enough for p²·M (M the largest
    exponent of f): Δ stays within p(p−1)·M and every graded θ image within
    p·M (t_1 ≤ (p−1)·M, and t_{n+1} ≤ (t_n + p(p−1)·M)/p), so the fields of
    θ's products and of the graded engine's pairings stay within p²·M, as
    do its caps (p² − 1).  F^{p−2} and F^{p−1} reduce mod p to f^{p−2} and
    f^{p−1} and feed Δ through `witt.delta1_power` (the δ-ring product
    rule, never the p-th power of f^{p−1}).  `fp2`, `fp1` and `delta` are
    their polynomial views, unpacked only for the readers that need
    polynomials: the Fedder certificate, I_1, the quick tests and the chain
    side's θ.  Exponent overflow is raised where the polynomial routes
    raise it, at first use: f^{p−1} where `f ** (p − 1)` would, Δ where
    `delta1(f ** (p − 1))` would."""

    def __init__(self, gens: Sequence[Polynomial]):
        self.gens = list(gens)
        self.ring = self.gens[0].ring
        self.p = self.ring.field.p
        f = self.gens[0]
        for g in self.gens[1:]:
            f = f * g
        self.f = f
        bound = self.p**2 * max(f.max_exponent(), 1)
        self.codec = codec = _codec(self.ring.nvars, bound.bit_length())
        self.packed_f = {codec.pack(e): c for e, c in f.terms.items()}
        self._lift = teichmuller_lift(self.packed_f, self.p)

    def _unpack(self, packed: dict[int, int]) -> Polynomial:
        unpack = self.codec.unpack
        return Polynomial(self.ring, {unpack(e): c for e, c in packed.items()})

    def _check_power(self, n: int) -> None:
        """Raise where `f ** n` raises: its last product has exponents n·M."""
        if n >= 2 and n * self.f.max_exponent() > EXPONENT_LIMIT:
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")

    @_cached
    def _lift_low(self) -> dict[int, int]:
        """F^{p−2} over ℤ/p², F the Teichmüller lift of f."""
        return packed_power(self._lift, self.p - 2, self.p**2)

    @_cached
    def _lift_power(self) -> dict[int, int]:
        """F^{p−1} over ℤ/p² (F itself at p = 2)."""
        if self.p == 2:
            return self._lift
        return packed_mul(self._lift_low, self._lift, self.p**2)

    @_cached
    def packed_fp2(self) -> dict[int, int]:
        self._check_power(self.p - 2)
        p = self.p
        return {e: r for e, c in self._lift_low.items() if (r := c % p)}

    @_cached
    def packed_fp1(self) -> dict[int, int]:
        self._check_power(self.p - 1)
        p = self.p
        return {e: r for e, c in self._lift_power.items() if (r := c % p)}

    @_cached
    def packed_delta(self) -> dict[int, int]:
        if self.p * (self.p - 1) * self.f.max_exponent() > EXPONENT_LIMIT:
            raise ExponentOverflowError("Δ₁ would need exponents beyond the 32-bit budget")
        return delta1_power(self._lift, self._lift_low, self._lift_power, self.p)

    @_cached
    def _theta_table(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        return residue_table(self.packed_delta, self.codec, self.p)

    def theta(self, t: dict[int, int]) -> dict[int, int]:
        """θ(F_*t) for packed t, by `packed_theta` on Δ's residue table."""
        residues, p = self.codec.residues, self.p
        out = packed_theta([(e, residues(e, p), c) for e, c in t.items()], self._theta_table, p)
        return {q: r for q, c in out.items() if (r := c % p)}

    @_cached
    def fp1(self) -> Polynomial:
        """f^{p−1}, the generator of I_1 that decides F-splitting."""
        return self._unpack(self.packed_fp1)

    @_cached
    def i1(self) -> list[Polynomial]:
        """Generators of I_1 = (f^{p−1}) + ((f'_i)^p)."""
        return _dedupe([self.fp1] + [g.pth_power() for g in self.gens])

    @_cached
    def fp2(self) -> Polynomial:
        """f^{p−2}, read by the quick non-splitting tests and their verifier."""
        return self._unpack(self.packed_fp2)

    @_cached
    def delta(self) -> Polynomial:
        """Δ₁(f^{p−1}), the multiplier of θ."""
        return self._unpack(self.packed_delta)


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


def _require_graded(f_list: Sequence[Polynomial], g: Grading) -> None:
    reason = graded_cy_applicable(f_list, g)
    if reason is not None:
        raise RingError(f"graded engine not applicable: {reason}")


def _pairing(a: dict[int, int], b: dict[int, int], cap: int, p: int) -> int:
    """The x^cap coefficient of a·b for packed a, b and cap, as
    Σ_e a[e]·b[cap−e] mod p, without forming the product; the sum runs over
    the terms of the smaller factor.  No per-field test is needed while the
    codec holds every field of a·b: no field of e + e' then carries, so
    e + e' = cap as ints only field by field, and a term over the cap in
    some field looks up a key that no term of b has."""
    if len(a) > len(b):
        a, b = b, a
    dual = b.get
    return sum([c * dual(cap - e, 0) for e, c in a.items()]) % p


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
    max(h − 2, 0) θ images.  The whole run stays on the problem's packed
    exponents (`_Splitting`): the pairings, t_n and θ (`packed_theta`)
    never unpack, since a CoefficientWitness holds no polynomial.
    """
    f_list = list(f_list)
    _require_graded(f_list, g)
    return _graded_cy(_Splitting(f_list), g, n_max, budget if budget is not None else Budget())


def _graded_cy(sp: _Splitting, g: Grading, n_max: int, budget: Budget) -> HeightResult:
    """`height_graded_cy` on a problem's `_Splitting`, applicability checked."""
    t0 = time.perf_counter()
    p, codec, nvars = sp.p, sp.codec, sp.ring.nvars
    c = _pairing(sp.packed_fp2, sp.packed_f, codec.pack([p - 1] * nvars), p)
    lifted = 0  # (p²−1)𝟙, packed when level 2 is first read
    t: Optional[dict[int, int]] = None
    diagnostics: list[str] = []
    for n in range(1, n_max + 1):
        budget.tick()
        if c:
            cert = Certificate(
                COEFFICIENT_WITNESS,
                {"level": n, "coefficient": c, "grading": [list(r) for r in g.rows]},
            )
            return _stamped(HeightResult(FINITE, n, cert, route="graded-cy"), budget, t0)
        t = sp.packed_fp1 if t is None else sp.theta(t)
        if not t:
            diagnostics.append(
                f"theta orbit vanished at level {n}; every later coefficient is zero"
            )
            break
        if n < n_max:
            lifted = lifted or codec.pack([p * p - 1] * nvars)
            c = _pairing(t, sp.packed_delta, lifted, p)
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
    uncapped: terms over the cap are never looked up.  Levels 1 and 2 read
    the problem's packed f^{p−1} and Δ, as the engine does.  Used to
    re-verify CoefficientWitness certificates.
    """
    if n < 1:
        raise RingError("level must be >= 1")
    sp = _Splitting(f_list)
    p, nvars, codec = sp.p, sp.ring.nvars, sp.codec
    cap = [p**n - 1] * nvars
    if n == 1:
        return sp.packed_fp1.get(codec.pack(cap), 0)
    if n == 2:
        delta = sp.packed_delta  # before f^{p−1}, so Δ's overflow comes first
        return _pairing(sp.packed_fp1, delta, codec.pack(cap), p)
    epow = capped_delta_powers(sp.delta, n, nvars, budget)[-1]
    # E_n's exponents reach p^n − 1, past the problem's packing: pack both
    # factors at a width that holds the sum of their largest exponents
    fp1 = sp.fp1
    codec = ExponentCodec(nvars, max(cap[0], fp1.max_exponent()).bit_length() + 1)
    pack = codec.pack
    a, b = ({pack(e): c for e, c in q.terms.items()} for q in (fp1, epow))
    return _pairing(a, b, pack(cap), p)


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


class _Chain:
    """The ascending chain J_1 = (base), J_{n+1} = (base) + θ(F_*J_n ∩ Ker u),
    by default on base = I_1: the I_n chain.  `ideal` is J_n, presented by
    base and the images of step n − 1, and `levels` holds each step's records."""

    def __init__(self, sp: _Splitting, budget: Optional[Budget], base=None):
        self.sp, self.budget = sp, budget if budget is not None else Budget()
        self.base = list(sp.i1 if base is None else base)
        self.n = 1
        self.ideal = Ideal(sp.ring, self.base)
        self.levels: list[list[ChainStep]] = []

    def advance(self) -> bool:
        """Step to J_{n+1}, or return False and stay once J_{n+1} = J_n."""
        steps = _theta_images(self.sp, self.ideal, self.budget)
        nxt = Ideal(self.sp.ring, _dedupe(self.base + [s.image for s in steps]))
        # J_n ⊆ J_{n+1}, and an ideal escapes m^{[p]} iff a generator does
        can_equal = _escapes(nxt.gens) is None or _escapes(self.ideal.gens) is not None
        if can_equal and ideal_equal(self.ideal, nxt, self.budget):
            return False
        self.n += 1
        self.ideal = nxt
        self.levels.append(steps)
        return True

    def close(self) -> Ideal:
        """Advance to the fixed point, presented by its reduced Groebner basis."""
        while self.advance():
            pass
        return Ideal.from_reduced_basis(self.sp.ring, self.ideal.groebner(self.budget))


def height_local(
    I: Ideal,
    n_max: int = DEFAULT_N_MAX,
    budget: Optional[Budget] = None,
) -> HeightResult:
    """Height via the I_n chain; certificates as θ-chains.

    Reads the I_n chain (`_Chain`) from I_1.  Returns Finite(n) at the first
    I_n ⊄ m^{[p]} with a ChainWitness that holds one proof: a strict chain
    g_1, ..., g_n (θ(F_*g_l) = g_{l+1}, found by orbit search) when one
    exists, else the levelled transition records and the escaping generator
    of I_n.  If the chain stabilizes with every generator inside m^{[p]},
    the stabilized ideal is a fixed-point enclosure proving the height
    infinite.  Budget aborts return Unknown with diagnostics.
    """
    return _height_local(_Chain(_Splitting(I.gens), budget), n_max)


def _height_local(chain: _Chain, n_max: int) -> HeightResult:
    """`height_local` on a problem's chain; a LowerBound leaves it at I_{n_max}."""
    t0 = time.perf_counter()
    budget = chain.budget

    def finish(verdict, n, cert, diagnostics=()):
        res = HeightResult(verdict, n, cert, route="local-chain", diagnostics=diagnostics)
        return _stamped(res, budget, t0)

    try:
        for n in range(1, n_max + 1):
            esc = _escapes(chain.ideal.gens)
            if esc is not None:
                strict = _strict_chain_search(chain.sp, n, budget)
                if strict is not None:
                    data: dict[str, Any] = {"chain": strict}
                else:
                    data = {"levels": chain.levels, "escape": esc, "escape_level": n}
                return finish(FINITE, n, Certificate(CHAIN_WITNESS, data))
            if n == n_max:
                break
            if not chain.advance():
                # I_{n+1} = I_n ⊆ m^{[p]}: the chain is stuck below m^{[p]} forever
                cert = Certificate(
                    FIXED_POINT_ENCLOSURE, {"generators": list(chain.ideal.gens)}
                )
                return finish(
                    INFINITE, None, cert,
                    diagnostics=(f"I_n stabilized inside m^[p] at level {n}",),
                )
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


def qfs_decide(
    I: Ideal, budget: Optional[Budget] = None
) -> tuple[bool, Certificate]:
    """Quasi-F-splitness via the smallest fixed point I_∞.

    Runs the I_n chain (`_Chain`) until I_{n+1} = I_n: the limit is the
    smallest ideal containing I_1 and closed under θ(F_*· ∩ Ker u), and the
    ring is quasi-F-split exactly when it is not contained in m^{[p]}.  The
    certificate records that n as `iterations`.  Raises BudgetExceededError
    when the step budget runs out.
    """
    return _qfs_decide(_Chain(_Splitting(I.gens), budget))


def _qfs_decide(chain: _Chain) -> tuple[bool, Certificate]:
    """`qfs_decide` on a problem's chain, closed from the level it stands at."""
    gens = list(chain.close().gens)
    cert = Certificate(I_INFTY_STABILIZED, {"generators": gens, "iterations": chain.n})
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
    sp = _Splitting(I.gens)
    return _Chain(sp, budget, _dedupe(list(seed) + sp.i1)).close()


# ---------------------------------------------------------------------------
# quick non-quasi-F-split tests
# ---------------------------------------------------------------------------


def _product_remainders(sp: _Splitting) -> list[Polynomial]:
    """The parts below m^{[p²]} of the generators (f^{p−2}, I^{[p]})·
    f^{p(p−2)}·Δ₁(f) of condition (2): each product by `capped_mul` with
    every exponent capped at p²−1, so a generator lies in m^{[p²]} iff its
    remainder is 0.  The scale f^{p(p−2)}·Δ₁(f) is capped first, which is
    sound because a term over the cap stays over it in every product."""
    cap = (sp.p**2 - 1,) * sp.ring.nvars
    # f^{p(p−2)}: Frobenius fixes F_p coefficients
    scale = sp.fp2.pth_power().capped_mul(delta1(sp.f), cap)
    return [b.capped_mul(scale, cap) for b in [sp.fp2] + [g.pth_power() for g in sp.gens]]


def non_qfs_quick(f_list: Sequence[Polynomial]) -> Optional[Certificate]:
    """Sufficient conditions for infinite height, checked per-monomial only.

    (1) for p ≥ 3: f^{p−2} ∈ m^{[p]}  (at p = 2, f^0 = 1 never qualifies);
    (2) f^{p−1} ∈ m^{[p]} and every generator of
        (f^{p−2}, I^{[p]})·f^{p(p−2)}·Δ₁(f) lies in m^{[p²]}.

    Returns the first satisfied condition's certificate, else None.  The
    certificate of (2) records only its tag: the verifier recomputes the
    capped products.
    """
    gens = _as_gen_list(f_list)
    if not gens:
        return None
    return _non_qfs_quick(_Splitting(gens))


def _non_qfs_quick(sp: _Splitting) -> Optional[Certificate]:
    """`non_qfs_quick` on a problem's `_Splitting`."""
    if sp.p >= 3 and in_max_ideal_frobenius_power(sp.fp2, 1):
        return Certificate(NON_QFS, {"tag": TAG_FPM2, "element": sp.fp2})
    if not in_max_ideal_frobenius_power(sp.fp1, 1):
        return None  # F-split, certainly not infinite
    if not any(_product_remainders(sp)):
        return Certificate(NON_QFS, {"tag": TAG_PRODUCT})
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

    The recorded element f^{p−2} (tag TAG_FPM2) is recomputed from f and
    must equal what the certificate holds; then each containment is tested
    term by term: f^{p−2} ∈ m^{[p]} (only for p ≥ 3), or f^{p−1} ∈ m^{[p]}
    and every product of condition (2) in m^{[p²]}, recomputed by capped
    products (tag TAG_PRODUCT records nothing else)."""
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
        for k, rest in enumerate(_product_remainders(sp), start=1):
            if rest:
                return _fail(reasons, f"product {k} has terms outside m^[p^2]: {rest}")
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
    (e) its limit I_∞, run on from where (d) stopped, to separate Infinite
    from LowerBound.  Forced strategies: "graded", "local", "qfs".
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

    def graded(sp: _Splitting) -> HeightResult:
        try:
            return _graded_cy(sp, g, n_max, budget)
        except BudgetExceededError as exc:
            return _unknown(exc, "graded-cy")

    if strategy == "local":
        return finish(height_local(I, n_max, budget))
    if strategy == "graded":
        _require_graded(gens, g)
        return finish(graded(_Splitting(gens)))
    if strategy == "qfs":
        return finish(
            _i_infinity(
                _Chain(_Splitting(I.gens), budget), 1,
                "quasi-F-split; height finite but not computed",
            )
        )
    if strategy != "auto":
        raise RingError(f"unknown strategy {strategy!r}")

    # one splitting serves every stage: a zero generator (which I drops)
    # always ends at (c), so (d) and (e) see I's own generators
    sp = _Splitting(gens)

    # (a) F-split?
    if not in_max_ideal_frobenius_power(sp.fp1, 1):
        cert = Certificate(CHAIN_WITNESS, {"chain": [sp.fp1]})
        return finish(HeightResult(FINITE, 1, cert, route="fedder"))

    # (b) graded engine
    graded_result: Optional[HeightResult] = None
    if graded_cy_applicable(gens, g) is None:
        graded_result = graded(sp)
        if graded_result.verdict in (FINITE, UNKNOWN):
            return finish(graded_result)

    # (c) quick infinite-height tests
    quick = _non_qfs_quick(sp)
    if quick is not None:
        return finish(HeightResult(INFINITE, None, quick, route="quick-tests"))

    # (d) the local chain — unless the graded engine already exhausted n_max,
    # in which case only the Infinite/LowerBound separation remains
    chain = _Chain(sp, budget)
    if graded_result is None:
        local = _height_local(chain, n_max)
        if local.verdict in (FINITE, INFINITE, UNKNOWN):
            return finish(local)

    # (e) I_∞, run on from (d)'s last level, separates Infinite from LowerBound
    return finish(
        _i_infinity(
            chain, n_max,
            f"quasi-F-split (I_infinity escapes m^[p]) but no level <= {n_max} "
            "escaped; the height is finite and exceeds the cutoff",
        )
    )


def _i_infinity(chain: _Chain, n: int, note: str) -> HeightResult:
    """The I_∞ route: Infinite when I_∞ ⊆ m^{[p]}, else LowerBound(n) with
    ``note`` (the height is finite but was not found)."""
    try:
        qfs, cert = _qfs_decide(chain)
    except BudgetExceededError as exc:
        return _unknown(exc, "i-infinity")
    if not qfs:
        return HeightResult(INFINITE, None, cert, route="i-infinity")
    return HeightResult(LOWER_BOUND, n, cert, route="i-infinity", diagnostics=(note,))

