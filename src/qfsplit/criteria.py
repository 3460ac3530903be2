"""Decision procedures for quasi-F-split heights, with re-verifiable certificates.

For a regular sequence f'_1, ..., f'_m in the maximal ideal of S = F_p[x], set
f := f'_1⋯f'_m and

    I_1 := (f^{p−1}) + ((f'_1)^p, ..., (f'_m)^p),
    I_{n+1} := θ(F_*I_n ∩ Ker u) + I_1,       θ(F_*a) := u(F_*(Δ₁(f^{p−1})·a)).

The height of S/(f'_i) is the first n with I_n ⊄ m^{[p]} (infinite if none).
Both engines apply θ only where u(F_*a) = 0, and there the projection
formula gives θ(F_*a) = f^{p−2}·u(F_*(−Δ₁(f)·a)) (`witt`), so no solver
path forms Δ₁(f^{p−1}):

* `height_graded_cy` — for homogeneous systems whose degrees sum to the
  anticanonical degree.  Tracks t_n := u^{n−1}(F^{n−1}_* f_n) for
  f_n := f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1} through t_{n+1} = θ(F_* t_n);
  the height is the first n whose t_n has a nonzero (x_1⋯x_N)^{p−1}
  coefficient.  Degrees stay bounded, and the run stays packed.
* the I_n chain (`_Chain`), via syzygies of the u-images for the kernel
  intersection.  Works for any input.  Its limit I_∞ is the smallest ideal
  ⊇ θ(F_*I_∞ ∩ Ker u) + I_1, and the ring is quasi-F-split iff
  I_∞ ⊄ m^{[p]}; as I_∞ ⊇ I_n, the first escaping level decides that too.
  The chain has one step (`_Chain.advance`), which reads the stream of
  Ker u generators and applies θ to each.  One reader (`_read_chain`)
  serves `height_local`, `qfs_decide` and `height`: it stops at the first
  escape with a chain certificate, or at a fixed point inside m^{[p]} with
  I_∞ as a trap ideal, and it ends the escaping level at its first image
  outside m^{[p]}, where the step stops reading the stream.  For a regular
  sequence I_1 = (I^{[p]} : I) (Fedder).  The chain, its verifiers and
  `product_witness`'s joint chain share θ (`_Splitting.chain_theta`) and
  run on packed exponents in the ring layout (`PolynomialRing.codec`);
  polynomials are built only for a certificate.

Both ChainWitness shapes have one checker, `_verify_levels`: a strict chain
g_1 → ... → g_n is the levelled certificate with one record (g_l, g_{l+1})
per level and g_n escaping.  The graded twist (`_Splitting.twist`) and
`chain_theta` apply the one packed θ, `frobenius.packed_theta`.  The
ghost-route Δ₁ (`witt.delta1`) serves only `_verify_non_qfs`, as a route
independent of the solver's.

The (x_1⋯x_N)^{p^n−1} coefficient of f^{p−1}·Δ₁(f^{p−1})^{1+p+⋯+p^{n−2}}
has one capped reader, `capped_coefficients`, for the coefficient verifier
from level 3 on and for the stratum polynomials of `strata`.

`height` orchestrates both engines plus the quick non-splitting tests, on
one `_Splitting` (f and its derived quantities) and one I_n chain per call.
Every entry point builds a `_Splitting`, which refuses a system with no
generator or a zero one.  Both engines return through one result path
(`_route_result`), so `height`, `height_local` and `height_graded_cy`
answer Unknown when the step budget runs out; `qfs_decide` and
`enclosure_closure`, which return no HeightResult, raise
BudgetExceededError.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .rings import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Grading,
    HomogeneityError,
    Polynomial,
    PolynomialRing,
    RingError,
    check_homogeneous,
    narrow_codec,
    packed_mul,
    packed_power,
)
from .witt import (
    delta1,
    delta1_power,
    delta1_power_parts,
    packed_delta1,
    teichmuller_lift,
)
from .frobenius import (
    _residue_table,
    in_max_ideal_frobenius_power,
    iterated_u,
    packed_theta,
    packed_u,
    residue_table,
    u_map,
)
from .groebner import (
    Budget,
    BudgetExceededError,
    Ideal,
    _dedupe,
    _intersect_keru,
    _reduced_basis,
    frobenius_module_intersect_keru,
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

# NonQFS tags (each names the verified containment)
TAG_FPM2 = "f^(p-2) in m^[p]"
TAG_PRODUCT = "(f^(p-2), I^[p]) * f^(p*(p-2)) * delta1(f) in m^[p^2]"


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
    """

    kind: str
    data: dict[str, Any]


@dataclass
class HeightResult:
    """Outcome of a height computation.

    verdict: Finite | Infinite | LowerBound | Unknown.  `n` is the height for
    Finite, the exhausted cutoff for LowerBound, None otherwise.  LowerBound
    means every test up to the cutoff stayed inside m^{[p]} (resp. m^{[p^n]});
    it carries no certificate, and only the graded engine and the local
    chain, which honour n_max, give it.  Unknown records a budget abort in
    `diagnostics`.
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


class _Splitting:
    """The derived data of one problem I = (f'_1, ..., f'_m): f = Π f'_i, and
    its Teichmüller lift F, f^{p−2}, f^{p−1}, Δ₁(f), I_1's generators and
    Δ = Δ₁(f^{p−1}), each computed on first use, so a route forms only what
    it reads: the level-1 coefficient verifier reads f alone and never
    forms F.  `height` builds one per call and hands it to every stage
    (`height_local` builds it on the forced local route).

    f, its Teichmüller lift F over ℤ/p², the powers, Δ₁(f) and Δ live packed
    under one narrow codec per problem (`rings.narrow_codec`), wide enough
    for p²·M (M the largest exponent of f): Δ stays within p(p−1)·M, Δ₁(f)
    within p·M and every graded orbit term t_n within p·M (t_1 ≤ (p−1)·M,
    θ_f(F_*t_n) ≤
    (t_n + p·M)/p and t_{n+1} ≤ (p−2)·M + θ_f(F_*t_n)), so the fields of θ's
    products and of the graded engine's pairings stay within p²·M, as do
    its caps (p² − 1).  F^{p−2} and F^{p−1} reduce mod p to f^{p−2} and
    f^{p−1}; Δ₁(f) comes from F·F^{p−1} (`witt.packed_delta1`) and nowhere
    else, Δ from Δ₁(f) by `witt.delta1_power`, for the coefficient verifier
    from level 3 on and the `delta` view only.  `fp2`, `fp1` and `delta` are
    their polynomial views.  Exponent overflow is raised where the
    polynomial routes raise it, at first use: f^{p−1} where `f ** (p − 1)`
    would, Δ₁(f) where `delta1(f)` would, Δ where `delta1(f ** (p − 1))`
    would (`check_delta`).

    The I_n chain runs on the ring layout (`PolynomialRing.codec`) instead:
    `packed_i1` holds I_1's generators on it, and `chain_theta` needs only
    p·M ≤ EXPONENT_LIMIT: for w within the limit, the fields of Δ₁(f)·w
    stay within p·M + EXPONENT_LIMIT, which 32 bits hold, and those of the
    image within (p − 1)·M + EXPONENT_LIMIT/p ≤ EXPONENT_LIMIT.  No regular
    sequence is empty or has a zero element: such a system raises RingError."""

    def __init__(self, gens: Sequence[Polynomial]):
        self.gens = list(gens)
        if not self.gens or not all(self.gens):
            raise RingError("a regular sequence needs at least one generator, and no zero one")
        self.ring = self.gens[0].ring
        self.p = self.ring.field.p
        f = self.gens[0]
        for g in self.gens[1:]:
            f = f * g
        self.f = f
        self.codec = codec = narrow_codec(self.ring.nvars, self.p**2 * max(f.max_exponent(), 1))
        self.packed_f = {codec.pack(e): c for e, c in f.terms.items()}

    def _unpack(self, packed: dict[int, int]) -> Polynomial:
        return Polynomial(self.ring, self.codec.unpack_terms(packed))

    def _check_power(self, n: int) -> None:
        """Raise where `f ** n` raises: its last product has exponents n·M."""
        if n >= 2 and n * self.f.max_exponent() > EXPONENT_LIMIT:
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")

    @_cached
    def _lift(self) -> dict[int, int]:
        """F, the Teichmüller lift of f over ℤ/p²."""
        return teichmuller_lift(self.packed_f, self.p)

    @_cached
    def _lift_low(self) -> dict[int, int]:
        """F^{p−2} over ℤ/p², F the Teichmüller lift of f."""
        return packed_power(self._lift, self.p - 2, self.p**2)

    @_cached
    def _lift_power(self) -> dict[int, int]:
        """F^{p−1} over ℤ/p² (F itself at p = 2; at p = 3, F^{p−2} is F
        itself, so this is the kernel's square path)."""
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
    def packed_delta1(self) -> dict[int, int]:
        """Δ₁(f), from the product F·F^{p−1}."""
        if self.p * self.f.max_exponent() > EXPONENT_LIMIT:
            raise ExponentOverflowError("Δ₁ would need exponents beyond the 32-bit budget")
        return packed_delta1(self._lift, self._lift_power, self.p)

    def check_delta(self) -> None:
        """Raise where Δ = Δ₁(f^{p−1}) would pass the exponent limit."""
        if self.p * (self.p - 1) * self.f.max_exponent() > EXPONENT_LIMIT:
            raise ExponentOverflowError("Δ₁ would need exponents beyond the 32-bit budget")

    @_cached
    def packed_delta(self) -> dict[int, int]:
        self.check_delta()
        return delta1_power(self.packed_delta1, self._lift_low, self._lift_power, self.p)

    @_cached
    def _twist_table(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        p = self.p
        return residue_table({e: p - c for e, c in self.packed_delta1.items()}, self.codec, p)

    def twist(self, t: dict[int, int]) -> dict[int, int]:
        """u(F_*(−Δ₁(f)·t)), the twist of `chain_theta`, on the problem's codec."""
        return packed_theta(t, self.codec, self._twist_table, self.p)

    @_cached
    def packed_i1(self) -> list[dict[int, int]]:
        """I_1's generators on the ring layout."""
        pack = self.ring.codec.pack_terms
        return [pack(g.terms) for g in self.i1]

    @_cached
    def _chain_twist(self) -> tuple[dict, Optional[dict[int, int]]]:
        """−Δ₁(f)'s residue table (`theta`'s cache) and f^{p−2} (None at p = 2), packed."""
        fp2 = self.ring.codec.pack_terms(self.fp2.terms) if self.p > 2 else None
        return _residue_table(-self._unpack(self.packed_delta1)), fp2

    def chain_theta(self, w: dict[int, int]) -> dict[int, int]:
        """θ(F_*w) = f^{p−2}·u(F_*(−Δ₁(f)·w)) for w ∈ Ker u on the ring layout:
        the chain maps F_*I ∩ Ker u, and the other callers test u first."""
        table, fp2 = self._chain_twist
        s = packed_theta(w, self.ring.codec, table, self.p)
        return s if fp2 is None else packed_mul(fp2, s, self.p)

    @_cached
    def _escape_limit(self) -> int:
        return self.ring.codec.ceiling([self.p - 1] * self.ring.nvars)

    def escapes(self, gens: Sequence[dict[int, int]]) -> Optional[int]:
        """The index of the first generator outside m^{[p]}, if any, for
        generators on the ring layout: one with a term whose every field
        is below p (`ExponentCodec.within`)."""
        within, limit = self.ring.codec.within, self._escape_limit
        for i, g in enumerate(gens):
            if any(within(limit, k) for k in g):
                return i
        return None

    def polynomial(self, g: dict[int, int]) -> Polynomial:
        """The polynomial of g on the ring layout."""
        return Polynomial(self.ring, self.ring.codec.unpack_terms(g))

    @_cached
    def fp1(self) -> Polynomial:
        """f^{p−1}, the generator of I_1 that decides F-splitting."""
        return self._unpack(self.packed_fp1)

    @_cached
    def i1(self) -> list[Polynomial]:
        """Generators of I_1 = (f^{p−1}) + ((f'_i)^p): f^{p−1} alone for one
        generator f, since f^p = f·f^{p−1} lies in (f^{p−1}), so f^p is never
        formed."""
        if len(self.gens) == 1:
            return [self.fp1]
        return list(_dedupe([self.fp1] + [g.pth_power() for g in self.gens]))

    @_cached
    def fp2(self) -> Polynomial:
        """f^{p−2}, read by the quick tests, their verifier and `chain_theta`."""
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


def _polynomials_fault(ring: PolynomialRing, polys: Any, what: str) -> Optional[str]:
    """Why `polys`, read from a certificate, is not a list of polynomials of `ring`."""
    if not isinstance(polys, (list, tuple)):
        return f"expected a list of {what}s, got {polys!r}"
    for g in polys:
        if not (isinstance(g, Polynomial) and (g.ring is ring or g.ring == ring)):
            return f"{what} {g!r} is not a polynomial of {ring!r}"
    return None


def _stamped(res: HeightResult, budget: Budget, t0: float) -> HeightResult:
    """Fill in the steps and wall time of a result that is about to be returned."""
    res.steps = budget.steps
    res.wall_time_ms = (time.perf_counter() - t0) * 1000
    return res


def _route_result(route: str, budget: Budget, read: Callable[[], HeightResult]) -> HeightResult:
    """The one result path of the height routes: `read()` on `route`, or
    Unknown with its diagnosis once the step budget runs out, stamped with
    the budget's steps and the wall time."""
    t0 = time.perf_counter()
    try:
        res = read()
    except BudgetExceededError as exc:
        res = HeightResult(
            UNKNOWN, None, None, diagnostics=(f"budget exhausted after {exc.steps} steps",)
        )
    res.route = route
    return _stamped(res, budget, t0)


def result_to_json(res: HeightResult) -> dict[str, Any]:
    """The documented report shape: {verdict, n, certificate, steps,
    wall_time_ms, route, diagnostics}."""
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
    return not in_max_ideal_frobenius_power(_Splitting(_as_gen_list(I)).fp1, 1)


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


def _require_chain_length(n_max: int) -> None:
    if n_max < 1:
        raise RingError(f"n_max must be a positive chain length, got {n_max!r}")


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
    every t_n is homogeneous of degree (p−1)·deg(x_1⋯x_N).  The grading's
    columns are nonnegative and nonzero, so u(F_*t_n) has degree 0: it is
    the constant c_n, and the orbit continues only where it is 0, so
    t_{n+1} = f^{p−2}·s_n with s_n = −u(F_*(Δ₁(f)·t_n)) (`_Splitting.twist`;
    see the module docstring).  Each c_n is read as a pairing, before t_n is
    formed: c_1 = Σ_e f^{p−2}[e]·f[(p−1)𝟙 − e] and
    c_{n+1} = Σ_e f^{p−2}[e]·s_n[(p−1)𝟙 − e].  So t_n is formed only when
    c_n = 0 and the run goes on to level n + 1, and t_n vanishes iff s_{n−1}
    does: a Finite(1) run never forms f^{p−1}, and a Finite(h) run forms
    max(h − 2, 0) images t_n.  The pairings, t_n, s_n and θ never unpack,
    since a CoefficientWitness holds no polynomial.  The level-2 verifier
    (`graded_cy_coefficient`) pairs f^{p−1} with Δ₁(f^{p−1}); it reads only
    the coefficients it needs, from Δ₁(f), but keeps Δ₁(f^{p−1})'s exponent
    bound p(p−1)·M, so the run raises its ExponentOverflowError where it
    first reaches level 2.  A budget abort returns Unknown with the
    diagnosis "budget exhausted after N steps", as `height` and
    `height_local` do.
    """
    f_list = list(f_list)
    _require_chain_length(n_max)
    _require_graded(f_list, g)
    return _graded_cy(_Splitting(f_list), g, n_max, budget if budget is not None else Budget())


def _graded_cy(sp: _Splitting, g: Grading, n_max: int, budget: Budget) -> HeightResult:
    """`height_graded_cy` on a problem's `_Splitting`, applicability checked:
    `_read_graded` through the one result path."""
    return _route_result("graded-cy", budget, lambda: _read_graded(sp, g, n_max, budget))


def _read_graded(sp: _Splitting, g: Grading, n_max: int, budget: Budget) -> HeightResult:
    """The coefficient run of `height_graded_cy`, up to level n_max."""
    p, fp2 = sp.p, sp.packed_fp2
    cap = sp.codec.pack([p - 1] * sp.ring.nvars)
    c = _pairing(fp2, sp.packed_f, cap, p)
    s: Optional[dict[int, int]] = None  # s_{n−1}, once level 2 is reached
    for n in range(1, n_max + 1):
        budget.tick()
        if c:
            cert = Certificate(
                COEFFICIENT_WITNESS,
                {"level": n, "coefficient": c, "grading": [list(r) for r in g.rows]},
            )
            return HeightResult(FINITE, n, cert)
        if not (sp.packed_fp1 if s is None else s):
            vanished = f"theta orbit vanished at level {n}; every later coefficient is zero"
            return HeightResult(LOWER_BOUND, n_max, None, diagnostics=(vanished,))
        if n < n_max:
            if s is None:
                sp.check_delta()  # the level-2 verifier keeps Δ₁(f^{p−1})'s bound
                t = sp.packed_fp1
            else:
                t = packed_mul(fp2, s, p)
            s = sp.twist(t)
            c = _pairing(fp2, s, cap, p)
    return HeightResult(LOWER_BOUND, n_max, None)


def capped_coefficients(
    gp: Polynomial, delta: Polynomial, levels: int, nx: int, budget: Optional[Budget] = None
) -> list[Polynomial]:
    """c_1, …, c_levels: c_n is the (x_1⋯x_nx)^{p^n−1} coefficient of gp·E_n,
    E_n := Δ^{1+p+⋯+p^{n−2}}, the x's being the first `nx` variables, as a
    polynomial in the others.  E_1 = 1 and E_{n+1} = E_n^p·Δ, its x-exponents
    capped at p^{n+1}−1: sound, as a term over the cap stays over it in E_n^p
    and every later product.  c_n is Σ gp[e]·E_n[target − e] over the
    x-parts e, read without forming gp·E_n.  Ticks len(E_n) per level."""
    ring = gp.ring
    p = ring.field.p
    out: list[Polynomial] = []
    epow = ring.one
    for n in range(1, levels + 1):
        target = (p**n - 1,) * nx
        if n > 1:
            epow = epow.pth_power().capped_mul(delta, target + (None,) * (ring.nvars - nx))
            if budget is not None:
                budget.tick(len(epow))
        dual: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
        for e, c in epow.terms.items():
            dual.setdefault(e[:nx], []).append((e[nx:], c))
        acc: dict[tuple[int, ...], int] = {}
        for e, c in gp.terms.items():
            for rest, d in dual.get(tuple(map(int.__sub__, target, e[:nx])), ()):
                k = (0,) * nx + tuple(map(int.__add__, e[nx:], rest))
                acc[k] = acc.get(k, 0) + c * d
        out.append(ring.from_terms(acc))
    return out


def graded_cy_coefficient(
    f_list: Sequence[Polynomial], n: int, budget: Optional[Budget] = None
) -> int:
    """The (x_1⋯x_N)^{p^n−1} coefficient of f_n, by capped multiplication.

    Level 1 is Fedder's c_1, the (p−1)·𝟙 coefficient of f^{p−1}, read as
    one pairing Σ_e f^a[e]·f^b[(p−1)·𝟙 − e] with a = ⌊(p−1)/2⌋ and
    b = p − 1 − a, both powers formed over F_p from f: no Teichmüller lift
    and no f^{p−1}.  At p = 2 it reads f's coefficient at 𝟙; at p = 3 it
    pairs f with itself, which is the solver's own level-1 sum
    Σ f^{p−2}[e]·f[cap − e], so there the independent check is the tests'
    oracle that forms f^{p−1} with `Polynomial.__pow__`.  `_pairing`'s
    borrowed-key argument holds: f^a·f^b = f^{p−1} stays within (p−1)·M,
    which the problem's codec holds.

    Independent of the θ-orbit route from level 2 on: reads the target
    coefficient of f^{p−1}·E_n, E_n = Δ₁(f^{p−1})^{p^{n−2}+⋯+1}, as
    Σ f^{p−1}[e]·E_n[cap−e] without forming the product, while the engine
    multiplies by Δ₁(f) and pairs with f^{p−2}.  Level 2 pairs f^{p−1} with
    Δ₁(f^{p−1}) without forming Δ₁(f^{p−1}), each coefficient it reads
    taken from Δ₁(f) by the δ-ring rule (`_delta_pairing`); from level 3 on
    it is the constant term of `capped_coefficients`' c_n, the reader of
    the stratum polynomials too.  Used to re-verify CoefficientWitness
    certificates.  Raises ExponentOverflowError where f^{p−1} would pass
    the exponent limit, and for a level whose cap p^n − 1 does, before
    forming p^n: from n = 32 on that holds at every p.
    """
    if n < 1:
        raise RingError("level must be >= 1")
    sp = _Splitting(f_list)
    p, nvars, codec = sp.p, sp.ring.nvars, sp.codec
    if n > EXPONENT_LIMIT.bit_length() + 1 or p**n - 1 > EXPONENT_LIMIT:
        raise ExponentOverflowError("the cap p^n − 1 would exceed the 32-bit exponent budget")
    cap = [p**n - 1] * nvars
    if n == 1:
        sp._check_power(p - 1)
        a = (p - 1) // 2
        fa = packed_power(sp.packed_f, a, p)
        fb = fa if 2 * a == p - 1 else packed_mul(fa, sp.packed_f, p)
        return _pairing(fa, fb, codec.pack(cap), p)
    if n == 2:
        return _delta_pairing(sp, codec.pack(cap))
    c = capped_coefficients(sp.fp1, sp.delta, n, nvars, budget)[-1]
    return c.terms.get((0,) * nvars, 0)


def _delta_pairing(sp: _Splitting, cap: int) -> int:
    """Σ_e f^{p−1}[e]·Δ[cap − e] for Δ = Δ₁(f^{p−1}) and packed cap, without
    forming Δ: by the δ-ring rule Δ = h^p − f^{p(p−2)}·Δ₁(f)
    (`witt.delta1_power`) it is the pairing of f^{p−1} with h^p at cap,
    minus Σ_s f^{p(p−2)}[s] times its pairing with Δ₁(f) at cap − s.
    Raises ExponentOverflowError where Δ would pass the exponent limit
    (`_Splitting.check_delta`), before f^{p−1} is formed.

    `_pairing`'s borrowed-key argument covers every lookup: e ≤ (p−1)·M,
    and a term k of h^p has k ≤ p(p−1)·M, a term s of f^{p(p−2)} and k of
    Δ₁(f) have s + k ≤ p(p−1)·M, so every field of e + k (+ s) stays
    within (p² − 1)·M, which the problem's codec holds.  A key over the cap
    in some field, cap − s included, borrows across fields but matches no
    term."""
    sp.check_delta()
    p, fp1, d1 = sp.p, sp.packed_fp1, sp.packed_delta1
    hp, scale = delta1_power_parts(sp._lift_low, sp._lift_power, p)
    rest = sum([v * _pairing(fp1, d1, cap - s, p) for s, v in scale.items()])
    return (_pairing(fp1, hp, cap, p) - rest) % p


def verify_coefficient_witness(
    f_list: Sequence[Polynomial],
    cert: Certificate,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """Recompute the witnessed coefficient by the capped route and compare.
    A level that is not a positive int, a coefficient that is not an int or
    is 0 (which witnesses no level), and a level past the exponent limit
    fail with their reasons."""
    if cert.kind != COEFFICIENT_WITNESS:
        return _fail(reasons, f"expected a {COEFFICIENT_WITNESS} certificate, got {cert.kind}")
    n, claimed = cert.data.get("level"), cert.data.get("coefficient")
    if type(n) is not int or n < 1:
        return _fail(reasons, f"level {n!r} is not a positive integer")
    if type(claimed) is not int:
        return _fail(reasons, f"coefficient {claimed!r} is not an integer")
    if claimed == 0:
        return _fail(reasons, f"claimed coefficient at level {n} is 0, which witnesses no level")
    try:
        ok = graded_cy_coefficient(f_list, n, budget) == claimed
    except ExponentOverflowError as exc:
        return _fail(
            reasons,
            f"level {n} cannot be re-verified within the exponent limit {EXPONENT_LIMIT}: {exc}",
        )
    return ok or _fail(reasons, "recomputed coefficient disagrees with the certificate")


# ---------------------------------------------------------------------------
# local engine: the I_n chain
# ---------------------------------------------------------------------------


class _Chain:
    """The ascending chain J_1 = (base), J_{n+1} = (base) + θ(F_*J_n ∩ Ker u),
    by default on base = I_1: the I_n chain.  It runs on the ring layout:
    `gens` presents J_n by base and the images of step n − 1, `basis` is
    J_n's reduced Groebner basis once formed, and `steps` holds each step's
    (w, θ(F_*w)) pairs in the order of the Ker u stream, or a prefix of them
    once `advance(to_escape=True)` ends a step early and the chain is
    `partial`.  `levels` is their polynomial view, built only when read."""

    def __init__(self, sp: _Splitting, budget: Optional[Budget], base=None):
        self.sp, self.budget = sp, budget if budget is not None else Budget()
        pack = sp.ring.codec.pack_terms
        self.base = list(_dedupe(sp.packed_i1 if base is None else [pack(g.terms) for g in base]))
        self.n = 1
        self.gens = self.base
        self.basis: Optional[list[dict[int, int]]] = None
        self.steps: list[list[tuple[dict[int, int], dict[int, int]]]] = []
        self.partial = False

    def _reduced(self) -> list[dict[int, int]]:
        if self.basis is None:
            self.basis = _reduced_basis(self.sp.ring, self.gens, budget=self.budget)
        return self.basis

    def advance(self, to_escape: bool = False) -> bool:
        """Step to J_{n+1}, applying θ to each generator w of F_*J_n ∩ Ker u
        as the Ker u stream finds it, or return False and stay once
        J_{n+1} = J_n.  With `to_escape` the step ends at the first image
        outside m^{[p]}: it shows J_{n+1} ⊄ m^{[p]}, so the stream and its
        Schreyer run are read no further, and the chain, now partial,
        refuses to step again.  A whole level gets its reduced basis, run
        on from J_n's as a finished prefix (`_reduced_basis`'s `done`): the
        chain ascends, so J_{n+1} = J_n + (the new images), and only pairs
        with a new image's remainder are formed.  Where every image reduces
        to zero modulo J_n, J_n's basis comes back as it is: the fixed
        point, found with no pair loop."""
        if self.partial:
            raise RuntimeError("the chain stopped at an escaping image; its last level is partial")
        sp, budget = self.sp, self.budget
        records = []
        for w in _intersect_keru(sp.ring, self._reduced(), budget):
            image = sp.chain_theta(w)
            records.append((w, image))
            if to_escape and sp.escapes([image]) is not None:
                self.partial = True
                break
        nxt = list(_dedupe(self.base + [image for _, image in records]))
        basis = None
        if not self.partial:
            # the images that are not base generators join J_n's basis
            basis = _reduced_basis(sp.ring, nxt[len(self.base):], budget, done=self.basis)
            if basis == self.basis:  # reduced bases are canonical
                return False
        self.n += 1
        self.gens, self.basis = nxt, basis
        self.steps.append(records)
        return True

    def close(self) -> Ideal:
        """Advance to the fixed point, presented by its reduced Groebner basis."""
        while self.advance():
            pass
        return Ideal.from_reduced_basis(self.sp.ring, self._reduced())

    @property
    def levels(self) -> list[list[ChainStep]]:
        """Each step's records."""
        poly = self.sp.polynomial
        return [[ChainStep(poly(w), poly(image)) for w, image in s] for s in self.steps]


def height_local(
    I: Ideal,
    n_max: int = DEFAULT_N_MAX,
    budget: Optional[Budget] = None,
) -> HeightResult:
    """Height via the I_n chain, read from I_1 by `_read_chain` up to
    I_{n_max}: Finite(n) at the first I_n ⊄ m^{[p]} with a ChainWitness,
    Infinite at a fixed point inside m^{[p]} with its IInftyStabilized trap,
    else LowerBound(n_max).  Budget aborts return Unknown with diagnostics.
    """
    _require_chain_length(n_max)
    return _chain_result(_Chain(_Splitting(I.gens), budget), n_max, "local-chain")


def _read_chain(
    chain: _Chain, n_max: Optional[int]
) -> tuple[str, Optional[int], Optional[Certificate]]:
    """Read the I_n chain on from the level where it stands, to the first of:

    * a level I_n ⊄ m^{[p]}: (Finite, n, ChainWitness).  One image outside
      m^{[p]} settles that, so the level ends at the first such image
      (`_Chain.advance(to_escape=True)`).  The witness holds one proof: a strict
      chain g_1, ..., g_n (θ(F_*g_l) = g_{l+1}, found by orbit search) when
      one exists, else the levelled transition records, the last level's up
      to that image, and the image itself as the escaping generator of I_n.
      I_∞ ⊇ I_n, so the ring is quasi-F-split;
    * a fixed point I_{n+1} = I_n ⊆ m^{[p]}: (Infinite, None,
      IInftyStabilized), the reduced basis of I_∞ = I_n with `iterations` n,
      a trap ideal for `verify_infinity_certificate`;
    * the cutoff I_{n_max} (None reads on): (LowerBound, n_max, None).

    Raises BudgetExceededError when the chain's step budget runs out:
    `_chain_result` makes that an Unknown result, `qfs_decide` raises it."""
    sp = chain.sp
    while (esc := sp.escapes(chain.gens)) is None:
        if n_max is not None and chain.n >= n_max:
            return LOWER_BOUND, n_max, None
        if not chain.advance(to_escape=True):
            gens = [sp.polynomial(g) for g in chain.basis]
            return INFINITE, None, Certificate(
                I_INFTY_STABILIZED, {"generators": gens, "iterations": chain.n}
            )
    n = chain.n
    strict = _strict_chain_search(sp, n, chain.budget, chain.steps)
    if strict is not None:
        data: dict[str, Any] = {"chain": strict}
    else:
        escape = sp.polynomial(chain.gens[esc])
        data = {"levels": chain.levels, "escape": escape, "escape_level": n}
    return FINITE, n, Certificate(CHAIN_WITNESS, data)


def _chain_result(chain: _Chain, n_max: Optional[int], route: str) -> HeightResult:
    """`_read_chain` through the one result path."""
    return _route_result(route, chain.budget, lambda: HeightResult(*_read_chain(chain, n_max)))


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
    steps: Sequence[Sequence[tuple[dict[int, int], dict[int, int]]]] = (),
    max_candidates: int = 20000,
) -> Optional[list[Polynomial]]:
    """Look for a strict chain g_1 → ... → g_n with g_1 a monomial multiple
    of an I_1 generator.

    Monomial multipliers up to p^{n−1}−1 per exponent suffice to reach every
    chain whose level-l element is a monomial times a θ-orbit value (the
    multiplier's exponents divide by p along the orbit).  The image of a w
    that the chain's records (`steps`, the (w, θ(F_*w)) pairs of `_Chain`)
    already hold is read from them, not formed again.  Returns None when
    the search space is exhausted or too large; the certificate then carries
    the levelled records instead.
    """
    known = {frozenset(w.items()): image for level in steps for w, image in level}
    gens = sp.packed_i1
    if n == 1:
        esc = sp.escapes(gens)
        return None if esc is None else [sp.i1[esc]]
    codec, p, nvars = sp.ring.codec, sp.p, sp.ring.nvars
    bound = p ** (n - 1)  # exclusive per-variable multiplier bound
    if bound ** nvars * len(gens) > max_candidates:
        bound = max(p, _integer_root(max_candidates, nvars))
    mults = sorted(
        itertools.product(range(bound), repeat=nvars), key=sum
    )
    tops = [codec.degree(max(g)) for g in gens]
    for mu in mults:
        shift = codec.pack(mu)
        for g, top in zip(gens, tops):
            budget.tick()
            if top + codec.degree(shift) > EXPONENT_LIMIT and (
                codec.largest(g) + max(mu) > EXPONENT_LIMIT
            ):
                raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
            chain = [{k + shift: c for k, c in g.items()}]
            while len(chain) < n and not packed_u(w := chain[-1], codec, p):
                image = known.get(frozenset(w.items()))
                chain.append(sp.chain_theta(w) if image is None else image)
            if len(chain) == n and sp.escapes(chain[-1:]) is not None:
                return [sp.polynomial(g) for g in chain]
    return None


# ---------------------------------------------------------------------------
# the I_∞ fixed point
# ---------------------------------------------------------------------------


def qfs_decide(
    I: Ideal, budget: Optional[Budget] = None
) -> tuple[bool, Certificate]:
    """Quasi-F-splitness via I_∞, the limit of the I_n chain: the ring is
    quasi-F-split exactly when I_∞ ⊄ m^{[p]}, and I_∞ ⊇ I_n, so the chain is
    read (`_read_chain`, no cutoff) to its first escaping level or to its
    fixed point.  Returns (True, the ChainWitness of the height) or (False,
    IInftyStabilized: I_∞ and the `iterations` that reached it).  Raises
    BudgetExceededError when the step budget runs out.
    """
    verdict, _, cert = _read_chain(_Chain(_Splitting(I.gens), budget), None)
    return verdict == FINITE, cert


def enclosure_closure(
    I: Ideal,
    seed: Sequence[Polynomial] = (),
    budget: Optional[Budget] = None,
) -> Ideal:
    """Smallest ideal containing I_1 and ``seed`` closed under θ(F_*· ∩ Ker u).

    Useful for completing a hand-guessed trap ideal into one that
    verify_infinity_certificate accepts: the closure always satisfies the
    containment conditions, so the only remaining question is whether it
    stays inside m^{[p]}.  With an empty seed this is the whole I_∞, run to
    its fixed point (`_Chain.close`) even where a level escapes m^{[p]},
    at which `qfs_decide` stops.  A seed from another ring raises RingError.
    """
    sp, seed = _Splitting(I.gens), list(seed)
    if fault := _polynomials_fault(sp.ring, seed, "seed element"):
        raise RingError(fault)
    return _Chain(sp, budget, [*seed, *sp.i1]).close()


# ---------------------------------------------------------------------------
# quick non-quasi-F-split tests
# ---------------------------------------------------------------------------


def _product_remainders(sp: _Splitting, d1: Polynomial) -> list[Polynomial]:
    """The parts below m^{[p²]} of the generators (f^{p−2}, I^{[p]})·
    f^{p(p−2)}·Δ₁(f) of condition (2), given d1 = Δ₁(f): each product by
    `capped_mul` with every exponent capped at p²−1, so a generator lies in
    m^{[p²]} iff its remainder is 0.  The scale f^{p(p−2)}·Δ₁(f) is capped
    first, which is sound because a term over the cap stays over it in
    every product."""
    cap = (sp.p**2 - 1,) * sp.ring.nvars
    # f^{p(p−2)}: Frobenius fixes F_p coefficients
    scale = sp.fp2.pth_power().capped_mul(d1, cap)
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
    return _non_qfs_quick(_Splitting(_as_gen_list(f_list)))


def _non_qfs_quick(sp: _Splitting) -> Optional[Certificate]:
    """`non_qfs_quick` on a problem's `_Splitting`."""
    if sp.p >= 3 and in_max_ideal_frobenius_power(sp.fp2, 1):
        return Certificate(NON_QFS, {"tag": TAG_FPM2, "element": sp.fp2})
    if not in_max_ideal_frobenius_power(sp.fp1, 1):
        return None  # F-split, certainly not infinite
    if not any(_product_remainders(sp, sp._unpack(sp.packed_delta1))):
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
    """Check a strict θ-chain g_1 → ... → g_n, which certifies height ≤ n:
    g_1 ∈ I_1, u(F_*g_l) = 0 and θ(F_*g_l) = g_{l+1} for l < n, g_n ∉ m^{[p]}.
    It is the levelled certificate with one record (g_l, g_{l+1}) per level
    and g_n escaping, and `_verify_levels` checks it as one, so a reason
    names a level ("level l: ...") or the escape element g_n."""
    if not chain:
        return _fail(reasons, "empty chain")
    if fault := _polynomials_fault(I.ring, chain, "chain element"):
        return _fail(reasons, fault)
    sp = _Splitting(I.gens)
    pack = sp.ring.codec.pack_terms
    packed = [pack(g.terms) for g in chain]
    levels = [[record] for record in zip(packed, packed[1:])]
    return _verify_levels(sp, levels, packed[-1], budget, reasons)


def _term_multiple(
    ring: PolynomialRing, a: dict[int, int], gens: Sequence[dict[int, int]], budget: Budget
) -> bool:
    """Whether the packed a is c·x^μ·g for one of the packed `gens` g: a
    standard representation of a ∈ (gens) with a one-term cofactor (Cox,
    Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 2 §6), checked
    with no Groebner basis.  On the ring layout, x^μ = lead(a)/lead(g) when
    lead(g) divides lead(a), and c is the ratio of the leading
    coefficients; then every term of c·x^μ·g is compared with a's, one
    budget step each.  False leaves membership open: a may be a combination
    of several generators."""
    if not a:
        return False
    codec, p = ring.codec, ring.field.p
    lead = max(a, key=codec.key)
    for g in gens:
        top = max(g, key=codec.key)
        if len(g) != len(a) or not codec.divides(top, lead):
            continue  # c·x^μ·g has len(g) terms and lead x^μ·lead(g)
        shift, c = lead - top, a[lead] * ring.field.inv(g[top]) % p
        for k, v in g.items():
            budget.tick()
            if a.get(k + shift) != c * v % p:
                break
        else:
            return True
    return False


def _verify_levels(
    sp: _Splitting,
    levels: Sequence[Sequence[tuple[dict[int, int], dict[int, int]]]],
    escape: dict[int, int],
    budget: Optional[Budget],
    reasons: Optional[list[str]],
) -> bool:
    """The one chain check, for both ChainWitness shapes: packed records
    (w, image) level by level from I_1, then an escape element.

    Level l's pool is I_1's generators and level l − 1's nonzero images, so
    (pool) ⊆ I_l.  Each record of level l needs w ∈ (pool), u(F_*w) = 0 and
    θ(F_*w) = image, and the escape element needs to lie in the next pool's
    ideal, level n, and outside m^{[p]} (`_Splitting.escapes`): then
    I_n ⊄ m^{[p]}, so the height is at most n.  Membership is tested one way
    for every element: an image of the level below is a pool generator (every
    g_l, l ≥ 2, of a strict chain, and the solver's escape element); else
    c·x^μ·g for a pool generator g is one product (`_term_multiple`); only
    what fails both, such as a Ker u generator, is reduced modulo the pool's
    Groebner basis, built once per level on first need."""
    if budget is None:
        budget = Budget()
    ring, poly = sp.ring, sp.polynomial
    images: list[dict[int, int]] = []
    # the escape element closes the walk as a record of level n with no image
    for l, records in enumerate([*levels, [(escape, None)]], start=1):
        ideal, nxt = None, []
        for w, image in records:
            if w not in images and not _term_multiple(ring, w, sp.packed_i1 + images, budget):
                ideal = ideal or Ideal(ring, map(poly, sp.packed_i1 + images))
                if not ideal._contains(w, budget):
                    where = f"level {l}:" if image is not None else "escape element"
                    return _fail(reasons, f"{where} {poly(w)} is not in I_{l}")
            if image is None:
                break
            if u := packed_u(w, ring.codec, sp.p):
                return _fail(reasons, f"level {l}: u(F_*g) = {poly(u)} is nonzero")
            if (theta_w := sp.chain_theta(w)) != image:
                return _fail(
                    reasons,
                    f"level {l}: theta image {poly(theta_w)} differs from recorded {poly(image)}",
                )
            if image:
                nxt.append(image)
        images = nxt
    if sp.escapes([escape]) is None:
        return _fail(reasons, f"escape element {poly(escape)} lies in m^[p]")
    return True


def verify_witness_levels(
    I: Ideal,
    cert: Certificate,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """Re-verify a levelled ChainWitness: its `levels` of (w, θ(F_*w)) records
    (ChainStep) and its `escape` element by `_verify_levels`, once their
    form is checked and `escape_level` is one past the last level."""
    if cert.kind != CHAIN_WITNESS:
        return _fail(reasons, f"expected a {CHAIN_WITNESS} certificate, got {cert.kind}")
    sp = _Splitting(I.gens)
    pack = sp.ring.codec.pack_terms
    levels: Sequence[Sequence[ChainStep]] = cert.data.get("levels", ())
    if not isinstance(levels, (list, tuple)) or not all(type(r) in (list, tuple) for r in levels):
        return _fail(reasons, f"levels {levels!r} is not a list of record lists")
    for l, records in enumerate(levels, start=1):
        for rec in records:
            if not isinstance(rec, ChainStep):
                return _fail(reasons, f"level {l}: record {rec!r} is not a ChainStep")
            entries = [rec.element, rec.image]
            if fault := _polynomials_fault(sp.ring, entries, f"level {l}: record entry"):
                return _fail(reasons, fault)
    esc = cert.data.get("escape")
    if fault := _polynomials_fault(sp.ring, [esc], "escape element"):
        return _fail(reasons, fault)
    if cert.data.get("escape_level") != len(levels) + 1:
        return _fail(reasons, "escape level disagrees with the number of recorded levels")
    packed = [[(pack(r.element.terms), pack(r.image.terms)) for r in rs] for rs in levels]
    return _verify_levels(sp, packed, pack(esc.terms), budget, reasons)


def verify_infinity_certificate(
    I: Ideal,
    J: Ideal,
    budget: Optional[Budget] = None,
    reasons: Optional[list[str]] = None,
) -> bool:
    """True iff J is an ideal of I's ring, J ⊇ θ(F_*J ∩ Ker u) + I_1 and J ⊆ m^{[p]}.

    Such a J traps the whole I_n chain: I_1 ⊆ J and inductively
    I_{n+1} = θ(F_*I_n ∩ Ker u) + I_1 ⊆ J, so no I_n escapes m^{[p]} and the
    height is infinite."""
    if J.ring != I.ring:
        return _fail(reasons, f"J is an ideal of {J.ring!r}, not of {I.ring!r}")
    if budget is None:
        budget = Budget()
    sp = _Splitting(I.gens)
    for g in J.gens:
        if not in_max_ideal_frobenius_power(g, 1):
            return _fail(reasons, f"generator {g} of J escapes m^[p]")
    for g in sp.i1:
        if not ideal_membership(g, J, budget):
            return _fail(reasons, f"I_1 generator {g} is not in J")
    # the intersection through its public edge, which the tests hold to
    # the module-engine and direct routes
    pack = sp.ring.codec.pack_terms
    inter = [pack(w.terms) for w in frobenius_module_intersect_keru(J, budget)]
    for w in inter:
        if not J._contains(image := sp.chain_theta(w), budget):
            return _fail(
                reasons, f"theta image {sp.polynomial(image)} (of {sp.polynomial(w)}) is not in J"
            )
    return True


def _verify_non_qfs(I: Ideal, cert: Certificate, reasons: Optional[list[str]]) -> bool:
    """Re-check a NonQFS certificate against its recorded data.

    The recorded element f^{p−2} (tag TAG_FPM2) is recomputed from f and
    must equal what the certificate holds; then each containment is tested
    term by term: f^{p−2} ∈ m^{[p]} (only for p ≥ 3), or f^{p−1} ∈ m^{[p]}
    and every product of condition (2) in m^{[p²]}, recomputed by capped
    products (tag TAG_PRODUCT records nothing else) on Δ₁(f) by the ghost
    route `delta1`, not on the solver's product F·F^{p−1}."""
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
        for k, rest in enumerate(_product_remainders(sp, delta1(sp.f)), start=1):
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
    """Dispatch re-verification on the certificate kind.  A certificate that
    fails, malformed ones included, gives False and, when `reasons` is
    given, the first violated condition; so does one whose input passes the
    exponent limit, which no verifier can re-check."""
    if not isinstance(cert.data, Mapping):
        return _fail(reasons, f"{cert.kind} certificate data {cert.data!r} is not a mapping")
    try:
        if cert.kind == COEFFICIENT_WITNESS:
            return verify_coefficient_witness(list(I.gens), cert, budget, reasons)
        if cert.kind == CHAIN_WITNESS:
            if "chain" in cert.data:
                return verify_witness_chain(I, cert.data["chain"], budget, reasons)
            return verify_witness_levels(I, cert, budget, reasons)
        if cert.kind == I_INFTY_STABILIZED:
            if "generators" not in cert.data:
                return _fail(reasons, f"{cert.kind} certificate has no generators")
            gens = cert.data["generators"]
            if fault := _polynomials_fault(I.ring, gens, "generator"):
                return _fail(reasons, fault)
            return verify_infinity_certificate(I, Ideal(I.ring, gens), budget, reasons)
        if cert.kind == NON_QFS:
            return _verify_non_qfs(I, cert, reasons)
    except ExponentOverflowError as exc:
        return _fail(
            reasons,
            f"{cert.kind} cannot be re-verified within the exponent limit {EXPONENT_LIMIT}: {exc}",
        )
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
    which verify_witness_chain accepts against (fx, fy).  It is formed as
    the I_n chain forms its images, on the joint `_Splitting` in the ring
    layout: `packed_u` tests each w_l for Ker u (one outside raises
    RingError), `_Splitting.chain_theta` steps, `_Splitting.escapes` tests
    the last element against m^{[p]} (one inside raises RingError), and the
    chain is unpacked once, at the end.
    The driving identity (blocks disjoint, u(F_*g_l) = 0) is

        θ(F_*(g ⊗ b)) = θ_X(F_*g) ⊗ f_Y^{p−1}·u_Y(F_*b),

    so the second tensor factor runs through u-iterates of h scaled by
    f_Y^{p−1}.  Without fx, fy the raw tensor pairs g_i ⊗ u^{i−1}(F^{i−1}_*h)
    are returned; they witness the same height bound but only through the
    level conditions of the general theory, not as a literal θ-chain.  Only
    one of fx, fy raises RingError.
    """
    if (fx is None) != (fy is None):
        raise RingError("fx and fy go together: give both factor equations or neither")
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
    if fx is not None:
        sp = _Splitting([embed_left(fx, joint), embed_right(fy, joint)])
        codec = joint.codec
        chain = [codec.pack_terms((embed_left(gs[0], joint) * embed_right(h, joint)).terms)]
        for l in range(1, n):
            if packed_u(chain[-1], codec, sp.p):
                raise RingError(f"product chain element {l} has nonzero u-image")
            chain.append(sp.chain_theta(chain[-1]))
        if sp.escapes(chain[-1:]) is None:
            raise RingError(
                f"product chain collapses: final element {sp.polynomial(chain[-1])} lies in m^[p]"
            )
        return [sp.polynomial(w) for w in chain]
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
    (e) the chain read on past n_max from where (d) stopped (from I_1 after
    (b)), to its first escape, Finite(h) with h > n_max, or to its fixed
    point I_∞ inside m^{[p]}, Infinite; so auto never returns LowerBound,
    and n_max bounds only (b) and (d).  Forced strategies: "graded" and
    "local" stop at n_max; "qfs" reads the chain from I_1 with no cutoff,
    as (e) does.  Raises RingError for a system with no generator or a
    zero one, and for n_max < 1.
    """
    _require_chain_length(n_max)
    gens = _as_gen_list(system)
    if budget is None:
        budget = Budget()
    t0 = time.perf_counter()

    def finish(res: HeightResult) -> HeightResult:
        return _stamped(res, budget, t0)

    if strategy == "local" and gens:
        # the local chain's entry builds the call's one splitting
        return finish(height_local(Ideal(gens[0].ring, gens), n_max, budget))
    # one splitting serves every stage; it refuses an empty or zero system
    sp = _Splitting(gens)
    g = grading if grading is not None else Grading.standard(sp.ring.nvars)

    if strategy == "graded":
        _require_graded(gens, g)
        return finish(_graded_cy(sp, g, n_max, budget))
    if strategy == "qfs":
        return finish(_chain_result(_Chain(sp, budget), None, "i-infinity"))
    if strategy != "auto":
        raise RingError(f"unknown strategy {strategy!r}")

    # (a) F-split?
    if not in_max_ideal_frobenius_power(sp.fp1, 1):
        cert = Certificate(CHAIN_WITNESS, {"chain": [sp.fp1]})
        return finish(HeightResult(FINITE, 1, cert, route="fedder"))

    # (b) graded engine
    graded_result: Optional[HeightResult] = None
    if graded_cy_applicable(gens, g) is None:
        graded_result = _graded_cy(sp, g, n_max, budget)
        if graded_result.verdict in (FINITE, UNKNOWN):
            return finish(graded_result)

    # (c) quick infinite-height tests
    quick = _non_qfs_quick(sp)
    if quick is not None:
        return finish(HeightResult(INFINITE, None, quick, route="quick-tests"))

    # (d) the local chain — unless the graded engine already exhausted n_max
    chain = _Chain(sp, budget)
    if graded_result is None:
        local = _chain_result(chain, n_max, "local-chain")
        if local.verdict != LOWER_BOUND:
            return finish(local)

    # (e) the chain read on with no cutoff, from (d)'s last level, to its
    # first escape (a height past n_max) or its fixed point inside m^[p]
    return finish(_chain_result(chain, None, "i-infinity"))
