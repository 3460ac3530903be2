"""Independent oracles used to cross-check the package.

Everything here is deliberately implemented *without* the package's own
arithmetic paths:

* length-2 Witt vectors via exact integer ghost components,
* length-2 Witt vector arithmetic over F_p[x] by the classical sum and
  product laws, and Δ₁ by folding Teichmüller lifts through it,
* Δ₁ by the closed multinomial formula,
* Groebner bases / ideal membership via sympy over GF(p), and colon
  ideals by lex elimination of an auxiliary variable in sympy,
* the trace-like map u by raw coefficient extraction,
* products by the loop over term pairs on exponent tuples, capped products
  and the graded coefficient by full products truncated afterwards, and
  stratum polynomials at a point term by term,
* F_*h in p-basis coordinates, and F_*I ∩ Ker(u) by the literal rank-p^N
  module elimination and by the module engine on the syzygies of the
  u-images (the package's route before the Schreyer run),
* elliptic curves via the classical discriminant and brute-force point
  counts over the projective plane.

The reference routes built from the package's public maps sit beside them:
the height-2 splitting section ψ₂, the I_n chain of the local engine, the
trap-ideal check of IInftyStabilized certificates,
and the bracket power I^{[p^n]} that forms Fedder's colon (I^{[p]} : I).

Test modules freeze expected values against these, never the other way
around.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import sympy as sp

from qfsplit import (
    Budget,
    FreeModuleVector,
    HomogeneityError,
    Ideal,
    Polynomial,
    PolynomialRing,
    RingError,
    delta1,
    frobenius_module_intersect_keru,
    ideal_equal,
    ideal_membership,
    iterated_u,
    theta,
    u_map,
)
from qfsplit.groebner import module_buchberger
from qfsplit.rings import grevlex_key

# ---------------------------------------------------------------------------
# integer polynomials as {exponent-tuple: int} dicts (exact, no modulus)
# ---------------------------------------------------------------------------


def zlift(f: Polynomial) -> dict[tuple[int, ...], int]:
    """Lift to ZZ[x] with coefficient representatives in [0, p)."""
    return {e: c % f.ring.field.p for e, c in f.terms.items() if c % f.ring.field.p}


def zadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def zscale(a: dict, k: int) -> dict:
    return {e: c * k for e, c in a.items()} if k else {}


def zmul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
            if not out[e]:
                del out[e]
    return out


def zpow(a: dict, n: int) -> dict:
    out: dict = {}
    base = dict(a)
    first = True
    while n:
        if n & 1:
            out = dict(base) if first else zmul(out, base)
            first = False
        n >>= 1
        if n:
            base = zmul(base, base)
    if first:
        raise ValueError("zpow with n = 0 needs a ring to supply 1")
    return out


def zdiv_exact(a: dict, k: int) -> dict:
    for e, c in a.items():
        if c % k:
            raise ValueError(f"coefficient {c} at {e} not divisible by {k}")
    return {e: c // k for e, c in a.items()}


def zreduce(a: dict, ring: PolynomialRing) -> Polynomial:
    return ring.from_terms({e: c % ring.field.p for e, c in a.items()})


def w2_add_ghost(
    x0: Polynomial, x1: Polynomial, y0: Polynomial, y1: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Add (x0, x1) + (y0, y1) in W2 via exact ghost components over ZZ.

    ghost(a0, a1) = (a0, a0^p + p*a1); addition is componentwise on ghosts,
    and the second coordinate of the sum is recovered by exact division.
    """
    ring = x0.ring
    p = ring.field.p
    a0, a1, b0, b1 = zlift(x0), zlift(x1), zlift(y0), zlift(y1)
    s0 = zadd(a0, b0)
    # s1 = a1 + b1 + (a0^p + b0^p - (a0+b0)^p)/p  (exact in ZZ[x])
    num = zadd(zpow(a0, p) if a0 else {}, zpow(b0, p) if b0 else {})
    if s0:
        num = zadd(num, zscale(zpow(s0, p), -1))
    s1 = zadd(zadd(a1, b1), zdiv_exact(num, p))
    return zreduce(s0, ring), zreduce(s1, ring)


def w2_mul_ghost(
    x0: Polynomial, x1: Polynomial, y0: Polynomial, y1: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Multiply (x0, x1) * (y0, y1) in W2 via exact ghost components: the
    product ghost is componentwise, (a0*b0, (a0^p + p*a1)*(b0^p + p*b1))."""
    ring = x0.ring
    p = ring.field.p
    a0, a1, b0, b1 = zlift(x0), zlift(x1), zlift(y0), zlift(y1)
    m0 = zmul(a0, b0)
    g1 = zadd(zpow(a0, p) if a0 else {}, zscale(a1, p))
    h1 = zadd(zpow(b0, p) if b0 else {}, zscale(b1, p))
    # recover: m1 = (g1*h1 - (a0*b0)^p) / p  (exact in ZZ[x])
    num = zmul(g1, h1)
    if m0:
        num = zadd(num, zscale(zpow(m0, p), -1))
    return zreduce(m0, ring), zreduce(zdiv_exact(num, p), ring)


def delta1_ghost(f: Polynomial, summands: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """Closed-form carry: delta1(f) = (f^p - sum_i t_i^p) / p mod p,

    where the t_i are the summands (the terms of f by default) lifted to ZZ
    with coefficients in [0, p).  Independent of the Witt-vector fold.
    """
    ring = f.ring
    p = ring.field.p
    if summands is None:
        parts = [ring.from_terms({e: c}) for e, c in f.sorted_terms()]
    else:
        parts = list(summands)
    lifted = [zlift(t) for t in parts]
    total: dict = {}
    for t in lifted:
        total = zadd(total, t)
    acc = zpow(total, p) if total else {}
    for t in lifted:
        if t:
            acc = zadd(acc, zscale(zpow(t, p), -1))
    return zreduce(zdiv_exact(acc, p), ring)


def _compositions(total: int, parts: int, bound: int):
    """All tuples of length `parts` with entries in [0, bound] summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bound), -1, -1):
        for rest in _compositions(total - first, parts - 1, bound):
            yield (first,) + rest


def delta1_multinomial(a: Polynomial, summands: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """Direct evaluation of the closed multinomial formula for Δ₁.

    Exponential in the number of summands (default: the terms of a); meant
    for small decompositions (a handful of summands).
    """
    ring = a.ring
    p = ring.field.p
    if summands is None:
        summands = [ring.from_terms({e: c}) for e, c in a.sorted_terms()]
    r = len(summands)
    out = ring.zero
    for alpha in _compositions(p, r, p - 1):
        coeff = (math.factorial(p) // math.prod(math.factorial(k) for k in alpha) // p) % p
        if not coeff:
            continue
        term = ring.constant(coeff)
        for s, k in zip(summands, alpha):
            if k:
                term = term * s**k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# length-2 Witt vectors over F_p[x] and the Δ₁ fold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class W2Element:
    """A length-2 Witt vector (w0, w1) with components in one ring."""

    w0: Polynomial
    w1: Polynomial

    def __post_init__(self):
        if self.w0.ring != self.w1.ring:
            raise RingError("W2 components must live in the same ring")

    @property
    def ring(self) -> PolynomialRing:
        return self.w0.ring


def teichmuller(a: Polynomial) -> W2Element:
    return W2Element(a, a.ring.zero)


def w2_zero(ring: PolynomialRing) -> W2Element:
    return W2Element(ring.zero, ring.zero)


@functools.lru_cache(maxsize=None)
def _carry_coefficients(p: int) -> tuple[int, ...]:
    """(1/p)·binom(p, i) mod p for i = 1..p−1 (exact integer division)."""
    return tuple((math.comb(p, i) // p) % p for i in range(1, p))


def w2_add(x: W2Element, y: W2Element) -> W2Element:
    """Witt vector addition:

    (x0, x1) + (y0, y1) = (x0+y0, x1+y1 − Σ_{i=1}^{p−1} (1/p)·binom(p,i)·x0^i·y0^(p−i)).
    """
    ring = x.ring
    if ring != y.ring:
        raise RingError("W2 addition across different rings")
    p = ring.field.p
    w0 = x.w0 + y.w0
    carry = ring.zero
    if x.w0 and y.w0:
        coeffs = _carry_coefficients(p)
        xpow = ring.one
        ypows = [ring.one]
        for _ in range(p - 1):
            ypows.append(ypows[-1] * y.w0)
        for i in range(1, p):
            xpow = xpow * x.w0
            c = coeffs[i - 1]
            if c:
                carry = carry + (xpow * ypows[p - i]).scale(c)
    w1 = x.w1 + y.w1 - carry
    return W2Element(w0, w1)


def w2_neg(x: W2Element) -> W2Element:
    """Additive inverse.  For odd p this is componentwise; at p = 2 the second
    component picks up the square of the first."""
    if x.ring.field.p == 2:
        return W2Element(x.w0, x.w1 + x.w0 * x.w0)
    return W2Element(-x.w0, -x.w1)


def w2_sub(x: W2Element, y: W2Element) -> W2Element:
    return w2_add(x, w2_neg(y))


def w2_mul(x: W2Element, y: W2Element) -> W2Element:
    """Witt vector multiplication:

    (x0, x1)·(y0, y1) = (x0·y0, x0^p·y1 + y0^p·x1).
    """
    if x.ring != y.ring:
        raise RingError("W2 multiplication across different rings")
    return W2Element(
        x.w0 * y.w0,
        x.w0.pth_power() * y.w1 + y.w0.pth_power() * x.w1,
    )


def delta1_fold(a: Polynomial, summands: Optional[Sequence[Polynomial]] = None) -> Polynomial:
    """Δ₁ by folding the Teichmüller lifts of the summands (default: the
    terms of a) through w2_add; by the defining identity the accumulated
    second component is −Δ₁(a).  One Witt addition per summand."""
    ring = a.ring
    if summands is None:
        summands = [ring.from_terms({e: c}) for e, c in a.sorted_terms()]
    else:
        total = ring.zero
        for s in summands:
            total = total + s
        if total != a:
            raise RingError("summands do not add up to the polynomial")
    acc = w2_zero(ring)
    for s in summands:
        acc = w2_add(acc, teichmuller(s))
    return -acc.w1


# ---------------------------------------------------------------------------
# u by coefficient surgery, and bracket powers
# ---------------------------------------------------------------------------


def u_oracle(h: Polynomial) -> Polynomial:
    """u(F_*h): keep monomials with exponents = p-1 mod p, strip the shift.

    Frobenius is the identity on the prime field, so coefficients survive
    unchanged.
    """
    ring = h.ring
    p = ring.field.p
    out: dict[tuple[int, ...], int] = {}
    for e, c in h.terms.items():
        if all(x % p == p - 1 for x in e):
            out[tuple((x - (p - 1)) // p for x in e)] = c
    return ring.from_terms(out)


def in_bracket_m_oracle(h: Polynomial, n: int) -> bool:
    """h in m^[p^n]: every monomial has some exponent >= p^n."""
    q = h.ring.field.p ** n
    return all(any(x >= q for x in e) for e in h.terms)


def bracket_power(I, n: int):
    """I^[p^n]: the ideal generated by g^(p^n) for the generators g of I.

    Independent of the chosen generators.  Accepts an Ideal (returning an
    Ideal) or a plain iterable of polynomials (returning a list).  Frobenius
    fixes F_p coefficients, so each g^(p^n) is a termwise exponent scaling.
    """
    if n < 0:
        raise RingError("negative bracket power")
    if isinstance(I, Ideal):
        return Ideal(I.ring, [g.pth_power(n) for g in I.gens])
    return [g.pth_power(n) for g in I]


# ---------------------------------------------------------------------------
# sympy bridge (GF(p) Groebner bases)
# ---------------------------------------------------------------------------


def sympy_symbols(ring: PolynomialRing) -> tuple[sp.Symbol, ...]:
    return sp.symbols(ring.variables)


def to_sympy(f: Polynomial, syms: Optional[Sequence[sp.Symbol]] = None) -> sp.Expr:
    if syms is None:
        syms = sympy_symbols(f.ring)
    acc = sp.Integer(0)
    for e, c in f.terms.items():
        term = sp.Integer(c)
        for s, k in zip(syms, e):
            if k:
                term *= s**k
        acc += term
    return acc


def canonical_terms(expr: sp.Expr, syms: Sequence[sp.Symbol], p: int) -> frozenset:
    poly = sp.Poly(expr, *syms, modulus=p, symmetric=False)
    return frozenset((tuple(m), int(c) % p) for m, c in poly.terms() if int(c) % p)


def sympy_groebner(
    gens: Iterable[Polynomial], ring: PolynomialRing
) -> tuple[sp.polys.polytools.GroebnerBasis, tuple[sp.Symbol, ...]]:
    syms = sympy_symbols(ring)
    exprs = [to_sympy(g, syms) for g in gens if not g.is_zero()]
    G = sp.groebner(exprs, *syms, modulus=ring.field.p, order="grevlex")
    return G, syms


def sympy_contains(f: Polynomial, gens: Iterable[Polynomial], ring: PolynomialRing) -> bool:
    G, syms = sympy_groebner(gens, ring)
    return G.contains(to_sympy(f, syms))


def sympy_groebner_canonical(gens: Iterable[Polynomial], ring: PolynomialRing) -> set[frozenset]:
    G, syms = sympy_groebner(gens, ring)
    return {canonical_terms(g, syms, ring.field.p) for g in G.exprs}


def mine_canonical(polys: Iterable[Polynomial], ring: PolynomialRing) -> set[frozenset]:
    syms = sympy_symbols(ring)
    return {canonical_terms(to_sympy(g, syms), syms, ring.field.p) for g in polys}


def sympy_ideal_equal(I: Ideal, J: Ideal) -> bool:
    ring = I.ring
    return sympy_groebner_canonical(I.gens, ring) == sympy_groebner_canonical(J.gens, ring)


def sympy_colon(I: Ideal, J: Ideal) -> set[frozenset]:
    """(I : J) for J ≠ 0, as the canonical terms of its reduced grevlex basis.

    Textbook elimination with an auxiliary variable t, ordered lex with t
    first: A ∩ B = (t·A + (1−t)·B) ∩ S, then (I : g) = (I ∩ (g))/g and
    (I : J) = ∩_g (I : g) over the generators g of J.
    """
    ring = I.ring
    p = ring.field.p
    syms = sympy_symbols(ring)
    t = sp.Dummy("t")

    def intersect(A: list, B: list) -> list:
        gens = [t * a for a in A] + [(1 - t) * b for b in B]
        G = sp.groebner(gens, t, *syms, modulus=p, order="lex")
        return [g for g in G.exprs if not g.has(t)]

    I_exprs = [to_sympy(f, syms) for f in I.gens]
    colon = None
    for g in J.gens:
        gs = to_sympy(g, syms)
        quotients = []
        for h in intersect(I_exprs, [gs]):
            q, r = sp.div(h, gs, *syms, modulus=p)
            assert r == 0, "a member of (g) is not a multiple of g"
            quotients.append(q)
        colon = quotients if colon is None else intersect(colon, quotients)
    return {canonical_terms(g, syms, p) for g in sp.groebner(colon, *syms, modulus=p, order="grevlex").exprs}


# ---------------------------------------------------------------------------
# p-basis coordinates of F_*h, and F_*I ∩ Ker(u) by the literal rank-p^N
# elimination
# ---------------------------------------------------------------------------


@dataclass
class FrobCoordinates:
    """Coordinates of F_*h in the monomial p-basis: residue α ↦ h_α."""

    ring: PolynomialRing
    components: dict[tuple[int, ...], Polynomial]


def frobenius_decompose(h: Polynomial) -> FrobCoordinates:
    """Split h into p-basis coordinates: term c·x^e goes to component e mod p
    as c·x^((e - e mod p)/p).  Coefficients carry over unchanged (c^(1/p) = c)."""
    ring = h.ring
    p = ring.field.p
    comps: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for e, c in h.terms.items():
        alpha = tuple(x % p for x in e)
        q = tuple(x // p for x in e)
        comps.setdefault(alpha, {})[q] = c
    return FrobCoordinates(ring, {a: Polynomial(ring, t) for a, t in comps.items()})


def frobenius_compose(fc: FrobCoordinates) -> Polynomial:
    """Inverse of frobenius_decompose: Σ_α h_α^p · x^α."""
    out = fc.ring.zero
    for alpha, h in fc.components.items():
        out = out + h.pth_power().mul_term(alpha)
    return out


def frobenius_module_intersect_keru_direct(I: Ideal) -> list[Polynomial]:
    """F_*I ∩ Ker(u) as a position-over-term elimination on S^(p^N).

    Positions index the p-basis residues with the u-residue (p−1,...,p−1)
    designated top (position 0).  Exponential in N; the package computes the
    same module through syzygies on a module of rank 1 + #generators.
    """
    ring = I.ring
    p = ring.field.p
    top = (p - 1,) * ring.nvars
    residues = [top] + sorted(
        (r for r in itertools.product(range(p), repeat=ring.nvars) if r != top),
        key=grevlex_key,
        reverse=True,
    )
    pos_of = {r: i for i, r in enumerate(residues)}
    mvecs = []
    for g in I.groebner():
        for alpha in itertools.product(range(p), repeat=ring.nvars):
            coords = frobenius_decompose(g.mul_term(alpha))
            mvecs.append(
                FreeModuleVector(ring, {pos_of[r]: c for r, c in coords.components.items()})
            )
    out = []
    for v in module_buchberger(mvecs):
        if 0 in v.components:
            continue
        w_elem = ring.zero
        for pos, c in v.components.items():
            w_elem = w_elem + c.pth_power().mul_term(residues[pos])
        if w_elem:
            out.append(w_elem)
    return out


def frobenius_module_intersect_keru_module(
    I: Ideal, budget: Optional[Budget] = None
) -> list[Polynomial]:
    """F_*I ∩ Ker(u) as a syzygy module on the module engine.

    Runs `module_buchberger` to a full reduced basis of the vectors
    (u(F_*t_j), e_j) ⊂ S^(1+k), position 0 on top, for the nonzero images of
    the translates t_j = x^α·g (g in the basis of I, α ∈ [0, p−1]^N), and
    keeps the members with vanishing position 0; each gives
    w = Σ c_j^p·t_j.  The translates with u-image zero are emitted directly.
    The package's Schreyer route must give the same module.
    """
    ring = I.ring
    p = ring.field.p
    if budget is None:
        budget = Budget()
    direct: list[Polynomial] = []
    moved: list[tuple[Polynomial, Polynomial]] = []
    for g in I.groebner(budget):
        for alpha in itertools.product(range(p), repeat=ring.nvars):
            tg = g.mul_term(alpha)
            w = u_map(tg)
            if w:
                moved.append((tg, w))
            else:
                direct.append(tg)
    mvecs = [FreeModuleVector(ring, {0: w, j + 1: ring.one}) for j, (_, w) in enumerate(moved)]
    elements = []
    for v in module_buchberger(mvecs, budget=budget):
        if 0 in v.components:
            continue
        w_elem = ring.zero
        for pos, c in v.components.items():
            w_elem = w_elem + c.pth_power() * moved[pos - 1][0]
        if w_elem:
            elements.append(w_elem)
    return list(dict.fromkeys(direct + elements))


# ---------------------------------------------------------------------------
# reference routes built from the public maps
# ---------------------------------------------------------------------------


def psi2_eval(
    f1: Polynomial,
    f2: Polynomial,
    elem: Union[W2Element, Polynomial],
) -> Polynomial:
    """Evaluate the height-2 splitting section ψ_{f1,f2} on a W₂ element.

    On Teichmüller and Verschiebung parts:

        ψ(F_*[a])  = u(F_*(f1·a)) + u²(F²_*(f2·Δ₁(a)))
        ψ(F_*V[b]) = u²(F²_*(f2·b))

    and additively on a general (a, b) = [a] + V[b].  A Polynomial argument is
    shorthand for its Teichmüller lift.  Coefficients must lie in the prime
    field for the p-th root normalizations to collapse.
    """
    if isinstance(elem, Polynomial):
        elem = W2Element(elem, elem.ring.zero)
    a, b = elem.w0, elem.w1
    out = a.ring.zero
    if a:
        out = out + u_map(f1 * a)
        da = delta1(a)
        if da:
            out = out + iterated_u(f2 * da, 2)
    if b:
        out = out + iterated_u(f2 * b, 2)
    return out


def local_chain_ideals(
    I: Ideal, n_max: int, keru=frobenius_module_intersect_keru
) -> list[Ideal]:
    """The ideals I_1, ..., I_k (k ≤ n_max) of the local engine, stopping at
    the first I_{k+1} = I_k.

    I_1 = (f^{p−1}) + ((f'_i)^p) for f = Π f'_i, and
    I_{n+1} = θ(F_*I_n ∩ Ker u) + I_1 with θ's multiplier Δ₁(f^{p−1});
    `keru` computes the generators of F_*I_n ∩ Ker u.
    """
    ring = I.ring
    f = ring.one
    for g in I.gens:
        f = f * g
    fp1 = f ** (ring.field.p - 1)
    delta = delta1(fp1)
    i1 = [fp1] + [g.pth_power() for g in I.gens]
    out = [Ideal(ring, i1)]
    for _ in range(1, n_max):
        images = [theta(w, delta) for w in keru(out[-1])]
        nxt = Ideal(ring, i1 + images)
        if ideal_equal(out[-1], nxt):
            break
        out.append(nxt)
    return out


def trap_fault(I: Ideal, J: Ideal) -> Optional[str]:
    """Why J does not trap the I_n chain of I, if it does not: J ⊆ m^{[p]}
    term by term, I_1 ⊆ J, and θ(F_*w) ∈ J for every w of F_*J ∩ Ker u.
    The intersection comes from the module engine
    (`frobenius_module_intersect_keru_module`) and θ by the Δ route
    theta(w, delta1(f^{p−1})), so neither the solver's Schreyer run nor its
    θ through Δ₁(f) is read; membership uses `ideal_membership`."""
    ring = I.ring
    f = math.prod(I.gens[1:], start=I.gens[0])
    fp1 = f ** (ring.field.p - 1)
    for g in J.gens:
        if not in_bracket_m_oracle(g, 1):
            return f"generator {g} of J escapes m^[p]"
    for g in [fp1] + [g.pth_power() for g in I.gens]:
        if not ideal_membership(g, J):
            return f"I_1 generator {g} is not in J"
    delta = delta1(fp1)
    for w in frobenius_module_intersect_keru_module(J):
        if not ideal_membership(image := theta(w, delta), J):
            return f"theta image {image} (of {w}) is not in J"
    return None


# ---------------------------------------------------------------------------
# products, capped products, the graded coefficient and stratum polynomials,
# termwise
# ---------------------------------------------------------------------------


def product_reference(f: Polynomial, g: Polynomial) -> Polynomial:
    """f·g by the loop over term pairs on exponent tuples, with no packing
    and no exponent check: the package's product before it moved onto the
    packed kernel."""
    p = f.ring.field.p
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(map(int.__add__, ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return f.ring.from_terms(out)


def homogeneous_reference(a: Polynomial, g) -> tuple[int, ...]:
    """`rings.check_homogeneous` by the degree tuple of every term, as the
    package computed it before it compared one weighted sum per row: the
    common multidegree, or HomogeneityError naming the grevlex-first term
    and the first later term of another degree."""
    if not a.terms:
        return (0,) * len(g.rows)
    terms = [e for e, _ in a.sorted_terms()]
    d0 = g.degree(terms[0])
    misfit = next((e for e in terms if g.degree(e) != d0), None)
    if misfit is None:
        return d0
    raise HomogeneityError(
        f"not homogeneous: term {a.ring.monomial(terms[0])} has degree {d0} "
        f"but term {a.ring.monomial(misfit)} has degree {g.degree(misfit)}"
    )


def truncated_product(f: Polynomial, g: Polynomial, cap: Sequence[Optional[int]]) -> Polynomial:
    """The full product f·g with every term over the per-variable cap dropped
    (cap[i] = None: variable i unbounded)."""
    return f.ring.from_terms(
        {
            e: c
            for e, c in (f * g).terms.items()
            if all(b is None or x <= b for x, b in zip(e, cap))
        }
    )


def graded_cy_coefficient_product(f_list: Sequence[Polynomial], n: int) -> int:
    """The (x_1⋯x_N)^{p^n−1} coefficient of f_n = f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1},
    read off the whole product, truncated at p^n−1 after each factor."""
    ring = f_list[0].ring
    p = ring.field.p
    f = ring.one
    for g in f_list:
        f = f * g
    fp1 = f ** (p - 1)
    cap = (p**n - 1,) * ring.nvars
    acc = ring.one
    if n >= 2:
        delta = delta1(fp1)
        for _ in range((p ** (n - 1) - 1) // (p - 1)):
            acc = truncated_product(acc, delta, cap)
    return truncated_product(fp1, acc, cap).terms.get(cap, 0)


def evaluate_coefficients(nx: int, poly: Polynomial, values: Sequence[int]) -> int:
    """An x-free polynomial of F_p[x_1..x_nx, a_1..a_M] at a-values, term by
    term; errors if any x survives."""
    p = poly.ring.field.p
    total = 0
    for exps, c in poly.terms.items():
        if any(exps[:nx]):
            raise RingError("polynomial is not free of the x-variables")
        term = c
        for e, v in zip(exps[nx:], values):
            term = term * pow(v % p, e, p) % p
        total = (total + term) % p
    return total


# ---------------------------------------------------------------------------
# elliptic curves over F_p: discriminant + brute-force point counts
# ---------------------------------------------------------------------------


def weierstrass_discriminant(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> int:
    """Discriminant of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, mod p.

    The classical integer b-quantities stay valid in every characteristic.
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return disc % p


def weierstrass_cubic(ring: PolynomialRing, coeffs: Sequence[int]) -> Polynomial:
    """Homogeneous cubic in ring = F_p[x, y, z] for (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = coeffs
    text = (
        f"y^2*z + {a1}*x*y*z + {a3}*y*z^2 + "
        f"{- 1 % ring.field.p}*x^3 + {-a2 % ring.field.p}*x^2*z + "
        f"{-a4 % ring.field.p}*x*z^2 + {-a6 % ring.field.p}*z^3"
    )
    return ring.parse(text)


def count_projective_zeros(f: Polynomial) -> int:
    """|{P in P^{N-1}(F_p) : f(P) = 0}| by enumerating normalized reps."""
    ring = f.ring
    p = ring.field.p
    n = len(ring.variables)
    count = 0
    for lead in range(n):
        # representative (0, ..., 0, 1, t_{lead+1}, ..., t_{n-1})
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            point = (0,) * lead + (1,) + tail
            total = 0
            for e, c in f.terms.items():
                v = c
                for b, k in zip(point, e):
                    if k:
                        v = v * pow(b, k, p) if b else 0
                total += v
            if total % p == 0:
                count += 1
    return count


def is_supersingular(coeffs: Sequence[int], p: int, cubic: Polynomial) -> bool:
    """a_p = p + 1 - #E(F_p); over the prime field, supersingular iff p | a_p."""
    npoints = count_projective_zeros(cubic)
    a_p = p + 1 - npoints
    return a_p % p == 0


def random_smooth_cubic(rng, ring: PolynomialRing) -> tuple[tuple[int, ...], Polynomial]:
    p = ring.field.p
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(5))
        if weierstrass_discriminant(*coeffs, p):
            return coeffs, weierstrass_cubic(ring, coeffs)
