"""Buchberger engine for ideals and free modules over F_p[x_1..x_N].

Grevlex is the only monomial order.  Everything is deterministic: the pair
queue is processed in normal-selection order (smallest lcm first, index
tie-breaks), and reduced bases are returned sorted by leading term.  Long
computations are guarded by a step budget (see `Budget`), overridable
through the QFSPLIT_GB_BUDGET environment variable.

Both kernels the criteria need are syzygies.  F_*I ∩ Ker(u)
(`frobenius_module_intersect_keru`) comes from the syzygies of the u-images
of I's translates, which one Buchberger run on the images alone yields when
each basis element carries its cofactors (Schreyer's theorem; `_syzygies`).
The module layer, which orders terms position over term (the lowest
position on top, then grevlex within it, so every position is an
elimination block), serves only the colon ideal (I : J) (`colon_ideal`) of
the regular-sequence check.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Callable, Iterable, Optional, Sequence

from .rings import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Polynomial,
    PolynomialRing,
    RingError,
    grevlex_key,
)
from .frobenius import u_map

DEFAULT_GB_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """A Groebner computation ran past its step budget."""

    def __init__(self, steps: int):
        super().__init__(f"Groebner step budget exhausted after {steps} steps")
        self.steps = steps


class Budget:
    """Shared step counter that raises BudgetExceededError past `limit` steps.

    `limit=None` takes the limit from the QFSPLIT_GB_BUDGET environment
    variable, or DEFAULT_GB_BUDGET when that is unset."""

    __slots__ = ("limit", "steps")

    def __init__(self, limit: Optional[int] = None):
        if limit is None:
            env = os.environ.get("QFSPLIT_GB_BUDGET")
            limit = int(env) if env else DEFAULT_GB_BUDGET
        self.limit = limit
        self.steps = 0

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.limit:
            raise BudgetExceededError(self.steps)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(int.__le__, a, b))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(int.__sub__, a, b))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _sub_multiple(
    acc: dict[tuple[int, ...], int],
    mult: int,
    shift: tuple[int, ...],
    terms: dict[tuple[int, ...], int],
    p: int,
) -> None:
    """acc −= mult·x^shift·terms over F_p, in place."""
    for eg, cg in terms.items():
        ep = tuple(map(int.__add__, eg, shift))
        s = (acc.get(ep, 0) - mult * cg) % p
        if s:
            acc[ep] = s
        elif ep in acc:
            del acc[ep]


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal of F_p[x] presented by generators, with a cached reduced
    grevlex Groebner basis."""

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolynomialRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise RingError("ideal generator from a different ring")
        self._gb: Optional[tuple[Polynomial, ...]] = None

    @classmethod
    def from_reduced_basis(cls, ring: PolynomialRing, basis: Sequence[Polynomial]) -> "Ideal":
        """The ideal presented by `basis`, a reduced Groebner basis as
        `groebner()` returns it, which it keeps as its cached basis."""
        ideal = cls(ring, basis)
        ideal._gb = ideal.gens
        return ideal

    def groebner(self, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, computed on first call (its steps tick
        that call's budget) and cached on this object.  The I_n chain relies
        on the cache: pass the same `Ideal` on, rather than a new one built
        from its generators, and each level's basis is computed once."""
        if self._gb is None:
            self._gb = tuple(buchberger(list(self.gens), budget=budget))
        return self._gb

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def normal_form(
    a: Polynomial, G: Sequence[Polynomial], budget: Optional[Budget] = None
) -> Polynomial:
    """Full remainder of a under multivariate division by G."""
    ring = a.ring
    p = ring.field.p
    field = ring.field
    basis = []
    for g in G:
        if g:
            le, lc = g.leading_term()
            basis.append((le, field.inv(lc), g))
    work = dict(a.terms)
    rem: dict[tuple[int, ...], int] = {}
    while work:
        if budget is not None:
            budget.tick()
        e = max(work, key=grevlex_key)
        c = work[e]
        for le, inv_lc, g in basis:
            if _divides(le, e):
                _sub_multiple(work, c * inv_lc % p, _sub(e, le), g.terms, p)
                break
        else:
            rem[e] = c
            del work[e]
    return Polynomial(ring, rem)


def _s_poly(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.ring.field
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    m = _lcm(ef, eg)
    return f.mul_term(_sub(m, ef), field.inv(cf)) - g.mul_term(_sub(m, eg), field.inv(cg))


def _pair_loop(
    leads: list[tuple[int, ...]],
    reduce_pair: Callable[[int, int], Optional[tuple[int, ...]]],
    budget: Budget,
    product_criterion: bool,
) -> None:
    """Work off the S-pairs of a basis in normal-selection order.

    `leads` holds the leading exponents of the basis.  `reduce_pair(i, j)`
    reduces the S-pair of elements i and j and returns the leading exponent
    of the element it appended to the basis, or None; that exponent joins
    `leads` and its pairs join the queue.  Each popped pair ticks the budget
    once.  The chain criterion prunes a pair whose lcm is covered by the
    leading term of a third element whose pairs with both are done; with
    `product_criterion`, pairs with coprime leading monomials are skipped.
    """
    # heap of (key(lcm), i, j, lcm): (i, j) makes every key distinct, so pops
    # come in the same order as a min() over the pending pairs would give
    queue: list = []

    def add_pairs(j: int) -> None:
        for i in range(j):
            m = _lcm(leads[i], leads[j])
            heapq.heappush(queue, (grevlex_key(m), i, j, m))

    for j in range(len(leads)):
        add_pairs(j)
    done: set[tuple[int, int]] = set()
    while queue:
        _, i, j, m = heapq.heappop(queue)
        done.add((i, j))
        budget.tick()
        li, lj = leads[i], leads[j]
        # product criterion
        if product_criterion and all(a + b == c for a, b, c in zip(li, lj, m)):
            continue
        # chain criterion
        skip = False
        for k in range(len(leads)):
            if k in (i, j) or not _divides(leads[k], m):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        lead = reduce_pair(i, j)
        if lead is not None:
            leads.append(lead)
            add_pairs(len(leads) - 1)


def buchberger(
    gens: Sequence[Polynomial], budget: Optional[Budget] = None
) -> list[Polynomial]:
    """Reduced Groebner basis of (gens), normal pair selection strategy.

    Pairs with coprime leading monomials are skipped (product criterion), and
    the chain criterion prunes pairs whose lcm is covered by an already
    treated third element.  Output is inter-reduced, monic, sorted with the
    largest leading term first — a canonical form suitable for equality
    comparison.
    """
    if budget is None:
        budget = Budget()
    basis: list[Polynomial] = []
    for g in gens:
        if g:
            g = normal_form(g, basis, budget)
            if g:
                basis.append(g)

    def reduce_pair(i: int, j: int) -> Optional[tuple[int, ...]]:
        s = normal_form(_s_poly(basis[i], basis[j]), basis, budget)
        if not s:
            return None
        basis.append(s)
        return s.leading_term()[0]

    _pair_loop([g.leading_term()[0] for g in basis], reduce_pair, budget, True)
    return _reduce_basis(basis, budget)


def _reduce_basis(basis: list[Polynomial], budget: Optional[Budget]) -> list[Polynomial]:
    if not basis:
        return []
    field = basis[0].ring.field
    leads = [g.leading_term()[0] for g in basis]
    keep_mask = [True] * len(basis)
    for idx in range(len(basis)):
        e = leads[idx]
        for k in range(len(basis)):
            if k == idx or not keep_mask[k]:
                continue
            if _divides(leads[k], e) and (leads[k] != e or k < idx):
                keep_mask[idx] = False
                break
    minimal = [g for g, m in zip(basis, keep_mask) if m]
    # tail-reduce each element against the others and normalize to monic
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others, budget)
        if r:
            reduced.append(r.scale(field.inv(r.leading_term()[1])))
    reduced.sort(key=lambda f: grevlex_key(f.leading_term()[0]), reverse=True)
    return reduced


def ideal_membership(a: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    return normal_form(a, I.groebner(budget), budget).is_zero()


def ideal_equal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> bool:
    """Equality via reduced Groebner bases, which are canonical."""
    return list(I.groebner(budget)) == list(J.groebner(budget))


# ---------------------------------------------------------------------------
# free modules, position over term
# ---------------------------------------------------------------------------


class FreeModuleVector:
    """An element of a finite free module S^r, stored as position ↦ polynomial.

    Zero components are never stored.
    """

    __slots__ = ("ring", "components")

    def __init__(self, ring: PolynomialRing, components: dict[int, Polynomial]):
        self.ring = ring
        self.components = {i: c for i, c in components.items() if c}

    def __bool__(self) -> bool:
        return bool(self.components)

    def __add__(self, other: "FreeModuleVector") -> "FreeModuleVector":
        out = dict(self.components)
        for i, c in other.components.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s:
                out[i] = s
            elif i in out:
                del out[i]
        return FreeModuleVector(self.ring, out)

    def __sub__(self, other: "FreeModuleVector") -> "FreeModuleVector":
        return self + other.scale_term((0,) * self.ring.nvars, -1)

    def scale_term(self, exps: Sequence[int], coeff: int) -> "FreeModuleVector":
        """Multiply by the single term coeff·x^exps."""
        return FreeModuleVector(
            self.ring, {i: c.mul_term(exps, coeff) for i, c in self.components.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FreeModuleVector):
            return NotImplemented
        return self.ring == other.ring and self.components == other.components

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c}" for i, c in sorted(self.components.items()))
        return f"<vector {{{inner}}}>"


def _module_lead(v: FreeModuleVector) -> tuple[int, tuple[int, ...], int]:
    """(position, exponent, coefficient) of the leading term of a nonzero v:
    the lowest position is on top, then grevlex within it."""
    pos = min(v.components)
    e, c = v.components[pos].leading_term()
    return pos, e, c


def module_normal_form(
    v: FreeModuleVector, G: Sequence[FreeModuleVector], budget: Optional[Budget] = None
) -> FreeModuleVector:
    """Full division remainder of a module element by a list of vectors."""
    ring = v.ring
    p = ring.field.p
    field = ring.field
    # divisors grouped by the position of their leading term, in list order:
    # (leading exponent, inverse leading coefficient, components, max exponent)
    divisors: dict[int, list] = {}
    for g in G:
        if g:
            pos, e, c = _module_lead(g)
            top = max(poly.max_exponent() for poly in g.components.values())
            divisors.setdefault(pos, []).append((e, field.inv(c), g.components, top))
    work = {pos: dict(poly.terms) for pos, poly in v.components.items()}
    rem: dict[int, dict[tuple[int, ...], int]] = {}
    while work:
        if budget is not None:
            budget.tick()
        pos = min(work)
        terms = work[pos]
        e = max(terms, key=grevlex_key)
        c = terms[e]
        for ge, ginv, comps, top in divisors.get(pos, ()):
            if _divides(ge, e):
                shift = _sub(e, ge)
                if top + max(shift, default=0) > EXPONENT_LIMIT:
                    raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
                mult = (c * ginv) % p
                for gpos, gpoly in comps.items():
                    comp = work.setdefault(gpos, {})
                    _sub_multiple(comp, mult, shift, gpoly.terms, p)
                    if not comp:
                        del work[gpos]
                break
        else:
            rem.setdefault(pos, {})[e] = c
            del terms[e]
            if not terms:
                del work[pos]
    return FreeModuleVector(ring, {pos: Polynomial(ring, t) for pos, t in rem.items()})


def _module_s_vector(f: FreeModuleVector, g: FreeModuleVector) -> FreeModuleVector:
    field = f.ring.field
    pf, ef, cf = _module_lead(f)
    pg, eg, cg = _module_lead(g)
    assert pf == pg
    m = _lcm(ef, eg)
    return f.scale_term(_sub(m, ef), field.inv(cf)) - g.scale_term(_sub(m, eg), field.inv(cg))


def module_buchberger(
    gens: Sequence[FreeModuleVector], budget: Optional[Budget] = None
) -> list[FreeModuleVector]:
    """Reduced module Groebner basis.  S-pairs form only between vectors whose
    leading terms sit in the same position; no product criterion is applied
    (it is not valid for modules)."""
    if budget is None:
        budget = Budget()
    basis: list[FreeModuleVector] = []
    for g in gens:
        if g:
            g = module_normal_form(g, basis, budget)
            if g:
                basis.append(g)
    leads = [_module_lead(g) for g in basis]
    # heap of ((−pos, key(lcm)), i, j): pops in normal-selection order
    queue: list = []

    def add_pairs(j: int) -> None:
        pos, lj, _ = leads[j]
        for i in range(j):
            if leads[i][0] == pos:
                heapq.heappush(queue, ((-pos, grevlex_key(_lcm(leads[i][1], lj))), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while queue:
        _, i, j = heapq.heappop(queue)
        budget.tick()
        s = module_normal_form(_module_s_vector(basis[i], basis[j]), basis, budget)
        if s:
            basis.append(s)
            leads.append(_module_lead(s))
            add_pairs(len(basis) - 1)
    return _reduce_module_basis(basis, budget)


def _reduce_module_basis(
    basis: list[FreeModuleVector], budget: Optional[Budget]
) -> list[FreeModuleVector]:
    if not basis:
        return []
    field = basis[0].ring.field
    leads = [_module_lead(g) for g in basis]
    keep = [True] * len(basis)
    for idx in range(len(basis)):
        pos, e, _ = leads[idx]
        for k in range(len(basis)):
            if k == idx or not keep[k]:
                continue
            kpos, ke, _ = leads[k]
            if kpos == pos and _divides(ke, e) and (ke != e or k < idx):
                keep[idx] = False
                break
    minimal = [g for g, m in zip(basis, keep) if m]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = module_normal_form(g, others, budget)
        if r:
            _, _, c = _module_lead(r)
            reduced.append(r.scale_term((0,) * r.ring.nvars, field.inv(c)))

    def key(v: FreeModuleVector):
        pos, e, _ = _module_lead(v)
        return (-pos, grevlex_key(e))

    reduced.sort(key=key, reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# kernels as syzygies: (I : J) on the module engine, F_*I ∩ Ker(u) by Schreyer
# ---------------------------------------------------------------------------


def colon_ideal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """(I : J) as a syzygy module (Cox–Little–O'Shea, Using Algebraic
    Geometry, ch. 5).

    With J = (g_1..g_k), h lies in (I : J) iff h·(g_1..g_k) ∈ I^k, i.e. iff
    h·e_k lies in the submodule of S^(k+1) generated by (g_1, …, g_k, 1) and
    the f·e_i for f a generator of I and i < k.  Positions 0..k−1 sit above
    position k, so the basis members whose lowest position is k generate
    that submodule's part in S·e_k, and their position-k parts generate
    (I : J).  For J = 0 the only generator is e_0 and the result is (1).
    """
    ring = I.ring
    if J.ring != ring:
        raise RingError("colon ideal across rings")
    k = len(J.gens)
    gens = [FreeModuleVector(ring, {**dict(enumerate(J.gens)), k: ring.one})]
    gens += [FreeModuleVector(ring, {i: f}) for f in I.gens for i in range(k)]
    quot = Ideal(
        ring,
        [v.components[k] for v in module_buchberger(gens, budget=budget) if min(v.components) == k],
    )
    return Ideal(ring, quot.groebner(budget))


def _translates(ring: PolynomialRing, gens: Sequence[Polynomial]):
    """All x^α·g for α ∈ [0, p−1]^N and g a generator, with their u-images."""
    p = ring.field.p
    out = []
    for g in gens:
        for alpha in itertools.product(range(p), repeat=ring.nvars):
            tg = g.mul_term(alpha)
            out.append((tg, u_map(tg)))
    return out


def _syzygies(
    ring: PolynomialRing, images: Sequence[Polynomial], budget: Budget
) -> list[dict[int, dict[tuple[int, ...], int]]]:
    """Generators of the syzygies of `images` (Schreyer's theorem).

    One Buchberger run on the images alone, each basis element g carrying
    its cofactor vector {j: c_j} with g = Σ c_j·images[j].  Every image is
    reduced against the basis so far: a nonzero remainder joins the basis,
    a zero one leaves its cofactor vector as a syzygy.  Then every S-pair
    whose lcm the chain criterion does not cover is reduced, coprime pairs
    too (the product criterion does not hold for syzygies), and a reduction
    to zero leaves a syzygy in the same way.  Syzygies are never paired or
    inter-reduced.  The budget ticks once per pair and once per reduction
    step.  Syzygies come back as {j: terms of c_j}.
    """
    p = ring.field.p
    inv = ring.field.inv
    # (leading exponent, inverse leading coefficient, terms, cofactor, largest
    # exponent of terms and cofactor), one per basis element
    basis: list[tuple] = []
    syzygies: list[dict[int, dict[tuple[int, ...], int]]] = []

    def subtract(work: dict, cof: dict, entry: tuple, mult: int, shift: tuple[int, ...]) -> None:
        _, _, terms, cofactor, top = entry
        if top + max(shift, default=0) > EXPONENT_LIMIT:
            raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
        _sub_multiple(work, mult, shift, terms, p)
        for j, t in cofactor.items():
            _sub_multiple(cof.setdefault(j, {}), mult, shift, t, p)

    def reduce(work: dict, cof: dict) -> Optional[tuple[int, ...]]:
        rem: dict[tuple[int, ...], int] = {}
        while work:
            budget.tick()
            e = max(work, key=grevlex_key)
            c = work[e]
            for entry in basis:
                le = entry[0]
                if _divides(le, e):
                    subtract(work, cof, entry, c * entry[1] % p, _sub(e, le))
                    break
            else:
                rem[e] = c
                del work[e]
        cof = {j: t for j, t in cof.items() if t}
        if not rem:
            syzygies.append(cof)
            return None
        le = max(rem, key=grevlex_key)
        top = max(max(e, default=0) for t in (rem, *cof.values()) for e in t)
        basis.append((le, inv(rem[le]), rem, cof, top))
        return le

    def reduce_pair(i: int, j: int) -> Optional[tuple[int, ...]]:
        work: dict[tuple[int, ...], int] = {}
        cof: dict[int, dict[tuple[int, ...], int]] = {}
        m = _lcm(basis[i][0], basis[j][0])
        subtract(work, cof, basis[i], p - basis[i][1], _sub(m, basis[i][0]))
        subtract(work, cof, basis[j], basis[j][1], _sub(m, basis[j][0]))
        return reduce(work, cof)

    one = (0,) * ring.nvars
    for j, w in enumerate(images):
        reduce(dict(w.terms), {j: {one: 1}})
    _pair_loop([entry[0] for entry in basis], reduce_pair, budget, False)
    return syzygies


def frobenius_module_intersect_keru(
    I: Ideal, budget: Optional[Budget] = None
) -> list[Polynomial]:
    """Generators of F_*I ∩ Ker(u) as a submodule of F_*S ≅ S^(p^N).

    F_*I is generated over S by F_*(x^α·g) for generators g of I and residues
    α (since F_*(a^p·x^α·g) = a·F_*(x^α·g)).  An S-combination Σ c_j·F_*(t_j)
    kills the u-coordinate iff (c_j) is a syzygy of the images
    (u(F_*t_j))_j, so the intersection is generated by the translates with
    u-image zero and, for each syzygy generator c of the nonzero images
    (`_syzygies`), the element w = Σ c_j^p·t_j.  The elements w ∈ I are
    returned, without duplicates.
    """
    ring = I.ring
    if budget is None:
        budget = Budget()
    pairs = _translates(ring, I.groebner(budget))
    direct = [tg for tg, w in pairs if not w]
    moved = [(tg, w) for tg, w in pairs if w]
    elements: list[Polynomial] = []
    for cof in _syzygies(ring, [w for _, w in moved], budget):
        w_elem = ring.zero
        for j, t in cof.items():
            w_elem = w_elem + Polynomial(ring, t).pth_power() * moved[j][0]
        if w_elem:
            elements.append(w_elem)
    out = list(dict.fromkeys(direct + elements))
    assert not any(u_map(w) for w in out), "intersection generator escaped Ker(u)"
    return out
