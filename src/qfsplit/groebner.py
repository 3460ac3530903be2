"""Buchberger engine for ideals and free modules over F_p[x_1..x_N].

Everything is deterministic: grevlex is the default order, the pair queue is
processed in normal-selection order (smallest lcm first, index tie-breaks),
and reduced bases are returned sorted by leading term.  Long computations are
guarded by a step budget (see `Budget`), overridable through the
QFSPLIT_GB_BUDGET environment variable.

The module layer implements position-over-term orders with a designated top
position.  Its one serious client is `frobenius_module_intersect_keru`, which
computes F_*I ∩ Ker(u) through the syzygies of the u-components of the
translate generators F_*(x^α·g) — the same elimination as a rank-p^N
position-over-term run, but on a free module of rank 1 + #generators.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Iterable, Optional, Sequence

from .rings import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    Polynomial,
    PolynomialRing,
    RingError,
    grevlex_key,
)
from .frobenius import FreeModuleVector, u_map

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


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


class MonomialOrder:
    """A total order on exponent vectors given by a sort key."""

    def key(self, exps: tuple[int, ...]):
        raise NotImplementedError

    def leading_term(self, f: Polynomial) -> tuple[tuple[int, ...], int]:
        e = max(f.terms, key=self.key)
        return e, f.terms[e]


class GrevlexOrder(MonomialOrder):
    def key(self, exps: tuple[int, ...]):
        return grevlex_key(exps)

    def leading_term(self, f: Polynomial) -> tuple[tuple[int, ...], int]:
        return f.sorted_terms()[0]  # cached view is already grevlex-sorted


class EliminationOrder(MonomialOrder):
    """Block order making the last `nelim` variables dominate (used with
    auxiliary variables appended at the end of the ring)."""

    def __init__(self, nelim: int = 1):
        self.nelim = nelim

    def key(self, exps: tuple[int, ...]):
        cut = len(exps) - self.nelim
        return (exps[cut:], grevlex_key(exps[:cut]))


GREVLEX = GrevlexOrder()


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


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

    def groebner(self, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = tuple(buchberger(list(self.gens), GREVLEX, budget=budget))
        return self._gb

    def is_zero_ideal(self) -> bool:
        return not self.gens

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def normal_form(
    a: Polynomial,
    G: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    budget: Optional[Budget] = None,
) -> Polynomial:
    """Full remainder of a under multivariate division by G."""
    ring = a.ring
    p = ring.field.p
    field = ring.field
    basis = []
    for g in G:
        if g:
            le, lc = order.leading_term(g)
            basis.append((le, field.inv(lc), g))
    work = dict(a.terms)
    rem: dict[tuple[int, ...], int] = {}
    key = order.key
    while work:
        if budget is not None:
            budget.tick()
        e = max(work, key=key)
        c = work[e]
        for le, inv_lc, g in basis:
            if _divides(le, e):
                mult = (c * inv_lc) % p
                shift = _sub(e, le)
                for eg, cg in g.terms.items():
                    ep = tuple(map(int.__add__, eg, shift))
                    s = (work.get(ep, 0) - mult * cg) % p
                    if s:
                        work[ep] = s
                    elif ep in work:
                        del work[ep]
                break
        else:
            rem[e] = c
            del work[e]
    return Polynomial(ring, rem)


def _s_poly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    field = f.ring.field
    ef, cf = order.leading_term(f)
    eg, cg = order.leading_term(g)
    m = _lcm(ef, eg)
    return f.mul_term(_sub(m, ef), field.inv(cf)) - g.mul_term(_sub(m, eg), field.inv(cg))


def buchberger(
    gens: Sequence[Polynomial],
    order: MonomialOrder = GREVLEX,
    budget: Optional[Budget] = None,
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
            g = normal_form(g, basis, order, budget)
            if g:
                basis.append(g)
    leads = [order.leading_term(g)[0] for g in basis]
    # heap of (key(lcm), i, j, lcm): (i, j) makes every key distinct, so pops
    # come in the same order as a min() over the pending pairs would give
    queue: list = []

    def add_pairs(j: int) -> None:
        for i in range(j):
            m = _lcm(leads[i], leads[j])
            heapq.heappush(queue, (order.key(m), i, j, m))

    for j in range(len(basis)):
        add_pairs(j)
    done: set[tuple[int, int]] = set()
    while queue:
        _, i, j, m = heapq.heappop(queue)
        done.add((i, j))
        budget.tick()
        li, lj = leads[i], leads[j]
        # product criterion
        if all(a + b == c for a, b, c in zip(li, lj, m)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not _divides(leads[k], m):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                skip = True
                break
        if skip:
            continue
        s = normal_form(_s_poly(basis[i], basis[j], order), basis, order, budget)
        if s:
            basis.append(s)
            leads.append(order.leading_term(s)[0])
            add_pairs(len(basis) - 1)
    return _reduce_basis(basis, order, budget)


def _reduce_basis(
    basis: list[Polynomial], order: MonomialOrder, budget: Optional[Budget]
) -> list[Polynomial]:
    if not basis:
        return []
    field = basis[0].ring.field
    leads = [order.leading_term(g)[0] for g in basis]
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
        r = normal_form(g, others, order, budget)
        if r:
            lc = order.leading_term(r)[1]
            reduced.append(r.scale(field.inv(lc)))
    reduced.sort(key=lambda f: order.key(order.leading_term(f)[0]), reverse=True)
    return reduced


def ideal_membership(a: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    return normal_form(a, I.groebner(budget), GREVLEX, budget).is_zero()


def ideal_equal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> bool:
    """Equality via reduced Groebner bases, which are canonical per order."""
    return list(I.groebner(budget)) == list(J.groebner(budget))


# ---------------------------------------------------------------------------
# intersections and colon ideals (single auxiliary variable elimination)
# ---------------------------------------------------------------------------


_AUX = "t_aux_"


def _extended_ring(ring: PolynomialRing) -> PolynomialRing:
    name = _AUX
    while name in ring.variables:
        name += "_"
    return PolynomialRing(ring.field, ring.variables + (name,))


def _lift(f: Polynomial, ext: PolynomialRing, t_exp: int = 0) -> Polynomial:
    return Polynomial(ext, {e + (t_exp,): c for e, c in f.terms.items()})


def _project(f: Polynomial, ring: PolynomialRing) -> Optional[Polynomial]:
    """Map back along t ↦ (drop); returns None if f involves the auxiliary."""
    out = {}
    for e, c in f.terms.items():
        if e[-1] != 0:
            return None
        out[e[:-1]] = c
    return Polynomial(ring, out)


def intersect_ideals(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """I ∩ J = (t·I + (1−t)·J) ∩ S, eliminating one auxiliary variable t."""
    ring = I.ring
    if J.ring != ring:
        raise RingError("intersection across rings")
    if I.is_zero_ideal() or J.is_zero_ideal():
        return Ideal(ring, [])
    ext = _extended_ring(ring)
    t = ext.variable(ext.variables[-1])
    one = ext.one
    gens = [t * _lift(f, ext) for f in I.gens]
    gens += [(one - t) * _lift(g, ext) for g in J.gens]
    gb = buchberger(gens, EliminationOrder(1), budget)
    kept = []
    for g in gb:
        pr = _project(g, ring)
        if pr is not None:
            kept.append(pr)
    return Ideal(ring, kept)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for f ∈ (g); raises if the division leaves a remainder."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    field = ring.field
    eg, cg = g.sorted_terms()[0]
    inv = field.inv(cg)
    quot: dict[tuple[int, ...], int] = {}
    work = f
    while work:
        e, c = work.sorted_terms()[0]
        if not _divides(eg, e):
            raise RingError("exact_divide: dividend is not a multiple of the divisor")
        qe = _sub(e, eg)
        qc = (c * inv) % field.p
        quot[qe] = qc
        work = work - g.mul_term(qe, qc)
    return Polynomial(ring, quot)


def colon_ideal(I: Ideal, J: Ideal, budget: Optional[Budget] = None) -> Ideal:
    """(I : J) = ∩_g (I : g), each principal colon via I ∩ (g) scaled by 1/g."""
    ring = I.ring
    if J.is_zero_ideal():
        return Ideal(ring, [ring.one])
    result: Optional[Ideal] = None
    for g in J.gens:
        inter = intersect_ideals(I, Ideal(ring, [g]), budget)
        quot = Ideal(ring, [exact_divide(f, g) for f in inter.gens])
        result = quot if result is None else intersect_ideals(result, quot, budget)
    assert result is not None
    return Ideal(ring, list(result.groebner(budget)))


# ---------------------------------------------------------------------------
# free modules with position-over-term orders
# ---------------------------------------------------------------------------


class ModuleOrder:
    """Position-over-term order: positions are compared first (position 0 is
    the designated top and every position beats all larger indices), then the
    base monomial order within a position."""

    def __init__(self, base: MonomialOrder = GREVLEX):
        self.base = base

    def term_key(self, pos: int, exps: tuple[int, ...]):
        return (-pos, self.base.key(exps))

    def leading_term(self, v: FreeModuleVector) -> tuple[int, tuple[int, ...], int]:
        if not v.components:
            raise RingError("zero vector has no leading term")
        pos = min(v.components)  # the lowest index is on top
        e, c = self.base.leading_term(v.components[pos])
        return pos, e, c


def module_normal_form(
    v: FreeModuleVector,
    G: Sequence[FreeModuleVector],
    order: ModuleOrder,
    budget: Optional[Budget] = None,
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
            pos, e, c = order.leading_term(g)
            top = max(poly.max_exponent() for poly in g.components.values())
            divisors.setdefault(pos, []).append((e, field.inv(c), g.components, top))
    work = {pos: dict(poly.terms) for pos, poly in v.components.items()}
    rem: dict[int, dict[tuple[int, ...], int]] = {}
    key = order.base.key
    while work:
        if budget is not None:
            budget.tick()
        pos = min(work)
        terms = work[pos]
        e = max(terms, key=key)
        c = terms[e]
        for ge, ginv, comps, top in divisors.get(pos, ()):
            if _divides(ge, e):
                shift = _sub(e, ge)
                if top + max(shift, default=0) > EXPONENT_LIMIT:
                    raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
                mult = (c * ginv) % p
                for gpos, gpoly in comps.items():
                    comp = work.setdefault(gpos, {})
                    for eg, cg in gpoly.terms.items():
                        ep = tuple(map(int.__add__, eg, shift))
                        s = (comp.get(ep, 0) - mult * cg) % p
                        if s:
                            comp[ep] = s
                        elif ep in comp:
                            del comp[ep]
                    if not comp:
                        del work[gpos]
                break
        else:
            rem.setdefault(pos, {})[e] = c
            del terms[e]
            if not terms:
                del work[pos]
    return FreeModuleVector(ring, {pos: Polynomial(ring, t) for pos, t in rem.items()})


def _module_s_vector(
    f: FreeModuleVector, g: FreeModuleVector, order: ModuleOrder
) -> FreeModuleVector:
    field = f.ring.field
    pf, ef, cf = order.leading_term(f)
    pg, eg, cg = order.leading_term(g)
    assert pf == pg
    m = _lcm(ef, eg)
    return f.scale_term(_sub(m, ef), field.inv(cf)) - g.scale_term(_sub(m, eg), field.inv(cg))


def module_buchberger(
    gens: Sequence[FreeModuleVector],
    order: ModuleOrder,
    budget: Optional[Budget] = None,
) -> list[FreeModuleVector]:
    """Reduced module Groebner basis.  S-pairs form only between vectors whose
    leading terms sit in the same position; no product criterion is applied
    (it is not valid for modules)."""
    if budget is None:
        budget = Budget()
    basis: list[FreeModuleVector] = []
    for g in gens:
        if g:
            g = module_normal_form(g, basis, order, budget)
            if g:
                basis.append(g)
    leads = [order.leading_term(g) for g in basis]
    # heap of (term_key(pos, lcm), i, j): pops in normal-selection order
    queue: list = []

    def add_pairs(j: int) -> None:
        pos, lj, _ = leads[j]
        for i in range(j):
            if leads[i][0] == pos:
                heapq.heappush(queue, (order.term_key(pos, _lcm(leads[i][1], lj)), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while queue:
        _, i, j = heapq.heappop(queue)
        budget.tick()
        s = module_normal_form(_module_s_vector(basis[i], basis[j], order), basis, order, budget)
        if s:
            basis.append(s)
            leads.append(order.leading_term(s))
            add_pairs(len(basis) - 1)
    return _reduce_module_basis(basis, order, budget)


def _reduce_module_basis(
    basis: list[FreeModuleVector], order: ModuleOrder, budget: Optional[Budget]
) -> list[FreeModuleVector]:
    if not basis:
        return []
    field = basis[0].ring.field
    leads = [order.leading_term(g) for g in basis]
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
        r = module_normal_form(g, others, order, budget)
        if r:
            _, _, c = order.leading_term(r)
            reduced.append(r.scale_term((0,) * r.ring.nvars, field.inv(c)))
    reduced.sort(key=lambda v: order.term_key(*order.leading_term(v)[:2]), reverse=True)
    return reduced


# ---------------------------------------------------------------------------
# F_*I ∩ Ker(u)
# ---------------------------------------------------------------------------


def _translates(ring: PolynomialRing, gens: Sequence[Polynomial]):
    """All x^α·g for α ∈ [0, p−1]^N and g a generator, with their u-images."""
    p = ring.field.p
    out = []
    for g in gens:
        for alpha in itertools.product(range(p), repeat=ring.nvars):
            tg = g.mul_term(alpha)
            out.append((tg, u_map(tg)))
    return out


def frobenius_module_intersect_keru(
    I: Ideal, budget: Optional[Budget] = None
) -> list[Polynomial]:
    """Generators of F_*I ∩ Ker(u) as a submodule of F_*S ≅ S^(p^N).

    F_*I is generated over S by F_*(x^α·g) for generators g of I and residues
    α (since F_*(a^p·x^α·g) = a·F_*(x^α·g)).  An S-combination Σ c_j·F_*(t_j)
    kills the u-coordinate iff (c_j) is a syzygy of (u(F_*t_j))_j, so the
    intersection is computed as a syzygy module: run the position-over-term
    engine on the vectors (u(F_*t_j), e_j) ⊂ S^(1+G) with position 0 on top,
    and keep the basis members with vanishing position 0.  Each survivor
    yields the ring element w = Σ c_j^p·t_j with F_*w in the intersection;
    the elements w ∈ I are returned, without duplicates.
    """
    ring = I.ring
    if budget is None:
        budget = Budget()
    gens = [g for g in I.groebner(budget)]
    pairs = _translates(ring, gens)
    vectors = []
    elements: list[Polynomial] = []
    direct: list[Polynomial] = []
    for tg, w in pairs:
        if w.is_zero():
            # already in Ker(u); emit directly, no syzygy needed
            direct.append(tg)
        else:
            vectors.append((w, tg))
    mvecs = [
        FreeModuleVector(ring, {0: w, j + 1: ring.one})
        for j, (w, _) in enumerate(vectors)
    ]
    order = ModuleOrder(GREVLEX)
    gb = module_buchberger(mvecs, order, budget)
    for v in gb:
        if 0 in v.components:
            continue
        w_elem = ring.zero
        for pos, c in v.components.items():
            w_elem = w_elem + c.pth_power() * vectors[pos - 1][1]
        if w_elem:
            elements.append(w_elem)
    out = []
    seen: set[Polynomial] = set()
    for w_elem in direct + elements:
        if w_elem in seen:
            continue
        seen.add(w_elem)
        assert u_map(w_elem).is_zero(), "intersection generator escaped Ker(u)"
        out.append(w_elem)
    return out
