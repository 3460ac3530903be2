"""Buchberger engine for ideals and free modules over F_p[x_1..x_N].

Grevlex is the only monomial order.  Everything is deterministic: the pair
queue is processed in normal-selection order (smallest lcm first, index
tie-breaks), and reduced bases are returned sorted by leading term.  Pairs
are pruned by Gebauer–Möller updates as each element joins the basis
(`_pair_loop`), so a pruned pair costs no reduction and no budget step.
Every ideal-side reduction (`normal_form`, Buchberger's inter-reduction,
S-pairs and final tail reduction, and the Schreyer run's cofactor-carrying
reductions) runs one kernel, `_reduce`, on a divisor table that grows with
the basis.  Long computations are guarded by a step budget (see `Budget`),
overridable through the QFSPLIT_GB_BUDGET environment variable.

The ideal side is one kernel on packed exponents in the ring layout
(`PolynomialRing.codec`): polynomials are dicts from packed ints to
coefficients, a heap of negated grevlex keys orders each reduction, the
pair queue is keyed by packed lcms, and a translate x^α·g is g's keys plus
one int.  The I_n chain calls the kernel (`_reduced_basis`,
`_intersect_keru`) directly; `buchberger`, `normal_form`, `ideal_membership`,
`Ideal.groebner` and `frobenius_module_intersect_keru` are its polynomial
edges, which pack their input once and unpack their output once.  An
`Ideal` keeps the kernel's packed reduced basis, so its membership tests and
Ker(u) read the basis without a round trip through polynomials.  Exponent
overflow is raised where the tuple engine raised it: a product whose
largest exponent could pass EXPONENT_LIMIT, by the same bound on the
largest exponents of the factors, tested first by degrees alone.

Both kernels the criteria need are syzygies.  F_*I ∩ Ker(u)
(`frobenius_module_intersect_keru`) comes from the syzygies of the u-images
of I's translates, which one Buchberger run on the images alone yields when
each basis element carries its cofactors (Schreyer's theorem; `_syzygies`).
The run and the intersection are streams (`_intersect_keru`): each
generator is yielded as it is found, so a reader that has what it needs,
as the I_n chain does at its first escaping image, ends the run there.
The module layer, which orders terms position over term (the lowest
position on top, then grevlex within it, so every position is an
elimination block) and keeps exponent tuples, serves only the colon ideal
(I : J) (`colon_ideal`) of the regular-sequence check.
"""

from __future__ import annotations

import heapq
import itertools
import os
from functools import lru_cache
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from .rings import (
    EXPONENT_LIMIT,
    ExponentCodec,
    ExponentOverflowError,
    Polynomial,
    PolynomialRing,
    RingError,
    grevlex_key,
    ring_codec,
)
from .frobenius import packed_u

DEFAULT_GB_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """A Groebner computation ran past its step budget."""

    def __init__(self, steps: int):
        super().__init__(f"Groebner step budget exhausted after {steps} steps")
        self.steps = steps


class Budget:
    """Shared step counter that raises BudgetExceededError past `limit` steps.

    `limit=None` takes the limit from the QFSPLIT_GB_BUDGET environment
    variable, or DEFAULT_GB_BUDGET when that is unset or empty.  The variable
    must hold a positive integer, as `--budget` must, and so must an
    explicit `limit`; any other value raises RingError."""

    __slots__ = ("limit", "steps")

    def __init__(self, limit: Optional[int] = None):
        if limit is None:
            env = os.environ.get("QFSPLIT_GB_BUDGET")
            try:
                limit = int(env) if env else DEFAULT_GB_BUDGET
            except ValueError:
                limit = 0
            if limit <= 0:
                raise RingError(f"QFSPLIT_GB_BUDGET must be a positive number of steps, got {env!r}")
        elif limit <= 0:
            raise RingError(f"budget must be a positive number of steps, got {limit!r}")
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
# the reduction kernel, on the ring layout
# ---------------------------------------------------------------------------


def _entry(ring: PolynomialRing, terms: dict, cof: Optional[dict] = None) -> tuple:
    """The divisor-table entry of packed `terms`, whose first term is their
    leading one, as `_reduce` returns them (and of their cofactor {j: packed
    terms of c_j}, which a Schreyer run carries): (leading exponent, inverse
    leading coefficient, terms, room, cofactor).  A shift below `room` keeps
    every product with the entry's terms and cofactor within EXPONENT_LIMIT
    by a degree bound alone; only a larger shift needs the exact test of
    `_check_shift`."""
    codec = ring.codec
    le = next(iter(terms))
    deg = codec.degree(max(max(t) for t in (terms, *(cof or {}).values())))
    return le, ring.field.inv(terms[le]), terms, codec.of_degree(EXPONENT_LIMIT - deg + 1), cof


def _table(ring: PolynomialRing, basis: Iterable[dict]) -> list[tuple]:
    """The divisor table of packed polynomials, in their order, each with
    its leading term moved to the front."""
    key = ring.codec.key
    return [_entry(ring, {(le := max(g, key=key)): g[le], **g}) for g in basis if g]


def _check_shift(ring: PolynomialRing, entry: tuple, shift: int) -> None:
    """Raise where the tuple engine raises: when the largest exponent of the
    entry's terms and cofactor plus the largest field of the shift passes
    EXPONENT_LIMIT."""
    largest = ring.codec.largest
    terms, cof = entry[2], entry[4] or {}
    if largest([shift]) + max(largest(t) for t in (terms, *cof.values())) > EXPONENT_LIMIT:
        raise ExponentOverflowError("product would exceed the 32-bit exponent budget")


def _subtract(
    ring: PolynomialRing, work: dict, entry: tuple, mult: int, shift: int,
    cof: Optional[dict], heap: Optional[list],
) -> None:
    """work −= mult·x^shift·(the entry's terms), and cof −= the same multiple
    of its cofactor.  A term new to `work` is pushed onto `heap`, if given,
    under its negated grevlex key."""
    _, _, terms, room, gcof = entry
    if shift >= room:
        _check_shift(ring, entry, shift)
    p, low = ring.field.p, ring.codec.low
    for eg, cg in terms.items():
        ep = eg + shift
        old = work.get(ep)
        if old is None:
            work[ep] = -mult * cg % p
            if heap is not None:
                heapq.heappush(heap, 2 * (ep & low) - ep)
        else:
            s = (old - mult * cg) % p
            if s:
                work[ep] = s
            else:
                del work[ep]
    if gcof:
        for j, t in gcof.items():
            acc = cof.setdefault(j, {})
            for eg, cg in t.items():
                ep = eg + shift
                s = (acc.get(ep, 0) - mult * cg) % p
                if s:
                    acc[ep] = s
                elif ep in acc:
                    del acc[ep]


def _s_pair(ring: PolynomialRing, a: tuple, b: tuple, cof: Optional[dict] = None) -> dict:
    """The S-pair of table entries a and b as a new work dict; with `cof`, the
    same combination of their cofactors is added to it."""
    m = ring.codec.lcm(a[0], b[0])
    work: dict[int, int] = {}
    _subtract(ring, work, a, ring.field.p - a[1], m - a[0], cof, None)
    _subtract(ring, work, b, b[1], m - b[0], cof, None)
    return work


def _reduce(
    ring: PolynomialRing, work: dict, table: Sequence[tuple], budget: Optional[Budget],
    cof: Optional[dict] = None,
) -> dict[int, int]:
    """Full remainder of packed `work` (consumed) under division by `table`.

    Each step takes the largest term left and ticks the budget once.  The
    first entry whose leading exponent divides the term reduces it, carrying
    its cofactor into `cof`; with none, the term moves to the remainder.  The
    largest term comes off a heap of negated grevlex keys (`ExponentCodec.key`,
    its own inverse), so each term is keyed once, when it enters `work`; a
    heap entry whose term has cancelled since is dropped without a tick.  The
    remainder lists its terms in descending grevlex order.
    """
    p, low, guard = ring.field.p, ring.codec.low, ring.codec.guard
    heap = [2 * (e & low) - e for e in work]
    heapq.heapify(heap)
    rem: dict[int, int] = {}
    while heap:
        h = heapq.heappop(heap)
        e = 2 * (h & low) - h
        c = work.get(e)
        if c is None:
            continue
        if budget is not None:
            budget.tick()
        up = e + guard  # `ExponentCodec.divides` against every leading exponent
        for entry in table:
            le = entry[0]
            if (up - le) & guard == guard:
                _subtract(ring, work, entry, c * entry[1] % p, e - le, cof, heap)
                break
        else:
            rem[e] = c
            del work[e]
    return rem


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal of F_p[x] presented by the generators it is given, zeros
    included, with a cached reduced grevlex Groebner basis: packed, as
    `_reduced_basis` returns it, and its polynomial view."""

    __slots__ = ("ring", "gens", "_basis", "_gb", "_table")

    def __init__(self, ring: PolynomialRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(gens)
        for g in self.gens:
            if g.ring != ring:
                raise RingError("ideal generator from a different ring")
        self._basis: Optional[list[dict[int, int]]] = None
        self._gb: Optional[tuple[Polynomial, ...]] = None
        self._table: Optional[list[tuple]] = None

    @classmethod
    def from_reduced_basis(cls, ring: PolynomialRing, basis: list[dict[int, int]]) -> "Ideal":
        """The ideal presented by `basis`, a packed reduced Groebner basis as
        `_reduced_basis` returns it, which it keeps as its cached basis."""
        unpack = ring.codec.unpack_terms
        ideal = cls(ring, [Polynomial(ring, unpack(g)) for g in basis])
        ideal._basis, ideal._gb = basis, ideal.gens
        return ideal

    def _reduced(self, budget: Optional[Budget]) -> list[dict[int, int]]:
        """The packed reduced basis, computed on first call (its steps tick
        that call's budget) and cached."""
        if self._basis is None:
            pack = self.ring.codec.pack_terms
            self._basis = _reduced_basis(
                self.ring, [pack(g.terms) for g in self.gens], budget=budget
            )
        return self._basis

    def _divisors(self, budget: Optional[Budget]) -> list[tuple]:
        """The divisor table of the reduced basis, cached."""
        if self._table is None:
            self._table = _table(self.ring, self._reduced(budget))
        return self._table

    def _contains(self, terms: dict[int, int], budget: Optional[Budget]) -> bool:
        """Whether the packed polynomial `terms` lies in this ideal."""
        return not _reduce(self.ring, dict(terms), self._divisors(budget), budget)

    def groebner(self, budget: Optional[Budget] = None) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, unpacked once from the packed one."""
        if self._gb is None:
            unpack = self.ring.codec.unpack_terms
            self._gb = tuple(Polynomial(self.ring, unpack(g)) for g in self._reduced(budget))
        return self._gb

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.gens)})"


def normal_form(
    a: Polynomial, G: Sequence[Polynomial], budget: Optional[Budget] = None
) -> Polynomial:
    """Full remainder of a under multivariate division by G, its terms in
    descending grevlex order: `_reduce` on a divisor table packed per call."""
    ring = a.ring
    pack = ring.codec.pack_terms
    rem = _reduce(ring, pack(a.terms), _table(ring, [pack(g.terms) for g in G]), budget)
    return Polynomial(ring, ring.codec.unpack_terms(rem))


def _pair_loop(
    ring: PolynomialRing,
    leads: list[int],
    active: list[int],
    budget: Budget,
    product_criterion: bool,
    done: int = 0,
) -> Iterator[tuple[int, int]]:
    """Work off the S-pairs of a basis in normal-selection order, one at a time.

    `leads` holds the packed leading exponents of the basis, none divisible
    by an earlier one.  Each pair (i, j) to reduce is yielded; the caller
    reduces the S-pair of elements i and j and, when that appends an element
    to the basis, appends its leading exponent to `leads` before it asks for
    the next pair.  `active`, empty when given, holds in basis order the
    elements whose leading exponent no later one divides, which still form
    new pairs: a minimal basis once all pairs are done.  Each element, the
    given ones in order and then each appended one, joins through the
    Gebauer–Möller update (Gebauer & Möller, JSC 6, 1988), which prunes pairs
    when they are formed.  With t the new leading exponent:
    - B_k: a queued pair (i, j) whose lcm t divides is pruned, unless its lcm
      equals lcm(leads[i], t) or lcm(leads[j], t);
    - M and F: a new pair (i, new) is dropped when the lcm of another new pair,
      not dropped before it, divides its lcm (of equal lcms one stays);
    - with `product_criterion`, new pairs with coprime leading monomials
      (whose lcm is their product) take part in M and F and are dropped
      afterwards;
    - elements whose leading exponent t divides form no new pairs.
    M, F and B_k are criteria on the syzygies of the leading terms, so they
    hold in a Schreyer run too, which keeps its coprime pairs (Möller, Mora &
    Traverso, ISSAC 1992).  A popped pair ticks the budget once, before it
    is yielded; a pruned or dropped pair never ticks.  A caller that stops
    asking ends the run: the pairs left are never reduced.  The first `done`
    elements, a reduced basis whose pairs are all done, start active and
    form no pair among themselves: the first pairs formed are those of
    element `done` with them.
    """
    codec = ring.codec
    divides, lcm, key = codec.divides, codec.lcm, codec.key
    queue: list = []  # heap of (key(lcm), i, j): pops in normal-selection order
    pending: dict[tuple[int, int], int] = {}  # queued pair -> lcm
    active.extend(range(done))  # a reduced basis: no pairs, and every element active
    joined = done

    def update(k: int) -> None:
        t = leads[k]
        for (i, j), m in list(pending.items()):
            if divides(t, m) and lcm(leads[i], t) != m and lcm(leads[j], t) != m:
                del pending[i, j]
        new = []
        for i in active:
            m = lcm(leads[i], t)
            new.append((i, m, product_criterion and m == leads[i] + t))
        kept: list[tuple[int, int, bool]] = []
        for n, (i, m, coprime) in enumerate(new):
            if coprime or not any(
                divides(other[1], m) for other in itertools.chain(new[n + 1 :], kept)
            ):
                kept.append((i, m, coprime))
        for i, m, coprime in kept:
            if not coprime:
                pending[i, k] = m
                heapq.heappush(queue, (key(m), i, k))
        active[:] = [i for i in active if not divides(t, leads[i])] + [k]

    while True:
        while joined < len(leads):
            update(joined)
            joined += 1
        if not queue:
            return
        _, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        budget.tick()
        yield i, j


def _reduced_basis(
    ring: PolynomialRing,
    gens: Sequence[dict[int, int]],
    budget: Optional[Budget] = None,
    done: Optional[Sequence[dict[int, int]]] = None,
) -> list[dict[int, int]]:
    """Reduced Groebner basis of packed generators, normal pair selection.

    Pairs are pruned by the Gebauer–Möller update, product criterion
    included (`_pair_loop`).  Every reduction runs `_reduce` on the run's one
    divisor table, which grows with the basis.  Output is inter-reduced,
    monic, each element's terms in descending grevlex order and the elements
    sorted with the largest leading term first: a canonical form, so two
    ideals are equal iff their bases compare equal.

    `done`, a reduced basis as this function returns it, is a finished
    prefix of the run, which then computes the basis of (done) + (gens):
    its elements enter the divisor table first, the generators are reduced
    against them, and no pair of two of its elements is formed, since they
    already form a Groebner basis (the update run on from a finished state).
    When no generator survives reduction modulo done, the ideal is (done),
    and done comes back as it is, with no pair loop and no tail pass.
    """
    if budget is None:
        budget = Budget()
    p = ring.field.p
    done = done or []
    basis: list[tuple] = [_entry(ring, g) for g in done]
    for g in gens:
        r = _reduce(ring, dict(g), basis, budget)
        if r:
            basis.append(_entry(ring, r))
    if done and len(basis) == len(done):
        return list(done)  # every generator lies in (done)

    leads, active = [e[0] for e in basis], []
    for i, j in _pair_loop(ring, leads, active, budget, True, len(done)):
        r = _reduce(ring, _s_pair(ring, basis[i], basis[j]), basis, budget)
        if r:
            basis.append(_entry(ring, r))
            leads.append(basis[-1][0])
    minimal = [basis[i] for i in active]
    # tail-reduce each element by the others and make it monic
    reduced = []
    for i, (le, inv_lc, terms, _, _) in enumerate(minimal):
        r = _reduce(ring, dict(terms), minimal[:i] + minimal[i + 1 :], budget)
        reduced.append((le, {e: c * inv_lc % p for e, c in r.items()}))
    reduced.sort(key=lambda r: ring.codec.key(r[0]), reverse=True)
    return [g for _, g in reduced]


def buchberger(
    gens: Sequence[Polynomial], budget: Optional[Budget] = None
) -> list[Polynomial]:
    """Reduced Groebner basis of (gens): `_reduced_basis` on the packed
    generators.  Output is inter-reduced, monic, sorted with the largest
    leading term first — a canonical form suitable for equality comparison.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    codec = ring.codec
    basis = _reduced_basis(ring, [codec.pack_terms(g.terms) for g in gens], budget=budget)
    return [Polynomial(ring, codec.unpack_terms(g)) for g in basis]


def ideal_membership(a: Polynomial, I: Ideal, budget: Optional[Budget] = None) -> bool:
    return I._contains(a.ring.codec.pack_terms(a.terms), budget)


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
    if pf != pg:
        raise RingError(f"S-vector of leading terms in positions {pf} and {pg}")
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


@lru_cache(maxsize=None)
def _shifts(nvars: int, p: int) -> list[tuple[tuple[int, ...], int]]:
    """For each α ∈ [0, p−1]^N, in `itertools.product` order: the residue
    class mod p of the exponents that x^α moves onto (p−1)·𝟙, and x^α packed."""
    pack = ring_codec(nvars).pack
    return [
        (tuple([p - 1 - a for a in alpha]), pack(alpha))
        for alpha in itertools.product(range(p), repeat=nvars)
    ]


def _translates(ring: PolynomialRing, g: dict[int, int]) -> list[tuple[int, dict[int, int]]]:
    """(x^α packed, u(F_*(x^α·g)) packed) for every α ∈ [0, p−1]^N, for packed
    g.  Each term of g lands in the top residue class under exactly one α,
    so g's terms are bucketed by residue once; the image exponent is
    (e + α − (p−1)·𝟙) / p, exact field by field."""
    codec, p = ring.codec, ring.field.p
    if codec.degree(max(g)) + p > EXPONENT_LIMIT + 1 and codec.largest(g) + p > EXPONENT_LIMIT + 1:
        raise ExponentOverflowError("product would exceed the 32-bit exponent budget")
    residues = codec.residues
    buckets: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for k, c in g.items():
        buckets.setdefault(residues(k, p), []).append((k, c))
    one = codec.pack([p - 1] * ring.nvars)
    out = []
    for r, shift in _shifts(ring.nvars, p):
        bucket = buckets.get(r, ())
        out.append((shift, {(k + shift - one) // p: c for k, c in bucket}))
    return out


def _syzygies(
    ring: PolynomialRing, images: Sequence[Union[Polynomial, dict[int, int]]], budget: Budget
) -> Iterator[dict[int, dict[int, int]]]:
    """Generators of the syzygies of `images` (Schreyer's theorem), yielded as
    they are found; each image is a polynomial or its packed terms.

    One Buchberger run on the images alone, each basis element g carrying
    its cofactor vector {j: c_j} with g = Σ c_j·images[j].  Every image is
    reduced against the basis so far: a nonzero remainder joins the basis,
    a zero one leaves its cofactor vector as a syzygy.  Then every S-pair
    that the Gebauer–Möller update of `_pair_loop` keeps is reduced, coprime
    pairs too (the product criterion does not hold for syzygies), and a
    reduction to zero leaves a syzygy in the same way.  Both reductions run
    on the shared kernel `_reduce`, which carries the cofactors along.
    Syzygies are never paired or inter-reduced.  The budget ticks once per
    popped pair and once per reduction step.  Syzygies come as {j: packed
    terms of c_j}.  The run goes only as far as it is read: a reader that
    stops ends the pair loop, and the pairs left only add syzygies.
    """
    basis: list[tuple] = []
    leads: list[int] = []
    pack = ring.codec.pack_terms

    def work() -> Iterator[tuple[dict, dict]]:
        """Each image with its cofactor e_j, then each S-pair with its own."""
        for j, w in enumerate(images):
            yield pack(w.terms) if isinstance(w, Polynomial) else dict(w), {j: {0: 1}}
        for i, j in _pair_loop(ring, leads, [], budget, False):
            cof: dict[int, dict[int, int]] = {}
            yield _s_pair(ring, basis[i], basis[j], cof), cof

    for w, cof in work():
        rem = _reduce(ring, w, basis, budget, cof)
        cof = {j: t for j, t in cof.items() if t}
        if rem:
            basis.append(_entry(ring, rem, cof))
            leads.append(basis[-1][0])
        else:
            yield cof


def _intersect_keru(
    ring: PolynomialRing, basis: Sequence[dict[int, int]], budget: Budget
) -> Iterator[dict[int, int]]:
    """Packed generators of F_*I ∩ Ker(u), I given by its packed reduced
    basis (see `frobenius_module_intersect_keru`), as one stream: the
    translates with u-image zero first, then one element per syzygy in
    Schreyer order, each once, as they come.  Each translate x^α·g is kept
    as (g, x^α) and multiplied out only where a syzygy uses it.  The
    Schreyer run goes only as far as the stream is read (`_syzygies`)."""
    codec, p = ring.codec, ring.field.p
    direct: list[dict[int, int]] = []
    moved: list[tuple[dict[int, int], int, int]] = []  # (g, x^α, degree bound of x^α·g)
    images: list[dict[int, int]] = []
    for g in basis:
        top = codec.degree(max(g))
        for shift, w in _translates(ring, g):
            if w:
                moved.append((g, shift, top + codec.degree(shift)))
                images.append(w)
            else:
                direct.append({k + shift: c for k, c in g.items()})

    def elements() -> Iterator[dict[int, int]]:
        yield from direct  # u-image 0 as formed
        for cof in _syzygies(ring, images, budget):
            acc: dict[int, int] = {}
            for j, t in cof.items():
                g, shift, top = moved[j]
                if p * codec.degree(max(t)) + top > EXPONENT_LIMIT:
                    _check_frobenius_product(codec, t, p, g, shift)
                for kt, ct in t.items():
                    base = p * kt + shift  # c_j^p·x^α: Frobenius fixes F_p coefficients
                    for kg, cg in g.items():
                        e = base + kg
                        acc[e] = acc.get(e, 0) + ct * cg
            w = {e: r for e, c in acc.items() if (r := c % p)}
            if packed_u(w, codec, p):
                raise RuntimeError("intersection generator escaped Ker(u)")
            yield w

    return _dedupe(elements())


def _dedupe(polys: Iterable[Any]) -> Iterator[Any]:
    """The nonzero polynomials in order, each once, as they come; packed ones
    (dicts) are compared by their terms."""
    seen: set = set()
    for g in polys:
        if g and (k := frozenset(g.items()) if isinstance(g, dict) else g) not in seen:
            seen.add(k)
            yield g


def _check_frobenius_product(
    codec: ExponentCodec, t: dict[int, int], p: int, g: dict[int, int], shift: int
) -> None:
    """Raise where the tuple engine raises on c^p·(x^α·g): when p times the
    largest exponent of c, or that plus the largest exponent of x^α·g,
    passes EXPONENT_LIMIT."""
    top = p * codec.largest(t)
    if top > EXPONENT_LIMIT or top + codec.largest(k + shift for k in g) > EXPONENT_LIMIT:
        raise ExponentOverflowError("product would exceed the 32-bit exponent budget")


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
    returned, without duplicates; a generator with a nonzero u-image raises
    RuntimeError.  Reads the whole stream of `_intersect_keru` on I's packed
    basis.
    """
    ring = I.ring
    if budget is None:
        budget = Budget()
    basis = I._reduced(budget)
    unpack = ring.codec.unpack_terms
    return [Polynomial(ring, unpack(w)) for w in _intersect_keru(ring, basis, budget)]
