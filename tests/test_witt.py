"""Tests for length-2 Witt vectors and the carry polynomial Δ₁.

The ground truth is exact integer arithmetic: ghost components for the
additive structure, and the closed multinomial/ghost formulas for Δ₁.  The
W₂ arithmetic itself lives in `tests/oracles.py`, where folding Teichmüller
lifts through it gives a third, independent route to Δ₁.  Δ₁(f^{p−1}) by the
δ-ring product rule (`witt.delta1_power`, read through the polynomial view
of the packed splitting context) is checked against the ghost route
`delta1(f ** (p − 1))` and the fold, and the δ-ring sum and power rules
themselves against the fold.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qfsplit import EXPONENT_LIMIT, ExponentOverflowError, RingError, delta1
from qfsplit.criteria import _Splitting

import oracles as O
from oracles import W2Element, teichmuller, w2_add, w2_mul, w2_neg, w2_sub, w2_zero
from conftest import poly_strategy, ring_over


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_w2_add_matches_ghost_components(p, data):
    ring = ring_over(p)
    x = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    x1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    s = w2_add(W2Element(x, x1), W2Element(y, y1))
    g0, g1 = O.w2_add_ghost(x, x1, y, y1)
    assert s.w0 == g0 and s.w1 == g1


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_w2_add_commutative_associative(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    b = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    c = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    assert w2_add(a, b) == w2_add(b, a)
    assert w2_add(w2_add(a, b), c) == w2_add(a, w2_add(b, c))


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_w2_additive_inverse(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=2, max_terms=3)))
    zero = w2_zero(ring)
    assert w2_add(a, w2_neg(a)) == zero
    assert w2_sub(a, a) == zero


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_w2_mul_distributes(p, data):
    ring = ring_over(p)
    a = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    b = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    c = teichmuller(data.draw(poly_strategy(ring, max_exp=1, max_terms=2)))
    lhs = w2_mul(a, w2_add(b, c))
    rhs = w2_add(w2_mul(a, b), w2_mul(a, c))
    assert lhs == rhs


def test_teichmuller_is_multiplicative():
    ring = ring_over(3)
    f = ring.parse("x + 2*y")
    g = ring.parse("z^2 + x")
    assert w2_mul(teichmuller(f), teichmuller(g)) == teichmuller(f * g)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_matches_ghost_formula(p, data):
    """delta1(f) = (f̃^p − Σ t̃^p)/p mod p for term lifts t̃."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=4))
    assert delta1(f) == O.delta1_ghost(f)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_delta1_matches_multinomial_oracle(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    assert delta1(f) == O.delta1_multinomial(f)


def test_delta1_of_monomial_is_zero():
    # a single Teichmüller lift carries nothing
    for p in (2, 3, 7):
        ring = ring_over(p)
        assert delta1(ring.parse("2*x^2*y")).is_zero()
        assert delta1(ring.zero).is_zero()


def test_delta1_pairwise_products_at_p2():
    """At p = 2 the carry of a sum of monomials is the sum of the pairwise
    products."""
    ring = ring_over(2)
    f = ring.parse("x + y + z")
    assert delta1(f) == ring.parse("x*y + x*z + y*z")


def test_delta1_cusp_value():
    # delta1(x^3 + y^2 z) = x^3 y^2 z at p = 2
    ring = ring_over(2)
    assert delta1(ring.parse("x^3 + y^2*z")) == ring.parse("x^3*y^2*z")


@pytest.mark.parametrize("p", [2, 3])
def test_delta1_grouped_summands(p):
    """A coarser summand decomposition changes the carry in a way the ghost
    oracle reproduces."""
    ring = ring_over(p)
    parts = [ring.parse("x^2 + y"), ring.parse("z"), ring.parse("x*z + 2*y")]
    total = parts[0] + parts[1] + parts[2]
    assert delta1(total, summands=parts) == O.delta1_ghost(total, summands=parts)
    assert delta1(total, summands=parts) == O.delta1_multinomial(total, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_matches_fold(p, data):
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=5))
    assert delta1(f) == O.delta1_fold(f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_grouped_matches_fold(p, data):
    """Grouped summands that overlap and cancel: the carry does not depend on
    how the lifted summands add up to a lift of the polynomial."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=3, max_terms=4))
    extra = data.draw(st.lists(poly_strategy(ring, max_exp=3, max_terms=3), max_size=3))
    rest = f
    for g in extra:
        rest = rest - g
    h = data.draw(poly_strategy(ring, max_exp=3, max_terms=3))
    parts = data.draw(st.permutations([rest, h, -h] + extra))
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_delta1_with_cancelling_summands(p):
    ring = ring_over(p)
    parts = [ring.parse("x + y"), ring.parse("x"), ring.parse("-x")]
    f = ring.parse("x + y")
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)
    assert delta1(f, summands=parts) == O.delta1_ghost(f, summands=parts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("offset", [-1, 0])
def test_delta1_at_packing_boundaries(p, k, offset):
    """Largest exponents at a power of two, where the packed field width of
    p·M steps up, with a third variable in the next field."""
    ring = ring_over(p)
    e = 2**k + offset
    f = ring.parse(f"x^{e}*y + 2*x*y^{e} + z^{e}")
    assert delta1(f) == O.delta1_fold(f) == O.delta1_ghost(f)
    parts = [ring.parse(f"x^{e}*y + z^{e}"), ring.parse(f"2*x*y^{e}")]
    assert delta1(f, summands=parts) == O.delta1_fold(f, summands=parts)


def test_delta1_overflow_boundary():
    """p·M may reach EXPONENT_LIMIT but not pass it, M the largest exponent
    of the polynomial and of the summands."""
    ring = ring_over(3)
    k = EXPONENT_LIMIT // 3
    x, y = ring.parse("x"), ring.parse("y")
    f = x**k + y
    expected = ring.from_terms({(2 * k, 1, 0): 1, (k, 2, 0): 1})
    assert delta1(f) == expected == O.delta1_fold(f)
    assert delta1(f, summands=[x**k, y]) == expected
    g = x ** (k + 1) + y
    with pytest.raises(ExponentOverflowError):
        delta1(g)
    with pytest.raises(ExponentOverflowError):
        delta1(g, summands=[x ** (k + 1), y])
    with pytest.raises(ExponentOverflowError):
        delta1(y, summands=[g, -(x ** (k + 1))])


def test_delta1_rejects_wrong_summands():
    ring = ring_over(3)
    f = ring.parse("x + y")
    with pytest.raises(RingError):
        delta1(f, summands=[ring.parse("x"), ring.parse("z")])


@given(data=st.data())
def test_delta1_vanishes_iff_no_carry_on_disjoint_vars(data):
    """Summands in disjoint variables at p=2: delta1 is the sum of pairwise
    products, hence zero iff fewer than two summands are nonzero."""
    ring = ring_over(2)
    cx = data.draw(st.integers(0, 1))
    cy = data.draw(st.integers(0, 1))
    f = ring.from_terms({(3, 0, 0): cx, (0, 3, 0): cy})
    d = delta1(f)
    assert d.is_zero() == (cx * cy == 0)
    if cx and cy:
        assert d == ring.parse("x^3*y^3")


# ---------------------------------------------------------------------------
# Δ₁(f^{p−1}) by the δ-ring product rule
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def delta1_power(f):
    """Δ₁(f^{p−1}) as the engines read it: `witt.delta1_power` on the
    splitting's packed Teichmüller powers, unpacked.  A splitting refuses
    f = 0, whose Δ₁(f^{p−1}) is 0."""
    return _Splitting([f]).delta if f else f
VARIABLES = ("x", "y", "z", "w")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta1_power_matches_ghost_route_and_fold(p, data):
    """In one to four variables; the fold of f^{p−1} grows fast with p, so
    the polynomials shrink as p grows."""
    ring = ring_over(p, VARIABLES[: data.draw(st.integers(1, 4))])
    f = data.draw(poly_strategy(ring, max_exp=2 if p > 3 else 3, max_terms=3 if p == 7 else 4))
    fp1 = f ** (p - 1)
    assert delta1_power(f) == delta1(fp1) == O.delta1_fold(fp1)


@pytest.mark.parametrize("name", ["rdp-table", "sextic", "cy-graded", "strata-sweep"])
def test_delta1_power_on_workload_equations(name):
    """Every equation of the benchmark's workloads (strata-sweep: the 2,500
    members of seed 1, draw 0), with f the product of the generators."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    problems = workloads.build(name, 1).problems
    assert problems
    for prob in problems:
        f = prob.gens[0]
        for g in prob.gens[1:]:
            f = f * g
        assert delta1_power(f) == delta1(f ** (f.ring.field.p - 1)), prob.pid


def _boundary_exponents(p, k):
    """2^k − 1 and 2^k, and the exponents M on either side of p(p−1)·M = 2^k,
    where the packed field width of the rule steps up."""
    below = (2**k - 1) // (p * (p - 1))
    return sorted({2**k - 1, 2**k, below, below + 1} - {0})


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
def test_delta1_power_at_packing_boundaries(p, k):
    """x^M·y + x^M·z makes F^{p−1} non-Teichmüller at x^{(p−1)M}, so h^p
    reaches the largest exponent p(p−1)·M, with fields on both sides."""
    ring = ring_over(p)
    for m in _boundary_exponents(p, k):
        f = ring.parse(f"x^{m}*y + x^{m}*z + 2*y^{m}*z")
        assert delta1_power(f) == delta1(f ** (p - 1)), m
    assert delta1_power(ring.parse(f"x^{2**k}")).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta1_power_overflow_boundary(p):
    """p(p−1)·M may reach EXPONENT_LIMIT but not pass it, as for the ghost
    route delta1(f ** (p − 1))."""
    ring = ring_over(p)
    x, y = ring.parse("x"), ring.parse("y")
    k = EXPONENT_LIMIT // (p * (p - 1))
    f = x**k + y
    assert delta1_power(f) == delta1(f ** (p - 1))
    g = x ** (k + 1) + y
    with pytest.raises(ExponentOverflowError):
        delta1(g ** (p - 1))
    with pytest.raises(ExponentOverflowError):
        delta1_power(g)


# ---------------------------------------------------------------------------
# the δ-ring rules, against the fold
# ---------------------------------------------------------------------------
#
# With φ(x_i) = x_i^p on ℤ/p²[x] and δ(A) = (φ(A) − A^p)/p, the carry with
# respect to terms is Δ₁(g) = −δ(T(g)) mod p, T the Teichmüller lift of the
# coefficients (c ↦ c^p mod p²).


def _teichmuller_lift(g):
    p = g.ring.field.p
    return {e: c**p for e, c in O.zlift(g).items()}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_delta_sum_rule(p, data):
    """δ(A + B) = δ(A) + δ(B) − Σ_{0<i<p} binom(p, i)/p·A^i·B^{p−i}: for a
    and b with disjoint supports, Δ₁(a + b) = Δ₁(a) + Δ₁(b) + that sum, and
    the carry of the split [a, b] alone is the sum."""
    ring = ring_over(p)
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=4))
    terms = sorted(f.terms.items())
    mask = data.draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    a = ring.from_terms({e: c for (e, c), left in zip(terms, mask) if left})
    b = f - a
    mixed = ring.zero
    for i in range(1, p):
        mixed = mixed + (a**i * b ** (p - i)).scale(math.comb(p, i) // p)
    assert O.delta1_fold(f) == O.delta1_fold(a) + O.delta1_fold(b) + mixed
    assert O.delta1_fold(f, summands=[a, b]) == mixed


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_delta_power_rule(p, k, data):
    """δ(A^k) ≡ k·A^{p(k−1)}·δ(A), with A = T(a): since T(a)^k = T(a^k) + p·h
    and δ(C + p·h) ≡ δ(C) − h^p, Δ₁(a^k) = k·a^{p(k−1)}·Δ₁(a) + h^p."""
    ring = ring_over(p)
    a = data.draw(poly_strategy(ring, max_exp=2, max_terms=3 if p == 5 else 4))
    if a.is_zero():
        return
    ak = a**k
    diff = O.zadd(O.zpow(_teichmuller_lift(a), k), O.zscale(_teichmuller_lift(ak), -1))
    h = O.zreduce(O.zdiv_exact({e: c % (p * p) for e, c in diff.items()}, p), ring)
    expected = (a ** (p * (k - 1)) * O.delta1_fold(a)).scale(k) + h.pth_power()
    assert O.delta1_fold(ak) == expected
