"""Tests for length-2 Witt vectors and the carry polynomial Δ₁.

The ground truth is exact integer arithmetic: ghost components for the
additive structure, and the closed multinomial/ghost formulas for Δ₁.
"""

import pytest
from hypothesis import given, strategies as st

from qfsplit import RingError, delta1, teichmuller, w2_add, w2_mul, w2_neg
from qfsplit.witt import w2_sub, w2_zero

import oracles as O
from conftest import poly_strategy, ring_over


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_w2_add_matches_ghost_components(p, data):
    ring = ring_over(p)
    x = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    x1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    y1 = data.draw(poly_strategy(ring, max_exp=2, max_terms=3))
    from qfsplit.witt import W2Element

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
