"""Tests for hypersurface-family stratification: the stratum polynomials,
their specialization behaviour, and the height-targeted search."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qfsplit import (
    Budget,
    BudgetExceededError,
    Grading,
    PolynomialRing,
    PrimeField,
    RingError,
    delta1,
    height,
    height_graded_cy,
)
from qfsplit.criteria import FINITE, INFINITE, graded_cy_coefficient
from qfsplit.strata import (
    FamilyContext,
    StrataPolynomials,
    _evaluate,
    degree_monomials,
    delta1_tilde,
    is_smooth_at_rational_points,
    search_height,
    strata_polynomials,
)

import oracles as O


@pytest.fixture(scope="module")
def ctx2():
    return FamilyContext.create(2, 3)


@pytest.fixture(scope="module")
def ctx3():
    return FamilyContext.create(3, 3)


@pytest.fixture(scope="module")
def strata2(ctx2):
    return strata_polynomials(ctx2, 4)


# ---------------------------------------------------------------------------
# family plumbing
# ---------------------------------------------------------------------------


def test_degree_monomials_enumeration():
    ms = degree_monomials(3, 3)
    assert len(ms) == 10
    assert ms[0] == (3, 0, 0) and ms[-1] == (0, 0, 3)
    assert all(sum(m) == 3 for m in ms)
    assert len(set(ms)) == 10


def test_family_context_shape(ctx2):
    assert ctx2.ring.nvars == 3 + 10
    assert ctx2.coefficient_names[ctx2.monomials.index((1, 1, 1))] == "a111"
    # G is bihomogeneous: degree 3 in x, 1 in a
    for exps in ctx2.generic.terms:
        assert sum(exps[:3]) == 3 and sum(exps[3:]) == 1


def test_specialize_generic_by_name_and_position(ctx2):
    by_name = {n: 0 for n in ctx2.coefficient_names}
    by_name["a300"] = 1
    by_name["a030"] = 1
    by_name["a003"] = 1
    f = ctx2.specialize_generic(by_name)
    assert str(f) in ("x1^3 + x2^3 + x3^3", "x3^3 + x2^3 + x1^3")
    seq = [1 if m in ((3, 0, 0), (0, 3, 0), (0, 0, 3)) else 0 for m in ctx2.monomials]
    assert ctx2.specialize_generic(seq) == f
    with pytest.raises(ValueError):
        ctx2.specialize_generic([1, 0])
    with pytest.raises(ValueError):
        ctx2.specialize_generic({"a300": 1})


def test_specialize_generic_is_the_sum_of_its_monomials(ctx3):
    """A member is Σ v·m over the family's monomials, built on the context's
    one x-ring: equal, term order included, to the sum of one-term
    polynomials, by position and by name, at points with zero coefficients,
    negative ones and ones divisible by p."""
    rng = random.Random(7)
    small = ctx3.x_ring
    assert small is ctx3.x_ring and small.variables == ctx3.ring.variables[:3]
    for _ in range(50):
        values = [rng.choice([0, 0, rng.randrange(-7, 8)]) for _ in ctx3.monomials]
        expected = small.zero
        for m, v in zip(ctx3.monomials, values):
            expected = expected + small.monomial(m, v)
        for point in (values, dict(zip(ctx3.coefficient_names, values))):
            g = ctx3.specialize_generic(point)
            assert g == expected and list(g.terms) == list(expected.terms)
            assert g.ring is small


# ---------------------------------------------------------------------------
# stratum polynomials
# ---------------------------------------------------------------------------


def test_first_stratum_is_middle_coefficient(ctx2):
    strata = strata_polynomials(ctx2, 2)
    (b1,) = strata.polynomials
    assert b1 == ctx2.ring.variable("a111")


@pytest.mark.parametrize("p", [2, 3])
def test_stratum_degrees(p):
    ctx = FamilyContext.create(p, 3)
    h_max = 4 if p == 2 else 3
    strata = strata_polynomials(ctx, h_max)
    for i, b in enumerate(strata.polynomials, start=1):
        assert not b.is_zero()
        degrees = {sum(exps[3:]) for exps in b.terms}
        assert degrees == {p**i - 1}
        assert all(not any(exps[:3]) for exps in b.terms)


def test_prefix_property(ctx2, strata2):
    short = strata_polynomials(ctx2, 2)
    assert short.polynomials == strata2.polynomials[:1]
    mid = strata_polynomials(ctx2, 3)
    assert mid.polynomials == strata2.polynomials[:2]


def test_second_stratum_against_uncapped_expansion(ctx2):
    """b_2 from the capped pipeline equals the raw coefficient of
    (x1 x2 x3)^{p^2-1} in G^{p-1}·Δ̃₁(G^{p-1})."""
    gp = ctx2.generic  # p = 2: G^{p-1} = G
    full = gp * delta1_tilde(ctx2, gp)
    target = 2**2 - 1
    collected = {}
    for exps, c in full.terms.items():
        if exps[:3] == (target, target, target):
            collected[(0, 0, 0) + exps[3:]] = c
    raw_b2 = ctx2.ring.from_terms(collected)
    assert strata_polynomials(ctx2, 3).polynomials[1] == raw_b2


@pytest.mark.parametrize("p,h_max,steps", [(3, 3, 598), (2, 4, 366)])
def test_strata_step_counts(p, h_max, steps):
    """One tick per term of each capped Δ̃-power E_2, …, E_{h_max−1}; the
    strata-sweep bench's step count rests on the figure at p = 3."""
    budget = Budget()
    strata_polynomials(FamilyContext.create(p, 3), h_max, budget)
    assert budget.steps == steps


def test_budget_abort_in_strata():
    ctx = FamilyContext.create(2, 3)
    with pytest.raises(BudgetExceededError):
        strata_polynomials(ctx, 4, budget=Budget(1))


# ---------------------------------------------------------------------------
# profiles and specialization
# ---------------------------------------------------------------------------


def test_profile_fermat_vs_generic_point(ctx2, strata2):
    fermat = {n: 0 for n in ctx2.coefficient_names}
    for name in ("a300", "a030", "a003"):
        fermat[name] = 1
    assert strata2.profile(fermat) == 2
    ordinary = dict(fermat)
    ordinary["a111"] = 1
    assert strata2.profile(ordinary) == 1


def test_profile_matches_exact_height(ctx2, strata2):
    """Across random members, the stratum profile equals the computed height
    clipped at the depth of the table."""
    rng = random.Random(7)
    depth = len(strata2.polynomials)  # 3
    checked = 0
    while checked < 100:
        values = [rng.randrange(2) for _ in ctx2.monomials]
        g = ctx2.specialize_generic(values)
        if g.is_zero():
            continue
        checked += 1
        prof = strata2.profile(values)
        res = height_graded_cy([g], Grading.standard(3), n_max=depth + 1)
        if res.verdict == FINITE and res.n <= depth:
            assert prof == res.n
        else:
            assert prof == depth + 1


@pytest.fixture(scope="module")
def strata3(ctx3):
    return strata_polynomials(ctx3, 3)


def test_profile_matches_termwise_evaluation(ctx3, strata3):
    """The compiled profile against b_1, b_2 evaluated term by term on random
    F_3 points, given as sequences and as name mappings; every profile value
    occurs."""
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        values = [rng.randrange(3) for _ in ctx3.monomials]
        h = 1
        for b in strata3.polynomials:
            if O.evaluate_coefficients(ctx3.nvars, b, values):
                break
            h += 1
        assert strata3.profile(values) == h
        assert strata3.profile(dict(zip(ctx3.coefficient_names, values))) == h
        seen.add(h)
    assert seen == {1, 2, 3}


@pytest.mark.parametrize("family", ["p2", "p3"])
@given(data=st.data())
def test_profile_is_the_height_read_by_evaluating_each_stratum(family, data, request):
    """At random points of the plane cubic families at p = 2 (b_1..b_3) and
    p = 3 (b_1, b_2), values outside [0, p) included, `profile` is the h
    read by evaluating each b_i with `strata._evaluate`."""
    table = request.getfixturevalue({"p2": "strata2", "p3": "strata3"}[family])
    ctx = table.context
    # zeros weighted up, so that deeper strata are reached too
    value = st.one_of(st.just(0), st.integers(-ctx.p, 2 * ctx.p))
    n = len(ctx.monomials)
    values = data.draw(st.lists(value, min_size=n, max_size=n))
    h = 1
    for b in table.polynomials:
        if _evaluate(b, [0] * ctx.nvars + values):
            break
        h += 1
    assert table.profile(values) == h


def test_profile_rejects_polynomials_in_x(ctx2):
    bad = StrataPolynomials(ctx2, (ctx2.ring.zero, ctx2.generic))
    with pytest.raises(RingError, match="not free of the x-variables"):
        bad.profile([1] * len(ctx2.monomials))


def test_specialization_commutes_with_coefficients(ctx2, strata2):
    """Evaluating b_i at a point equals computing the level-i coefficient of
    the specialized member directly, and reading it off the member's whole
    truncated product.  From level 3 on both sides come from
    `capped_coefficients`, on the generic member and on the member."""
    rng = random.Random(11)
    grading = Grading.standard(3)
    checked = 0
    while checked < 50:
        values = [rng.randrange(2) for _ in ctx2.monomials]
        g = ctx2.specialize_generic(values)
        if g.is_zero():
            continue
        checked += 1
        for i, b in enumerate(strata2.polynomials, start=1):
            c = O.evaluate_coefficients(ctx2.nvars, b, values)
            assert c == graded_cy_coefficient([g], i) == O.graded_cy_coefficient_product([g], i)


def test_delta1_tilde_matches_plain_delta1_on_specialized(ctx2):
    """On a member with all coefficients 0/1 the grouped carry specializes to
    the ordinary carry of the specialized polynomial."""
    values = {n: 0 for n in ctx2.coefficient_names}
    for name in ("a300", "a030", "a003", "a111"):
        values[name] = 1
    g = ctx2.specialize_generic(values)
    tilde = delta1_tilde(ctx2, ctx2.generic)
    vals = ctx2._point_values(values)
    small = g.ring
    collected = {}
    for exps, c in tilde.terms.items():
        scaled = c
        for e, v in zip(exps[3:], vals):
            if e:
                scaled = scaled * pow(v, e, 2) % 2
        if scaled:
            key = exps[:3]
            collected[key] = (collected.get(key, 0) + scaled) % 2
    assert small.from_terms({k: v for k, v in collected.items() if v}) == delta1(g)


@pytest.fixture(scope="module")
def tilde3(ctx3):
    return delta1_tilde(ctx3, ctx3.generic**2)


@given(values=st.lists(st.integers(0, 2), min_size=10, max_size=10))
def test_delta1_tilde_specializes_at_any_point(ctx3, tilde3, values):
    """Δ̃₁(G²) at p = 3 evaluated at an arbitrary F_3 point is Δ₁(g²) of the
    specialized member: specialization commutes with the grouped carry."""
    g = ctx3.specialize_generic(values)
    collected = {}
    for exps, c in tilde3.terms.items():
        for e, v in zip(exps[3:], values):
            c = c * pow(v, e, 3)
        collected[exps[:3]] = collected.get(exps[:3], 0) + c
    assert g.ring.from_terms(collected) == delta1(g**2)


# ---------------------------------------------------------------------------
# smoothness filter
# ---------------------------------------------------------------------------


def test_smoothness_filter():
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z"))
    assert is_smooth_at_rational_points(ring.parse("x^3 + y^3 + z^3"))
    assert not is_smooth_at_rational_points(ring.parse("x^3"))
    assert not is_smooth_at_rational_points(ring.parse("x^3 + y^2*z"))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_height_one(ctx2):
    g = search_height(ctx2, 1, samples=200)
    assert g is not None
    res = height_graded_cy([g], Grading.standard(3), n_max=2)
    assert (res.verdict, res.n) == (FINITE, 1)
    assert is_smooth_at_rational_points(g)


def test_search_height_two_restricted(ctx2):
    """In the sub-family without x1 off the diagonal (N = p^2 - 1 here) every
    finite height is at least 2, so target 2 is the first reachable one."""
    g = search_height(ctx2, 2, samples=400, restrict=True)
    assert g is not None
    for m in g.terms:
        assert m[0] in (0, 3)
    res = height_graded_cy([g], Grading.standard(3), n_max=3)
    assert (res.verdict, res.n) == (FINITE, 2)


def test_search_reports_failure_as_none(ctx2):
    assert search_height(ctx2, 3, samples=2) is None


# ---------------------------------------------------------------------------
# pairs (hypersurface, hyperplane section)
# ---------------------------------------------------------------------------


def test_hyperplane_section_never_drops_height():
    """For 20 random cubic threefold slices the section system's height is at
    least the ambient hypersurface's (Infinite counts as +inf)."""
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z", "w"))
    cubics = [e for e in product(range(4), repeat=4) if sum(e) == 3]
    linears = [e for e in product(range(2), repeat=4) if sum(e) == 1]
    rng = random.Random(0)

    def sample(monos):
        while True:
            f = ring.from_terms({e: rng.randrange(2) for e in monos})
            if not f.is_zero():
                return f

    def as_number(res):
        return math.inf if res.verdict == INFINITE else res.n

    for _ in range(20):
        f = sample(cubics)
        L = sample(linears)
        hx = as_number(height([f], n_max=6))
        hy = as_number(height([f, L], n_max=6))
        assert hy >= hx
