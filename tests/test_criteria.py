"""Tests for the height criteria: splitting tests, chain engines, fixed
points, certificates and the orchestrator."""

import itertools
import math
import random
import re
import traceback

import pytest
from hypothesis import assume, given, settings, strategies as st

from qfsplit import (
    Budget,
    ExponentOverflowError,
    Grading,
    Ideal,
    Polynomial,
    PolynomialRing,
    PrimeField,
    RingError,
    delta1,
    enclosure_closure,
    fedder_fsplit,
    height,
    height_graded_cy,
    height_local,
    non_qfs_quick,
    product_witness,
    qfs_decide,
    result_to_json,
    verify_certificate,
    verify_infinity_certificate,
    verify_witness_chain,
)
from qfsplit.rings import EXPONENT_LIMIT, ExponentCodec
from qfsplit.criteria import (
    CHAIN_WITNESS,
    ChainStep,
    Certificate,
    COEFFICIENT_WITNESS,
    FINITE,
    I_INFTY_STABILIZED,
    INFINITE,
    LOWER_BOUND,
    NON_QFS,
    UNKNOWN,
    _Chain,
    _integer_root,
    _Splitting,
    _strict_chain_search,
    capped_coefficients,
    graded_cy_applicable,
    graded_cy_coefficient,
    verify_witness_levels,
)
from qfsplit import criteria
from qfsplit.cli import rdp_rows
from qfsplit.groebner import colon_ideal, ideal_equal, ideal_membership
from qfsplit.frobenius import in_max_ideal_frobenius_power, packed_theta, theta, u_map
from qfsplit import groebner, rings

import oracles as O
from conftest import nonzero_poly_strategy, poly_strategy, ring_over


def ring_named(p, names):
    return PolynomialRing(PrimeField(p), names)


# ---------------------------------------------------------------------------
# F-splitting
# ---------------------------------------------------------------------------


def test_fedder_fsplit_knowns():
    r5 = ring_named(5, ["x1", "x2", "x3", "x4"])
    assert fedder_fsplit(r5.parse("x1^4 + x2^4 + x3^4 + x4^4"))
    r2 = ring_over(2)
    assert not fedder_fsplit(r2.parse("x^3 + y^3 + z^3"))
    r7 = ring_over(7)
    assert not fedder_fsplit(r7.parse("x^3 + y^2*z"))
    assert fedder_fsplit(ring_over(3).variable("x"))


@pytest.mark.parametrize(
    "p,text",
    [
        (2, "x^3 + y^3 + z^3"),
        (2, "x^3 + x*y*z + y^2*z + z^3"),
        (3, "x^3 + y^2*z"),
        (5, "x^3 + y^2*z"),
        (7, "x^2*y + y^2*z + z^2*x"),
    ],
)
def test_fedder_equals_height_one(p, text):
    """fedder_fsplit(f) iff the orchestrator verdict is Finite(1)."""
    ring = ring_over(p)
    f = ring.parse(text)
    res = height(f, n_max=4)
    assert fedder_fsplit(f) == (res.verdict == FINITE and res.n == 1)


# ---------------------------------------------------------------------------
# graded engine
# ---------------------------------------------------------------------------


def test_graded_cy_fermat_quartic_p5():
    ring = ring_named(5, ["x1", "x2", "x3", "x4"])
    f = ring.parse("x1^4 + x2^4 + x3^4 + x4^4")
    res = height_graded_cy([f], Grading.standard(4))
    assert (res.verdict, res.n) == (FINITE, 1)


def test_graded_cy_supersingular_cubic():
    ring = ring_over(2)
    f = ring.parse("x^3 + y^3 + z^3")
    res = height_graded_cy([f], Grading.standard(3))
    assert (res.verdict, res.n) == (FINITE, 2)
    assert res.certificate.kind == COEFFICIENT_WITNESS


@pytest.fixture
def theta_images(monkeypatch):
    """The arguments of every packed θ that `criteria` applies from here on
    (the graded engine's orbit)."""
    images = []

    def counting_theta(a, codec, table, p):
        images.append(a)
        return packed_theta(a, codec, table, p)

    monkeypatch.setattr("qfsplit.criteria.packed_theta", counting_theta)
    return images


@pytest.fixture
def orbit_images(monkeypatch):
    """The orbit terms t_n = f^{p−2}·s_{n−1} that the graded engine forms from
    here on: its products over F_p (the splitting's powers of the
    Teichmüller lift are products over ℤ/p²)."""
    images = []

    def counting_mul(f, g, q):
        out = rings.packed_mul(f, g, q)
        if math.isqrt(q) ** 2 != q:
            images.append(out)
        return out

    monkeypatch.setattr("qfsplit.criteria.packed_mul", counting_mul)
    return images


LOWER_BOUND_CUBIC = (3, "x^3 + x^2*y + y^3 + x*y*z + y*z^2")


def test_lower_bound_run_forms_no_theta_past_the_cutoff(theta_images):
    """A cubic at p = 3 whose target coefficient vanishes and whose θ orbit
    stays nonzero through level 5: a run to n_max reads n_max coefficients,
    so it forms n_max − 1 θ images."""
    p, text = LOWER_BOUND_CUBIC
    f = ring_over(p).parse(text)
    for n_max in range(1, 6):
        theta_images.clear()
        res = height_graded_cy([f], Grading.standard(3), n_max=n_max)
        assert (res.verdict, res.n, res.steps) == (LOWER_BOUND, n_max, n_max)
        assert res.diagnostics == ()
        assert len(theta_images) == n_max - 1
        assert all(theta_images)


def test_graded_run_stays_packed(monkeypatch, theta_images):
    """The engine reads every level from packed exponents: a LowerBound(5)
    run forms four packed θ images and calls neither the polynomial θ nor
    `Polynomial.__pow__`; `criteria` does not import the polynomial θ."""
    p, text = LOWER_BOUND_CUBIC
    f = ring_over(p).parse(text)
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr("qfsplit.frobenius.theta", refuse("frobenius.theta"))
    assert not hasattr(criteria, "theta")
    monkeypatch.setattr(Polynomial, "__pow__", refuse("Polynomial.__pow__"))
    res = height_graded_cy([f], Grading.standard(3), n_max=5)
    assert (res.verdict, res.n) == (LOWER_BOUND, 5)
    assert calls == []
    assert len(theta_images) == 4


def test_vanishing_orbit_is_reported_at_its_level():
    """The cusp y²z + x³ at p = 2: c_1 = 0 (no xyz term), and θ(F_*f) =
    u(F_*(x³y²z·f)) = 0, so the orbit vanishes at level 2 and the run stops
    there with LowerBound(n_max) and a diagnostic."""
    ring = ring_over(2)
    f = ring.parse("x^3 + y^2*z")
    assert O.u_oracle(delta1(f) * f).is_zero()
    res = height_graded_cy([f], Grading.standard(3), n_max=5)
    assert (res.verdict, res.n, res.steps) == (LOWER_BOUND, 5, 2)
    assert res.diagnostics == (
        "theta orbit vanished at level 2; every later coefficient is zero",
    )


def test_delta_overflow_is_raised_where_the_second_level_needs_it():
    """f = x^{K+1} under the weights (1, K), K = 2^31, at p = 2: c_1 = 0 and
    t_1 = f ≠ 0, so level 2 needs Δ₁(f), whose exponents pass the limit.
    The error comes after the first step and before the second one."""
    ring = ring_named(2, ["x", "y"])
    k = 2**31
    f = ring.from_terms({(k + 1, 0): 1})
    for limit in (1, 2):
        budget = Budget(limit)
        with pytest.raises(ExponentOverflowError):
            height_graded_cy([f], Grading([[1, k]]), budget=budget)
        assert budget.steps == 1


def test_delta_overflow_is_raised_where_delta1_of_f_still_fits():
    """The engine multiplies by Δ₁(f), whose exponents stay within p·M, but
    the level-2 verifier pairs f^{p−1} with Δ = Δ₁(f^{p−1}) and keeps Δ's
    bound p(p−1)·M, though it reads Δ's coefficients from Δ₁(f) without
    forming Δ, so the run raises where it first reaches level 2 on that
    bound, and so does the verifier.  At p = 3,
    f = x^M under the weights (1, M − 1) with p·M ≤ EXPONENT_LIMIT <
    p(p−1)·M: c_1 = 0 and t_1 = f² ≠ 0."""
    ring = ring_named(3, ["x", "y"])
    m = EXPONENT_LIMIT // 3
    assert 3 * m <= EXPONENT_LIMIT < 6 * m
    f = ring.from_terms({(m, 0): 1})
    grading = Grading([[1, m - 1]])
    assert _Splitting([f]).packed_delta1 == {} and delta1(f).is_zero()
    res = height_graded_cy([f], grading, n_max=1)
    assert (res.verdict, res.n, res.steps) == (LOWER_BOUND, 1, 1)
    for limit in (1, 2):
        budget = Budget(limit)
        with pytest.raises(ExponentOverflowError):
            height_graded_cy([f], grading, budget=budget)
        assert budget.steps == 1
    with pytest.raises(ExponentOverflowError):
        graded_cy_coefficient([f], 2)


def test_the_chain_needs_only_delta1_of_f_within_the_exponent_limit():
    """The I_n chain applies θ only on Ker u, as f^{p−2}·u(F_*(−Δ₁(f)·w)),
    so it needs p·M ≤ EXPONENT_LIMIT, not Δ₁(f^{p−1})'s p(p−1)·M.  At
    p = 3, z² + x³ + y^M with M = EXPONENT_LIMIT // 4 lies in between: the
    local chain reaches its cutoff, I_∞ decides Infinite with a certificate
    that verifies, and the quick tests agree."""
    ring = ring_over(3)
    m = EXPONENT_LIMIT // 4
    assert 3 * m <= EXPONENT_LIMIT < 6 * m
    f = ring.parse("z^2 + x^3") + ring.monomial((0, m, 0))
    I = Ideal(ring, [f])
    with pytest.raises(ExponentOverflowError):
        _Splitting([f]).check_delta()
    local = height(I, n_max=4, strategy="local")
    assert (local.verdict, local.n) == (LOWER_BOUND, 4)
    res = height(I, strategy="qfs")
    assert (res.verdict, res.route) == (INFINITE, "i-infinity")
    assert res.certificate.kind == I_INFTY_STABILIZED and verify_certificate(I, res.certificate)
    quick = height(I)
    assert (quick.verdict, quick.route) == (INFINITE, "quick-tests")


OVERFLOW_X = ring_over(3).parse("x")
OVERFLOW_Y = ring_over(3).parse("y")
# z² + x³ + y^M at p = 3 with M = EXPONENT_LIMIT // 2, and its f^{p−1}
OVERFLOW_F = ring_over(3).parse("z^2 + x^3") + ring_over(3).monomial((0, EXPONENT_LIMIT // 2, 0))
OVERFLOW_FP1 = OVERFLOW_F**2
PAST_THE_LIMIT = "cannot be re-verified within the exponent limit"


@pytest.mark.parametrize(
    "kind,data,reason",
    [
        (CHAIN_WITNESS, {"chain": [OVERFLOW_X, OVERFLOW_Y]}, "level 1: x is not in I_1"),
        (CHAIN_WITNESS, {"chain": [OVERFLOW_X]}, "escape element x is not in I_1"),
        (
            CHAIN_WITNESS,
            {"levels": [], "escape": OVERFLOW_X, "escape_level": 1},
            "escape element x is not in I_1",
        ),
        ("FixedPointEnclosure", {"generators": [OVERFLOW_X**3]}, "unknown certificate kind"),
        (I_INFTY_STABILIZED, {"generators": [OVERFLOW_X**3], "iterations": 1}, "is not in J"),
        (CHAIN_WITNESS, {"chain": [OVERFLOW_FP1, OVERFLOW_Y]}, PAST_THE_LIMIT),
        (
            CHAIN_WITNESS,
            {"levels": [[ChainStep(OVERFLOW_FP1, OVERFLOW_Y)]], "escape": OVERFLOW_Y, "escape_level": 2},
            PAST_THE_LIMIT,
        ),
        (I_INFTY_STABILIZED, {"generators": [OVERFLOW_FP1], "iterations": 1}, PAST_THE_LIMIT),
    ],
)
def test_certificates_past_the_exponent_limit_are_refused_with_a_reason(kind, data, reason):
    """At p = 3, f = z² + x³ + y^M with M = EXPONENT_LIMIT // 2 has its I_1
    = (f^{p−1}) within the exponent limit (f^{p−1} needs 2M), but θ needs
    Δ₁(f) (p·M) and a trap check needs the translates x^α·f^{p−1} (up to
    2M + p − 1), which pass it.  A certificate whose check reaches θ or the
    translates, as the chain [f^{p−1}, y], its levelled form and the trap
    (f^{p−1}) do, is refused as past the limit; one that fails before, on
    x ∉ I_1, on an escape outside the last level or on I_1 ⊄ J, is refused
    for that reason.  Each refusal is a reason, not an exception."""
    reasons = []
    I = Ideal(OVERFLOW_F.ring, [OVERFLOW_F])
    assert verify_certificate(I, Certificate(kind, data), reasons=reasons) is False
    assert reason in reasons[0]


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_packed_pairing_is_the_coefficient_of_the_product(p, data):
    """`_pairing` reads the x^cap coefficient of a·b from packed terms.  The
    exponents run up to twice the cap, so many terms lie over it in some
    field, and their lookup keys cap − e borrow across fields; while the
    packing holds every field of a·b, none of them may pair with a term."""
    nvars = data.draw(st.integers(1, 3))
    ring = ring_over(p, ("x", "y", "z")[:nvars])
    cap = data.draw(st.tuples(*[st.integers(0, 6)] * nvars))
    top = 2 * max(cap) + 1
    a, b = (data.draw(poly_strategy(ring, max_exp=top, max_terms=8)) for _ in range(2))
    codec = ExponentCodec(nvars, top.bit_length() + 1)
    packed = [{codec.pack(e): c for e, c in q.terms.items()} for q in (a, b)]
    expected = (a * b).terms.get(cap, 0)
    assert criteria._pairing(*packed, codec.pack(cap), p) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=50)
@given(data=st.data())
def test_level_two_reading_equals_the_pairing_with_the_formed_delta(p, data):
    """At level 2 the verifier reads Σ_e f^{p−1}[e]·Δ[(p²−1)𝟙 − e] without
    forming Δ = Δ₁(f^{p−1}): each Δ coefficient it reads comes from Δ₁(f) by
    the δ-ring rule.  It must equal the pairing with the formed Δ and the
    coefficient read off the whole product, on forms of degree N − 1 to
    N + 1 in N variables.  Half the draws gain the term x^{p+2}, so that
    (p−1)·M > p² − 1: f^{p−1} then has terms over the cap, whose lookup
    keys borrow across fields and must match nothing."""
    nvars = data.draw(st.integers(2, 4))
    ring = ring_over(p, ("x", "y", "z", "w")[:nvars])
    degree = nvars + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(monomials), st.integers(1, p - 1), min_size=2, max_size=8 if p < 5 else 5
        )
    )
    if data.draw(st.booleans()):
        terms[(p + 2,) + (0,) * (nvars - 1)] = 1
    f = ring.from_terms(terms)
    sp = _Splitting([f])
    cap = sp.codec.pack([p * p - 1] * nvars)
    c = graded_cy_coefficient([f], 2)
    assert c == criteria._pairing(sp.packed_fp1, sp.packed_delta, cap, p)
    assert c == O.graded_cy_coefficient_product([f], 2)


def test_weighted_orbit_near_its_exponent_bound():
    """Under the weights (1, 1, 1, 2) at p = 5, this f has M = 3, and its θ
    orbit climbs to a z-exponent of 13, near the bound t_n ≤ p·M = 15 that
    sizes the packed fields, and stays nonzero through level 8.  The orbit
    terms t_1, …, t_7 that the engine twists, and the next terms
    f^{p−2}·s_n that it reads c_{n+1} from, equal the polynomial orbit,
    whose Δ comes from the ghost route, level by level."""
    ring = ring_named(5, ["x", "y", "z", "w"])
    f = ring.parse("3*x^2*y*z^2 + 4*y^2*z^3 + 2*x*z^2*w + 2*z^3*w + 3*z*w^2")
    terms, twists = [], []
    unpack = _Splitting([f]).codec.unpack

    def polynomial(packed):
        return ring.from_terms({unpack(e): c % 5 for e, c in packed if c % 5})

    def recording(a, codec, table, p):
        out = packed_theta(a, codec, table, p)
        terms.append(polynomial(a.items()))
        twists.append(polynomial(out.items()))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("qfsplit.criteria.packed_theta", recording)
        res = height_graded_cy([f], Grading([[1, 1, 1, 2]]), n_max=8)
    assert (res.verdict, res.n, res.diagnostics) == (LOWER_BOUND, 8, ())
    assert f.max_exponent() == 3
    orbit = [f**4]
    delta = delta1(orbit[0])
    for _ in range(7):
        orbit.append(theta(orbit[-1], delta))
    assert terms == orbit[:7]
    assert [f**3 * s for s in twists] == orbit[1:]
    assert len(terms) == 7
    assert max(t.max_exponent() for t in orbit[1:]) == 13


def weighted_monomials(weights, degree):
    """The exponent vectors of the given weighted degree."""
    if len(weights) == 1:
        return [] if degree % weights[0] else [(degree // weights[0],)]
    return [
        (k,) + rest
        for k in range(degree // weights[0] + 1)
        for rest in weighted_monomials(weights[1:], degree - k * weights[0])
    ]


def random_form(rng, ring, weights, degree, size, skip=()):
    """A sum of `size` random monomials of the weighted degree (fewer if
    there are fewer), other than `skip`, with random nonzero coefficients."""
    monomials = [e for e in weighted_monomials(weights, degree) if e not in skip]
    chosen = rng.sample(monomials, min(size, len(monomials)))
    return ring.from_terms({e: rng.randrange(1, ring.field.p) for e in chosen})


# (p, weights, degrees of the generators, terms per generator): random
# hypersurfaces and complete intersections whose degrees sum to the weight sum
CY_SHAPES = [
    (2, (1, 1, 1), (3,), 6),
    (3, (1, 1, 1), (3,), 10),
    (5, (1, 1, 1), (3,), 6),
    (7, (1, 1, 1), (3,), 4),
    (2, (1, 1, 1, 1), (4,), 9),
    (3, (1, 1, 1, 1), (4,), 10),
    (5, (1, 1, 1, 1), (4,), 5),
    (2, (1, 1, 1, 1, 1), (5,), 10),
    (2, (1, 2, 3), (6,), 5),
    (3, (1, 2, 3), (6,), 7),
    (5, (1, 2, 3), (6,), 5),
    (7, (1, 2, 3), (6,), 4),
    (2, (1, 1, 2), (4,), 6),
    (3, (1, 1, 2), (4,), 9),
    (5, (1, 1, 2), (4,), 5),
    (2, (1, 1, 1, 1), (2, 2), 6),
    (3, (1, 1, 1, 1), (2, 2), 5),
    (5, (1, 1, 1, 1), (2, 2), 2),
    (7, (1, 1, 1, 1), (2, 2), 2),
    (2, (1, 1, 1, 1, 1), (2, 3), 5),
    (3, (1, 1, 1, 1, 1), (2, 3), 3),
]


@pytest.mark.parametrize(
    "p,weights,degrees,size",
    [
        pytest.param(p, w, d, size, id=f"p{p}-w{''.join(map(str, w))}-d{'+'.join(map(str, d))}")
        for p, w, d, size in CY_SHAPES
    ],
)
def test_graded_orbit_is_the_theta_orbit_of_the_public_maps(theta_images, p, weights, degrees, size):
    """On random homogeneous systems whose degrees sum to the weight sum,
    the orbit terms that the engine twists are t_1 = f^{p−1},
    t_{n+1} = theta(t_n, delta1(f^{p−1})) of the public maps, level by
    level, and the run stops where that orbit's c_n is first nonzero or
    its t_n vanishes.  On every level u(F_*t_n) is the constant c_n: that
    is why the engine may drop the h·u(F_*t) term of θ.  On a random t of
    the orbit's degree without the (x_1⋯x_N)^{p−1} term, so u(F_*t) = 0,
    θ(F_*t) = f^{p−2}·s for the engine's twist s of t.  After the first
    draw, only systems that are not F-split (c_1 = 0) are run, so that the
    orbits go past level 1."""
    rng = random.Random(f"{p}:{weights}:{degrees}")
    ring = ring_named(p, ["x", "y", "z", "w", "v"][: len(weights)])
    grading = Grading([weights])
    top = (p - 1,) * len(weights)
    n_max = 4
    levels = []
    for _ in range(40):
        gens = [random_form(rng, ring, weights, d, size) for d in degrees]
        f = math.prod(gens[1:], start=gens[0])
        orbit = [f ** (p - 1)]
        if levels and orbit[0].terms.get(top):
            continue
        delta = delta1(orbit[0])
        while len(orbit) < n_max:
            orbit.append(theta(orbit[-1], delta))
        coefficients = [t.terms.get(top, 0) for t in orbit]
        assert [u_map(t) for t in orbit] == [ring.constant(c) for c in coefficients]
        stop = next((n for n, t in enumerate(orbit, 1) if t.terms.get(top) or not t), n_max)
        levels.append(stop)

        sp = _Splitting(gens)
        unpack = sp.codec.unpack
        theta_images.clear()
        res = height_graded_cy(gens, grading, n_max=n_max)
        expected = (FINITE, stop) if coefficients[stop - 1] else (LOWER_BOUND, n_max)
        assert (res.verdict, res.n, res.steps) == expected + (stop,)
        terms = [ring.from_terms({unpack(e): c for e, c in a.items()}) for a in theta_images]
        assert terms == orbit[: stop - 1]

        t = random_form(rng, ring, weights, (p - 1) * sum(weights), 8, skip={top})
        s = sp.twist({sp.codec.pack(e): c for e, c in t.terms.items()})
        s = ring.from_terms({unpack(e): c for e, c in s.items()})
        assert theta(t, delta) == f ** (p - 2) * s
        if len(levels) == 4:
            break
    assert len(levels) == 4 and max(levels) >= 2


def test_finite_one_run_forms_no_f_to_the_p_minus_one(monkeypatch, theta_images):
    """Level 1 is read as Σ f^{p−2}[e]·f[(p−1)𝟙 − e], so a Finite(1) run
    raises f to no power but p − 2, and forms no θ image: the splitting
    never multiplies F^{p−2} by F to form F^{p−1}."""
    powers, products = [], []

    def counting_power(f, n, q):
        powers.append(n)
        return rings.packed_power(f, n, q)

    def counting_mul(f, g, q):
        products.append(q)
        return rings.packed_mul(f, g, q)

    monkeypatch.setattr("qfsplit.criteria.packed_power", counting_power)
    monkeypatch.setattr("qfsplit.criteria.packed_mul", counting_mul)
    ordinary = [
        (2, "x^3 + x*y*z + y^2*z + z^3"),
        (3, "x^3 + y^3 + z^3 + x*y*z"),
        (7, "x^3 + y^3 + z^3"),
    ]
    for p, text in ordinary:
        f = ring_over(p).parse(text)
        powers.clear()
        res = height_graded_cy([f], Grading.standard(3))
        assert (res.verdict, res.n) == (FINITE, 1)
        assert powers == [p - 2]
    assert products == []
    assert theta_images == []


def test_graded_cy_rejects_wrong_degree_sum():
    ring = ring_over(2)
    # quadric in three variables: degree 2 != 3
    reason = graded_cy_applicable([ring.parse("x^2 + y*z")], Grading.standard(3))
    assert reason is not None and "degree sum" in reason


def test_graded_cy_rejects_bigraded_conic_bundle():
    """The bidegree of the conic-bundle equation is (1,2), not the variable
    total (3,3) — the coefficient route must turn it down."""
    ring = ring_named(2, ["x0", "x1", "x2", "y0", "y1", "y2"])
    f = ring.parse("x0*y0^2 + x1*y1^2 + x2*y2^2")
    g = Grading([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    assert graded_cy_applicable([f], g) is not None
    with pytest.raises(RingError):
        height_graded_cy([f], g)


def test_graded_cy_weighted_double_cover():
    """Weighted gradings qualify when deg_W(f) equals the weight sum."""
    ring = ring_named(2, ["x", "y", "z", "w"])
    weights = Grading([[1, 1, 1, 3]])
    f = ring.parse("w^2 + x^6 + y^6 + z^6 + x*y*z*w")
    assert graded_cy_applicable([f], weights) is None
    res = height_graded_cy([f], weights, n_max=3)
    assert res.verdict in (FINITE, INFINITE, LOWER_BOUND)


def test_coefficient_against_uncapped_expansion():
    """Level-2 coefficient for a cubic at p=2 equals the raw expansion of
    f·Δ₁(f) at (xyz)³."""
    ring = ring_over(2)
    for text in ("x^3 + y^3 + z^3", "x^3 + x*y*z + y^2*z + z^3", "x^2*y + y^2*z + z^2*x"):
        f = ring.parse(text)
        raw = (f * delta1(f)).terms.get((3, 3, 3), 0)
        assert graded_cy_coefficient([f], 2) == raw


CUBICS = (
    "x^3 + y^3 + z^3",
    "x^3 + x*y*z + y^2*z + z^3",
    "x^2*y + y^2*z + z^2*x",
    "y^2*z + x^3 + x*z^2",
    "y^2*z + x^3 + 2*x*z^2 + z^3",
)


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_capped_coefficients_are_the_truncated_product_coefficients(p, data):
    """On f^{p−1} and Δ₁(f^{p−1}) with every variable an x, c_1, c_2, c_3 of
    `capped_coefficients` are constants, the coefficients read off the whole
    product truncated after each factor, on forms of degree N in N = 2 or 3
    variables.  It ticks len(E_n) for n = 2, 3."""
    nvars = data.draw(st.integers(2, 3))
    ring = ring_over(p, ("x", "y", "z")[:nvars])
    monomials = [e for e in itertools.product(range(nvars + 1), repeat=nvars) if sum(e) == nvars]
    f = ring.from_terms(
        data.draw(st.dictionaries(st.sampled_from(monomials), st.integers(1, p - 1), min_size=1))
    )
    fp1 = f ** (p - 1)
    budget = Budget()
    coefficients = capped_coefficients(fp1, delta1(fp1), 3, nvars, budget)
    for n, c in enumerate(coefficients, start=1):
        assert set(c.terms) <= {(0,) * nvars}
        assert c.terms.get((0,) * nvars, 0) == O.graded_cy_coefficient_product([f], n)
    e2 = delta1(fp1).capped_mul(ring.one, [p * p - 1] * nvars)
    e3 = e2.pth_power().capped_mul(delta1(fp1), [p**3 - 1] * nvars)
    assert budget.steps == len(e2) + len(e3)


def test_every_entry_point_refuses_a_system_without_a_nonzero_generator():
    """No regular sequence is empty or has a zero element, and S/(0) = S is
    F-split: each entry point raises RingError (from the one splitting it
    builds) rather than answer, or fail with IndexError.  An `Ideal` keeps
    the generators it is given, so a zero one among nonzero ones is refused
    through every entry point that takes an Ideal, as `height` refuses it."""
    ring = ring_over(3)
    x = ring.variable("x")
    f = x**3 + ring.parse("y^2*z")
    empty = Ideal(ring, [ring.zero])
    assert empty.gens == (ring.zero,)
    cert = Certificate(COEFFICIENT_WITNESS, {"level": 1, "coefficient": 1, "grading": [[1, 1, 1]]})
    levelled = Certificate(CHAIN_WITNESS, {"levels": [], "escape": x, "escape_level": 1})
    calls = [
        lambda: graded_cy_coefficient([], 1),
        lambda: non_qfs_quick([ring.zero]),
        lambda: non_qfs_quick([]),
        lambda: fedder_fsplit([ring.zero]),
        lambda: fedder_fsplit([]),
    ]
    for system in (empty, Ideal(ring, [f, ring.zero])):
        assert system.gens[-1] == ring.zero
        calls += [
            lambda I=system: height_local(I),
            lambda I=system: qfs_decide(I),
            lambda I=system: enclosure_closure(I),
            lambda I=system: verify_certificate(I, cert),
            lambda I=system: verify_witness_chain(I, [x]),
            lambda I=system: verify_witness_levels(I, levelled),
            lambda I=system: verify_infinity_certificate(I, Ideal(ring, [x**3])),
            lambda I=system: fedder_fsplit(I),
            lambda I=system: height(I, strategy="local"),
        ]
    calls += [
        lambda s=strategy, g=gens: height(g, strategy=s)
        for strategy in ("auto", "local", "graded", "qfs")
        for gens in ([ring.zero], [x**3 + ring.parse("y^2*z"), ring.zero])
    ]
    for call in calls:
        with pytest.raises(RingError, match="no zero one"):
            call()


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 3), (5, 2), (2, 4), (3, 4)])
def test_coefficient_matches_whole_capped_product(p, levels):
    """The coefficient read as Σ f^{p−1}[e]·E_n[cap−e] equals the one read off
    the whole product f^{p−1}·Δ₁(f^{p−1})^{p^{n−2}+⋯+1}, truncated at the
    cap after each factor (zero and nonzero values both occur).  At n = 2,
    E_2 is Δ₁(f^{p−1}) itself, uncapped; levels 2–4 take the exponents
    1, 3, 7 at p = 2 and 1, 4, 13 at p = 3."""
    ring = ring_over(p)
    seen = set()
    for text in CUBICS:
        f = ring.parse(text)
        for n in range(1, levels + 1):
            c = graded_cy_coefficient([f], n)
            assert c == O.graded_cy_coefficient_product([f], n)
            seen.add(c != 0)
    assert seen == {False, True}


# K3 quartics at p = 3 by height, found by the θ-orbit route
K3_QUARTICS = {
    3: "2*x^3*y + x^2*y^2 + 2*x^3*z + 2*x*z^3 + 2*y^2*z*w + x*y*w^2 + 2*x*z*w^2 + 2*y*w^3 + w^4",
    4: "x*y^3 + x*y^2*z + 2*x*y*z^2 + z^4 + x*z^2*w + y*z^2*w + x^2*w^2 + y*w^3 + w^4",
    5: "2*x^4 + 2*x^3*y + y^4 + 2*x^2*y*z + 2*y^3*z + 2*y^2*z^2 + 2*x^2*z*w + 2*w^4",
    8: "y^4 + 2*x^3*z + 2*x^2*z^2 + 2*y^2*z^2 + 2*z^4 + 2*x*y^2*w + x*y*z*w + 2*y^2*z*w"
    " + 2*x^2*w^2 + z^2*w^2 + y*w^3",
}


@pytest.mark.parametrize("h", sorted(K3_QUARTICS))
def test_coefficient_route_agrees_with_theta_orbit_on_k3_quartics(h):
    """The capped Δ-power route reads zero below the θ-orbit height and a
    nonzero coefficient at it, and the orbit's certificate re-verifies."""
    ring = ring_named(3, ["x", "y", "z", "w"])
    f = ring.parse(K3_QUARTICS[h])
    res = height_graded_cy([f], Grading.standard(4))
    assert (res.verdict, res.n) == (FINITE, h)
    nonzero = [graded_cy_coefficient([f], n) != 0 for n in range(1, h + 1)]
    assert nonzero == [False] * (h - 1) + [True]
    assert verify_certificate(Ideal(ring, [f]), res.certificate)


@pytest.mark.parametrize(
    "p,names,text,h",
    [
        (2, "xyz", "x^3 + x*y*z + y^2*z + z^3", 1),
        (2, "xyz", "x^3 + y^3 + z^3", 2),
        (3, "xyz", "y^2*z + x^3 + x*z^2", 2),
    ]
    + [(3, "xyzw", text, h) for h, text in sorted(K3_QUARTICS.items())],
)
def test_finite_run_forms_theta_images_only_below_its_height(orbit_images, p, names, text, h):
    """A Finite(h) run reads c_h as Σ f^{p−2}[e]·s_{h−1}[(p−1)𝟙 − e], so it
    forms the θ images t_2, …, t_{h−1}: max(h − 2, 0) of them."""
    f = ring_named(p, list(names)).parse(text)
    res = height_graded_cy([f], Grading.standard(len(names)))
    assert (res.verdict, res.n, res.steps) == (FINITE, h, h)
    assert len(orbit_images) == max(h - 2, 0)


def test_coefficient_level_one_is_fedder():
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    assert (graded_cy_coefficient([f], 1) != 0) == fedder_fsplit(f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
def test_level_one_is_the_coefficient_of_the_whole_power(p, data):
    """Level 1 pairs f^a with f^b at (p−1)·𝟙, a = ⌊(p−1)/2⌋ and
    b = p − 1 − a, both formed over F_p from f.  It equals the (p−1)·𝟙
    coefficient of f^{p−1} formed by `Polynomial.__pow__`, for f the
    product of one or two generators in 1–4 variables."""
    ring = ring_over(p, ("x", "y", "z", "w")[: data.draw(st.integers(1, 4))])
    gens = data.draw(
        st.lists(nonzero_poly_strategy(ring, max_exp=2, max_terms=4), min_size=1, max_size=2)
    )
    f = math.prod(gens[1:], start=gens[0])
    assert graded_cy_coefficient(gens, 1) == (f ** (p - 1)).terms.get((p - 1,) * ring.nvars, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("two_generators", [False, True], ids=["one", "two"])
def test_level_one_overflows_exactly_where_the_whole_power_does(p, two_generators):
    """Level 1 forms only f^a and f^b, which stay within the limit where
    f^{p−1} does not, so it checks f^{p−1}'s bound first: it raises
    ExponentOverflowError exactly where `f ** (p − 1)` does, here for
    f = x^m + x·y (as one generator or as x^{m−1} + y times x) with m on
    either side of EXPONENT_LIMIT // (p − 1)."""
    ring = ring_named(p, ["x", "y"])
    x, y = ring.variable("x"), ring.variable("y")
    edge = EXPONENT_LIMIT // (p - 1)
    raised = 0
    for m in (edge - 1, edge, edge + 1):
        if m > EXPONENT_LIMIT:
            continue
        if two_generators:
            gens = [ring.monomial((m - 1, 0)) + y, x]
        else:
            gens = [ring.monomial((m, 0)) + x * y]
        f = math.prod(gens[1:], start=gens[0])
        try:
            expected = (f ** (p - 1)).terms.get((p - 1, p - 1), 0)
        except ExponentOverflowError:
            raised += 1
            with pytest.raises(ExponentOverflowError):
                graded_cy_coefficient(gens, 1)
        else:
            assert graded_cy_coefficient(gens, 1) == expected
    assert raised == (p > 2)


# a plane cubic with c_1 ≠ 0 at p = 3, 5 and 7
LEVEL_ONE_CUBIC = "x^3 + x*y*z + y^2*z + z^3"


@pytest.mark.parametrize("p", [3, 5])
def test_level_one_witnesses_verify_without_the_teichmuller_lift(monkeypatch, p):
    """A level-1 witness is re-checked from f alone: it verifies while the
    Teichmüller lift refuses to be formed."""
    ring = ring_over(p)
    I = Ideal(ring, [ring.parse(LEVEL_ONE_CUBIC)])
    cert = height_graded_cy(list(I.gens), Grading.standard(3)).certificate
    assert cert.kind == COEFFICIENT_WITNESS and cert.data["level"] == 1

    def refuse(packed, p):
        raise AssertionError("the level-1 verifier formed the Teichmüller lift")

    monkeypatch.setattr(criteria, "teichmuller_lift", refuse)
    assert verify_certificate(I, cert)


@pytest.mark.parametrize(
    "p,zero",
    [(3, "x^3 + y^3 + z^3"), (5, "x^3 + y^3 + z^3"), (7, "y^2*z + x^3 + x*z^2")],
)
def test_a_tampered_level_one_witness_is_refused(p, zero):
    """A level-1 witness with its coefficient off by one either way is
    refused, and so is every nonzero level-1 claim for a member whose c_1
    is 0 by the oracle."""
    ring = ring_over(p)
    I = Ideal(ring, [ring.parse(LEVEL_ONE_CUBIC)])
    cert = height_graded_cy(list(I.gens), Grading.standard(3)).certificate
    assert cert.data["level"] == 1 and verify_certificate(I, cert)
    for shift in (1, -1):
        claim = (cert.data["coefficient"] + shift) % p
        reasons = []
        data = dict(cert.data, coefficient=claim)
        assert not verify_certificate(I, Certificate(COEFFICIENT_WITNESS, data), reasons=reasons)
        assert ("disagrees" if claim else "witnesses no level") in reasons[0]
    g = ring.parse(zero)
    assert O.graded_cy_coefficient_product([g], 1) == 0
    for claim in range(1, p):
        reasons = []
        data = dict(cert.data, coefficient=claim)
        J = Ideal(ring, [g])
        assert not verify_certificate(J, Certificate(COEFFICIENT_WITNESS, data), reasons=reasons)
        assert "disagrees" in reasons[0]


@pytest.mark.parametrize("p,level", [(2, 33), (2, 2**40), (3, 2**40), (7, 12)])
def test_a_level_past_the_exponent_limit_is_refused_before_its_cap_is_formed(p, level):
    """A level whose cap p^n − 1 passes EXPONENT_LIMIT raises
    ExponentOverflowError (at p = 7 from level 12 on, as
    7^11 − 1 < EXPONENT_LIMIT < 7^12 − 1), and from n = 32 on before p^n
    is formed, so a witness at level 2^40 is refused with a reason at once."""
    ring = ring_over(p)
    f = ring.parse(LEVEL_ONE_CUBIC)
    with pytest.raises(ExponentOverflowError):
        graded_cy_coefficient([f], level)
    cert = Certificate(COEFFICIENT_WITNESS, {"level": level, "coefficient": 1, "grading": [[1, 1, 1]]})
    reasons = []
    assert not verify_certificate(Ideal(ring, [f]), cert, reasons=reasons)
    assert "exponent limit" in reasons[0] and f"level {level}" in reasons[0]


def test_coefficient_levels_at_the_exponent_limit():
    """At p = 2 the cap 2^n−1 of level 31 is the exponent limit itself, so
    level 31 is read like any other; level 32's cap passes the limit, and
    its witness is refused with a reason, not an exception."""
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    assert graded_cy_coefficient([f], 30) == 0
    assert graded_cy_coefficient([f], 31) == 0
    with pytest.raises(ExponentOverflowError):
        graded_cy_coefficient([f], 32)
    cert = Certificate(COEFFICIENT_WITNESS, {"level": 32, "coefficient": 1, "grading": [[1, 1, 1]]})
    reasons = []
    assert not verify_certificate(Ideal(ring, [f]), cert, reasons=reasons)
    assert "exponent limit" in reasons[0] and "level 32" in reasons[0]


# ---------------------------------------------------------------------------
# local chain engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("z^2 + x^2*y + x*y^2", 2),  # D4, n = 2
        ("z^2 + x^2*y + x*y^4", 3),  # D8, n = 4
        ("z^2 + x^3 + x*y^3", 4),  # E7
    ],
)
def test_height_local_rdp_values(text, expected):
    ring = ring_over(2)
    res = height_local(Ideal(ring, [ring.parse(text)]), 6)
    assert (res.verdict, res.n) == (FINITE, expected)


def test_height_local_chain_is_verifiable():
    """A Finite verdict carries a strict chain the verifier accepts."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^4")])
    res = height_local(I, 6)
    chain = res.certificate.data["chain"]
    assert len(chain) == res.n
    assert verify_witness_chain(I, chain)
    assert verify_certificate(I, res.certificate)


def test_local_chain_ideals_increase():
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^4")])
    chain = O.local_chain_ideals(I, 4)
    assert len(chain) >= 2
    for small, big in zip(chain, chain[1:]):
        for g in small.gens:
            assert ideal_membership(g, big)


def test_local_route_handles_complete_intersection():
    """Two-generator system: the supersingular x ordinary product block."""
    ring = ring_named(2, ["x0", "x1", "x2", "y0", "y1", "y2"])
    I = Ideal(
        ring,
        [ring.parse("x0^3 + x1^3 + x2^3"), ring.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")],
    )
    res = height_local(I, 4)
    assert (res.verdict, res.n) == (FINITE, 2)


def test_route_agreement_on_cy_corpus():
    """Graded and local engines must give identical verdicts on graded CY
    inputs."""
    ring = ring_over(2)
    for text in ("x^3 + y^3 + z^3", "x^3 + x*y*z + y^2*z + z^3", "x^2*y + y^2*z + x*z^2"):
        f = ring.parse(text)
        a = height_graded_cy([f], Grading.standard(3), n_max=4)
        b = height_local(Ideal(ring, [f]), 4)
        assert (a.verdict, a.n) == (b.verdict, b.n)


PLANE_CUBIC_MONOMIALS = [e for e in itertools.product(range(4), repeat=3) if sum(e) == 3]


@pytest.mark.parametrize("p", [2, 3])
@given(data=st.data())
def test_graded_and_local_routes_agree_on_plane_cubics(p, data):
    """Both engines find the same height of a random plane cubic.  The graded
    engine cannot prove an infinite height, so where the local chain
    stabilizes inside m^[p] it stops at the cutoff instead."""
    ring = ring_over(p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    f = ring.from_terms(dict(zip(PLANE_CUBIC_MONOMIALS, coeffs)))
    assume(not f.is_zero())
    graded = height_graded_cy([f], Grading.standard(3), n_max=4)
    local = height_local(Ideal(ring, [f]), 4)
    if local.verdict == INFINITE:
        assert (graded.verdict, graded.n) == (LOWER_BOUND, 4)
    else:
        assert (graded.verdict, graded.n) == (local.verdict, local.n)


def _draw_cubic(data, ring, offset):
    """A nonzero random cubic in the three variables from position `offset` on."""
    p = ring.field.p
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=10, max_size=10))
    pad = ring.nvars - offset - 3
    f = ring.from_terms(
        {(0,) * offset + e + (0,) * pad: c for e, c in zip(PLANE_CUBIC_MONOMIALS, coeffs)}
    )
    assume(not f.is_zero())
    return f


def _assert_engine_reads_first_oracle_level(f_list, levels):
    """height_graded_cy's (verdict, n, certificate coefficient) is the first
    level whose whole-product coefficient is nonzero, or LowerBound(levels)."""
    expected = (LOWER_BOUND, levels, None)
    for n in range(1, levels + 1):
        c = O.graded_cy_coefficient_product(f_list, n)
        if c:
            expected = (FINITE, n, c)
            break
    res = height_graded_cy(f_list, Grading.standard(f_list[0].ring.nvars), n_max=levels)
    coefficient = res.certificate.data["coefficient"] if res.certificate else None
    assert (res.verdict, res.n, coefficient) == expected


@pytest.mark.parametrize("p,levels", [(2, 3), (3, 3), (5, 2), (2, 4), (3, 4)])
@given(data=st.data())
def test_graded_engine_matches_whole_product_oracle_on_plane_cubics(p, levels, data):
    _assert_engine_reads_first_oracle_level([_draw_cubic(data, ring_over(p), 0)], levels)


@pytest.mark.parametrize("p,levels", [(2, 3), (2, 4), (3, 2)])
@settings(max_examples=15)
@given(data=st.data())
def test_graded_engine_matches_whole_product_oracle_on_fiber_products(p, levels, data):
    """Two cubics in disjoint blocks of three variables.  In six variables
    the whole-product oracle takes minutes from level 3 on at p = 3 and from
    level 2 on at p = 5, so those pairs are left to the plane cubics."""
    ring = ring_named(p, ["x0", "x1", "x2", "y0", "y1", "y2"])
    f_list = [_draw_cubic(data, ring, 0), _draw_cubic(data, ring, 3)]
    _assert_engine_reads_first_oracle_level(f_list, levels)


# ---------------------------------------------------------------------------
# I-infinity fixed point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_qfs_decide_cusp_not_qfs(p):
    ring = ring_over(p)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    verdict, cert = qfs_decide(I)
    assert verdict is False
    assert verify_certificate(I, cert)


def test_qfs_decide_hyperplane_trivially_qfs():
    """x is F-split: I_1 escapes at once, so the answer is the one-element
    chain f^{p−1} = x^2, which the verifier accepts."""
    ring = ring_over(3)
    I = Ideal(ring, [ring.variable("x")])
    verdict, cert = qfs_decide(I)
    assert verdict is True
    assert (cert.kind, cert.data) == (CHAIN_WITNESS, {"chain": [ring.parse("x^2")]})
    assert verify_certificate(I, cert)


def test_qfs_decide_iteration_is_monotone():
    """Each stabilization step only ever adds elements."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    _, cert = qfs_decide(I)
    J = Ideal(ring, cert.data["generators"])
    # the seed (f^{p-1}) and all theta images of J sit inside the limit
    f = I.gens[0]
    assert ideal_membership(f, J)
    delta = delta1(f)
    for g in J.gens:
        img = theta(g, delta)
        assert ideal_membership(img, J)


def test_enclosure_closure_empty_seed_matches_qfs_decide():
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    _, cert = qfs_decide(I)
    closure = enclosure_closure(I)
    assert ideal_equal(closure, Ideal(ring, cert.data["generators"]))


def test_enclosure_closure_is_theta_closed():
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    seed = [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")]
    closure = enclosure_closure(I, seed=seed)
    delta = delta1(g)
    for h in closure.gens:
        if u_map(h).is_zero():
            assert ideal_membership(theta(h, delta), closure)
    for s in seed:
        assert ideal_membership(s, closure)
    assert ideal_membership(g, closure)


def random_hypersurfaces(p, nvars, count):
    """``count`` hypersurfaces z^2 + g over F_p in ``nvars`` variables, g of
    2–4 terms of degree 3–6 free of z, drawn from a fixed seed: double
    points of every height up to 4 and non-quasi-F-split ones."""
    ring = ring_named(p, list("xyzw"[:nvars]))
    monomials = [
        e for e in itertools.product(range(7), repeat=nvars) if 3 <= sum(e) <= 6 and e[2] == 0
    ]
    rng = random.Random(f"{p}/{nvars}")
    z2 = ring.parse("z^2")
    return [
        z2 + ring.from_terms({m: rng.randrange(1, p) for m in rng.sample(monomials, rng.randint(2, 4))})
        for _ in range(count)
    ]


HYPERSURFACE_DRAWS = [(p, nvars) for p in (2, 3) for nvars in (3, 4)]


@pytest.mark.parametrize("p,nvars", HYPERSURFACE_DRAWS)
def test_qfs_decide_agrees_with_the_whole_closure(p, nvars):
    """The ring is quasi-F-split iff I_∞ ⊄ m^{[p]}: qfs_decide, which stops
    at the first escaping level, must say so exactly when the whole closure
    I_∞ (`enclosure_closure`, run to its fixed point) has a generator
    outside m^{[p]}, and its certificate must verify either way."""
    for f in random_hypersurfaces(p, nvars, 25):
        I = Ideal(f.ring, [f])
        try:
            qfs, cert = qfs_decide(I, Budget(3000))
            closure = enclosure_closure(I, budget=Budget(3000))
        except criteria.BudgetExceededError:
            continue
        escapes = any(not in_max_ideal_frobenius_power(g, 1) for g in closure.gens)
        assert qfs == escapes, f
        assert cert.kind == (CHAIN_WITNESS if qfs else I_INFTY_STABILIZED), f
        assert verify_certificate(I, cert), f


@pytest.mark.parametrize("p,nvars", HYPERSURFACE_DRAWS)
def test_strategy_qfs_gives_the_height_of_the_local_chain(p, nvars):
    """`strategy="qfs"` reads the chain with no cutoff, so wherever the
    local chain finds a Finite height under a large n_max, it finds the same
    height, and wherever it finds Infinite, so does the local chain."""
    for f in random_hypersurfaces(p, nvars, 25):
        local = height(f, n_max=64, strategy="local", budget=Budget(3000))
        qfs = height(f, strategy="qfs", budget=Budget(3000))
        if UNKNOWN in (local.verdict, qfs.verdict):
            continue
        assert (qfs.verdict, qfs.n) == (local.verdict, local.n), f
        assert qfs.route == "i-infinity"
        assert verify_certificate(Ideal(f.ring, [f]), qfs.certificate), f


def test_quasi_f_split_witnesses_of_the_i_infinity_route_reject_tampering(monkeypatch):
    """qfs_decide's ChainWitness, in both forms, is refused once tampered.
    Strict (D8^1 at p = 2, height 3): a changed last element, a first element
    outside I_1, and a chain cut short.  Levelled (the strict search patched
    off): a record x outside each level, a changed θ image, an escape moved
    into m^{[p]} (times x^2, so still in I_3), a wrong escape level."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("z^2 + x^2*y + x*y^4 + x*y^3*z")])
    qfs, cert = qfs_decide(I)
    chain = cert.data["chain"]
    assert qfs and len(chain) == 3 and verify_certificate(I, cert)
    x = ring.variable("x")
    for bad, reason in [
        (chain[:-1] + [bump_leading_coefficient(chain[-1])], "level 2: theta image"),
        ([x] + chain[1:], "is not in I_1"),
        (chain[:-1], "lies in m^[p]"),
    ]:
        reasons = []
        assert not verify_certificate(I, Certificate(CHAIN_WITNESS, {"chain": bad}), reasons=reasons)
        assert reason in reasons[0]

    monkeypatch.setattr(criteria, "_strict_chain_search", lambda *args, **kwargs: None)
    qfs, cert = qfs_decide(I)
    data = cert.data
    assert qfs and "chain" not in data and data["escape_level"] == 3
    assert verify_certificate(I, cert)
    # a record whose w lies outside its level: x ∉ I_j ⊆ m^2, checked first
    outside = []
    for j, records in enumerate(data["levels"], start=1):
        levels = list(data["levels"])
        levels[j - 1] = [ChainStep(x, x)] + list(records)
        outside.append((dict(data, levels=levels), f"level {j}: x is not in I_{j}"))
    levels = [list(records) for records in data["levels"]]
    l, k = next((l, k) for l, rs in enumerate(levels) for k, r in enumerate(rs) if r.image)
    levels[l][k] = ChainStep(levels[l][k].element, bump_leading_coefficient(levels[l][k].image))
    for bad, reason in outside + [
        (dict(data, levels=levels), f"level {l + 1}: theta image"),
        (dict(data, escape=x**2 * data["escape"]), "lies in m^[p]"),
        (dict(data, escape_level=2), "escape level disagrees"),
    ]:
        reasons = []
        assert not verify_certificate(I, Certificate(CHAIN_WITNESS, bad), reasons=reasons)
        assert reason in reasons[0]


@pytest.mark.parametrize(
    "p,names,text,options",
    [
        (3, "xyz", LOWER_BOUND_CUBIC[1], {"n_max": 3, "strategy": "graded"}),
        (2, "xyz", "z^2 + x^3 + y^5", {"n_max": 2, "strategy": "local"}),
        (2, "xyzwus", "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z", {"n_max": 2, "strategy": "local"}),
        (2, "xyz", "z^2 + x^3 + y^5", {"n_max": 2}),
        (3, "xyz", LOWER_BOUND_CUBIC[1], {"n_max": 3}),
    ],
)
def test_no_lower_bound_carries_a_certificate(p, names, text, options):
    """A LowerBound proves nothing past its cutoff, so it carries no
    certificate on any route; and auto, whose I_∞ stage reads on past the
    cutoff, never returns one."""
    f = ring_named(p, list(names)).parse(text)
    res = height(f, **options)
    if "strategy" in options:
        assert (res.verdict, res.n) == (LOWER_BOUND, options["n_max"])
    assert res.verdict != LOWER_BOUND or res.certificate is None
    assert res.verdict == LOWER_BOUND or res.certificate is not None


@pytest.fixture
def reduced_bases(monkeypatch):
    """The generator sets, each as a set of packed polynomials, of every
    reduced basis that the packed kernel `_reduced_basis` forms from here on,
    whether the chain calls it or an `Ideal` does.  A run that continues
    from a finished basis `done` records that basis's elements with its
    new generators, since together they generate its ideal."""
    from qfsplit import groebner

    reduced = []
    real = groebner._reduced_basis

    def recording(ring, gens, budget=None, done=None):
        reduced.append(frozenset(frozenset(g.items()) for g in [*(done or ()), *gens]))
        return real(ring, gens, budget, done)

    monkeypatch.setattr(groebner, "_reduced_basis", recording)
    monkeypatch.setattr(criteria, "_reduced_basis", recording)
    return reduced


def test_closure_carries_its_reduced_basis(reduced_bases):
    """The θ-closure comes back presented by its reduced Groebner basis and
    holding it as its cache, so verifying it as a trap ideal reduces no basis
    again (cusp at p = 2 with trap x^2, as `verify-infty --close` runs it)."""
    from qfsplit import groebner

    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    closure = enclosure_closure(I, seed=[ring.parse("x^2")])
    assert list(closure.gens) == groebner.buchberger(list(closure.gens))
    reduced = reduced_bases
    reduced.clear()
    budget = Budget()
    assert verify_infinity_certificate(I, closure, budget)
    assert reduced == []
    # 14 when the closure's basis was reduced again, 9 while I_1 had f^p too
    assert budget.steps == 7


def assert_i1_seed_matches_colon_seed(gens):
    """Fedder: for a regular sequence (I^[p] : I) = I_1, so the chain seeded
    with I_1 and the chain on the colon's generators have equal reduced
    bases level for level, and close to the same I_∞ at the same level."""
    ring = gens[0].ring
    I = Ideal(ring, gens)
    seed = colon_ideal(O.bracket_power(I, 1), I)
    sp = _Splitting(gens)
    assert ideal_equal(seed, Ideal(ring, sp.i1))
    i1, colon = _Chain(sp, Budget()), _Chain(sp, Budget(), seed.gens)
    while True:
        assert i1._reduced() == colon._reduced()
        moved = i1.advance()
        assert colon.advance() == moved
        if not moved:
            break
    assert i1.n == colon.n
    assert list(i1.close().gens) == list(colon.close().gens)


SEXTIC_VARS = ["x", "y", "z", "w", "u", "s"]
CUBIC_PAIR_VARS = ["x0", "x1", "x2", "y0", "y1", "y2"]

# complete intersections at p = 2: the hyperplane sections s = 0 of the two
# sextics, and the fiber product of two ordinary plane cubics
COMPLETE_INTERSECTIONS = {
    "sextic-g1-section": (SEXTIC_VARS, ["x*y*s^2 + z*w*u^2 + y^3*w + x^3*z", "s"]),
    "sextic-g2-section": (
        SEXTIC_VARS, ["x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z", "s"],
    ),
    "cubic-fiber-product": (
        CUBIC_PAIR_VARS,
        ["x0^3 + x0*x1*x2 + x1^2*x2 + x2^3", "y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"],
    ),
}


@pytest.mark.parametrize("case", list(COMPLETE_INTERSECTIONS))
def test_qfs_decide_equals_closure_of_colon_seed(case):
    names, texts = COMPLETE_INTERSECTIONS[case]
    ring = ring_named(2, names)
    assert_i1_seed_matches_colon_seed([ring.parse(t) for t in texts])


def quadric_pairs(p, count):
    """``count`` pairs of random quadrics in four variables over F_p that form
    a regular sequence, drawn from a fixed seed."""
    ring = ring_named(p, ["x", "y", "z", "w"])
    monomials = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    rng = random.Random(p)
    pairs = []
    while len(pairs) < count:
        q = [
            ring.from_terms({m: rng.randrange(p) for m in rng.sample(monomials, 4)})
            for _ in range(2)
        ]
        first = Ideal(ring, q[:1])
        if all(q) and ideal_equal(colon_ideal(first, Ideal(ring, q[1:])), first):
            pairs.append(q)
    return pairs


@pytest.mark.parametrize("p", [2, 3])
def test_qfs_decide_equals_closure_of_colon_seed_on_quadric_pairs(p):
    for gens in quadric_pairs(p, 3):
        assert_i1_seed_matches_colon_seed(gens)


SEXTIC_G1 = "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z"


def test_e8_under_a_linear_change_of_coordinates():
    """E8^0 z^2 + x^3 + y^5 at p = 3 has height 3, and a linear change of
    coordinates keeps the height: under x ↦ 2x+2y, y ↦ 2x+z, z ↦ x+z it has
    11 terms and takes the local chain 4,652 steps, against 120 as written
    (4,721 and 150 while each level's basis was formed from scratch, 5,907
    and 185 while the chain finished its escaping level)."""
    ring = ring_over(3)
    f = ring.parse("z^2 + x^3 + y^5")
    x, y, z = (ring.parse(t) for t in ("2*x + 2*y", "2*x + z", "x + z"))
    moved = z**2 + x**3 + y**5
    assert len(moved) == 11
    plain, res = height(f), height(moved)
    assert (plain.verdict, plain.n, plain.route, plain.steps) == (FINITE, 3, "local-chain", 120)
    assert (res.verdict, res.n, res.route, res.steps) == (FINITE, 3, "local-chain", 4652)
    assert verify_certificate(Ideal(ring, [moved]), res.certificate)



@pytest.mark.parametrize(
    "kind,p,text,steps",
    [
        ("height", 2, "z^2 + x^3 + y^5", 97),  # E8^0, local chain to n = 4
        ("height", 3, "z^2 + x^3 + y^5", 120),  # E8^0, local chain to n = 3
        ("qfs_decide", 2, "x^3 + y^2*z", 8),  # the cusp's I_infinity
        # sextic g1: I_∞ resumes from the local chain's I_4, not from I_1
        ("height", 2, SEXTIC_G1, 553),
    ],
)
def test_chain_reduces_each_generator_set_once(reduced_bases, kind, p, text, steps):
    """Each level's Groebner basis is computed once and then read from the
    chain that carries it: no generator set reaches the packed kernel
    `_reduced_basis` twice within one call, not even across the hand-over
    from the local chain to I_∞, and the steps stay as measured."""
    reduced = reduced_bases
    ring = ring_named(p, SEXTIC_VARS) if "s" in text else ring_over(p)
    f = ring.parse(text)
    if kind == "height":
        taken = height(f, n_max=4).steps
    else:
        budget = Budget()
        qfs_decide(Ideal(ring, [f]), budget)
        taken = budget.steps
    assert reduced and len(reduced) == len(set(reduced))
    assert taken == steps


# ---------------------------------------------------------------------------
# quick infinite-height tests
# ---------------------------------------------------------------------------


def test_non_qfs_quick_fermat_p3():
    ring = ring_named(3, ["x1", "x2", "x3", "x4"])
    cert = non_qfs_quick([ring.parse("x1^4 + x2^4 + x3^4 + x4^4")])
    assert cert is not None and cert.kind == NON_QFS
    assert cert.data["tag"] == "f^(p-2) in m^[p]"


def test_non_qfs_quick_cusp_p7():
    ring = ring_over(7)
    cert = non_qfs_quick([ring.parse("x^3 + y^2*z")])
    assert cert is not None
    assert cert.data == {"tag": criteria.TAG_PRODUCT}
    assert "m^[p^2]" in cert.data["tag"]


def test_non_qfs_quick_negative_cases():
    assert non_qfs_quick([ring_over(3).variable("x")]) is None
    # at p = 2 the f^{p-2} test can never fire (f^0 = 1)
    ring = ring_over(2)
    assert non_qfs_quick([ring.parse("x^3 + x*y*z + y^3 + z^3")]) is None


def _changed_element(ring, I, cert):
    """The same f^{p−2} certificate over a changed coefficient."""
    element = cert.data["element"]
    lead, _ = element.leading_term()
    return I, dict(cert.data, element=element + ring.from_terms({lead: 1}))


def _height_two_cubic(ring, I, cert):
    """The same certificate presented for y²z = x³ + xz² at p = 7, which is
    supersingular (so f^{p−1} ∈ m^{[p]}) of height 2 (so condition (2)
    fails)."""
    return Ideal(ring, [ring.parse("y^2*z + 6*x^3 + 6*x*z^2")]), cert.data


@pytest.mark.parametrize(
    "p,names,text,forge,reason",
    [
        (3, ["x1", "x2", "x3", "x4"], "x1^4 + x2^4 + x3^4 + x4^4", _changed_element, "recorded"),
        (7, ["x", "y", "z"], "x^3 + y^2*z", _height_two_cubic, "outside m^[p^2]"),
    ],
    ids=["f^(p-2)", "products"],
)
def test_non_qfs_verifier_checks_the_recorded_data(p, names, text, forge, reason):
    """The verifier recomputes what a NonQFS certificate claims.  A changed
    recorded f^{p−2} is rejected; the product certificate records only its
    tag, so presented for an input where condition (2) fails it is rejected
    by the recomputed capped products."""
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(text)])
    cert = non_qfs_quick(list(I.gens))
    assert verify_certificate(I, cert)
    J, data = forge(ring, I, cert)
    reasons = []
    assert not verify_certificate(J, Certificate(NON_QFS, data), reasons=reasons)
    assert reasons and reason in reasons[0]


# ---------------------------------------------------------------------------
# certificate verifiers
# ---------------------------------------------------------------------------


def d8_chain(ring):
    f = ring.parse("z^2 + x^2*y + x*y^4")
    return f, [ring.parse("z") * f, ring.parse("x*y^2*z"), ring.parse("x*y*z")]


def test_verify_witness_chain_accepts_d8():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    assert verify_witness_chain(Ideal(ring, [f]), chain)


def test_verify_witness_chain_pinpoints_bad_theta():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    chain[1] = chain[1] + ring.parse("x*y*z")
    reasons = []
    assert not verify_witness_chain(Ideal(ring, [f]), chain, reasons=reasons)
    assert reasons and "level 1" in reasons[0]


def test_verify_witness_chain_rejects_trapped_tail():
    ring = ring_over(2)
    f, chain = d8_chain(ring)
    assert not verify_witness_chain(Ideal(ring, [f]), chain[:-1])


def test_verify_witness_chain_rejects_start_outside_i1():
    ring = ring_over(2)
    f, _ = d8_chain(ring)
    reasons = []
    assert not verify_witness_chain(
        Ideal(ring, [f]), [ring.parse("x*y*z")], reasons=reasons
    )
    assert "I_1" in reasons[0]


def test_verify_witness_chain_rejects_empty():
    ring = ring_over(2)
    f, _ = d8_chain(ring)
    assert not verify_witness_chain(Ideal(ring, [f]), [])


def no_groebner_basis(monkeypatch):
    """Make every Groebner basis the verifiers could build raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Groebner basis was built")

    monkeypatch.setattr(groebner, "_reduced_basis", refuse)


def term_multiple_of_i1(ring, a, gens):
    sp = _Splitting(gens)
    return criteria._term_multiple(ring, ring.codec.pack_terms(a.terms), sp.packed_i1, Budget())


@pytest.mark.parametrize(
    "p,texts,mu,c",
    [
        (3, ["z^2 + x^3 + y^5"], (1, 0, 2), 2),  # E8^0
        (5, ["z^2 + x^3 + y^5"], (0, 3, 1), 3),
        (5, ["x*y + z^2", "x^2 + y*z"], (2, 1, 0), 4),  # two generators
    ],
)
def test_a_scaled_monomial_multiple_of_an_i1_generator_is_in_i1_without_a_basis(
    p, texts, mu, c, monkeypatch
):
    """c·x^μ·g lies in I_1 for every I_1 generator g and c ≠ 1, and the
    verifier sees it by one product: with no Groebner basis allowed, a
    strict chain starting there fails, if at all, on a later check."""
    ring = ring_over(p)
    gens = [ring.parse(t) for t in texts]
    I = Ideal(ring, gens)
    no_groebner_basis(monkeypatch)
    for g in _Splitting(gens).i1:
        a = g.mul_term(mu, c)
        assert term_multiple_of_i1(ring, a, gens)
        reasons = []
        verify_witness_chain(I, [a], reasons=reasons)
        assert not any("is not in I_1" in r for r in reasons)


E8_P3 = "z^2 + x^3 + y^5"  # I_1 = (f^2), principal: it holds no monomial


def with_extra_term(g):
    return g + g.ring.parse("x")  # below g's lowest degree, and I_1 ⊆ m^2


def with_a_coefficient_changed(g):
    e, _ = g.sorted_terms()[-1]
    return g + g.ring.from_terms({e: 1})


def with_a_term_swapped(g):
    """g's leading term and length, one lower term replaced by x."""
    e, c = g.sorted_terms()[-1]
    return g - g.ring.from_terms({e: c}) + g.ring.parse("x")


@pytest.mark.parametrize(
    "tamper", [with_extra_term, with_a_coefficient_changed, with_a_term_swapped]
)
def test_a_tampered_monomial_multiple_is_not_in_i1(tamper):
    ring = ring_over(3)
    f = ring.parse(E8_P3)
    sp = _Splitting([f])
    g = sp.i1[0]
    a = tamper(g).mul_term((1, 2, 0))
    if tamper is with_a_term_swapped:
        assert a.leading_term()[0] == g.mul_term((1, 2, 0)).leading_term()[0]
        assert len(a) == len(g)
    assert not O.sympy_contains(a, sp.i1, ring)
    assert not term_multiple_of_i1(ring, a, [f])
    reasons = []
    assert not verify_witness_chain(Ideal(ring, [f]), [a], reasons=reasons)
    assert reasons[0].startswith("escape element ") and reasons[0].endswith("is not in I_1")


def test_a_start_combining_two_generators_is_accepted_by_reduction():
    """w_1 = f^{p−1} + x·f^p = (1 + x·f)·f^{p−1} lies in I_1 but is no
    one-term multiple of its generator f^{p−1}; the verifier accepts it by
    reducing modulo I_1's basis.  E6^1 at p = 3 is F-split, so w_1 ∉ m^{[p]}
    closes a chain of length one."""
    ring = ring_over(3)
    f = ring.parse("z^2 + x^3 + y^4 + x^2*y^2")
    sp = _Splitting([f])
    assert sp.i1 == [f**2]
    w1 = sp.i1[0] + f.pth_power().mul_term((1, 0, 0))
    assert not term_multiple_of_i1(ring, w1, [f])
    assert verify_witness_chain(Ideal(ring, [f]), [w1])


@pytest.mark.parametrize("p", [2, 3, 5])
@settings(max_examples=20)
@given(data=st.data())
def test_i1_of_one_generator_is_principal(p, data):
    """For one generator f, f^p = f·f^{p−1}, so I_1 = (f^{p−1}, f^p) is
    (f^{p−1}) and `i1` lists f^{p−1} alone; for two generators it still
    lists f^{p−1} = (f'_1·f'_2)^{p−1} and each (f'_i)^p, without repeats.
    Powers here are formed by `Polynomial.__pow__`, not from the lift."""
    ring = ring_over(p)
    f = data.draw(nonzero_poly_strategy(ring, 2, 3))
    sp = _Splitting([f])
    assert sp.i1 == [f ** (p - 1)]
    assert ideal_equal(Ideal(ring, sp.i1), Ideal(ring, [f ** (p - 1), f**p]))
    g = data.draw(nonzero_poly_strategy(ring, 2, 3))
    expected = [(f * g) ** (p - 1)]
    for h in (f**p, g**p):
        if h not in expected:
            expected.append(h)
    assert _Splitting([f, g]).i1 == expected


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_a_term_multiple_is_a_member(p, data):
    """Whenever the one-product check accepts a, `Ideal._contains` agrees;
    an untampered c·x^μ·g_j is always accepted."""
    ring = ring_over(p)
    gens = data.draw(st.lists(nonzero_poly_strategy(ring, 3, 4), min_size=1, max_size=3))
    g = data.draw(st.sampled_from(gens))
    mu = data.draw(st.tuples(*[st.integers(0, 3)] * 3))
    a = g.mul_term(mu, data.draw(st.integers(1, p - 1)))
    tampered = data.draw(st.booleans())
    if tampered:
        a = a + data.draw(poly_strategy(ring, 5, 2))
    pack = ring.codec.pack_terms
    accepted = criteria._term_multiple(ring, pack(a.terms), [pack(h.terms) for h in gens], Budget())
    assert accepted or tampered
    if accepted:
        assert Ideal(ring, gens)._contains(pack(a.terms), Budget())


def test_verify_infinity_raw_guess_fails_with_reason():
    """The two-generator trap is not θ-closed; the verifier must name the
    escaping image."""
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    J = Ideal(ring, [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")])
    reasons = []
    assert not verify_infinity_certificate(I, J, reasons=reasons)
    assert reasons and "theta image" in reasons[0]


def test_verify_infinity_closed_guess_passes():
    ring = ring_named(2, ["x", "y", "z", "w", "u", "s"])
    g = ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z")
    I = Ideal(ring, [g])
    seed = [ring.parse("y*s^2 + x^2*z"), ring.parse("z*u^2 + y^3")]
    closure = enclosure_closure(I, seed=seed)
    assert verify_infinity_certificate(I, closure)
    assert in_max_ideal_frobenius_power(closure.gens[0], 1)


def test_verify_infinity_rejects_fsplit_bracket():
    """J = m^[p] can never trap an F-split hypersurface."""
    ring = ring_over(2)
    f = ring.parse("x^3 + x*y*z + y^2*z + z^3")
    bracket = Ideal(ring, [ring.parse("x^2"), ring.parse("y^2"), ring.parse("z^2")])
    reasons = []
    assert not verify_infinity_certificate(Ideal(ring, [f]), bracket, reasons=reasons)
    assert reasons


def test_a_trap_ideal_or_a_seed_from_another_ring_is_refused():
    """J must be an ideal of I's ring: a J over other variables or another
    field is refused with a reason that says so, not accepted (J over
    (a, b, c) at p = 2) or refused for an escape (J over F_3).  A seed of
    `enclosure_closure` from another ring raises RingError; it is not read
    term by term as a polynomial of I's ring."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^2*z")])
    trap = enclosure_closure(I)
    assert verify_infinity_certificate(I, trap)
    for other in (ring_named(2, ["a", "b", "c"]), ring_over(3)):
        J = Ideal(other, [Polynomial(other, dict(g.terms)) for g in trap.gens])
        reasons = []
        assert not verify_infinity_certificate(I, J, reasons=reasons)
        assert reasons == [f"J is an ideal of {other!r}, not of {ring!r}"]
        with pytest.raises(RingError, match=r"^seed element .* is not a polynomial of "):
            enclosure_closure(I, [other.variable(other.variables[0])])


def test_integer_root_is_exact():
    assert _integer_root(64, 3) == 4  # int(64 ** (1 / 3)) is 3
    assert _integer_root(20000, 3) == 27
    for n in range(200):
        for k in (1, 2, 3, 5):
            r = _integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_strict_chain_search_sizes_exact_powers_exactly():
    """E8^0 at p = 2 has height 4, so no strict chain of length 3 exists and
    the search tries every multiplier: 64 candidates allow [0, 4)^3 for each
    of the two I_1 generators."""
    ring = ring_over(2)
    sp = _Splitting([ring.parse("z^2 + x^3 + y^5")])
    budget = Budget()
    assert _strict_chain_search(sp, 3, budget, max_candidates=64) is None
    assert budget.steps == 4**3 * len(sp.i1)


@pytest.mark.parametrize("p", [2, 3, 5])
@given(data=st.data())
def test_chain_theta_is_the_theta_of_the_public_maps_on_ker_u(p, data):
    """The chain's θ, f^{p−2}·u(F_*(−Δ₁(f)·w)), equals the public Δ route
    theta(w, delta1(f^{p−1})) on random w ∈ Ker u in 3–5 variables:
    w = t − x^{(p−1)𝟙}·u(F_*t)^p, which u kills by the projection formula.
    Most terms of t pair with a term d of Δ₁(f) under u, e ≡ (p−1)𝟙 − d
    mod p, since Δ₁(f^{p−1}) ≡ −f^{p(p−2)}·Δ₁(f) modulo p-th powers; with
    random terms alone, θ would nearly always vanish at p = 5."""
    ring = ring_over(p, ("x", "y", "z", "w", "v")[: data.draw(st.integers(3, 5))])
    f = data.draw(poly_strategy(ring, max_exp=2, max_terms=4 if p < 5 else 3))
    assume(f)
    pairs = sorted(delta1(f).terms) or [(0,) * ring.nvars]
    quotients = st.tuples(*[st.integers(0, 2)] * ring.nvars)
    lifts = data.draw(st.lists(st.tuples(st.sampled_from(pairs), quotients), max_size=6))
    paired = {tuple([p - 1 - d % p + p * q for d, q in zip(*pair)]): 1 for pair in lifts}
    t = ring.from_terms(paired) + data.draw(poly_strategy(ring, max_exp=6, max_terms=3))
    w = t - ring.monomial((p - 1,) * ring.nvars) * u_map(t).pth_power()
    assert u_map(w).is_zero()
    sp = _Splitting([f])
    image = sp.polynomial(sp.chain_theta(ring.codec.pack_terms(w.terms)))
    assert image == theta(w, delta1(f ** (p - 1)))


# ---------------------------------------------------------------------------
# tampered certificates: one change the mathematics forbids, per kind
# ---------------------------------------------------------------------------


def bump_leading_coefficient(poly):
    """poly with the coefficient of its leading term raised by one."""
    lead, _ = poly.leading_term()
    return poly + poly.ring.from_terms({lead: 1})


# local-chain rows of the double-point table at p = 2, 3, 5, whose
# certificates carry a strict chain, and a hyperplane section of a sextic,
# whose certificate carries the levelled records
LEVELLED_CASES = [
    (2, ("x", "y", "z"), ["z^2 + x^2*y + x*y^4 + x*y^3*z"]),  # D8^1
    (3, ("x", "y", "z"), ["z^2 + x^3 + y^5"]),  # E8^0
    (5, ("x", "y", "z"), ["z^2 + x^3 + y^5"]),  # E8^0
    (2, tuple("xyzwus"), ["x*y*s^2 + z*w*u^2 + y^3*w + x^3*z", "s"]),
]


def levelled_certificate(p, names, texts):
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(t) for t in texts])
    res = height(I)
    assert res.route == "local-chain" and res.certificate.kind == CHAIN_WITNESS
    assert verify_certificate(I, res.certificate)
    return I, res.certificate


@pytest.mark.parametrize("p,names,texts", LEVELLED_CASES)
def test_levels_reject_a_tampered_theta_image(p, names, texts, monkeypatch):
    """With the strict-chain search finding nothing, every case carries the
    levelled records, and a changed θ image among them is rejected."""
    monkeypatch.setattr(criteria, "_strict_chain_search", lambda *args, **kwargs: None)
    I, cert = levelled_certificate(p, names, texts)
    assert "chain" not in cert.data
    levels = [list(records) for records in cert.data["levels"]]
    l, k = next((l, k) for l, rs in enumerate(levels) for k, r in enumerate(rs) if r.image)
    levels[l][k] = ChainStep(levels[l][k].element, bump_leading_coefficient(levels[l][k].image))
    tampered = Certificate(CHAIN_WITNESS, dict(cert.data, levels=levels))
    for verify in (verify_witness_levels, verify_certificate):
        reasons = []
        assert not verify(I, tampered, reasons=reasons)
        assert reasons[0].startswith(f"level {l + 1}: theta image")


def test_rdp_chain_witnesses_hold_one_proof():
    """Each local-chain certificate of the double-point table holds either a
    strict chain or the levelled records with their escape, never both."""
    forms = set()
    for row in rdp_rows((2, 3, 5), 8):
        ring = ring_over(row["p"])
        I = Ideal(ring, [ring.parse(row["f"])])
        res = height(I, n_max=max(10, row["expected"] + 2))
        if res.route == "local-chain":
            assert res.certificate.kind == CHAIN_WITNESS
            keys = frozenset(res.certificate.data)
            assert keys in ({"chain"}, {"levels", "escape", "escape_level"}), row
            forms.add(keys)
    assert frozenset({"chain"}) in forms


def test_rdp_certificates_verify_with_no_groebner_basis(monkeypatch):
    """Every row of the double-point table carries a strict chain that
    starts at a monomial multiple of an I_1 generator, so its verifier
    builds no Groebner basis: re-verifying all 90 with `_reduced_basis`
    refusing still accepts each one."""
    made = []
    for row in rdp_rows((2, 3, 5), 8):
        ring = ring_over(row["p"])
        I = Ideal(ring, [ring.parse(row["f"])])
        made.append((I, height(I).certificate))
    assert len(made) == 90 and all("chain" in cert.data for _, cert in made)
    no_groebner_basis(monkeypatch)
    for I, cert in made:
        reasons = []
        assert verify_certificate(I, cert, reasons=reasons), (I, reasons)


def one_record_per_level(chain):
    """The levelled ChainWitness that says what the strict chain g_1 → ... →
    g_n says: one record (g_l, g_{l+1}) per level, g_n escaping at level n."""
    levels = [[ChainStep(g, image)] for g, image in zip(chain, chain[1:])]
    return Certificate(
        CHAIN_WITNESS, {"levels": levels, "escape": chain[-1], "escape_level": len(chain)}
    )


def strict_chains():
    """(I, chain) for every strict chain of the double-point table and of
    LEVELLED_CASES."""
    out = []
    for row in rdp_rows((2, 3, 5), 8):
        ring = ring_over(row["p"])
        I = Ideal(ring, [ring.parse(row["f"])])
        out.append((I, height(I).certificate.data["chain"]))
    for p, names, texts in LEVELLED_CASES:
        ring = ring_named(p, names)
        I = Ideal(ring, [ring.parse(t) for t in texts])
        data = height(I).certificate.data
        if "chain" in data:
            out.append((I, data["chain"]))
    return out


def test_a_strict_chain_and_its_levelled_form_get_one_verdict():
    """A strict chain is a proof of I_n ⊄ m^{[p]} with one record per level,
    so it and its one-record-per-level form must get the same verdict and
    the same first reason, untampered and on each tamper: an image bumped
    at each level (θ(F_*g_l) ≠ g_{l+1}), a start x outside I_1 (every I_1
    here lies in m^2) and a chain cut short, whose last element lies in
    I_{n−1} ⊆ m^{[p]} since n is the height."""
    rows = strict_chains()
    assert len(rows) == 93 and {len(chain) for _, chain in rows} >= {1, 2, 3}
    for I, chain in rows:
        x = I.ring.variable(I.ring.variables[0])
        tampers = [(chain, None), ([x] + chain[1:], "is not in I_1")]
        for l in range(1, len(chain)):
            bumped = chain[:l] + [bump_leading_coefficient(chain[l])] + chain[l + 1 :]
            tampers.append((bumped, f"level {l}: theta image"))
        if len(chain) >= 2:
            tampers.append((chain[:-1], "lies in m^[p]"))
        for bad, reason in tampers:
            strict, levelled = [], []
            verdict = verify_witness_chain(I, bad, reasons=strict)
            assert verify_witness_levels(I, one_record_per_level(bad), reasons=levelled) is verdict
            assert verdict is (reason is None), (I, bad, strict)
            assert strict[:1] == levelled[:1]
            if reason is not None:
                assert reason in strict[0], (I, strict)


@pytest.mark.parametrize("p,names,texts", LEVELLED_CASES[:3])
def test_strict_chain_rejects_a_tampered_element(p, names, texts):
    I, cert = levelled_certificate(p, names, texts)
    chain = list(cert.data["chain"])
    assert len(chain) >= 2
    chain[-1] = bump_leading_coefficient(chain[-1])
    reasons = []
    assert not verify_certificate(I, Certificate(CHAIN_WITNESS, dict(cert.data, chain=chain)), reasons=reasons)
    assert "theta image" in reasons[0]


@pytest.mark.parametrize(
    "p,names,text",
    [
        (5, "xyzw", "x^4 + y^4 + z^4 + w^4 + x*y*z*w + x^2*y*z"),  # cy-graded quartic@p5
        (7, "xyz", "y^2*z + 6*x^3 + 6*x*z^2"),  # cy-graded cubic-a@p7
        (5, "xyz", "x^3 + y^3 + z^3 + x*y*z"),
    ],
)
def test_coefficient_witness_rejects_a_tampered_coefficient(p, names, text):
    """Each witness sits at level 2, where the verifier reads Δ₁(f^{p−1})'s
    coefficients from Δ₁(f): a coefficient off by one either way is refused."""
    ring = ring_named(p, list(names))
    I = Ideal(ring, [ring.parse(text)])
    cert = height(I).certificate
    assert cert.kind == COEFFICIENT_WITNESS and verify_certificate(I, cert)
    assert cert.data["level"] == 2
    for shift in (1, -1):
        data = dict(cert.data, coefficient=(cert.data["coefficient"] + shift) % p)
        reasons = []
        assert not verify_certificate(I, Certificate(COEFFICIENT_WITNESS, data), reasons=reasons)
        assert "coefficient" in reasons[0]


# a polynomial of another ring over the same field
FOREIGN = ring_named(2, ["a", "b", "c"]).parse("a")


@pytest.mark.parametrize(
    "kind,data,reason",
    [
        (COEFFICIENT_WITNESS, {}, "level None is not a positive integer"),
        (COEFFICIENT_WITNESS, {"level": 1}, "coefficient None is not an integer"),
        (COEFFICIENT_WITNESS, {"level": 0, "coefficient": 1}, "level 0 is not"),
        (COEFFICIENT_WITNESS, {"level": -1, "coefficient": 1}, "level -1 is not"),
        (COEFFICIENT_WITNESS, {"level": "2", "coefficient": 1}, "level '2' is not"),
        (COEFFICIENT_WITNESS, {"level": 1.0, "coefficient": 1}, "level 1.0 is not"),
        (COEFFICIENT_WITNESS, {"level": 2, "coefficient": "1"}, "coefficient '1' is not"),
        (COEFFICIENT_WITNESS, {"level": 2, "coefficient": 0}, "witnesses no level"),
        (I_INFTY_STABILIZED, {"iterations": 1}, "has no generators"),
        ("FixedPointEnclosure", {"generators": []}, "unknown certificate kind FixedPointEnclosure"),
        (CHAIN_WITNESS, {"chain": ["x"]}, "chain element 'x' is not a polynomial of"),
        (CHAIN_WITNESS, {"chain": [FOREIGN]}, "chain element <a over F_2> is not a polynomial of"),
        (CHAIN_WITNESS, {"levels": [[1]]}, "level 1: record 1 is not a ChainStep"),
        (CHAIN_WITNESS, {"levels": [[ChainStep(FOREIGN, FOREIGN)]]}, "level 1: record entry"),
        (CHAIN_WITNESS, {"levels": [], "escape": "x", "escape_level": 1}, "escape element 'x'"),
        (I_INFTY_STABILIZED, {"generators": "x", "iterations": 1}, "expected a list of generators"),
        (I_INFTY_STABILIZED, {"generators": [FOREIGN], "iterations": 1}, "generator <a over F_2>"),
        (COEFFICIENT_WITNESS, [1, 2], "certificate data [1, 2] is not a mapping"),
        (COEFFICIENT_WITNESS, None, "certificate data None is not a mapping"),
        (CHAIN_WITNESS, [1], "certificate data [1] is not a mapping"),
        (I_INFTY_STABILIZED, "x", "certificate data 'x' is not a mapping"),
        (NON_QFS, None, "certificate data None is not a mapping"),
        (CHAIN_WITNESS, {"levels": [[ring_over(2).parse("x")]]}, "level 1: record <x over F_2> is not a"),
    ],
)
def test_malformed_certificates_are_refused_with_a_reason(kind, data, reason):
    """x^3 + y^3 + z^3 at p = 2 has height 2 with c_2 = 1, so each of these
    certificates fails on its form alone, with a reason and no exception."""
    ring = ring_over(2)
    I = Ideal(ring, [ring.parse("x^3 + y^3 + z^3")])
    reasons = []
    assert verify_certificate(I, Certificate(kind, data), reasons=reasons) is False
    assert reason in reasons[0]


@pytest.mark.parametrize(
    "kind,p,names,text,options",
    [
        (I_INFTY_STABILIZED, 2, tuple("xyzwus"), "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z",
         {"n_max": 4}),
        pytest.param(I_INFTY_STABILIZED, 2, ("x", "y", "z"), "x^3 + y^2*z",
                     {"strategy": "local"}, id="local-cusp"),
    ],
)
def test_enclosures_reject_a_generator_outside_the_bracket_power(kind, p, names, text, options):
    """The trap of an Infinite answer, from the I_∞ stage (sextic g1) or from
    the local chain (the cusp), is refused once its first generator gains
    the term (x_1⋯x_N)^{p−1}, which lies outside m^{[p]}."""
    ring = ring_named(p, names)
    I = Ideal(ring, [ring.parse(text)])
    cert = height(I, **options).certificate
    assert cert.kind == kind and verify_certificate(I, cert)
    gens = list(cert.data["generators"])
    gens[0] = gens[0] + ring.monomial((p - 1,) * ring.nvars)
    reasons = []
    assert not verify_certificate(I, Certificate(kind, dict(cert.data, generators=gens)), reasons=reasons)
    assert "escapes m^[p]" in reasons[0]


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------


def product_fixture():
    rx = ring_named(2, ["x0", "x1", "x2"])
    ry = ring_named(2, ["y0", "y1", "y2"])
    ss = rx.parse("x0^3 + x1^3 + x2^3")
    ordinary = ry.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")
    return rx, ry, ss, ordinary


def test_product_witness_exact_chain_verifies():
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    ws = product_witness(chain, ordinary, 2, fx=ss, fy=ordinary)
    joint = ws[0].ring
    joint_ideal = Ideal(
        joint,
        [joint.parse("x0^3 + x1^3 + x2^3"), joint.parse("y0^3 + y0*y1*y2 + y1^2*y2 + y2^3")],
    )
    assert verify_witness_chain(joint_ideal, ws)


def test_a_product_witness_start_with_a_two_term_cofactor_is_accepted_by_reduction():
    """With h = f_Y^{p−1}·(1 + y0^p), the joint start g_1·h is x^μ·f^{p−1}
    times a two-term cofactor, no one-term multiple of an I_1 generator; the
    verifier accepts the joint chain by reducing modulo I_1's basis."""
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    ws = product_witness(chain, ordinary * ry.parse("1 + y0^2"), 2, fx=ss, fy=ordinary)
    joint = ws[0].ring
    gens = [criteria.embed_left(ss, joint), criteria.embed_right(ordinary, joint)]
    assert not term_multiple_of_i1(joint, ws[0], gens)
    assert verify_witness_chain(Ideal(joint, gens), ws)


def test_product_witness_kunneth_level_one():
    rx, ry, _, ordinary = product_fixture()
    g1 = rx.parse("x0^3 + x0*x1*x2 + x1^2*x2 + x2^3")
    ws = product_witness([g1], ordinary, 1, fx=g1, fy=ordinary)
    assert len(ws) == 1
    assert not in_max_ideal_frobenius_power(ws[0], 1)


def test_product_witness_raw_pairing_orientation():
    """Without the factor equations the tensor pairing puts the surviving
    u-iterate on the final chain element."""
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    raw = product_witness(chain, ordinary, 2)
    joint = raw[0].ring
    assert raw[1] == joint.parse("x0*x1*x2")  # g_2 * u(F_* h) with u(F_*h) = 1


def test_product_witness_precondition_errors():
    rx, ry, ss, ordinary = product_fixture()
    with pytest.raises(RingError):
        product_witness([ss], ordinary, 2)  # wrong chain length
    with pytest.raises(RingError):
        # middle element must be killed by u
        product_witness([rx.parse("x0*x1*x2"), ss], ordinary, 2)
    with pytest.raises(RingError):
        # supersingular second factor has no surviving iterate
        product_witness(
            height_local(Ideal(rx, [ss]), 4).certificate.data["chain"],
            ry.parse("y0^3 + y1^3 + y2^3"),
            2,
        )


@pytest.mark.parametrize("given", ["fx", "fy"])
def test_product_witness_refuses_half_a_factor_pair(given):
    """The exact joint chain needs both factor equations; one alone raises
    RingError rather than fall back to the raw tensor pairs."""
    rx, ry, ss, ordinary = product_fixture()
    chain = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    with pytest.raises(RingError, match="^fx and fy go together"):
        product_witness(chain, ordinary, 2, **{given: ss if given == "fx" else ordinary})


def test_product_witness_joint_chain_that_leaves_ker_u_is_refused():
    """gs = (g_1, g_1, g_2) passes the first factor's u-conditions but is no
    θ-chain.  With h = y0·y1·y2 + (y0·y1·y2)^3, u(F_*h) = 1 + y0·y1·y2 and
    u^2(F^2_*h) = 1 survives, but the joint w_2 = θ(F_*(g_1·h)) =
    g_2 ⊗ f_Y·u(F_*h) has u(F_*w_2) = u(F_*g_2)·u(F_*(f_Y·(1 + y0·y1·y2))) = 1."""
    rx, ry, ss, ordinary = product_fixture()
    g1, g2 = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"]
    h = ry.parse("y0*y1*y2 + y0^3*y1^3*y2^3")
    with pytest.raises(RingError, match=r"^product chain element 2 has nonzero u-image$"):
        product_witness([g1, g1, g2], h, 3, fx=ss, fy=ordinary)


@pytest.mark.parametrize("start", ["x0^2", "x0^5 + x0^2*x1^3 + x0^2*x2^3"])
def test_product_witness_joint_chain_that_collapses_into_the_frobenius_power_is_refused(start):
    """A start in Ker u whose θ-image lies in m^{[p]}, zero or not: the
    joint chain's last element, the public theta of w_1 = g_1·h by
    Δ₁(f^{p−1}), is named in the refusal."""
    rx, ry, ss, ordinary = product_fixture()
    g2 = height_local(Ideal(rx, [ss]), 4).certificate.data["chain"][1]
    joint = criteria.joint_ring_of(rx, ry)
    f = criteria.embed_left(ss, joint) * criteria.embed_right(ordinary, joint)
    w1 = criteria.embed_left(rx.parse(start), joint) * criteria.embed_right(ordinary, joint)
    last = theta(w1, delta1(f))  # f^{p−1} = f at p = 2
    assert in_max_ideal_frobenius_power(last, 1)
    message = f"product chain collapses: final element {last} lies in m^[p]"
    with pytest.raises(RingError, match=f"^{re.escape(message)}$"):
        product_witness([rx.parse(start), g2], ordinary, 2, fx=ss, fy=ordinary)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_product_witness_chain_is_the_delta_route_chain(p):
    """The joint θ-chain of `product_witness`, formed through Δ₁(f), is the
    chain of the public maps for f the product of the factor equations: a
    supersingular random cubic with its strict chain g_l, times an ordinary
    one with h = f_Y^{p−1}.  It is w_{l+1} = theta(w_l, delta1(f^{p−1}))
    at p = 2, 3 (at p = 5 that Δ needs f^20 in six variables), and at every
    p both f^{p−2}·theta(w_l, −delta1(f)) and the tensor chain
    g_l ⊗ b_l, b_1 = h, b_{l+1} = f_Y^{p−1}·u(F_*b_l), of the driving
    identity."""
    rng = random.Random(p)
    rx, ry = ring_over(p), ring_named(p, ["a", "b", "c"])
    ss = ordinary = None
    while ss is None or ordinary is None:
        coeffs, cubic = O.random_smooth_cubic(rng, rx)
        if not O.is_supersingular(coeffs, p, cubic):
            ordinary = ordinary or ry.from_terms(cubic.terms)
        elif ss is None:
            cert = height_local(Ideal(rx, [cubic]), 4).certificate
            ss, chain = (cubic, cert.data["chain"]) if "chain" in cert.data else (None, None)
    h = ordinary ** (p - 1)
    ws = product_witness(chain, h, len(chain), fx=ss, fy=ordinary)
    assert len(ws) >= 2
    joint = ws[0].ring
    f = criteria.embed_left(ss, joint) * criteria.embed_right(ordinary, joint)
    twist, fp2 = -delta1(f), f ** (p - 2)
    projected, tensor = ws[:1], [h]
    while len(projected) < len(chain):
        projected.append(fp2 * theta(projected[-1], twist))
        tensor.append(h * u_map(tensor[-1]))
    assert ws == projected
    left, right = criteria.embed_left, criteria.embed_right
    assert ws == [left(g, joint) * right(b, joint) for g, b in zip(chain, tensor)]
    if p <= 3:
        delta = delta1(f ** (p - 1))
        expected = ws[:1]
        while len(expected) < len(chain):
            expected.append(theta(expected[-1], delta))
        assert ws == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_product_rule_on_random_smooth_cubic_pairs(p):
    """For smooth plane cubics E, E' (supersingularity by point counting):
    E × E' has height 2 when exactly one is supersingular, found by the
    two-generator graded route; ∞ when both are; 1 when neither is.  Every
    ordered pair of two supersingular and two ordinary random curves."""
    rng = random.Random(p)
    ring = ring_over(p)
    joint = ring_named(p, ["x0", "x1", "x2", "y0", "y1", "y2"])
    curves = {True: [], False: []}
    while min(len(c) for c in curves.values()) < 2:
        coeffs, cubic = O.random_smooth_cubic(rng, ring)
        curves[O.is_supersingular(coeffs, p, cubic)].append(cubic)
    drawn = [(ss, c) for ss in (True, False) for c in curves[ss][:2]]
    expected = {(True, True): (INFINITE, None), (False, False): (FINITE, 1)}
    for (ss_x, fx), (ss_y, fy) in itertools.product(drawn, repeat=2):
        gens = [criteria.embed_left(fx, joint), criteria.embed_right(fy, joint)]
        res = height(gens, n_max=4)
        assert (res.verdict, res.n) == expected.get((ss_x, ss_y), (FINITE, 2))
        if ss_x != ss_y:
            assert res.route == "graded-cy"
        assert verify_certificate(Ideal(joint, gens), res.certificate)


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,names,texts,verdict",
    [
        (2, CUBIC_PAIR_VARS, ["x0^3 + x1^3 + x2^3", "y0^3 + y1^3 + y2^3"], (INFINITE, None)),
        (3, ["x", "y", "z"], ["y^2*z + 2*x^3 + x*z^2"], (FINITE, 2)),
    ],
    ids=["ss-x-ss-p2", "supersingular-cubic-p3"],
)
def test_height_builds_one_splitting(p, names, texts, verdict):
    """Step (a), the graded engine, the quick tests and the chain stages
    share one `_Splitting`, so f^{p−1} is formed once per `height` call:
    the one product over ℤ/p² in `criteria` is F^{p−1} = F^{p−2}·F."""
    ring = ring_named(p, names)
    gens = [ring.parse(t) for t in texts]
    built, products = [], []
    real_init = _Splitting.__init__

    def counting_init(self, gens):
        built.append(gens)
        real_init(self, gens)

    def counting_mul(f, g, q):
        products.append(q)
        return rings.packed_mul(f, g, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Splitting, "__init__", counting_init)
        mp.setattr("qfsplit.criteria.packed_mul", counting_mul)
        res = height(gens, n_max=4)
    assert (res.verdict, res.n) == verdict
    assert len(built) == 1
    # F^{p−1} = F^{p−2}·F, and F itself at p = 2; products over F_p are orbit terms
    assert products.count(p * p) == (p > 2)


@pytest.mark.parametrize(
    "p,text,expected",
    [
        (2, "z^2 + x^3 + y^5", 4),
        (3, "z^2 + x^3 + y^4", 2),
        (5, "z^2 + x^3 + y^5 + x*y^4", 1),
    ],
)
def test_height_rdp_table_entries(p, text, expected):
    ring = ring_over(p)
    res = height(ring.parse(text), n_max=6)
    assert (res.verdict, res.n) == (FINITE, expected)


def test_height_routes_consistent():
    ring = ring_over(2)
    f = ring.parse("x^3 + y^3 + z^3")
    auto = height(f, n_max=4)
    graded = height(f, n_max=4, strategy="graded")
    local = height(f, n_max=4, strategy="local")
    assert (auto.verdict, auto.n) == (graded.verdict, graded.n) == (local.verdict, local.n)


def test_height_infinite_goes_through_fixed_point():
    """A CY input with all coefficients zero must be separated from
    LowerBound by the I_infinity decision."""
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^2*z"), n_max=3)
    assert res.verdict == INFINITE
    assert res.route == "i-infinity"
    assert res.certificate is not None


def test_height_unknown_on_tiny_budget():
    ring = ring_over(2)
    res = height(ring.parse("z^2 + x^2*y + x*y^4"), n_max=6, budget=Budget(3))
    assert res.verdict == UNKNOWN
    assert res.n is None
    assert res.diagnostics


@pytest.mark.parametrize("strategy", ["auto", "graded", "local", "qfs"])
def test_budget_abort_is_unknown_on_every_strategy(strategy):
    """A non-F-split Calabi-Yau cubic reaches the graded engine under auto, so
    every route, graded included, must turn the abort into Unknown."""
    ring = ring_over(5)
    res = height(ring.parse("x^3 + y^3 + z^3"), strategy=strategy, budget=Budget(1))
    assert res.verdict == UNKNOWN
    assert res.n is None
    assert res.diagnostics


def test_height_rejects_empty_system():
    with pytest.raises(RingError):
        height([])


def test_result_json_shape():
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^3 + z^3"), n_max=4)
    payload = result_to_json(res)
    assert payload["verdict"] == FINITE and payload["n"] == 2
    assert set(payload) == {
        "verdict",
        "n",
        "certificate",
        "steps",
        "wall_time_ms",
        "route",
        "diagnostics",
    }
    assert payload["certificate"]["kind"] in (COEFFICIENT_WITNESS, CHAIN_WITNESS)
    assert isinstance(payload["wall_time_ms"], float)


def test_height_lower_bound_when_qfs_suppressed():
    """Forced local strategy reports LowerBound instead of guessing."""
    ring = ring_over(2)
    res = height(ring.parse("x^3 + y^2*z"), n_max=2, strategy="local")
    assert res.verdict in (LOWER_BOUND, INFINITE)
    if res.verdict == LOWER_BOUND:
        assert res.n == 2


# ---------------------------------------------------------------------------
# invariance under a linear change of coordinates
# ---------------------------------------------------------------------------


def random_invertible_matrix(rng, p, n):
    """P·L·U over F_p, with L unit lower triangular, U upper triangular with
    a nonzero diagonal and P a row permutation: every invertible matrix has
    this form, and every matrix of this form is invertible."""
    L = [[1 if i == j else rng.randrange(p) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[rng.randrange(1, p) if i == j else rng.randrange(p) if j > i else 0 for j in range(n)]
         for i in range(n)]
    A = [[sum(L[i][k] * U[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    rng.shuffle(A)
    return A


def change_coordinates(f, A):
    """f(A·x): each x_i becomes Σ_j A_ij·x_j."""
    ring = f.ring
    xs = [ring.variable(v) for v in ring.variables]
    images = [sum((x.scale(a) for a, x in zip(row, xs)), ring.zero) for row in A]
    out = ring.zero
    for e, c in f.terms.items():
        term = ring.constant(c)
        for image, k in zip(images, e):
            term = term * image**k
        out = out + term
    return out


@pytest.mark.parametrize(
    "strategy,p,text,expected",
    [
        # plane cubics: supersingular (2) and ordinary (1)
        ("graded", 2, "x^3 + y^3 + z^3", 2),
        ("graded", 2, "x^3 + x*y*z + y^2*z + z^3", 1),
        ("graded", 3, "y^2*z + x^3 + 2*x*z^2", 2),
        ("graded", 3, "x^3 + y^3 + z^3 + x*y*z", 1),
        # double points
        ("local", 2, "z^2 + x^2*y + x*y^2", 2),  # D4^0
        ("local", 2, "z^2 + x^2*y + x*y^4", 3),  # D8^0
        ("local", 2, "z^2 + x^2*y + y^4*z", 3),  # D9^0
        ("local", 2, "z^2 + x^3 + y^2*z + x*y*z", 1),  # E6^1
        ("local", 2, "z^2 + x^3 + x*y^3 + y^3*z", 2),  # E7^2
        ("local", 2, "z^2 + x^3 + y^5 + x*y^2*z", 3),  # E8^2
        # height 4, the escaping level ended at its first escaping image
        ("local", 2, "z^2 + x^3 + y^5", 4),  # E8^0
        ("local", 2, "z^2 + x^3 + x*y^3", 4),  # E7^0
        ("local", 2, "z^2 + x^2*y + x*y^5", 4),  # D10^0
        ("local", 3, "z^2 + x^3 + y^4", 2),  # E6^0
        ("local", 3, "z^2 + x^3 + y^4 + x^2*y^2", 1),  # E6^1
        ("local", 3, "z^2 + x^3 + x*y^3", 2),  # E7^0
        ("local", 3, "z^2 + x^3 + y^5", 3),  # E8^0
        ("local", 3, "z^2 + x^3 + y^5 + x^2*y^3", 2),  # E8^1
        ("local", 5, "z^2 + x^3 + y^5", 2),  # E8^0
        # the chain route at p = 5 and in 4 variables
        ("local", 5, "x^3 + y^3 + z^3", 2),  # cone over a supersingular cubic
        ("local", 5, "x^2*y + y^2*z + z^2*x", 2),
        ("local", 5, "x^4 + y^4 + z^4 + w^4", 1),
        ("local", 3, "w^2 + z^3 + x^3 + y^4", 2),
        ("local", 2, "w^2 + x^3 + y^5 + z^3", 2),
        ("local", 2, "w^2 + z^2*x + x^2*y + y^5", 2),
        # levels 3–5 of the graded engine: K3 quartics at p = 3, and a
        # supersingular plane cubic at p = 5
        *[("graded", 3, K3_QUARTICS[h], h) for h in (3, 4, 5)],
        ("graded", 5, "x^3 + y^3 + z^3", 2),
    ],
)
def test_height_is_invariant_under_a_linear_change_of_coordinates(strategy, p, text, expected):
    """A linear change of coordinates fixes the origin and maps m^{[p]} onto
    itself, so the height of the local ring there cannot change."""
    ring = ring_named(p, list("xyzw" if "w" in text else "xyz"))
    f = ring.parse(text)
    A = random_invertible_matrix(random.Random(f"{p}:{text}"), p, ring.nvars)
    g = change_coordinates(f, A)
    assert g != f
    route = {"graded": "graded-cy", "local": "local-chain"}[strategy]
    for h in (f, g):
        res = height(h, n_max=5, strategy=strategy)
        assert (res.verdict, res.n, res.route) == (FINITE, expected, route)
        assert verify_certificate(Ideal(ring, [h]), res.certificate)


CHAIN_MONOMIALS = [e for e in itertools.product(range(4), repeat=3) if 2 <= sum(e) <= 4]


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=20)
@given(data=st.data())
def test_chain_ascends_and_its_limit_matches_the_oracle_chain(p, data):
    """The premise of resuming I_∞ from the local chain: the one chain
    ascends, I_n ⊆ I_{n+1}, so its fixed point is where the I_n chain of the
    public maps stops.  The chain closed to its fixed point (under a step
    budget) must be the last ideal of `oracles.local_chain_ideals`,
    stabilized at the same level."""
    ring = ring_over(p)
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(CHAIN_MONOMIALS), st.integers(1, p - 1), min_size=1, max_size=4
        )
    )
    f = ring.from_terms(terms)
    assume(not fedder_fsplit(f))  # an F-split chain stops at I_1
    I = Ideal(ring, [f])
    chain = _Chain(_Splitting([f]), Budget())

    def level():
        return Ideal(ring, [chain.sp.polynomial(g) for g in chain.gens])

    levels = [level()]
    while chain.n < 4 and chain.advance():
        levels.append(level())
    for small, big in zip(levels, levels[1:]):
        assert all(ideal_membership(g, big) for g in small.gens)
    closing = _Chain(_Splitting([f]), Budget(4000))
    try:
        limit = closing.close()
    except criteria.BudgetExceededError:
        return
    oracle = O.local_chain_ideals(I, closing.n + 1)
    assert ideal_equal(limit, oracle[-1])
    assert len(oracle) == closing.n


def assert_early_stop_matches_the_math(f, budget=None):
    """The chain read to its first escape (`_read_chain`), which ends the
    escaping level at its first escaping image, against the math and against
    the chain that finishes every level (`_Chain.advance`):
    - its height is the first escaping level of the oracle chain
      (`oracles.local_chain_ideals`), and an Infinite answer is a fixed point
      that no oracle level escapes;
    - the stopped level's records are a prefix of the finished level's, with
      the same escape element, and the earlier levels are equal;
    - the levelled certificate of the stopped chain verifies;
    - the stopped chain refuses to step again, in both modes of
      `_Chain.advance`, and to close.
    Returns False when `budget` runs out first."""
    ring = f.ring
    I = Ideal(ring, [f])
    stopped = _Chain(_Splitting([f]), budget)
    try:
        verdict, n, _ = criteria._read_chain(stopped, None)
    except criteria.BudgetExceededError:
        return False
    escapes = [not all(O.in_bracket_m_oracle(g, 1) for g in J.gens) for J in
               O.local_chain_ideals(I, stopped.n + (verdict == INFINITE))]
    if verdict == INFINITE:
        assert not any(escapes) and len(escapes) == stopped.n and not stopped.partial
        return True
    assert escapes.index(True) + 1 == n == stopped.n
    assert stopped.partial == (n > 1)
    full = _Chain(_Splitting([f]), Budget())
    while full.n < n:
        assert full.advance()
    assert stopped.steps[:-1] == full.steps[:-1]
    if n > 1:
        last = stopped.steps[-1]
        assert last == full.steps[-1][: len(last)]
        sp = stopped.sp
        assert sp.escapes([last[-1][1]]) is not None
        assert stopped.gens[sp.escapes(stopped.gens)] == full.gens[sp.escapes(full.gens)]
        escape = sp.polynomial(last[-1][1])
        cert = Certificate(
            CHAIN_WITNESS, {"levels": stopped.levels, "escape": escape, "escape_level": n}
        )
        reasons = []
        assert verify_witness_levels(I, cert, reasons=reasons), reasons
        for step in (stopped.advance, lambda: stopped.advance(to_escape=True), stopped.close):
            with pytest.raises(RuntimeError, match="stopped at an escaping image"):
                step()
    return True


@pytest.mark.parametrize("row", rdp_rows((2, 3, 5), 8), ids=lambda row: f"{row['type']}@p{row['p']}")
def test_rdp_heights_stop_at_the_first_escaping_image(row):
    ring = ring_over(row["p"])
    f = ring.parse(row["f"])
    assert assert_early_stop_matches_the_math(f)
    assert height(f).n == row["expected"]


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=20)
@given(data=st.data())
def test_drawn_chains_stop_at_the_first_escaping_image(p, data):
    ring = ring_over(p)
    terms = data.draw(
        st.dictionaries(
            st.sampled_from(CHAIN_MONOMIALS), st.integers(1, p - 1), min_size=1, max_size=4
        )
    )
    assert_early_stop_matches_the_math(ring.from_terms(terms), Budget(4000))


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=5)
@given(data=st.data())
def test_moved_double_points_stop_at_the_first_escaping_image(p, data):
    """Random draws are rarely quasi-F-split past height 1, so the escaping
    levels are drawn from the table instead: a double point under a drawn
    linear change of coordinates keeps its height, and the order in which
    its escaping level finds its images changes."""
    row = data.draw(st.sampled_from(rdp_rows((p,), 8)))
    ring = ring_over(p)
    A = random_invertible_matrix(random.Random(data.draw(st.integers(0, 2**32))), p, 3)
    g = change_coordinates(ring.parse(row["f"]), A)
    assert assert_early_stop_matches_the_math(g)
    assert height(g).n == row["expected"]


def test_a_budget_that_runs_out_in_a_stopped_schreyer_run():
    """E8^0 at p = 3 under x ↦ 2x+2y, y ↦ 2x+z, z ↦ x+z starts the Ker u
    stream of I_2 at step 4,626, and the Schreyer run of that stream stops
    at I_3's first escaping image at step 4,639.  A budget of 4,633 runs out
    inside that run: `height` gives Unknown, and `qfs_decide` raises."""
    ring = ring_over(3)
    x, y, z = (ring.parse(t) for t in ("2*x + 2*y", "2*x + z", "x + z"))
    moved = z**2 + x**3 + y**5
    res = height(moved, budget=Budget(4633))
    assert (res.verdict, res.route) == (UNKNOWN, "local-chain")
    assert res.diagnostics == ("budget exhausted after 4634 steps",)
    with pytest.raises(criteria.BudgetExceededError) as raised:
        qfs_decide(Ideal(ring, [moved]), Budget(4633))
    frames = {frame.name for frame in traceback.extract_tb(raised.value.__traceback__)}
    assert {"advance", "_syzygies"} <= frames


@pytest.mark.parametrize(
    "p,names,text,n_max",
    [
        (2, "xyz", "z^2 + x^3 + y^5", 2),  # E8^0: the local chain stops at I_2
        (2, "xyzwus", SEXTIC_G1, 4),  # sextic g1: the local chain stops at I_4
        (2, "xyz", "x^3 + y^2*z", 3),  # the cusp: graded, so I_∞ starts at I_1
    ],
)
def test_height_resumes_i_infinity_from_the_local_chain(p, names, text, n_max):
    """The certificate that `height`'s I_∞ stage returns, read on from where
    the local chain stopped, equals the one a fresh qfs_decide reads from
    I_1 (`iterations` included), and the verifier accepts it: a ChainWitness
    of a height past n_max, or the trap I_∞."""
    ring = ring_named(p, list(names))
    f = ring.parse(text)
    res = height(f, n_max=n_max)
    assert res.route == "i-infinity"
    _, cert = qfs_decide(Ideal(ring, [f]))
    as_json = criteria.certificate_to_json
    assert as_json(res.certificate) == as_json(cert)
    assert verify_certificate(Ideal(ring, [f]), res.certificate)


@pytest.mark.parametrize(
    "p,names,texts,n",
    [
        (3, "xyz", ["z^2 + x^3 + y^5"], 3),  # E8^0
        (2, "xyzwus", [SEXTIC_G1, "s"], 2),  # sextic g1 | s = 0
    ],
    ids=["E8^0@p3", "sextic-g1-section@p2"],
)
def test_forced_local_height_is_height_local(monkeypatch, p, names, texts, n):
    """`height(strategy="local")` answers as `height_local` does (verdict,
    n, route, steps and certificate), and each of the two calls builds one
    `_Splitting`: f, the product of the generators, is formed once."""
    ring = ring_named(p, list(names))
    gens = [ring.parse(t) for t in texts]
    built = []
    init = criteria._Splitting.__init__

    def counting_init(sp, gens):
        built.append(sp)
        init(sp, gens)

    monkeypatch.setattr(criteria._Splitting, "__init__", counting_init)
    answers = []
    for call in (lambda: height(gens, strategy="local"), lambda: height_local(Ideal(ring, gens))):
        built.clear()
        res = call()
        assert len(built) == 1
        answers.append(
            (res.verdict, res.n, res.route, res.steps, criteria.certificate_to_json(res.certificate))
        )
    assert answers[0] == answers[1]
    assert answers[0][:3] == (FINITE, n, "local-chain")


@pytest.mark.parametrize("steps,route", [(500, "i-infinity"), (400, "local-chain")])
def test_budget_abort_after_the_hand_over_is_unknown(steps, route):
    """sextic g1's local chain to I_4 takes 443 steps and I_∞ 553 in all: a
    budget that outlasts the chain but not I_∞ aborts on the i-infinity
    route, a smaller one on the local chain, and both give Unknown."""
    f = ring_named(2, SEXTIC_VARS).parse(SEXTIC_G1)
    res = height(f, n_max=4, budget=Budget(steps))
    assert (res.verdict, res.route) == (UNKNOWN, route)
    assert res.diagnostics == (f"budget exhausted after {steps + 1} steps",)


@pytest.mark.parametrize("n_max", [0, -1])
def test_every_height_route_refuses_a_nonpositive_n_max(n_max):
    """n_max is a chain length, so it must be positive, as `--n-max` must:
    every route refuses 0 and −1 with RingError, where the graded engine
    answered LowerBound(n_max) and the local chain Finite(1)."""
    ring = ring_over(3)
    f = ring.parse("x^3 + y^3 + z^3 + x*y*z")
    calls = [
        lambda: height_graded_cy([f], Grading.standard(3), n_max=n_max),
        lambda: height_local(Ideal(ring, [f]), n_max=n_max),
    ]
    calls += [
        lambda s=strategy: height(f, n_max=n_max, strategy=s)
        for strategy in ("auto", "graded", "local", "qfs")
    ]
    for call in calls:
        with pytest.raises(RingError, match=rf"^n_max must be a positive chain length, got {n_max}$"):
            call()


CY_P5 = "x^3 + y^3 + z^3 + x*y*z"  # graded at p = 5, height 2
BUDGET_ROUTES = {
    "height-auto": lambda f, b: height(f, budget=b),
    "height-graded": lambda f, b: height(f, strategy="graded", budget=b),
    "height-local": lambda f, b: height(f, strategy="local", budget=b),
    "height-qfs": lambda f, b: height(f, strategy="qfs", budget=b),
    "height_local": lambda f, b: height_local(Ideal(f.ring, [f]), budget=b),
    "height_graded_cy": lambda f, b: height_graded_cy([f], Grading.standard(3), budget=b),
}
BUDGET_ROWS = [
    (3, E8_P3, "height-auto", "local-chain"),
    (3, E8_P3, "height-local", "local-chain"),
    (3, E8_P3, "height-qfs", "i-infinity"),
    (3, E8_P3, "height_local", "local-chain"),
    (5, CY_P5, "height-auto", "graded-cy"),
    (5, CY_P5, "height-graded", "graded-cy"),
    (5, CY_P5, "height-local", "local-chain"),
    (5, CY_P5, "height-qfs", "i-infinity"),
    (5, CY_P5, "height_local", "local-chain"),
    (5, CY_P5, "height_graded_cy", "graded-cy"),
]


@pytest.mark.parametrize(
    "p,text,call,route", BUDGET_ROWS, ids=[f"{row[2]}@p{row[0]}" for row in BUDGET_ROWS]
)
def test_every_height_route_answers_unknown_when_its_budget_runs_out(p, text, call, route):
    """Every route that returns a HeightResult, on the local E8^0 at p = 3
    (150 steps through the chain) and the graded cubic
    x^3 + y^3 + z^3 + x*y*z at p = 5 (2 graded steps, 65 through the
    chain), answers Unknown on its route when a budget of half its steps
    runs out: `steps` is the limit + 1, and the diagnosis says so.  At a
    budget of 1, `height_graded_cy` answers Unknown after 2 steps.
    `qfs_decide` and `enclosure_closure`, which return no HeightResult,
    raise BudgetExceededError instead."""
    f = ring_over(p).parse(text)
    full = BUDGET_ROUTES[call](f, Budget())
    assert (full.verdict, full.route) == (FINITE, route)
    limit = full.steps // 2
    assert limit >= 1
    res = BUDGET_ROUTES[call](f, Budget(limit))
    assert (res.verdict, res.n, res.certificate, res.route) == (UNKNOWN, None, None, route)
    assert res.steps == limit + 1
    assert res.diagnostics == (f"budget exhausted after {limit + 1} steps",)
    I = Ideal(f.ring, [f])
    for raising in (qfs_decide, enclosure_closure):
        with pytest.raises(criteria.BudgetExceededError):
            raising(I, budget=Budget(limit))
