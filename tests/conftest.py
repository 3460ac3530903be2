"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from qfsplit import EXPONENT_LIMIT, Ideal, PolynomialRing, PrimeField, criteria

import oracles

settings.register_profile(
    "qfsplit",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("qfsplit")


def ring_over(p: int, variables=("x", "y", "z")) -> PolynomialRing:
    return PolynomialRing(PrimeField(p), variables)


def poly_strategy(ring: PolynomialRing, max_exp: int = 4, max_terms: int = 6):
    """Random polynomials as exponent-dict draws reduced through from_terms."""
    n = len(ring.variables)
    exps = st.tuples(*([st.integers(0, max_exp)] * n))
    coeffs = st.integers(0, ring.field.p - 1)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(ring.from_terms)


def nonzero_poly_strategy(ring: PolynomialRing, max_exp: int = 4, max_terms: int = 6):
    return poly_strategy(ring, max_exp, max_terms).filter(lambda f: not f.is_zero())


@pytest.fixture(autouse=True)
def trap_certificates_hold_on_the_oracle_route(monkeypatch):
    """Every trap certificate that a test makes in this process, the
    IInftyStabilized of an Infinite answer of the one chain reader
    (`height_local`, `qfs_decide` and `height`'s I_∞ stage), is re-verified
    after the test by `oracles.trap_fault`, which shares neither the
    Schreyer run nor the θ formula of the solver and its verifier.  A trap
    whose Δ₁(f^{p−1}) would pass EXPONENT_LIMIT is left out, since the Δ
    route cannot form it."""
    made = []
    read = criteria._read_chain

    def read_chain(chain, n_max):
        verdict, n, cert = read(chain, n_max)
        f = chain.sp.f
        p = f.ring.field.p
        if verdict == criteria.INFINITE and p * (p - 1) * f.max_exponent() <= EXPONENT_LIMIT:
            made.append((Ideal(f.ring, chain.sp.gens), Ideal(f.ring, cert.data["generators"])))
        return verdict, n, cert

    monkeypatch.setattr(criteria, "_read_chain", read_chain)
    yield
    faults = [(I.gens, fault) for I, J in made if (fault := oracles.trap_fault(I, J))]
    assert faults == []
