"""The packed multiplication kernel against the term-by-term oracle in
brute_series.

Products must agree exactly: the same ``coeffs`` dict, every value a
``Fraction``, and no zero stored.  Random rings have 1-5 variables with
orders 0-12; the series are sparse, with negative and non-integral
coefficients and terms at the order boundary, and half of the pairs are
(P + Q, P - Q), whose cross terms cancel.  The series functions that are made
of products (``inverse``, ``__pow__``, ``catalan_of``,
``simion_saturated_series``) are compared with the same functions run on the
oracle multiplication.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brute_series import brute_mul
from rootflags.series import Series, SeriesRing, catalan_of, simion_saturated_series

VARIABLES = "abcde"

coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))


@st.composite
def rings(draw, max_vars=5, max_order=12):
    k = draw(st.integers(1, max_vars))
    orders = tuple(draw(st.integers(0, max_order)) for _ in range(k))
    return SeriesRing(tuple(VARIABLES[:k]), orders)


def series_in(ring):
    """Sparse series of the ring; a drawn exponent above its order is cut
    to the order, so terms at the order boundary are frequent."""
    k = len(ring.orders)
    exponents = st.lists(st.integers(0, 14), min_size=k, max_size=k).map(
        lambda es: tuple(min(e, o) for e, o in zip(es, ring.orders))
    )
    return st.lists(st.tuples(exponents, coefficients), max_size=8).map(ring.from_terms)


@st.composite
def series_pairs(draw, **ring_bounds):
    ring = draw(rings(**ring_bounds))
    p, q = draw(series_in(ring)), draw(series_in(ring))
    if draw(st.booleans()):
        return p + q, p - q  # the cross terms cancel
    return p, q


def assert_same(fast: Series, brute: Series) -> None:
    assert fast.ring == brute.ring
    assert fast.coeffs == brute.coeffs
    assert all(isinstance(c, Fraction) for c in fast.coeffs.values())
    assert all(fast.coeffs.values()), "a zero coefficient is stored"


def with_brute_mul(fn, *args):
    """Run fn with the oracle multiplication in place of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Series, "__mul__", brute_mul)
        mp.setattr(Series, "__rmul__", brute_mul)
        return fn(*args)


@settings(max_examples=120, deadline=None)
@given(pair=series_pairs())
def test_product_matches_brute(pair):
    a, b = pair
    assert_same(a * b, brute_mul(a, b))


def test_product_edge_cases():
    ring = SeriesRing(("a", "b", "c"), (0, 12, 1))
    b, c = ring.var("b"), ring.var("c")
    edge = ring.from_terms(
        [((0, 12, 1), Fraction(-3, 7)), ((0, 6, 1), Fraction(5, 4)), ((0, 0, 0), Fraction(2, 9))]
    )
    cases = [
        (ring.zero(), edge),
        (edge, ring.zero()),
        (edge, edge),  # b^12 * b^12 and c * c reach twice the orders
        (b ** 6 * c, b ** 6 * c),  # exactly at the boundary
        (b ** 7, b ** 6),  # truncated to the empty series
        (b + c, b - c),  # b*c cancels
        (ring.const(Fraction(1, 3)) + c, ring.const(Fraction(-2, 5)) * b + c),
    ]
    for left, right in cases:
        assert_same(left * right, brute_mul(left, right))
    assert (b ** 7 * b ** 6).coeffs == {}
    assert (b + c) * (b - c) == b * b - c * c
    assert ((b + c) * (b - c)).coefficient(b=1, c=1) == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), c0=coefficients, exponent=st.integers(-2, 5))
def test_inverse_and_power_match_brute(data, c0, exponent):
    ring = data.draw(rings(max_vars=3, max_order=4))
    f = data.draw(series_in(ring))
    unit = f - f.constant_term() + c0
    assert_same(unit.inverse(), with_brute_mul(Series.inverse, unit))
    assert_same(unit ** exponent, with_brute_mul(Series.__pow__, unit, exponent))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_catalan_of_matches_brute(data):
    ring = data.draw(rings(max_vars=3, max_order=4))
    f = data.draw(series_in(ring))
    inner = f - f.constant_term()
    assert_same(catalan_of(inner), with_brute_mul(catalan_of, inner))


@pytest.mark.parametrize("nesting", ["THTH", "HTHT"])
@pytest.mark.parametrize("orders", [(0, 0, 0), (2, 3, 4), (4, 4, 6)])
def test_simion_series_matches_brute(nesting, orders):
    assert_same(
        simion_saturated_series(nesting, *orders),
        with_brute_mul(simion_saturated_series, nesting, *orders),
    )
