"""The packed ``Series`` operations against the tuple -> ``Fraction`` oracle in
brute_series.

Every result must have ``coeffs`` equal to the oracle's dict, every value a
``Fraction``, and be in canonical form: ``den > 0``, no zero numerator,
``gcd(den, *numerators) == 1`` (so the zero series has ``den == 1``), every
packed key inside the orders, and ``hash`` agreeing with ``==`` on a copy
rebuilt from ``coeffs`` in reverse order.  Random rings have 0-5 variables
with orders 0-12, and a quarter of them put order 0 on the last variable,
the one whose exponent the product's prefix cut reads.  The series are
sparse, with negative and non-integral coefficients and terms at the order
boundary, and half of the pairs are (P + Q, P - Q), whose cross terms
cancel.  The series functions that are made of products (``__pow__``,
``catalan_of``, ``simion_saturated_series``) are compared with the same
functions run on the oracle multiplication.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import brute_series as brute
from brute_series import brute_mul
from rootflags.series import Series, SeriesRing, catalan_of, simion_saturated_series

VARIABLES = "abcde"

coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
scalars = st.one_of(
    st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
)


@st.composite
def rings(draw, max_vars=5, max_order=12):
    k = draw(st.integers(0, max_vars))
    orders = [draw(st.integers(0, max_order)) for _ in range(k)]
    if k and draw(st.integers(0, 3)) == 0:
        orders[-1] = 0
    return SeriesRing(tuple(VARIABLES[:k]), tuple(orders))


def exponents_of(ring, high=14):
    return st.tuples(*(st.integers(0, high) for _ in ring.orders))


def series_in(ring):
    """Sparse series of the ring; a drawn exponent above its order is cut
    to the order, so terms at the order boundary are frequent."""
    exponents = exponents_of(ring).map(lambda es: tuple(map(min, es, ring.orders)))
    return st.lists(st.tuples(exponents, coefficients), max_size=8).map(ring.from_terms)


@st.composite
def series_pairs(draw, **ring_bounds):
    ring = draw(rings(**ring_bounds))
    p, q = draw(series_in(ring)), draw(series_in(ring))
    if draw(st.booleans()):
        return p + q, p - q  # the cross terms cancel
    return p, q


def assert_canonical(s: Series) -> None:
    assert s.den > 0
    assert all(s.terms.values()), "a zero numerator is stored"
    assert gcd(s.den, *s.terms.values()) == 1
    packing = s.ring.packing
    for key in s.terms:
        exps = packing.unpack(key)
        assert s.ring.within(exps) and packing.pack(exps) == key
    assert all(isinstance(c, Fraction) for c in s.coeffs.values())
    copy = Series(s.ring, dict(reversed(s.coeffs.items())))  # other insertion order
    assert copy == s and hash(copy) == hash(s)
    assert s.is_integral() == all(c.denominator == 1 for c in s.coeffs.values())


def assert_same(fast: Series, oracle: dict, ring: SeriesRing | None = None) -> None:
    if isinstance(oracle, Series):
        ring, oracle = oracle.ring, dict(oracle.coeffs)
    assert fast.ring == (ring or fast.ring)
    assert fast.coeffs == oracle
    assert_canonical(fast)


def with_brute_mul(fn, *args):
    """Run fn with the oracle multiplication in place of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Series, "__mul__", brute_mul)
        mp.setattr(Series, "__rmul__", brute_mul)
        return fn(*args)


@settings(max_examples=150, deadline=None)
@given(pair=series_pairs())
def test_product_matches_brute(pair):
    a, b = pair
    assert_same(a * b, brute.mul(a.ring, a.coeffs, b.coeffs))


@settings(max_examples=150, deadline=None)
@given(pair=series_pairs(), factor=scalars)
def test_linear_operations_match_brute(pair, factor):
    a, b = pair
    assert_same(a + b, brute.add(a.coeffs, b.coeffs))
    assert_same(a - b, brute.add(a.coeffs, b.coeffs, -1))
    assert_same(-a, brute.add({}, a.coeffs, -1))
    assert_same(a * factor, brute.scale(a.coeffs, factor))
    assert_same(factor * a, brute.scale(a.coeffs, factor))
    constant = brute.from_terms(a.ring, [((0,) * len(a.ring.orders), factor)])
    assert_same(a + factor, brute.add(a.coeffs, constant))
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_terms_matches_brute(data):
    ring = data.draw(rings())
    # exponents up to 14 leave the orders; repeated keys add and may cancel
    terms = data.draw(
        st.lists(st.tuples(exponents_of(ring), st.one_of(coefficients, scalars)), max_size=10)
    )
    if terms:
        repeats = data.draw(st.lists(st.sampled_from(terms), max_size=3))
        terms += [(exps, -c) for exps, c in repeats]
    assert_same(ring.from_terms(terms), brute.from_terms(ring, terms), ring)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_slice_and_divide_match_brute(data):
    ring = data.draw(rings())
    a = data.draw(series_in(ring))
    fixed = {}
    if ring.variables:
        fixed = data.draw(st.dictionaries(st.sampled_from(ring.variables), st.integers(-1, 14)))
    assert_same(a.slice(**fixed), brute.slice_(ring, a.coeffs, fixed), ring)
    if not ring.variables:
        return
    name = data.draw(st.sampled_from(ring.variables))
    power = data.draw(st.integers(-1, 3))
    try:
        want = brute.divide_by_monomial(ring, a.coeffs, name, power)
    except ValueError:
        with pytest.raises(ValueError):
            a.divide_by_monomial(name, power)
    else:
        assert_same(a.divide_by_monomial(name, power), want, ring)


def test_slice_with_an_exponent_too_large_for_its_slot_is_zero():
    # a has a 1-bit slot below b's, so 4 << 0 lands on b's lowest bit; with
    # b fixed too, want would equal the packed key of b^5
    ring = SeriesRing(("a", "b"), (0, 5))
    a = ring.from_terms([((0, 5), 1)])
    for fixed in ({"a": 4, "b": 4}, {"a": 1}, {"b": 6}, {"a": -1, "b": 5}):
        assert_same(a.slice(**fixed), brute.slice_(ring, a.coeffs, fixed), ring)
        assert a.slice(**fixed) == ring.zero()
    assert a.slice(a=0, b=5) == ring.one()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_map_ring_matches_brute(data):
    ring = data.draw(rings())
    a = data.draw(series_in(ring))
    m = data.draw(st.integers(len(ring.variables), len(VARIABLES)))
    names = data.draw(st.permutations(VARIABLES[:m]))
    target = SeriesRing(tuple(names), tuple(data.draw(st.integers(0, 12)) for _ in names))
    rename = dict(zip(ring.variables, names))
    want = brute.map_ring(ring, a.coeffs, target, rename)
    assert_same(a.map_ring(target, rename), want, target)


def test_map_ring_rejects_merged_variables():
    ring = SeriesRing(("a", "b"), (2, 2))
    with pytest.raises(ValueError):
        ring.var("a").map_ring(SeriesRing(("c",), (2,)), {"a": "c", "b": "c"})


@settings(max_examples=80, deadline=None)
@given(data=st.data(), c0=coefficients, exponent=st.integers(-2, 5))
def test_inverse_and_power_match_brute(data, c0, exponent):
    ring = data.draw(rings(max_vars=3, max_order=4))
    f = data.draw(series_in(ring))
    unit = f - f.constant_term() + c0
    assert_same(unit.inverse(), brute.inverse(ring, unit.coeffs), ring)
    assert_same(unit ** exponent, with_brute_mul(Series.__pow__, unit, exponent))


def test_rings_without_variables_or_with_a_last_order_of_zero():
    empty = SeriesRing((), ())
    half = empty.const(Fraction(1, 2))
    assert_same(half * half, {(): Fraction(1, 4)}, empty)
    assert_same(half * empty.const(2) - 1, {}, empty)
    assert_same(half.inverse(), {(): Fraction(2)}, empty)
    assert half.items() == [((), Fraction(1, 2))]
    flat = SeriesRing(("a", "b"), (3, 0))
    a, b = flat.var("a"), flat.var("b")
    assert b == flat.zero()  # b^1 lies outside the order 0
    f = (flat.one() + a * Fraction(2, 3) + b) ** 4
    want = {(0, 0): 1, (1, 0): Fraction(8, 3), (2, 0): Fraction(8, 3), (3, 0): Fraction(32, 27)}
    assert_same(f, want, flat)


def test_constructor_takes_a_dict_and_refuses_exponents_outside_the_orders():
    ring = SeriesRing(("a",), (2,))
    s = Series(ring, {(1,): Fraction(2, 4), (2,): Fraction(0)})
    assert_same(s, {(1,): Fraction(1, 2)}, ring)
    assert s.den == 2 and s.terms == {ring.packing.pack((1,)): 1}
    for bad in ({(3,): Fraction(1)}, {(-1,): Fraction(1)}, {(0, 0): Fraction(1)}):
        with pytest.raises(ValueError):
            Series(ring, bad)


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
    assert (b ** 7 * b ** 6).den == 1
    assert (b + c) * (b - c) == b * b - c * c
    assert ((b + c) * (b - c)).coefficient(b=1, c=1) == 0


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
