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
functions run on the oracle multiplication.  ``catalan_of`` and
``backward_only_series`` sum Catalan coefficients by Horner's rule; they are
also compared with the quadratic fixed-point iterations they replaced, and
``node_enriched_egf``, built in its output ring, with the work-ring assembly
it replaced.  Each drawn series is one flat list of ints, one per term.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import brute_series as brute
from brute_series import brute_mul
from rootflags import series as series_mod
from rootflags.cli import main
from rootflags.series import (
    Series,
    SeriesRing,
    backward_only_series,
    catalan_of,
    node_enriched_egf,
    simion_saturated_series,
)

VARIABLES = "abcde"

#: The values a drawn term's coefficient takes: the nonzero n/d with
#: |n| <= 30 and d <= 12; and the scalar pools, the ints -6..6 and the n/d
#: with |n| <= 9 and d <= 9.
COEFFICIENTS = tuple(Fraction(n, d) for d in range(1, 13) for n in range(-30, 31) if n)
SCALAR_INTS = tuple(range(-6, 7))
SCALAR_FRACTIONS = tuple(Fraction(n, d) for n in range(-9, 10) for d in range(1, 10))
coefficients = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))
scalars = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))

#: Hypothesis draws a bounded int uniformly only below 256 and from a
#: long-tailed law above, so the high digits of a raw term code would almost
#: always be 0.  Multiplying by this prime, which is coprime to every code
#: range, spreads the codes over all digits.
SPREAD = 2**61 - 1


@st.composite
def rings(draw, max_vars=5, max_order=12):
    k = draw(st.integers(0, max_vars))
    orders = [draw(st.integers(0, max_order)) for _ in range(k)]
    if k and draw(st.integers(0, 3)) == 0:
        orders[-1] = 0
    return SeriesRing(tuple(VARIABLES[:k]), tuple(orders))


def terms_in(ring, pools=(COEFFICIENTS,), cut=True, max_size=8):
    """Lists of terms drawn as one flat list of ints, one per term.  Each
    code, times ``SPREAD``, is read in mixed radix: a pool, a value in it,
    then one exponent 0-14 per variable, cut to its order when ``cut``.
    Every digit is near uniform, as it was when each had its own draw."""
    orders = ring.orders
    radix = lcm(*map(len, pools))  # a multiple of every pool's length
    size = len(pools) * radix * 15 ** len(orders)

    def decode(code):
        code, p = divmod(code * SPREAD % size, len(pools))
        code, i = divmod(code, radix)
        exps = []
        for order in orders:
            code, e = divmod(code, 15)
            exps.append(min(e, order) if cut else e)
        return tuple(exps), pools[p][i % len(pools[p])]

    codes = st.integers(0, size - 1)
    return st.lists(codes, max_size=max_size).map(lambda drawn: [decode(c) for c in drawn])


def series_in(ring):
    """Sparse series of the ring; a drawn exponent above its order is cut
    to the order, so terms at the order boundary are frequent."""
    return terms_in(ring).map(ring.from_terms)


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
    # exponents up to 14 leave the orders; repeated keys add and may cancel.
    # The values come from the three pools of st.one_of(coefficients, scalars).
    pools = (COEFFICIENTS, SCALAR_INTS, SCALAR_FRACTIONS)
    terms = data.draw(terms_in(ring, pools, cut=False, max_size=10))
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), least=st.integers(1, 3))
def test_catalan_of_matches_the_fixed_point(data, least):
    # inners of least total degree >= least: the Horner sum runs
    # budget // least steps
    ring = data.draw(rings(max_vars=3, max_order=4))
    f = data.draw(series_in(ring))
    inner = ring.from_terms((e, c) for e, c in f.coeffs.items() if sum(e) >= least)
    assert_same(catalan_of(inner), brute.catalan_fixed_point(inner))


def test_catalan_of_edge_inners_match_the_fixed_point():
    empty, flat = SeriesRing((), ()), SeriesRing(("a", "b"), (4, 0))
    square = SeriesRing(("a", "b"), (5, 5))
    a, b = square.var("a"), square.var("b")
    cases = [
        empty.zero(),
        flat.zero(),
        square.zero(),
        flat.var("a") * Fraction(-2, 3),  # the last variable has order 0
        a * b - 2 * a * a,  # least degree 2
        a ** 3 + a * b * b * Fraction(1, 2) - b ** 5,  # least degree 3
    ]
    for inner in cases:
        assert_same(catalan_of(inner), brute.catalan_fixed_point(inner))


def test_backward_only_series_matches_the_fixed_point():
    for y_order in range(13):
        for t_order in range(13):
            fast = backward_only_series(y_order, t_order)
            assert_same(fast, brute.backward_only_fixed_point(y_order, t_order))


@pytest.mark.parametrize("nesting", ["THTH", "HTHT"])
@pytest.mark.parametrize("orders", [(0, 0, 0), (2, 3, 4), (4, 4, 6)])
def test_simion_series_matches_brute(nesting, orders):
    assert_same(
        simion_saturated_series(nesting, *orders),
        with_brute_mul(simion_saturated_series, nesting, *orders),
    )


def test_node_enriched_egf_matches_the_work_ring():
    cases = [(8, 8, None)]  # the benchmark's orders
    for u_order in range(7):
        for v_order in range(7):
            default = max(u_order + v_order - 1, 0)
            for z_order in {None, 0, max(default - 1, 0), default + 2}:
                cases.append((u_order, v_order, z_order))
    for orders in cases:
        fast = node_enriched_egf(*orders)
        assert fast == brute.node_enriched_egf_work_ring(*orders), orders
        # == compares den and the packed terms, so at the other z_orders the
        # result has the oracle's canonical form; checking one per (u, v)
        # keeps the grid near half a second
        if orders[2] is None:
            assert_canonical(fast)


def test_node_enriched_egf_needs_no_monomial_division_or_change_of_ring(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("node_enriched_egf is assembled in its output ring")

    want = brute.node_enriched_egf_work_ring(5, 5)
    monkeypatch.setattr(Series, "divide_by_monomial", refuse)
    monkeypatch.setattr(Series, "map_ring", refuse)
    assert node_enriched_egf(5, 5) == want
    assert main(["series", "dump", "--which", "node-egf", "--uvorder", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows == [",".join(map(str, [*e, c.numerator, c.denominator])) for e, c in want.items()]


@pytest.mark.parametrize("orders", [(-1, 2), (2, -1), (2, 2, -1)])
def test_node_enriched_egf_refuses_negative_orders_before_any_factor(monkeypatch, orders):
    def refuse(*args):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(series_mod, "delannoy_poly", refuse)
    monkeypatch.setattr(Series, "_of", refuse)
    with pytest.raises(ValueError):
        node_enriched_egf(*orders)
