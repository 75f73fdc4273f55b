from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import brute_series as brute
from rootflags import series
from rootflags.checks import delannoy_binomial
from rootflags.series import (
    Series,
    SeriesRing,
    backward_only_coefficient,
    backward_only_series,
    backward_saturated_series,
    bessel_style_product,
    catalan_number,
    catalan_of,
    catalan_run_identity,
    catalan_series,
    catalan_triangle,
    delannoy_egf,
    delannoy_egf_mixed_derivative,
    delannoy_egf_psi,
    delannoy_genfunc,
    delannoy_number,
    delannoy_poly,
    g_k,
    lex_mixed_forest_poly,
    lex_refined_count,
    node_enriched_egf,
    psi_closed_form,
    psi_series,
    refined_backward_saturated_series,
    refined_backward_series,
    revlex_facet_count,
    revlex_saturated_series,
    simion_facet_count,
    simion_saturated_series,
    transfer,
)


def brute_dyck_count(k):
    """Independent oracle: enumerate nonnegative up/down paths literally."""

    def rec(level, ups, downs):
        if not ups and not downs:
            return 1
        total = 0
        if ups:
            total += rec(level + 1, ups - 1, downs)
        if downs and level:
            total += rec(level - 1, ups, downs - 1)
        return total

    return rec(0, k, k)


def brute_delannoy_paths(a, b):
    """Independent oracle: literal path enumeration counted by steps."""
    counts = {}

    def rec(x, y, steps):
        if (x, y) == (a, b):
            counts[steps] = counts.get(steps, 0) + 1
            return
        if x < a:
            rec(x + 1, y, steps + 1)
        if y < b:
            rec(x, y + 1, steps + 1)
        if x < a and y < b:
            rec(x + 1, y + 1, steps + 1)

    rec(0, 0, 0)
    return counts


# -- ring arithmetic ---------------------------------------------------------


def test_ring_basics():
    ring = SeriesRing(("x", "y"), (3, 3))
    x, y = ring.var("x"), ring.var("y")
    f = (x + y) ** 2
    assert f.coefficient(x=1, y=1) == 2
    assert f.coefficient(x=2) == 1
    assert (f - f) == ring.zero()
    assert not ring.zero()
    assert x ** 5 == ring.zero()  # truncated away


def test_a_monomial_above_the_order_truncates_but_a_negative_exponent_is_refused():
    ring = SeriesRing(("x",), (3,))
    assert ring.var("x", 4) == ring.zero() and ring.monomial({"x": 5}, 7) == ring.zero()
    with pytest.raises(ValueError, match="negative exponent"):
        ring.var("x", -1)
    with pytest.raises(ValueError, match="negative exponent"):
        ring.monomial({"x": -2}, 5)


def test_ring_inverse_and_division():
    ring = SeriesRing(("t",), (8,))
    t = ring.var("t")
    geom = (ring.one() - t).inverse()
    assert all(geom.coefficient(t=k) == 1 for k in range(9))
    assert (ring.one() - t) * geom == ring.one()
    assert (t / (ring.one() - t)).coefficient(t=5) == 1
    with pytest.raises(ZeroDivisionError):
        t.inverse()


def test_divide_by_monomial():
    ring = SeriesRing(("z",), (4,))
    z = ring.var("z")
    f = z ** 2 + z ** 3
    assert f.divide_by_monomial("z", 2) == ring.one() + z
    with pytest.raises(ValueError):
        (ring.one() + z).divide_by_monomial("z", 1)


def test_integrality_assertion():
    ring = SeriesRing(("z",), (2,))
    half = ring.const(Fraction(1, 2))
    with pytest.raises(AssertionError):
        half.assert_integral()
    ring.one().assert_integral()


@st.composite
def small_series(draw):
    ring = SeriesRing(("a", "b"), (3, 3))
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        key = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        coeffs[key] = Fraction(draw(st.integers(-4, 4)))
    return ring.from_terms(coeffs.items())


@settings(max_examples=80, deadline=None)
@given(f=small_series(), g=small_series(), h=small_series())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(f=small_series())
def test_unit_inverse_roundtrip(f):
    unit = f + 1 - f.constant_term() + 1  # force constant term 2
    assert unit * unit.inverse() == unit.ring.one()


# -- Catalan and Delannoy ----------------------------------------------------


def test_catalan_series_values():
    c = catalan_series(8)
    expected = [brute_dyck_count(k) for k in range(9)]
    assert [c.coefficient(u=k) for k in range(9)] == expected
    assert expected[:5] == [1, 1, 2, 5, 14]
    ring = c.ring
    u = ring.var("u")
    assert ring.one() + u * c * c == c
    assert (ring.one() - u * c).inverse() == c


def test_catalan_of_requires_zero_constant():
    ring = SeriesRing(("u",), (4,))
    with pytest.raises(ValueError):
        catalan_of(ring.one())


def test_delannoy_polynomials():
    assert delannoy_poly(1, 1) == (0, 1, 2)
    assert delannoy_poly(2, 2) == (0, 0, 1, 6, 6)
    assert delannoy_number(2, 2) == 13
    assert delannoy_poly(3, 0) == (0, 0, 0, 1)
    assert delannoy_poly(0, 0) == (1,)
    for a in range(4):
        for b in range(4):
            walk = brute_delannoy_paths(a, b)
            poly = delannoy_poly(a, b)
            assert {j: c for j, c in enumerate(poly) if c} == walk


def test_delannoy_polynomials_in_any_request_order(monkeypatch):
    # the grid grows by rows and by columns as corners are asked for: a wide
    # corner, a tall one, a wider one, then every corner of the square
    monkeypatch.setattr(series, "_DELANNOY_ROWS", [])
    corners = [(0, 9), (6, 2), (3, 12), (12, 0)] + [(a, b) for a in range(13) for b in range(13)]
    for a, b in corners:
        assert list(delannoy_poly(a, b)) == delannoy_binomial(a, b), (a, b)


def test_delannoy_genfunc_extraction():
    g = delannoy_genfunc(3, 3, 6)
    for a in range(4):
        for b in range(4):
            poly = delannoy_poly(a, b)
            for j in range(7):
                want = poly[j] if j < len(poly) else 0
                assert g.coefficient(u=a, v=b, x=j) == want


# -- backward-only faces and transfer ----------------------------------------


def test_backward_only_series_coefficients():
    f = backward_only_series(8, 8)
    assert f.coefficient(y=1, t=2) == 3
    assert f.coefficient(y=2, t=3) == 10
    assert all(f.coefficient(y=0, t=n) == 1 for n in range(9))
    for n in range(9):
        for j in range(9):
            assert f.coefficient(y=j, t=n) == backward_only_coefficient(n, j)


def test_transfer_examples():
    # the empty-face-only saturated family widens to 1/(1-t)
    sat_ring = SeriesRing(("z",), (6,))
    widened = transfer(sat_ring.one(), "full_to_all", True)
    t = widened.ring.var("t")
    assert widened == (widened.ring.one() - t).inverse()

    f = backward_only_series(6, 6)
    sat = transfer(f, "all_to_full", True)
    assert sat == backward_saturated_series(6, 6)
    assert transfer(sat, "full_to_all", True) == f


def test_transfer_rejects_unknown_direction():
    ring = SeriesRing(("z",), (3,))
    with pytest.raises(ValueError):
        transfer(ring.one(), "sideways", True)


def test_refined_backward_series():
    # i = 0 is the empty-prefix family: only empty faces
    ring_match = refined_backward_series(0, 4, 4)
    t = ring_match.ring.var("t")
    assert ring_match == (ring_match.ring.one() - t).inverse()
    f1 = refined_backward_series(1, 6, 6)
    # every single backward arrow has a one-head prefix: (2,1), (3,1), (3,2)
    assert f1.coefficient(y=1, t=2) == 3


@pytest.mark.parametrize("build", [refined_backward_series, refined_backward_saturated_series])
def test_refined_backward_series_refuse_a_negative_prefix(build):
    with pytest.raises(ValueError, match="^prefix length must be nonnegative$"):
        build(-1, 3, 3)


def test_g_k_values():
    assert g_k(1).items() == [((2,), Fraction(1))]
    assert g_k(2).items() == [((3,), Fraction(2)), ((4,), Fraction(2))]
    poly = g_k(3)
    assert [poly.coefficient(z=m) for m in range(4, 7)] == [5, 10, 5]


# -- Simion class ------------------------------------------------------------


def test_simion_series_examples():
    s = simion_saturated_series("THTH", 4, 4, 4)
    assert s.coefficient(x=1, y=1, z=3) == 3
    assert s.coefficient(x=0, y=0, z=0) == 1
    # backward-only column equals the saturated backward series
    sat = backward_saturated_series(4, 4)
    for j in range(5):
        for n in range(5):
            assert s.coefficient(x=0, y=j, z=n) == sat.coefficient(y=j, z=n)
    flipped = simion_saturated_series("HTHT", 4, 4, 4)
    for i in range(5):
        for j in range(5):
            for n in range(5):
                assert flipped.coefficient(x=i, y=j, z=n) == s.coefficient(x=j, y=i, z=n)


def test_simion_facet_counts():
    assert [simion_facet_count(3, i) for i in range(4)] == [5, 5, 6, 4]
    assert simion_facet_count(4, 1) == 14
    assert sum(simion_facet_count(3, i) for i in range(4)) == comb(6, 3)
    for n in range(1, 9):
        assert simion_facet_count(n, n) == 2 ** (n - 1)
        assert sum(simion_facet_count(n, i) for i in range(n + 1)) == comb(2 * n, n)
        for i in range(1, n + 1):
            assert simion_facet_count(n, i) == 2 ** (i - 1) * catalan_triangle(n, n - i)
    with pytest.raises(ValueError):
        simion_facet_count(3, 4)


@pytest.mark.parametrize("n, k", [(2, 3), (2, 5), (-1, 0), (3, -1)])
def test_catalan_triangle_refuses_entries_outside_the_triangle(n, k):
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        catalan_triangle(n, k)


@pytest.mark.parametrize("n, j", [(2, -1), (-1, 0), (-1, -1)])
def test_backward_only_coefficient_refuses_negative_arguments(n, j):
    with pytest.raises(ValueError, match=f"^need 0 <= j and 0 <= n, got j={j}, n={n}$"):
        backward_only_coefficient(n, j)


def test_backward_only_coefficient_is_zero_above_n():
    # a face of V_n has at most n backward arrows; the series agrees
    assert [backward_only_coefficient(n, n + 1) for n in range(5)] == [0] * 5
    assert backward_only_coefficient(1, 3) == 0


# -- revlex class ------------------------------------------------------------


def test_revlex_series_example():
    s = revlex_saturated_series(4, 4, 4)
    assert s.coefficient(x=1, y=1, z=3) == 4
    assert s.coefficient(x=0, y=0, z=0) == 1
    # single-direction columns match the Delannoy form
    for n in range(1, 5):
        total = sum(
            c for (a, b) in [(a, n - 1 - a) for a in range(n)]
            for c in delannoy_poly(a, b)
        )
        assert sum(s.coefficient(x=j, y=0, z=n) for j in range(5)) == total


def test_revlex_facet_counts():
    assert [revlex_facet_count(3, k) for k in range(4)] == [4, 6, 6, 4]
    assert revlex_facet_count(2, 1) == 2
    for n in range(9):
        assert sum(revlex_facet_count(n, k) for k in range(n + 1)) == comb(2 * n, n)
    assert revlex_facet_count(5, 0) == 16


# -- node-enriched EGF -------------------------------------------------------


def test_psi_series():
    psi1 = psi_series(1, 6)
    for n in range(7):
        assert psi1.coefficient(z=n) == Fraction(1, (n + 1) * factorial(n))
    for k in range(1, 6):
        assert psi_series(k, 8) == psi_closed_form(k, 8)


def test_delannoy_egf_routes_agree():
    assert delannoy_egf(4, 4) == delannoy_egf_psi(4, 4)
    egf = delannoy_egf(4, 4)
    assert egf.coefficient(u=1, v=1) == 1  # D_{0,0} = 1
    assert delannoy_egf_mixed_derivative(4, 4) == bessel_style_product(4, 4)


def test_node_enriched_egf_small_cells():
    egf = node_enriched_egf(2, 2)
    # n = 1: one forward and one backward arrow, each with u = v = 1
    assert egf.coefficient(u=1, v=1, x=1, z=1) == 1
    assert egf.coefficient(u=1, v=1, y=1, z=1) == 1
    assert egf.coefficient(z=0) == 1


def test_node_enriched_egf_at_order_zero_is_one():
    # for n >= 1, node 1 is only a left end and node n + 1 only a right end,
    # so every term but the constant carries both u and v
    for orders in ((0, 0), (0, 1), (1, 0)):
        assert list(node_enriched_egf(*orders).items()) == [((0, 0, 0, 0, 0), 1)]


# -- lex class ---------------------------------------------------------------


def test_lex_refined_count():
    assert lex_refined_count(4, 2) == 30
    assert lex_refined_count(3, 0) == 1
    for n in range(6):
        assert lex_refined_count(n, n) == catalan_number(n)
    with pytest.raises(ValueError):
        lex_refined_count(3, 4)


def test_catalan_run_identity():
    for k in range(13):
        for i in range(k + 1):
            assert catalan_run_identity(k, i) == brute.catalan_run_identity(k, i), (k, i)
    for k in range(25):
        for i in range(k + 1):
            assert catalan_run_identity(k, i) == catalan_number(k), (k, i)
    assert catalan_run_identity(4, 2) == 14
    for k, i in ((3, -1), (3, 4)):
        with pytest.raises(ValueError):
            catalan_run_identity(k, i)


def test_lex_mixed_forest_poly():
    assert lex_mixed_forest_poly(1, 0).items() == [((2,), Fraction(1))]
    poly = lex_mixed_forest_poly(2, 1)
    assert [poly.coefficient(z=m) for m in (3, 4)] == [2, 2]
    k3 = lex_mixed_forest_poly(3, 2)
    # 5 z^4 (z+1)^2
    assert [k3.coefficient(z=m) for m in (4, 5, 6)] == [5, 10, 5]
    for i in range(4):
        assert lex_mixed_forest_poly(3, i) == k3
    with pytest.raises(ValueError):
        lex_mixed_forest_poly(2, 3)
