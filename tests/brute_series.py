"""Term-by-term series operations on tuple -> ``Fraction`` dicts, kept as the
oracle for the packed form of ``rootflags.series.Series``.

The library stores a series as integer numerators over one common
denominator, keyed by packed exponent ints, and skips in its product the
pairs whose last exponent would overflow.  Here every coefficient is a
``Fraction`` keyed by its exponent tuple: a sum or product builds each
exponent tuple, drops it when some exponent leaves the orders, and removes a
total that cancels to zero on the spot.  ``coeffs`` of the library's result
must equal the oracle's dict exactly.

The subset sum that ``catalan_run_identity`` replaced with a transfer over
positions is kept here as its oracle, and so are the quadratic fixed-point
iterations that ``catalan_of`` and ``backward_only_series`` replaced with a
Horner sum of the Catalan coefficients.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from rootflags.series import Exponents, Series, SeriesRing, catalan_number

#: The oracle's form of a series; a ``Mapping`` argument is one of these or a
#: ``Series.coeffs`` view.
Coeffs = dict[Exponents, Fraction]


def _within(orders: tuple[int, ...], exps: Exponents) -> bool:
    return all(0 <= e <= o for e, o in zip(exps, orders))


def _accumulate(out: Coeffs, exps: Exponents, c) -> None:
    total = out.get(exps, Fraction(0)) + c
    if total:
        out[exps] = total
    else:
        out.pop(exps, None)


def from_terms(ring: SeriesRing, terms: Iterable[tuple[Exponents, Fraction | int]]) -> Coeffs:
    out: Coeffs = {}
    for exps, c in terms:
        if _within(ring.orders, exps):
            _accumulate(out, exps, Fraction(c))
    return out


def add(a: Mapping, b: Mapping, sign: int = 1) -> Coeffs:
    out = dict(a)
    for exps, c in b.items():
        _accumulate(out, exps, sign * c)
    return out


def scale(a: Mapping, factor) -> Coeffs:
    factor = Fraction(factor)
    return {e: c * factor for e, c in a.items()} if factor else {}


def mul(ring: SeriesRing, a: Mapping, b: Mapping) -> Coeffs:
    out: Coeffs = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            if _within(ring.orders, key):
                _accumulate(out, key, c1 * c2)
    return out


def divide_by_monomial(ring: SeriesRing, a: Mapping, name: str, power: int) -> Coeffs:
    if power < 0:
        raise ValueError("negative power")
    i = ring.index(name)
    out: Coeffs = {}
    for exps, c in a.items():
        if exps[i] < power:
            raise ValueError(f"term {exps} not divisible by {name}^{power}")
        out[exps[:i] + (exps[i] - power,) + exps[i + 1:]] = c
    return out


def slice_(ring: SeriesRing, a: Mapping, fixed: Mapping[str, int]) -> Coeffs:
    idx = {ring.index(name): e for name, e in fixed.items()}
    return {
        tuple(0 if i in idx else e for i, e in enumerate(exps)): c
        for exps, c in a.items()
        if all(exps[i] == e for i, e in idx.items())
    }


def map_ring(ring: SeriesRing, a: Mapping, target: SeriesRing, rename: Mapping[str, str]) -> Coeffs:
    positions = [target.index(rename.get(name, name)) for name in ring.variables]
    terms = []
    for exps, c in a.items():
        vec = [0] * len(target.variables)
        for p, e in zip(positions, exps):
            vec[p] = e
        terms.append((tuple(vec), c))
    return from_terms(target, terms)


def inverse(ring: SeriesRing, a: Mapping) -> Coeffs:
    """The inverse of a unit as the fixed point g = (1 - (a - c0) g) / c0,
    which gains at least one total degree per round."""
    zero = (0,) * len(ring.orders)
    c0 = a.get(zero, Fraction(0))
    if not c0:
        raise ZeroDivisionError("not a unit")
    one = {zero: Fraction(1)}
    tail = add(a, {zero: c0}, -1)
    g = scale(one, 1 / c0)
    for _ in range(sum(ring.orders) + 1):
        g = scale(add(one, mul(ring, tail, g), -1), 1 / c0)
    return g


def brute_mul(self: Series, other) -> Series:
    """``Series.__mul__`` as a double loop over tuple keys and Fractions."""
    if isinstance(other, (int, Fraction)):
        return Series(self.ring, scale(self.coeffs, other))
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    return Series(self.ring, mul(self.ring, self.coeffs, other.coeffs))


def _runs(values: Sequence[int]) -> list[int]:
    """Lengths of the maximal intervals of consecutive integers."""
    out = []
    run = 0
    previous = None
    for v in values:
        if previous is not None and v == previous + 1:
            run += 1
        else:
            if run:
                out.append(run)
            run = 1
        previous = v
    if run:
        out.append(run)
    return out


def catalan_run_identity(k: int, i: int) -> int:
    """Sum over the i-subsets S of 1..k of the product of Catalan numbers
    over the runs of S and of its complement, subset by subset."""
    total = 0
    universe = range(1, k + 1)
    for subset in itertools.combinations(universe, i):
        complement = [v for v in universe if v not in subset]
        product = 1
        for run in _runs(subset) + _runs(complement):
            product *= catalan_number(run)
        total += product
    return total


def catalan_fixed_point(inner: Series) -> Series:
    """C(inner) as the fixed point of S = 1 + inner * S^2, iterated from S = 1;
    each round fixes at least one more total degree."""
    ring = inner.ring
    s = ring.one()
    for _ in range(ring.total_budget() + 2):
        nxt = ring.one() + inner * s * s
        if nxt == s:
            return s
        s = nxt
    raise AssertionError("catalan fixed point failed to stabilize")


def backward_only_fixed_point(y_order: int, t_order: int) -> Series:
    """The backward-only series as the fixed point of F = 1 + t F + y t F^2,
    iterated from F = 1; each round fixes at least one more power of t."""
    ring = SeriesRing(("y", "t"), (y_order, t_order))
    y, t = ring.var("y"), ring.var("t")
    f = ring.one()
    for _ in range(t_order + 1):
        nxt = ring.one() + t * f + y * t * f * f
        if nxt == f:
            break
        f = nxt
    return f
