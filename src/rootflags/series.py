"""Exact truncated multivariate power series and the closed-form evaluators.

Coefficients are exact rationals; there is no floating point anywhere in
this module.  A series is stored as integer numerators over one common
denominator, keyed by exponent vectors packed into single ints, and
truncated per variable.  Division is only by units (nonzero constant term)
or by pure monomials that divide every term, and square roots are never
taken: every closed form involving the Catalan generating function sums
its Catalan coefficients by Horner's rule (``catalan_of``).

Conventions for the formal variables: x marks forward arrows, y backward
arrows, t the ambient size for all-face counts, z the ambient size for
saturated-face counts, u and v mark left/right node groups.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from ._record import Record

Exponents = tuple[int, ...]


class SeriesRing(Record):
    """A set of variable names with per-variable truncation orders."""

    _fields = ("variables", "orders")

    def __init__(self, variables: Iterable[str], orders: Iterable[int]):
        if isinstance(variables, str):
            raise TypeError(f"variables must be a sequence of names, not the string {variables!r}")
        variables, orders = tuple(variables), tuple(orders)
        if not all(isinstance(v, str) for v in variables):
            raise TypeError(f"variable names must be strings, got {variables}")
        if len(variables) != len(set(variables)):
            raise ValueError(f"repeated variable in {variables}")
        if len(variables) != len(orders):
            raise ValueError("orders must align with variables")
        if any(o < 0 for o in orders):
            raise ValueError("orders must be nonnegative")
        self.__dict__.update(variables=variables, orders=orders)

    @cached_property
    def packing(self) -> "_Packing":
        return _Packing(self.orders)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in {self.variables}") from None

    def order(self, name: str) -> int:
        return self.orders[self.index(name)]

    def within(self, exps: Exponents) -> bool:
        return all(0 <= e <= o for e, o in zip(exps, self.orders))

    def zero(self) -> "Series":
        return Series._of(self, 1, {})

    def one(self) -> "Series":
        return self.const(1)

    def const(self, value) -> "Series":
        return self.monomial({}, value)

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial({name: power})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Series":
        vec = [0] * len(self.variables)
        for name, e in exps.items():
            if e < 0:
                raise ValueError(f"negative exponent {name}^{e} is not in the ring")
            vec[self.index(name)] = e
        coeff = Fraction(coeff)
        if not coeff or not self.within(vec):
            return self.zero()
        return Series._of(self, coeff.denominator, {self.packing.pack(vec): coeff.numerator})

    def from_terms(self, terms: Iterable[tuple[Exponents, Fraction | int]]) -> "Series":
        """The sum of the terms (exponents, coefficient) that lie within the
        orders; the others are dropped."""
        pack, within = self.packing.pack, self.within
        kept = [(pack(exps), c) for exps, c in terms if within(exps)]
        den = lcm(*(c.denominator for _, c in kept))
        acc: dict[int, int] = {}
        for key, c in kept:
            acc[key] = acc.get(key, 0) + c.numerator * (den // c.denominator)
        return Series._of(self, den, {k: n for k, n in acc.items() if n})

    def total_budget(self) -> int:
        return sum(self.orders)


class _Packing:
    """Exponent vectors of one ring's orders packed into single ints.

    Variable i gets a slot of ``orders[i].bit_length() + 1`` bits, wide
    enough for the sum of two exponents up to its order, and one guard bit
    above the slot; the last variable gets the top slot.  Every stored
    exponent lies within the ring's orders (the ring's constructors and
    every operation drop the terms outside them), so two packed keys add
    slot by slot without a carry, and ``top - key`` borrows a slot's guard
    bit exactly when that slot exceeds its order: ``(top - key) & guards ==
    guards`` is the truncation test for all variables at once.  Keys sort by
    the last variable's exponent first, and every key with that exponent at
    most e lies below ``(e + 1) << top_shift``.
    """

    __slots__ = ("slots", "top", "guards", "top_shift", "top_limit")

    def __init__(self, orders: tuple[int, ...]):
        slots = []
        top = guards = shift = 0
        for o in orders:
            width = o.bit_length() + 1
            slots.append((shift, (1 << width) - 1))
            top |= o << shift
            guards |= 1 << (shift + width)
            shift += width + 1
        self.slots, self.top, self.guards = tuple(slots), top | guards, guards
        # a ring without variables has the single key 0 below top_limit 1
        self.top_shift = slots[-1][0] if slots else 0
        self.top_limit = ((orders[-1] if orders else 0) + 1) << self.top_shift

    def pack(self, exps: Exponents) -> int:
        return sum(e << s for e, (s, _) in zip(exps, self.slots))

    def unpack(self, key: int) -> Exponents:
        return tuple((key >> s) & mask for s, mask in self.slots)


class Series:
    """A truncated power series with exact rational coefficients.

    ``terms`` maps packed exponent keys (see ``_Packing``) to integer
    numerators over the common denominator ``den``.  The form is canonical:
    ``den > 0``, no numerator is zero, ``gcd(den, *numerators) == 1``, and
    the zero series has ``den == 1``; so equal series have equal fields.
    ``coeffs`` is the read-only tuple -> ``Fraction`` view of the same
    coefficients, built on first use.  ``Series(ring, coeffs)`` builds a
    series from such a dict.
    """

    __slots__ = ("ring", "den", "terms", "_coeffs")

    def __init__(self, ring: SeriesRing, coeffs: Mapping[Exponents, Fraction]):
        if not all(len(e) == len(ring.orders) and ring.within(e) for e in coeffs):
            raise ValueError(f"exponents outside the orders {ring.orders}: {sorted(coeffs)[:8]}")
        made = ring.from_terms(coeffs.items())
        self.ring, self.den, self.terms, self._coeffs = ring, made.den, made.terms, None

    @classmethod
    def _of(cls, ring: SeriesRing, den: int, terms: dict[int, int]) -> "Series":
        """The series with nonzero numerators ``terms`` over ``den`` > 0,
        brought to lowest terms."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: n // g for k, n in terms.items()}
        self = object.__new__(cls)
        self.ring, self.den, self.terms, self._coeffs = ring, den, terms, None
        return self

    # -- basic protocol ----------------------------------------------------

    @property
    def coeffs(self) -> Mapping[Exponents, Fraction]:
        if self._coeffs is None:
            unpack, den = self.ring.packing.unpack, self.den
            view = {unpack(k): Fraction(n, den) for k, n in self.terms.items()}
            self._coeffs = MappingProxyType(view)
        return self._coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self.items()[:12]:
            named = zip(self.ring.variables, exps)
            mono = "*".join(f"{v}^{e}" if e > 1 else v for v, e in named if e)
            pieces.append(f"{c}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self.terms) > 12 else ""
        return " + ".join(pieces) + tail

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Series | None":
        if isinstance(other, Series):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("series from different rings")
            return other
        return self.ring.const(other) if isinstance(other, (int, Fraction)) else None

    def _plus(self, other, sign: int) -> "Series":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        scale, other_scale = den // self.den, sign * (den // other.den)
        terms = {k: n * scale for k, n in self.terms.items()} if scale != 1 else dict(self.terms)
        for k, n in other.terms.items():
            total = terms.get(k, 0) + n * other_scale
            if total:
                terms[k] = total
            else:
                del terms[k]
        return Series._of(self.ring, den, terms)

    def __add__(self, other) -> "Series":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        return self._plus(other, -1)

    def __neg__(self) -> "Series":
        return Series._of(self.ring, self.den, {k: -n for k, n in self.terms.items()})

    def __rsub__(self, other) -> "Series":
        return -(self - other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            terms = {k: n * num for k, n in self.terms.items()} if num else {}
            return Series._of(self.ring, self.den * other.denominator, terms)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        packing = self.ring.packing
        top, guards = packing.top, packing.guards
        shift, limit = packing.top_shift, packing.top_limit
        right = sorted(other.terms.items())
        keys = [k for k, _ in right]
        acc: dict[int, int] = {}
        get = acc.get
        for k1, n1 in self.terms.items():
            # the partners whose last exponent still fits form a prefix
            stop = bisect_left(keys, limit - (k1 >> shift << shift))
            for k2, n2 in right[:stop]:
                key = k1 + k2
                if (top - key) & guards == guards:
                    acc[key] = get(key, 0) + n1 * n2
        return Series._of(self.ring, self.den * other.den, {k: n for k, n in acc.items() if n})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result, base, e = self.ring.one(), self, exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)

    def min_total_degree(self) -> int:
        unpack = self.ring.packing.unpack
        return min((sum(unpack(k)) for k in self.terms), default=0)

    def inverse(self) -> "Series":
        """Multiplicative inverse of a unit (nonzero constant term)."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("series has no constant term; not a unit")
        tail = (self - c0) * (Fraction(1) / c0)
        if not tail:
            return self.ring.const(Fraction(1) / c0)
        step = tail.min_total_degree()
        if step == 0:
            raise AssertionError("tail of a unit must have positive degree")
        result = power = self.ring.one()
        for _ in range(self.ring.total_budget() // step + 1):
            power = power * (-tail)
            if not power:
                break
            result = result + power
        return result * (Fraction(1) / c0)

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self.inverse() * Fraction(other)
        return NotImplemented

    # -- access and structure ----------------------------------------------

    def coefficient(self, **exps: int) -> Fraction:
        """Coefficient of the monomial fixing every variable (others 0)."""
        vec = [0] * len(self.ring.variables)
        for name, e in exps.items():
            vec[self.ring.index(name)] = e
        return self.coeffs.get(tuple(vec), Fraction(0))

    def slice(self, **fixed: int) -> "Series":
        """Terms with the given exponents for some variables, divided out."""
        slots = self.ring.packing.slots
        clear = want = 0
        for name, e in fixed.items():
            if not 0 <= e <= self.ring.order(name):
                return self.ring.zero()  # e << shift could alias a fixed neighbour's slot
            shift, mask = slots[self.ring.index(name)]
            clear |= mask << shift
            want |= e << shift
        return Series._of(
            self.ring, self.den, {k - want: n for k, n in self.terms.items() if k & clear == want}
        )

    def divide_by_monomial(self, name: str, power: int) -> "Series":
        """Exact division by a variable power; every term must allow it."""
        if power < 0:
            raise ValueError(f"power must be nonnegative, got {power}")
        shift, mask = self.ring.packing.slots[self.ring.index(name)]
        for k in self.terms:
            if (k >> shift) & mask < power:
                exps = self.ring.packing.unpack(k)
                raise ValueError(f"term {exps} not divisible by {name}^{power}")
        low = power << shift
        return Series._of(self.ring, self.den, {k - low: n for k, n in self.terms.items()})

    def is_integral(self) -> bool:
        return self.den == 1

    def assert_integral(self) -> "Series":
        if not self.is_integral():
            bad = [(e, c) for e, c in self.items() if c.denominator != 1][:3]
            raise AssertionError(f"non-integer coefficients: {bad}")
        return self

    def map_ring(self, target: SeriesRing, rename: Mapping[str, str]) -> "Series":
        """Carry the series into another ring by renaming variables; the
        terms outside the target's orders are dropped."""
        positions = [target.index(rename.get(name, name)) for name in self.ring.variables]
        if len(set(positions)) != len(positions):
            raise ValueError(f"renaming {dict(rename)} merges variables")
        slots = target.packing.slots
        moves = [(shift, mask, slots[p][0], target.orders[p])
                 for (shift, mask), p in zip(self.ring.packing.slots, positions)]
        terms = {}
        for k, n in self.terms.items():
            key = 0
            for shift, mask, to, order in moves:
                e = (k >> shift) & mask
                if e > order:
                    break
                key |= e << to
            else:
                terms[key] = n
        return Series._of(target, self.den, terms)


# ---------------------------------------------------------------------------
# Catalan and Delannoy basics


def catalan_number(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def catalan_of(inner: Series) -> Series:
    """C(inner) = sum_k c_k inner^k for an inner series with zero constant
    term, the solution of S = 1 + inner * S^2.

    The c_k follow the quadratic's recurrence c_(k+1) = sum_i c_i c_(k-i)
    on ints.  inner^k has total degree at least k times inner's least one,
    so the terms stop at k = budget // that degree, and the sum is taken by
    Horner's rule: one product with the small inner per step."""
    if inner.constant_term():
        raise ValueError("inner series must have zero constant term")
    ring = inner.ring
    if not inner:
        return ring.one()
    c = [1]
    for k in range(ring.total_budget() // inner.min_total_degree()):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    s = ring.const(c.pop())
    while c:
        s = s * inner + c.pop()
    return s


def catalan_series(order: int) -> Series:
    """The generating function of the Catalan numbers in the variable u."""
    ring = SeriesRing(("u",), (order,))
    return catalan_of(ring.var("u"))


#: Row x holds delannoy_poly(x, y) for y = 0, 1, ...; rows grow on demand and
#: no row is longer than the one before it.
_DELANNOY_ROWS: list[list[tuple[int, ...]]] = []


def delannoy_poly(a: int, b: int) -> tuple[int, ...]:
    """Coefficient j = number of j-step lattice paths to (a, b) with north,
    east and diagonal steps, by dynamic programming: a corner's polynomial
    is x times the sum of its three predecessors'.  Each corner is built
    once per process, so a loop over a grid of corners costs one cell each.
    The delannoy-routes check compares it with the binomial expansion and
    a literal walk."""
    if a < 0 or b < 0:
        raise ValueError("corner coordinates must be nonnegative")
    rows = _DELANNOY_ROWS
    while len(rows) <= a:
        rows.append([])
    for x in range(a + 1):
        row = rows[x]
        for y in range(len(row), b + 1):
            acc = [0] * (x + y + 1)
            for px, py in ((x - 1, y), (x, y - 1), (x - 1, y - 1)):
                if px >= 0 and py >= 0:  # no paths off the grid
                    for j, c in enumerate(rows[px][py]):
                        acc[j + 1] += c
            row.append(tuple(acc) if x or y else (1,))
    return rows[a][b]


def delannoy_number(a: int, b: int) -> int:
    return sum(delannoy_poly(a, b))


def delannoy_genfunc(u_order: int, v_order: int, x_order: int) -> Series:
    """The rational generating function 1/(1 - x(u + v + uv))."""
    ring = SeriesRing(("u", "v", "x"), (u_order, v_order, x_order))
    u, v, x = ring.var("u"), ring.var("v"), ring.var("x")
    return (ring.one() - x * (u + v + u * v)).inverse()


# ---------------------------------------------------------------------------
# Transfer between all-face and saturated-face series


def transfer(series: Series, direction: str, has_empty: bool) -> Series:
    """Move between the all-face series (variable t) and the saturated-face
    series (variable z) by the isolated-node substitution, including the
    empty-family correction term."""
    if direction == "full_to_all":
        src, dst = "z", "t"
    elif direction == "all_to_full":
        src, dst = "t", "z"
    else:
        raise ValueError(f"direction must be full_to_all or all_to_full: {direction!r}")

    ring = series.ring
    out_ring = SeriesRing(tuple(dst if v == src else v for v in ring.variables), ring.orders)
    target_order = out_ring.order(dst)
    if target_order > ring.order(src):
        raise ValueError(
            f"cannot produce {dst}-order {target_order} from {src}-order {ring.order(src)}"
        )

    # full_to_all: z -> t/(1-t), prefactor 1/(1-t)^2, correction -t/(1-t)^2;
    # all_to_full: t -> z/(1+z), prefactor 1/(1+z)^2, correction +z/(1+z)
    w = out_ring.var(dst)
    geom = (out_ring.one() + (-w if direction == "full_to_all" else w)).inverse()
    inner, prefactor = w * geom, geom ** 2
    correction = -w * prefactor if direction == "full_to_all" else inner

    powers = [out_ring.one()]
    for _ in range(ring.order(src)):
        powers.append(powers[-1] * inner)

    renamed = series.map_ring(out_ring, {src: dst})
    out = out_ring.zero()
    for e, power in enumerate(powers):
        out = out + renamed.slice(**{dst: e}) * power
    out = out * prefactor
    if has_empty:
        out = out + correction
    return out


# ---------------------------------------------------------------------------
# Backward-only faces


def backward_only_series(y_order: int, t_order: int) -> Series:
    """All-face series of the backward-arrow subcomplex when HTHT pairs do
    not nest, the solution of the quadratic F = 1 + t F + y t F^2, as
    C(yt/(1-t)^2) / (1-t): G = (1-t) F solves G = 1 + (yt/(1-t)^2) G^2."""
    ring = SeriesRing(("y", "t"), (y_order, t_order))
    y, t = ring.var("y"), ring.var("t")
    geom = (ring.one() - t).inverse()
    return catalan_of(y * t * geom * geom) * geom


def backward_only_coefficient(n: int, j: int) -> Fraction:
    """Closed form for the number of j-backward-arrow faces of V_n: 0 for
    j > n, as a face of V_n has at most n backward arrows."""
    if j < 0 or n < 0:
        raise ValueError(f"need 0 <= j and 0 <= n, got j={j}, n={n}")
    return Fraction(comb(n + j, j) * comb(n, j), j + 1)


def backward_saturated_series(y_order: int, z_order: int) -> Series:
    """Saturated version: (C(yz(z+1)) + z)/(1 + z)."""
    ring = SeriesRing(("y", "z"), (y_order, z_order))
    y, z = ring.var("y"), ring.var("z")
    c = catalan_of(y * z * (z + ring.one()))
    return (c + z) / (ring.one() + z)


def refined_backward_series(i: int, y_order: int, t_order: int) -> Series:
    """All-face series of backward-only faces whose endpoint list starts
    with exactly i heads followed by a tail: (yt F)^i / (1-t)^(i+1)."""
    if i < 0:
        raise ValueError("prefix length must be nonnegative")
    ring = SeriesRing(("y", "t"), (y_order, t_order))
    y, t = ring.var("y"), ring.var("t")
    f = backward_only_series(y_order, t_order)
    geom = (ring.one() - t).inverse()
    return (y * t * f) ** i * geom ** (i + 1)


def refined_backward_saturated_series(i: int, y_order: int, z_order: int) -> Series:
    """Saturated version of the prefix-restricted series, valid for i >= 1:
    (y z (1+z) C(yz(z+1)))^i / (1+z).  For i = 0 the family is just the
    empty face at n = 0."""
    if i < 0:
        raise ValueError("prefix length must be nonnegative")
    ring = SeriesRing(("y", "z"), (y_order, z_order))
    if i == 0:
        return ring.one()
    y, z = ring.var("y"), ring.var("z")
    c = catalan_of(y * z * (z + ring.one()))
    return (y * z * (ring.one() + z) * c) ** i / (ring.one() + z)


def g_k(k: int) -> Series:
    """Node-count polynomial of the forests with k same-direction arrows and
    no isolated nodes: C_k z^(k+1) (z+1)^(k-1)."""
    if k < 1:
        raise ValueError("need at least one arrow")
    ring = SeriesRing(("z",), (2 * k,))
    z = ring.var("z")
    return catalan_number(k) * z ** (k + 1) * (z + ring.one()) ** (k - 1)


# ---------------------------------------------------------------------------
# Simion class


def simion_saturated_series(
    nesting: str, x_order: int, y_order: int, z_order: int
) -> Series:
    """Saturated refined series of the Simion class.

    nesting names the type word whose pairs nest ("THTH" or "HTHT"); the
    refined counts of the two orientations are x/y swaps of each other.
    Coefficients are asserted integral.
    """
    nesting = nesting.upper()
    if nesting not in ("THTH", "HTHT"):
        raise ValueError("nesting must be THTH or HTHT")
    ring = SeriesRing(("x", "y", "z"), (x_order, y_order, z_order))
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    # When THTH nests the forward arrows are Delannoy-like (tails before
    # heads) and the backward arrows carry the Catalan part, so x sits in
    # the numerator slot; the other orientation swaps the roles.
    active, passive = (x, y) if nesting == "THTH" else (y, x)
    one = ring.one()
    c = catalan_of(passive * z * (z + one))
    backward_part = (c + z) / (one + z)
    numerator = active * z * (one + z * c) * c * c
    denominator = (one + z) * (one - 2 * c * active * z - c * c * active * z * z)
    return (backward_part + numerator / denominator).assert_integral()


def simion_facet_count(n: int, i: int) -> int:
    """Facets with i forward arrows in the orientation where THTH nests:
    C_n for i = 0, else 2^(i-1) (i+1) (2n-i)! / ((n-i)! (n+1)!)."""
    if not 0 <= i <= n:
        raise ValueError(f"need 0 <= i <= n, got i={i}, n={n}")
    if i == 0:
        return catalan_number(n)
    numerator = 2 ** (i - 1) * (i + 1) * factorial(2 * n - i)
    denominator = factorial(n - i) * factorial(n + 1)
    if numerator % denominator:
        raise AssertionError(f"facet count not integral at (n={n}, i={i})")
    return numerator // denominator


def catalan_triangle(n: int, k: int) -> int:
    """Entry (n, k) of the Catalan triangle, (n+k)! (n-k+1) / (k! (n+1)!)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    value = factorial(n + k) * (n - k + 1)
    return value // (factorial(k) * factorial(n + 1))


# ---------------------------------------------------------------------------
# Revlex class


def _alignment_factor(a1: int, b1: int, a2: int, b2: int) -> tuple[int, int]:
    """(coefficient of z, constant) counting how the endpoint groups of the
    forward and backward arrows interleave: disjoint groups carry the extra
    z, the other two terms are the shared-head and shared-tail cases."""
    with_gap = comb(a1 + b2 + 2, a1 + 1) * comb(a2 + b1 + 2, b1 + 1)
    shared_head = comb(a1 + b2 + 1, b2) * comb(a2 + b1 + 1, b1)
    shared_tail = comb(a1 + b2 + 1, a1) * comb(a2 + b1 + 1, a2)
    return with_gap, shared_head + shared_tail


def revlex_saturated_series(x_order: int, y_order: int, z_order: int) -> Series:
    """Saturated refined series of the revlex class, as the quadruple sum
    over the endpoint-group sizes of the forward and backward arrows,
    summed per exponent while the terms are generated."""
    ring = SeriesRing(("x", "y", "z"), (x_order, y_order, z_order))
    acc: Counter[Exponents] = Counter({(0, 0, 0): 1})

    for a in range(z_order):
        for b in range(z_order - a):
            zdeg = a + b + 1
            for j, cnt in enumerate(delannoy_poly(a, b)):
                if cnt:
                    acc[j + 1, 0, zdeg] += cnt
                    acc[0, j + 1, zdeg] += cnt

    for total in range(z_order - 1):
        for a1 in range(total + 1):
            for b1 in range(total - a1 + 1):
                for a2 in range(total - a1 - b1 + 1):
                    b2 = total - a1 - b1 - a2
                    zdeg = total + 2
                    cz, c0 = _alignment_factor(a1, b1, a2, b2)
                    for j1, d1 in enumerate(delannoy_poly(a1, b1)):
                        if not d1:
                            continue
                        for j2, d2 in enumerate(delannoy_poly(a2, b2)):
                            if not d2:
                                continue
                            base = d1 * d2
                            acc[j1 + 1, j2 + 1, zdeg] += base * c0
                            if zdeg + 1 <= z_order:
                                acc[j1 + 1, j2 + 1, zdeg + 1] += base * cz
    return ring.from_terms(acc.items()).assert_integral()


def revlex_facet_count(n: int, k: int) -> int:
    """Facets of a revlex-class triangulation with k forward arrows."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n == 0:
        return 1
    if k in (0, n):
        return 2 ** (n - 1)
    total = 0
    for i in range(1, k + 1):
        for j in range(1, n - k + 1):
            total += (
                comb(k - 1, i - 1)
                * comb(n - k - 1, j - 1)
                * (
                    comb(n - k + i - j, i) * comb(k - i + j, j)
                    + comb(n - k + i - j, i - 1) * comb(k - i + j, j - 1)
                )
            )
    return total


# ---------------------------------------------------------------------------
# Node-enriched exponential generating function (revlex class)


def psi_series(k: int, order: int) -> Series:
    """The k-th derivative ladder of (e^z - 1)/z: sum of z^n / (n! (n+k))."""
    if k < 1:
        raise ValueError("index must be >= 1")
    ring = SeriesRing(("z",), (order,))
    return ring.from_terms(
        ((m,), Fraction(1, factorial(m) * (m + k))) for m in range(order + 1)
    )


def psi_closed_form(k: int, order: int) -> Series:
    """The same series from the explicit formula
    ((sum_i (-1)^i (k-1)!/(k-1-i)! z^(k-1-i)) e^z + (-1)^k (k-1)!) / z^k."""
    if k < 1:
        raise ValueError("index must be >= 1")
    ring = SeriesRing(("z",), (order + k,))
    expz = ring.from_terms(((m,), Fraction(1, factorial(m))) for m in range(order + k + 1))
    poly = ring.from_terms(
        ((k - 1 - i,), (-1) ** i * (factorial(k - 1) // factorial(k - 1 - i))) for i in range(k)
    )
    numerator = poly * expz + ring.const((-1) ** k * factorial(k - 1))
    shifted = numerator.divide_by_monomial("z", k)
    target = SeriesRing(("z",), (order,))
    return shifted.map_ring(target, {})


def _egf_ring(u_order: int, v_order: int, x_order: int) -> SeriesRing:
    return SeriesRing(("u", "v", "x"), (u_order, v_order, x_order))


def delannoy_egf(u_order: int, v_order: int, x_order: int | None = None) -> Series:
    """Exponential generating function of the Delannoy polynomials:
    sum of D_{a,b}(x) u^(a+1) v^(b+1) / ((a+1)! (b+1)!)."""
    if x_order is None:
        x_order = u_order + v_order
    ring = _egf_ring(u_order, v_order, x_order)
    terms = []
    for a in range(u_order):
        for b in range(v_order):
            denom = factorial(a + 1) * factorial(b + 1)
            for j, c in enumerate(delannoy_poly(a, b)):
                if c and j <= x_order:
                    terms.append(((a + 1, b + 1, j), Fraction(c, denom)))
    return ring.from_terms(terms)


def delannoy_egf_psi(u_order: int, v_order: int, x_order: int | None = None) -> Series:
    """The same function assembled from the derivative-ladder product
    expansion: u v sum_k (uv(x^2+x))^k / k!^2 psi_(k+1)(ux) psi_(k+1)(vx)."""
    if x_order is None:
        x_order = u_order + v_order
    ring = _egf_ring(u_order, v_order, x_order)
    u, v, x = ring.var("u"), ring.var("v"), ring.var("x")

    def psi_at(k: int, var: Series) -> Series:
        out = ring.zero()
        vx = var * x
        power = ring.one()
        for m in range(max(u_order, v_order) + 1):
            out = out + power * Fraction(1, factorial(m) * (m + k))
            power = power * vx
            if not power:
                break
        return out

    total = ring.zero()
    core = u * v * (x * x + x)
    power = ring.one()
    for k in range(min(u_order, v_order) + 1):
        term = power * Fraction(1, factorial(k) ** 2) * psi_at(k + 1, u) * psi_at(k + 1, v)
        total = total + term
        power = power * core
        if not power:
            break
    return u * v * total


def bessel_style_product(u_order: int, v_order: int, x_order: int | None = None) -> Series:
    """exp(x(u+v)) * sum_m ((x^2+x) u v)^m / m!^2, the closed form of the
    mixed second derivative of the Delannoy EGF."""
    if x_order is None:
        x_order = u_order + v_order
    ring = _egf_ring(u_order, v_order, x_order)
    u, v, x = ring.var("u"), ring.var("v"), ring.var("x")
    arg = x * (u + v)
    expo = ring.zero()
    power = ring.one()
    for m in range(u_order + v_order + 1):
        expo = expo + power * Fraction(1, factorial(m))
        power = power * arg
        if not power:
            break
    series = ring.zero()
    core = (x * x + x) * u * v
    power = ring.one()
    for m in range(min(u_order, v_order) + 1):
        series = series + power * Fraction(1, factorial(m) ** 2)
        power = power * core
        if not power:
            break
    return expo * series


def delannoy_egf_mixed_derivative(u_order: int, v_order: int, x_order: int | None = None) -> Series:
    """d^2/du dv of the Delannoy EGF: sum D_{a,b}(x) u^a v^b / (a! b!)."""
    if x_order is None:
        x_order = u_order + v_order
    ring = _egf_ring(u_order, v_order, x_order)
    terms = []
    for a in range(u_order + 1):
        for b in range(v_order + 1):
            denom = factorial(a) * factorial(b)
            for j, c in enumerate(delannoy_poly(a, b)):
                if c and j <= x_order:
                    terms.append(((a, b, j), Fraction(c, denom)))
    return ring.from_terms(terms)


def node_enriched_egf(u_order: int, v_order: int, z_order: int | None = None) -> Series:
    """Node-enriched exponential generating function of the saturated faces
    of a revlex-class triangulation.

    Variables: x and y count forward and backward arrows, u and v carry the
    numbers of left-end and right-end nodes exponentially, z the ambient
    size.  A node that is simultaneously a left end and a right end (the
    shared head or tail absorbed by the derivative terms) is counted in
    neither exponent.
    """
    if z_order is None:
        # at u_order = v_order = 0 the series is the constant 1, with no z term
        z_order = max(u_order + v_order - 1, 0)
    x_order = u_order + v_order
    # Assemble in a ring with z-headroom for the two later monomial
    # divisions, then truncate down.
    work = SeriesRing(
        ("u", "v", "x", "y", "z"), (u_order, v_order, x_order, x_order, z_order + 2)
    )

    def factor(du: int, dv: int, swap: bool, arrow_var: int) -> Series:
        """D~(uz, vz, .) with the first slot differentiated du times and the
        second dv times (du, dv in {0, 1}); swap routes the slots to (v, u)
        and arrow_var picks the step-marking variable (2 = x, 3 = y)."""
        first_limit = (v_order if swap else u_order) + du
        second_limit = (u_order if swap else v_order) + dv
        # every term's factorial denominator divides den: integer numerators
        den = factorial(first_limit - du) * factorial(second_limit - dv)
        terms = []
        for a in range(first_limit):
            for b in range(second_limit):
                first_exp, second_exp = a + 1 - du, b + 1 - dv
                zdeg = a + b + 2
                if zdeg > z_order + 2:
                    continue
                scale = den // (factorial(first_exp) * factorial(second_exp))
                for j, c in enumerate(delannoy_poly(a, b)):
                    # a block with a j-step path carries j + 1 arrows
                    if not c or j + 1 > x_order:
                        continue
                    vec = [second_exp, first_exp] if swap else [first_exp, second_exp]
                    vec += [0, 0, zdeg]
                    vec[arrow_var] = j + 1
                    terms.append((tuple(vec), c * scale))
        return work.from_terms(terms) * Fraction(1, den)

    d_x = factor(0, 0, swap=False, arrow_var=2)  # D~(uz, vz, x)
    d_y = factor(0, 0, swap=True, arrow_var=3)  # D~(vz, uz, y)
    du_x = factor(1, 0, swap=False, arrow_var=2)  # d/du of D~(uz, vz, x)
    dv_x = factor(0, 1, swap=False, arrow_var=2)
    du_y = factor(0, 1, swap=True, arrow_var=3)  # d/du hits the second slot
    dv_y = factor(1, 0, swap=True, arrow_var=3)

    out = (
        work.one()
        + d_x.divide_by_monomial("z", 1)
        + d_y.divide_by_monomial("z", 1)
        + (d_x * d_y).divide_by_monomial("z", 1)
        + (du_x * dv_y).divide_by_monomial("z", 2)
        + (dv_x * du_y).divide_by_monomial("z", 2)
    )
    target = SeriesRing(work.variables, (u_order, v_order, x_order, x_order, z_order))
    return out.map_ring(target, {})


# ---------------------------------------------------------------------------
# Lex class


def lex_refined_count(n: int, k: int) -> int:
    """Faces with k arrows and any fixed split into forward/backward:
    C(n+k,k) C(n,k) / (k+1), independent of the split."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    value = Fraction(comb(n + k, k) * comb(n, k), k + 1)
    if value.denominator != 1:
        raise AssertionError(f"refined count not integral at (n={n}, k={k})")
    return int(value)


def catalan_run_identity(k: int, i: int) -> int:
    """Sum over the i-subsets S of 1..k of the product of Catalan numbers
    over the runs of S and of its complement; equals C_k for every i.

    Counted by a transfer over positions in O(k^3): the maximal runs
    alternate between S and its complement, so a subset is a sequence of
    runs that tile 1..k, and a run of length L weighs C_L."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    catalan = [catalan_number(length) for length in range(k + 1)]
    # ends[p][side][j]: the weight of the run sequences tiling 1..p whose last
    # run lies in S (side 1) or outside it (side 0), with j nodes in S
    ends = [[[0] * (i + 1), [0] * (i + 1)] for _ in range(k + 1)]
    # the empty tiling may be followed by a run on either side
    ends[0] = [[1] + [0] * i, [1] + [0] * i]
    for p in range(k):
        for side in (0, 1):
            for j, weight in enumerate(ends[p][1 - side]):
                for length in range(1, min(k - p, i - j if side else k) + 1):
                    ends[p + length][side][j + side * length] += weight * catalan[length]
    # at k = 0 the empty tiling is the one subset, counted on both sides
    return ends[k][0][i] + ends[k][1][i] if k else 1


def lex_mixed_forest_poly(k: int, i: int) -> Series:
    """Node-count polynomial of the lex-class forests with i forward and
    k-i backward arrows and no isolated nodes.

    The paper states that this polynomial does not depend on i, so the
    function returns ``g_k(k)`` for every valid i; it exists to name that
    statement, which the ``forest-node-polynomials`` check tests against the
    counted faces for every i."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if k < 1:
        raise ValueError("need at least one arrow")
    return g_k(k)
