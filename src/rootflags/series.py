"""Exact truncated multivariate power series and the closed-form evaluators.

Coefficients are exact rationals (stdlib Fraction over arbitrary-precision
integers); there is no floating point anywhere in this module.  Series are
sparse dictionaries from exponent vectors to coefficients, truncated per
variable.  Division is only by units (nonzero constant term) or by pure
monomials that divide every term, and square roots are never taken: every
closed form involving the Catalan generating function is evaluated through
its quadratic fixed point.

Conventions for the formal variables: x marks forward arrows, y backward
arrows, t the ambient size for all-face counts, z the ambient size for
saturated-face counts, u and v mark left/right node groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class SeriesRing:
    """A set of variable names with per-variable truncation orders."""

    variables: tuple[str, ...]
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.variables) != len(set(self.variables)):
            raise ValueError(f"repeated variable in {self.variables}")
        if len(self.variables) != len(self.orders):
            raise ValueError("orders must align with variables")
        if any(o < 0 for o in self.orders):
            raise ValueError("orders must be nonnegative")

    @classmethod
    def make(cls, spec: Mapping[str, int] | Iterable[tuple[str, int]]) -> "SeriesRing":
        pairs = list(spec.items()) if isinstance(spec, Mapping) else list(spec)
        return cls(tuple(name for name, _ in pairs), tuple(order for _, order in pairs))

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
        return Series(self, {})

    def one(self) -> "Series":
        return self.const(1)

    def const(self, value) -> "Series":
        value = Fraction(value)
        if not value:
            return self.zero()
        return Series(self, {(0,) * len(self.variables): value})

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial({name: power})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Series":
        vec = [0] * len(self.variables)
        for name, e in exps.items():
            vec[self.index(name)] = e
        key = tuple(vec)
        if not self.within(key) or not Fraction(coeff):
            return self.zero()
        return Series(self, {key: Fraction(coeff)})

    def from_terms(self, terms: Iterable[tuple[Exponents, Fraction]]) -> "Series":
        coeffs: dict[Exponents, Fraction] = {}
        for exps, c in terms:
            if not self.within(exps):
                continue
            total = coeffs.get(exps, Fraction(0)) + Fraction(c)
            if total:
                coeffs[exps] = total
            else:
                coeffs.pop(exps, None)
        return Series(self, coeffs)

    def total_budget(self) -> int:
        return sum(self.orders)


class _Packing:
    """Exponent vectors of one ring's orders packed into single ints.

    Variable i gets a slot of ``orders[i].bit_length() + 1`` bits, wide
    enough for the sum of two exponents up to its order, and one guard bit
    above the slot.  Packing relies on the ``Series`` invariant that every
    stored exponent lies within the ring's orders (the ring's constructors
    and every operation drop the terms outside them): then two packed keys
    add slot by slot without a carry, and ``top - key`` borrows a slot's
    guard bit exactly when that slot exceeds its order, so
    ``(top - key) & guards == guards`` is the truncation test for all
    variables at once.
    """

    __slots__ = ("slots", "top", "guards")

    def __init__(self, orders: tuple[int, ...]):
        slots = []
        top = guards = shift = 0
        for o in orders:
            width = o.bit_length() + 1
            slots.append((shift, (1 << width) - 1))
            top |= o << shift
            guards |= 1 << (shift + width)
            shift += width + 1
        self.slots = tuple(slots)
        self.top = top | guards
        self.guards = guards

    def numerators(self, coeffs: Mapping[Exponents, Fraction]) -> tuple[int, list[tuple[int, int]]]:
        """The common denominator and the (packed key, numerator) terms."""
        d = lcm(*(c.denominator for c in coeffs.values()))
        slots = self.slots
        return d, [
            (sum(e << s for e, (s, _) in zip(exps, slots)), c.numerator * (d // c.denominator))
            for exps, c in coeffs.items()
        ]

    def unpack(self, key: int) -> Exponents:
        return tuple((key >> s) & mask for s, mask in self.slots)


@lru_cache(maxsize=256)
def _packing(orders: tuple[int, ...]) -> _Packing:
    return _Packing(orders)


class Series:
    """A truncated power series with exact rational coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SeriesRing, coeffs: dict[Exponents, Fraction]):
        self.ring = ring
        self.coeffs = coeffs

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.coeffs.items()))))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def items(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for exps, c in self.items()[:12]:
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, exps)
                if e
            )
            pieces.append(f"{c}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self.coeffs) > 12 else ""
        return " + ".join(pieces) + tail

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Series | None":
        if isinstance(other, Series):
            if other.ring != self.ring:
                raise ValueError("series from different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other) -> "Series":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            total = coeffs.get(exps, Fraction(0)) + c
            if total:
                coeffs[exps] = total
            else:
                coeffs.pop(exps, None)
        return Series(self.ring, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Series":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        return -(self - other)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if not factor:
                return self.ring.zero()
            return Series(self.ring, {e: c * factor for e, c in self.coeffs.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        packing = _packing(self.ring.orders)
        d1, left = packing.numerators(self.coeffs)
        d2, right = packing.numerators(other.coeffs)
        top, guards = packing.top, packing.guards
        acc: dict[int, int] = {}
        get = acc.get
        for k1, n1 in left:
            for k2, n2 in right:
                key = k1 + k2
                if (top - key) & guards == guards:
                    acc[key] = get(key, 0) + n1 * n2
        d = d1 * d2
        unpack = packing.unpack
        return Series(
            self.ring, {unpack(key): Fraction(v, d) for key, v in acc.items() if v}
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Series":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.ring.variables), Fraction(0))

    def min_total_degree(self) -> int:
        if not self.coeffs:
            return 0
        return min(sum(e) for e in self.coeffs)

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
        result = self.ring.one()
        power = self.ring.one()
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
        idx = {self.ring.index(name): e for name, e in fixed.items()}
        out: dict[Exponents, Fraction] = {}
        for exps, c in self.coeffs.items():
            if all(exps[i] == e for i, e in idx.items()):
                key = tuple(
                    0 if i in idx else e for i, e in enumerate(exps)
                )
                out[key] = c
        return Series(self.ring, out)

    def divide_by_monomial(self, name: str, power: int) -> "Series":
        """Exact division by a variable power; every term must allow it."""
        i = self.ring.index(name)
        out = {}
        for exps, c in self.coeffs.items():
            if exps[i] < power:
                raise ValueError(
                    f"term {exps} not divisible by {name}^{power}"
                )
            key = exps[:i] + (exps[i] - power,) + exps[i + 1:]
            out[key] = c
        return Series(self.ring, out)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def assert_integral(self) -> "Series":
        if not self.is_integral():
            bad = [(e, c) for e, c in self.items() if c.denominator != 1][:3]
            raise AssertionError(f"non-integer coefficients: {bad}")
        return self

    def map_ring(self, target: SeriesRing, rename: Mapping[str, str]) -> "Series":
        """Carry the series into another ring by renaming variables."""
        positions = []
        for name in self.ring.variables:
            positions.append(target.index(rename.get(name, name)))
        terms = []
        for exps, c in self.coeffs.items():
            vec = [0] * len(target.variables)
            for src, e in enumerate(exps):
                vec[positions[src]] = e
            terms.append((tuple(vec), c))
        return target.from_terms(terms)


# ---------------------------------------------------------------------------
# Catalan and Delannoy basics


def catalan_number(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def catalan_of(inner: Series) -> Series:
    """C(inner) for an inner series with zero constant term, via the
    quadratic fixed point S = 1 + inner * S^2."""
    if inner.constant_term():
        raise ValueError("inner series must have zero constant term")
    ring = inner.ring
    s = ring.one()
    guard = ring.total_budget() + 2
    for _ in range(guard):
        nxt = ring.one() + inner * s * s
        if nxt == s:
            return s
        s = nxt
    raise AssertionError("catalan fixed point failed to stabilize")


def catalan_series(order: int) -> Series:
    """The generating function of the Catalan numbers in the variable u."""
    ring = SeriesRing(("u",), (order,))
    return catalan_of(ring.var("u"))


@lru_cache(maxsize=4096)
def delannoy_poly(a: int, b: int) -> tuple[int, ...]:
    """Coefficient j = number of j-step lattice paths to (a, b) with north,
    east and diagonal steps, by dynamic programming.  The delannoy-routes
    check compares it with the binomial expansion and a literal walk."""
    if a < 0 or b < 0:
        raise ValueError("corner coordinates must be nonnegative")
    table: dict[tuple[int, int], list[int]] = {(0, 0): [1]}
    for x in range(a + 1):
        for y in range(b + 1):
            if (x, y) == (0, 0):
                continue
            acc = [0] * (x + y + 1)
            for px, py in ((x - 1, y), (x, y - 1), (x - 1, y - 1)):
                if px < 0 or py < 0:
                    continue
                for j, c in enumerate(table[(px, py)]):
                    acc[j + 1] += c
            table[(x, y)] = acc
    return tuple(table[(a, b)])


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
    i = ring.index(src)
    out_ring = SeriesRing(
        tuple(dst if v == src else v for v in ring.variables), ring.orders
    )
    target_order = out_ring.order(dst)
    if target_order > ring.order(src):
        raise ValueError(
            f"cannot produce {dst}-order {target_order} from {src}-order {ring.order(src)}"
        )

    w = out_ring.var(dst)
    if direction == "full_to_all":
        # z -> t/(1-t), prefactor 1/(1-t)^2, correction -t/(1-t)^2
        inner = w * (out_ring.one() - w).inverse()
        prefactor = ((out_ring.one() - w).inverse()) ** 2
        correction = -w * prefactor
    else:
        # t -> z/(1+z), prefactor 1/(1+z)^2, correction +z/(1+z)
        inner = w * (out_ring.one() + w).inverse()
        prefactor = ((out_ring.one() + w).inverse()) ** 2
        correction = w * (out_ring.one() + w).inverse()

    powers = [out_ring.one()]
    for _ in range(ring.order(src)):
        powers.append(powers[-1] * inner)

    out = out_ring.zero()
    for exps, c in series.coeffs.items():
        rest = exps[:i] + (0,) + exps[i + 1:]
        out = out + out_ring.from_terms([(rest, c)]) * powers[exps[i]]
    out = out * prefactor
    if has_empty:
        out = out + correction
    return out


# ---------------------------------------------------------------------------
# Backward-only faces


def backward_only_series(y_order: int, t_order: int) -> Series:
    """All-face series of the backward-arrow subcomplex when HTHT pairs do
    not nest, from the quadratic F = 1 + t F + y t F^2."""
    ring = SeriesRing(("y", "t"), (y_order, t_order))
    y, t = ring.var("y"), ring.var("t")
    f = ring.one()
    for _ in range(t_order + 1):
        nxt = ring.one() + t * f + y * t * f * f
        if nxt == f:
            break
        f = nxt
    return f


def backward_only_coefficient(n: int, j: int) -> Fraction:
    """Closed form for the number of j-backward-arrow faces of V_n."""
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
    over the endpoint-group sizes of the forward and backward arrows."""
    ring = SeriesRing(("x", "y", "z"), (x_order, y_order, z_order))
    terms: list[tuple[Exponents, Fraction]] = []
    terms.append(((0, 0, 0), Fraction(1)))

    for a in range(z_order):
        for b in range(z_order - a):
            zdeg = a + b + 1
            for j, cnt in enumerate(delannoy_poly(a, b)):
                if cnt:
                    terms.append(((j + 1, 0, zdeg), Fraction(cnt)))
                    terms.append(((0, j + 1, zdeg), Fraction(cnt)))

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
                            terms.append(
                                ((j1 + 1, j2 + 1, zdeg), Fraction(base * c0))
                            )
                            if zdeg + 1 <= z_order:
                                terms.append(
                                    ((j1 + 1, j2 + 1, zdeg + 1), Fraction(base * cz))
                                )
    return ring.from_terms(terms).assert_integral()


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
    z = ring.var("z")
    expz = ring.from_terms(((m,), Fraction(1, factorial(m))) for m in range(order + k + 1))
    poly = ring.zero()
    for i in range(k):
        poly = poly + (-1) ** i * Fraction(factorial(k - 1), factorial(k - 1 - i)) * z ** (
            k - 1 - i
        )
    numerator = poly * expz + ring.const((-1) ** k * factorial(k - 1))
    shifted = numerator.divide_by_monomial("z", k)
    target = SeriesRing(("z",), (order,))
    return target.from_terms(shifted.coeffs.items())


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
        z_order = u_order + v_order - 1
    x_order = u_order + v_order
    # Assemble in a ring with z-headroom for the two later monomial
    # divisions, then truncate down.
    work = SeriesRing(
        ("u", "v", "x", "y", "z"),
        (u_order, v_order, x_order, x_order, z_order + 2),
    )

    def factor(du: int, dv: int, swap: bool, arrow_var: int) -> Series:
        """D~(uz, vz, .) with the first slot differentiated du times and the
        second dv times (du, dv in {0, 1}); swap routes the slots to (v, u)
        and arrow_var picks the step-marking variable (2 = x, 3 = y)."""
        first_limit = (v_order if swap else u_order) + du
        second_limit = (u_order if swap else v_order) + dv
        terms = []
        for a in range(first_limit):
            for b in range(second_limit):
                first_exp = a + 1 - du
                second_exp = b + 1 - dv
                denom = factorial(first_exp) * factorial(second_exp)
                zdeg = a + b + 2
                if zdeg > z_order + 2:
                    continue
                for j, c in enumerate(delannoy_poly(a, b)):
                    # a block with a j-step path carries j + 1 arrows
                    if not c or j + 1 > x_order:
                        continue
                    vec = [0, 0, 0, 0, zdeg]
                    if swap:
                        vec[0], vec[1] = second_exp, first_exp
                    else:
                        vec[0], vec[1] = first_exp, second_exp
                    vec[arrow_var] = j + 1
                    terms.append((tuple(vec), Fraction(c, denom)))
        return work.from_terms(terms)

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
    target = SeriesRing(
        ("u", "v", "x", "y", "z"),
        (u_order, v_order, x_order, x_order, z_order),
    )
    return target.from_terms(out.coeffs.items())


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
    over the runs of S and of its complement; equals C_k for every i."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    total = 0
    universe = range(1, k + 1)
    for subset in itertools.combinations(universe, i):
        inside = set(subset)
        complement = [v for v in universe if v not in inside]
        product = 1
        for run in _runs(list(subset)) + _runs(complement):
            product *= catalan_number(run)
        total += product
    return total


def lex_mixed_forest_poly(k: int, i: int) -> Series:
    """Node-count polynomial of the lex-class forests with i forward and
    k-i backward arrows and no isolated nodes; independent of i."""
    if not 0 <= i <= k:
        raise ValueError(f"need 0 <= i <= k, got i={i}, k={k}")
    if k < 1:
        raise ValueError("need at least one arrow")
    return g_k(k)
