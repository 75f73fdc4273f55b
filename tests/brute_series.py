"""Term-by-term series multiplication, kept as the oracle for the packed
kernel of ``rootflags.series.Series.__mul__``.

Every pair of terms builds its exponent tuple, is dropped when some exponent
exceeds its order, and is added into the product as a ``Fraction``; a total
that cancels to zero is removed on the spot.  The library multiplies on
packed integer keys with integer numerators over one common denominator; the
products must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

from rootflags.series import Exponents, Series


def brute_mul(self: Series, other) -> Series:
    """``Series.__mul__`` as a double loop over tuple keys and Fractions."""
    if isinstance(other, (int, Fraction)):
        factor = Fraction(other)
        if not factor:
            return self.ring.zero()
        return Series(self.ring, {e: c * factor for e, c in self.coeffs.items()})
    other = self._coerce(other)
    if other is None:
        return NotImplemented
    orders = self.ring.orders
    out: dict[Exponents, Fraction] = {}
    for e1, c1 in self.coeffs.items():
        for e2, c2 in other.coeffs.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            if any(k > o for k, o in zip(key, orders)):
                continue
            total = out.get(key, Fraction(0)) + c1 * c2
            if total:
                out[key] = total
            else:
                del out[key]
    return Series(self.ring, out)
