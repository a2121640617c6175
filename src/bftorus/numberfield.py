"""Arithmetic in the number field K = Q[x]/(p(x)).

Elements are rational coordinate vectors over the power basis
(1, b, ..., b^(n-1)) where b is the class of x.  Everything is exact;
traces come from Newton power sums and inverses from multiplication
matrices, never from floating embeddings.  Elements remember their
field and refuse to mix — a silent coercion between fields would
quietly corrupt every lattice computation built on top of this module.
"""

from fractions import Fraction

from .errors import ReduciblePolynomial, ZeroInverse
from .exactmat import _integer_inverse
from .kernels import det_bareiss
from .polyring import (
    IntPoly,
    RatPoly,
    _as_fraction,
    _cleared,
    _is_irreducible,
    _trace_gram,
    format_poly,
    parse_int_poly,
    parse_poly,
)


class NumberField:
    """K = Q[x]/(p) for monic irreducible p over Z.

    Degree 1 is allowed (K = Q); the whole ideal machinery degenerates
    gracefully there, which keeps 1x1 matrices on the main code path.
    The reduced powers of b (``_powers``) and the Hankel trace Gram
    matrix G = (Tr(b^(i+j))) (``_gram``) are each formed once per field,
    on first read; ``disc`` is det G, traces read G's first row, and
    every trace dual (``ideals._trace_dual_lattice``) reads G itself.
    The slot ``_zbeta`` holds the one Z[b] of the field, filled on first
    read by ``ideals.zbeta``; equality, hashing and ``repr`` read only p.
    """

    __slots__ = ("p", "n", "_disc", "_b_powers", "_b_gram", "_zbeta")

    def __init__(self, p):
        if isinstance(p, str):
            p = parse_int_poly(p)
        if isinstance(p, RatPoly):
            p = p.to_int_poly()
        if not p.is_monic():
            raise ReduciblePolynomial(f"defining polynomial must be monic: {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", p.degree)
        object.__setattr__(self, "_disc", None)
        object.__setattr__(self, "_b_powers", None)
        object.__setattr__(self, "_b_gram", None)
        object.__setattr__(self, "_zbeta", None)
        # the sieve needs disc(p) from degree 4 on; below, ``disc`` forms it
        if not _is_irreducible(p, self.disc if p.degree >= 4 else None):
            raise ReduciblePolynomial(f"defining polynomial is reducible: {p}")

    def __setattr__(self, *a):
        raise AttributeError("NumberField is immutable")

    @property
    def disc(self):
        """disc(p) = det G, G the trace Gram matrix (``_gram``): for the
        Vandermonde matrix V of the roots, disc(p) = det(V)² = det(V·Vᵀ) and
        V·Vᵀ = G (1 in degree 1, where G = [[Tr 1]]).  Computed once per
        field: when the field is built in degree >= 4, where the
        irreducibility sieve needs it, and otherwise when first read."""
        if self._disc is None:
            object.__setattr__(self, "_disc", det_bareiss(self._gram))
        return self._disc

    @property
    def _powers(self):
        if self._b_powers is None:
            object.__setattr__(self, "_b_powers", self._build_powers())
        return self._b_powers

    @property
    def _gram(self):
        """G = (s_(i+j)), s_k = Tr(b^k), the Gram matrix of the trace form
        on the power basis (``polyring._trace_gram``), as tuples."""
        if self._b_gram is None:
            object.__setattr__(self, "_b_gram", tuple(map(tuple, _trace_gram(self.p.coeffs))))
        return self._b_gram

    def _build_powers(self):
        # b^k for k = 0 .. 2n-2, reduced mod p.  Since p is monic over Z
        # these all have integer coordinates.
        n = self.n
        rows = []
        cur = [0] * n
        if n:
            cur[0] = 1
        for k in range(2 * n - 1):
            rows.append(tuple(cur))
            nxt = [0] + cur[: n - 1]
            lead = cur[n - 1]
            if lead:
                for i in range(n):
                    nxt[i] -= lead * self.p.coeffs[i]
            cur = nxt
        return tuple(rows)

    # -- constructors ------------------------------------------------

    def element(self, coords):
        z = FieldElement(self, coords)
        if len(z.coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(z.coords)}")
        return z

    def zero(self):
        return self.element([0] * self.n)

    def one(self):
        return self.element([1] + [0] * (self.n - 1))

    def beta(self):
        if self.n == 1:
            # x = -p(0) in Q[x]/(x + c)
            return self.element([-self.p.coeffs[0]])
        return self.element([0, 1] + [0] * (self.n - 2))

    def from_poly(self, g):
        """The element g(b) (g reduced mod p first)."""
        if isinstance(g, IntPoly):
            g = g.to_rat()
        elif not isinstance(g, RatPoly):
            g = RatPoly(g)
        r = g % self.p.to_rat()
        coords = list(r.coeffs) + [Fraction(0)] * (self.n - len(r.coeffs))
        return FieldElement(self, coords)

    def parse(self, text, var="b"):
        return self.from_poly(RatPoly(parse_poly(text, var)))

    # -- value semantics ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.p == other.p

    def __hash__(self):
        return hash(("NumberField", self.p))

    def __repr__(self):
        return f"NumberField({str(self.p)!r})"


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError("elements live in different number fields")


class FieldElement:
    """An element of a NumberField; immutable, exact, hashable."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", tuple(map(_as_fraction, coords)))

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def is_zero(self):
        return not any(self.coords)

    def is_rational(self):
        return not any(self.coords[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_poly(RatPoly([other]))
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.field.from_poly(RatPoly([other]))
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        _same_field(self, other)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        n = self.field.n
        a, b = self.coords, other.coords
        prod = [Fraction(0)] * (2 * n - 1) if n else []
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        prod[i + j] += ca * cb
        out = list(prod[:n])
        powers = self.field._powers
        for k in range(n, 2 * n - 1):
            t = prod[k]
            if t:
                pk = powers[k]
                for i in range(n):
                    if pk[i]:
                        out[i] += t * pk[i]
        return FieldElement(self.field, out)

    __rmul__ = __mul__

    def inverse(self):
        """1/z = M(z)⁻¹·e_0 = d·M(d·z)⁻¹·e_0, d the least common
        denominator, from the integer inverse of M(d·z)."""
        if self.is_zero():
            raise ZeroInverse("0 has no inverse in the field")
        d, scaled = _cleared(self.coords)
        # Fed the columns of M(d·z) as rows, _integer_inverse inverts the
        # transpose: M(d·z)⁻¹ = mᵗ/den, whose column 0 is row 0 of m.
        m, den = _integer_inverse(_mult_columns(self.field, scaled))
        return FieldElement(self.field, [Fraction(d * e, den) for e in m[0]])

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- invariants ---------------------------------------------------

    def trace(self):
        s = self.field._gram[0]  # Tr(b^k) for k = 0..n-1
        return sum((c * s[i] for i, c in enumerate(self.coords)), Fraction(0))

    def __repr__(self):
        return f"FieldElement({format_poly(self.coords, 'b')!r})"

    def __str__(self):
        return format_poly(self.coords, "b")


def _mult_columns(field, coords):
    """Columns of multiplication by the element with these power-basis
    coordinates: column j holds the coordinates of z·b^j.  Integer
    coordinates give an integer matrix (the power table is integral)."""
    n = field.n
    powers = field._powers
    cols = []
    for j in range(n):
        col = [0] * n
        for i, c in enumerate(coords):
            if c:
                pw = powers[i + j]
                for r in range(n):
                    col[r] += c * pw[r]
        cols.append(col)
    return cols


def multiplication_matrix(a):
    """Matrix of multiplication by ``a`` on the power basis of K/Q.

    Column convention: a·b^j = sum_i M[i][j]·b^i.  For a = b this is
    the companion matrix of p with 1s on the subdiagonal and
    -coefficients in the last column.
    """
    cols = _mult_columns(a.field, a.coords)
    n = a.field.n
    return [[cols[j][i] for j in range(n)] for i in range(n)]
