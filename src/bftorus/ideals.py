"""Full-rank Z-lattices in a number field: fractional ideals, orders,
colon quotients, trace duals, and finite quotient groups.

A lattice is stored as ``(field, denom, cols)`` where ``cols`` are the
columns of a nonsingular integer matrix in canonical column Hermite
form and the lattice is (1/denom)·(Z-span of the columns), coordinates
taken over the power basis of the field.  The pair (denom, cols) is
normalized by dividing out gcd(denom, content), so two equal lattices
always have identical representations and equality is just tuple
equality.  Lattices the library forms from its own integers take the
same normal form through ``ZLattice._canonical``, unchecked.
Everything downstream — "these two ideals coincide", "this module is a
ring", "I·I⁻¹ = R" — reduces to that exactness.
"""

import itertools
import math
import operator
from fractions import Fraction

from .config import debug_asserts_enabled
from .errors import NotASublattice, NotFullRank
from .exactmat import _power_table, transpose
from .kernels import det_bareiss, hnf_cols, mat_mul_rows, snf_diag, solve_upper_cols
from .numberfield import FieldElement, NumberField, _mult_columns
from .polyring import format_poly, parse_int_poly


def _beta_action(cols, field):
    """The integer matrix X (as columns) with Mult(b)·B = B·X for the HNF
    columns B, or None when X is not integral: (1/d)·B is a Z[b]-module
    exactly when X is, as d cancels.  Mult(b) is the companion shift,
    b·c = (0, c_0, ..., c_(n-2)) - c_(n-1)·(p_0, ..., p_(n-1))."""
    p = field.p.coeffs
    out = []
    for col in cols:
        top = col[-1]
        image = [-top * p[0]] + [c - top * pk for c, pk in zip(col, p[1:-1])]
        x = solve_upper_cols(cols, image)
        if x is None:
            return None
        out.append(x)
    return out


class _Action:
    """How b acts on a Z-basis w_0..w_(n-1) of a b-stable lattice: by the
    integer matrix M with b·w_j = Σ_i M[i][j]·w_i.  ``table`` is the power
    table of M (entry (i, j) holds (M^0[i][j], ..., M^(n-1)[i][j])), and
    ``krylov_det(j)`` is det K_(e_j), K_u = [u, M·u, ..., M^(n-1)·u].
    ``x`` is the action on the canonical basis: M when the table is formed
    from it, None until ``_action`` needs it when M acts on another basis
    (the ideal of A carries A).  The table, each determinant and
    ``ring(field)``, the ring {g : g(M) integral} (C(I), whichever basis M
    acts on), are formed on first read, so ``_power_ring``,
    ``_locally_cyclic``, ``coefficient_ring`` and ``is_invertible`` share
    them."""

    __slots__ = ("_table", "x", "_dets", "_ring")

    def __init__(self, table=None, x=None):
        self._table = table
        self.x = x
        self._dets = [None] * len(x if table is None else table)
        self._ring = None

    @property
    def table(self):
        if self._table is None:
            self._table = _power_table(self.x)
        return self._table

    def krylov_det(self, j):
        """det K_(e_j), whose row i is the entry vector table[i][j]."""
        d = self._dets[j]
        if d is None:
            d = self._dets[j] = det_bareiss([row[j] for row in self.table])
        return d

    def ring(self, field):
        """``_power_ring`` of this action in ``field``, formed once."""
        if self._ring is None:
            self._ring = _power_ring(field, self)
        return self._ring


def _action(lattice, canonical=False):
    """The ``_Action`` in the lattice's slot, formed on first read from the
    b-action on the canonical basis (``_beta_action``), or None when the
    lattice is not b-stable.  With ``canonical`` its ``x`` is formed too
    where the slot holds only a table handed over (``_canonical``)."""
    act = getattr(lattice, "_b_action", None)  # the slot is unset until then
    if act is None or (canonical and act and act.x is None):
        cols = _beta_action(lattice.cols, lattice.field)
        if cols is None:
            act = False
        elif act is None:
            act = _Action(x=transpose(cols))
        else:
            act.x = transpose(cols)
        object.__setattr__(lattice, "_b_action", act)
    return act or None


def _escaping_product(field, cols, d):
    """The first basis pair (a, b), a <= b, whose product leaves the
    lattice (1/d)·(Z-span of the HNF columns), or None when the lattice
    is closed under multiplication.

    The product of c_a/d and c_b/d is (1/d)·(c_a·c_b/d), so c_a·c_b must
    be divisible by d and then lie in the column span.
    """
    n = len(cols)
    for a in range(n):
        mult_a = _mult_columns(field, cols[a])
        for b in range(a, n):
            cb = cols[b]
            scaled = []
            for r in range(n):
                q, rem = divmod(sum(mult_a[j][r] * cb[j] for j in range(n)), d)
                if rem:
                    return a, b
                scaled.append(q)
            if solve_upper_cols(cols, scaled) is None:
                return a, b
    return None


class AbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    ``torsion`` is the chain a1 | a2 | ... | am with every ai >= 2;
    ``free_rank`` counts Z summands.  Rendered as "Z^r+Za1+...+Zam".
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        torsion = tuple(int(t) for t in torsion)
        if any(t < 2 for t in torsion):
            raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisor chain")
        object.__setattr__(self, "free_rank", int(free_rank))
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, *a):
        raise AttributeError("AbelianGroup is immutable")

    @classmethod
    def from_diagonal(cls, diag):
        """From a Smith diagonal: zeros become free rank, ones vanish."""
        free = sum(1 for d in diag if d == 0)
        tors = [abs(d) for d in diag if abs(d) > 1]
        tors.sort()
        return cls(free, tors)

    def is_trivial(self):
        return not self.free_rank and not self.torsion

    def order(self):
        """Cardinality, or None for infinite groups."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z{t}" for t in self.torsion)
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroup({self})"


def _is_upper(cols, n):
    """True for n upper-triangular columns with positive pivots."""
    return len(cols) == n and all(c[j] > 0 and not any(c[j + 1:]) for j, c in enumerate(cols))


def _size_reduced(cols):
    """The HNF of upper-triangular columns with positive pivots, in place:
    col_j -= ⌊col_j[i]/col_i[i]⌋·col_i for i = j-1 … 0 changes rows 0..i
    only.  No gcd: the steps are unimodular and the HNF is unique."""
    for j, cj in enumerate(cols):
        for i in range(j - 1, -1, -1):
            q = cj[i] // cols[i][i]
            if q:
                cj[: i + 1] = [e - q * f for e, f in zip(cj, cols[i][: i + 1])]
    if debug_asserts_enabled():
        assert cols == hnf_cols(cols), "size reduction != HNF"
    return cols


class ZLattice:
    """A full-rank Z-lattice in K, in canonical form (see module doc).
    The private slot ``_b_action`` holds how b acts on it (``_action``),
    formed on first read; equality, hashing, ``repr`` and JSON ignore it."""

    __slots__ = ("field", "denom", "cols", "_b_action")

    def __init__(self, field, denom, cols):
        denom = operator.index(denom)
        if denom <= 0:
            raise ValueError("denominator must be positive")
        n = field.n
        cols = [[operator.index(e) for e in c] for c in cols]
        if any(len(c) != n for c in cols):
            raise ValueError("basis columns must have length n")
        self._normalise(field, denom, cols)
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("lattice values are immutable")

    def _normalise(self, field, denom, cols):
        """Set the canonical form: upper-triangular columns with positive
        pivots size-reduced in place, else ``hnf_cols``; rank test; gcd."""
        n = field.n
        h = _size_reduced(cols) if _is_upper(cols, n) else [c for c in hnf_cols(cols) if any(c)]
        if len(h) != n:
            raise NotFullRank(f"generators span rank {len(h)} < {n}")
        g = math.gcd(denom, *(e for c in h for e in c))
        if g > 1:
            denom //= g
            h = [[e // g for e in c] for c in h]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "cols", tuple(tuple(c) for c in h))

    @classmethod
    def _canonical(cls, field, denom, cols, action=None):
        """``cls(field, denom, cols)`` for a positive denominator and
        integer columns of length n that the library formed, as lists it
        may reduce in place, spanning a lattice whose ``cls`` property
        (b-stability, ring closure) the caller has proven: the canonical
        form, with no ``operator.index`` pass and no ``_validate``.  An
        ``action`` the caller has proven (see ``_Action``) goes in the slot."""
        # the reference is built first, as ``_normalise`` may change cols
        expected = cls(field, denom, cols) if debug_asserts_enabled() else None
        out = object.__new__(cls)
        out._normalise(field, denom, cols)
        if action is not None:
            object.__setattr__(out, "_b_action", action)
        if expected is not None:
            assert out._key() == expected._key(), "canonical form != the validating constructor"
        return out

    def _validate(self):
        pass

    # -- inspection ----------------------------------------------------

    @property
    def n(self):
        return self.field.n

    def basis_elements(self):
        d = self.denom
        return [
            FieldElement(self.field, [Fraction(e, d) for e in col]) for col in self.cols
        ]

    def covolume(self):
        """|det of a basis| over the power basis, as a Fraction."""
        return Fraction(math.prod(self.cols[i][i] for i in range(self.n)), self.denom**self.n)

    def contains_element(self, z):
        if z.field != self.field:
            raise ValueError("element belongs to a different field")
        rhs = []
        for c in z.coords:
            s = c * self.denom
            if s.denominator != 1:
                return False
            rhs.append(s.numerator)
        return solve_upper_cols(self.cols, rhs) is not None

    def contains_lattice(self, other):
        self._require_same_field(other)
        return _coordinates(self, other) is not None

    def index_in(self, other):
        """[other : self] for self ⊆ other; NotASublattice otherwise."""
        if not other.contains_lattice(self):
            raise NotASublattice("index_in requires containment")
        ratio = self.covolume() / other.covolume()
        assert ratio.denominator == 1  # containment makes this an integer
        return ratio.numerator

    def _require_same_field(self, other):
        if self.field != other.field:
            raise ValueError("lattices live in different fields")

    # -- conversions ---------------------------------------------------

    def as_ideal(self):
        return FractionalIdeal(self.field, self.denom, self.cols)

    def as_order(self):
        return Order(self.field, self.denom, self.cols)

    def scaled(self, alpha):
        """The lattice alpha·L for a nonzero field element or rational."""
        if isinstance(alpha, (int, Fraction)):
            alpha = self.field.from_poly([alpha])
        if alpha.is_zero():
            raise ValueError("cannot scale a lattice by zero")
        cls = FractionalIdeal if isinstance(self, FractionalIdeal) else ZLattice
        vecs = [(alpha * v).coords for v in self.basis_elements()]
        return _from_rational_columns(self.field, vecs, cls)

    # -- value semantics -----------------------------------------------

    def _key(self):
        return (self.field, self.denom, self.cols)

    def __eq__(self, other):
        return isinstance(other, ZLattice) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def basis_text(self):
        """The basis elements as ``str(FieldElement)`` prints them, read
        off the integer columns over d: a Fraction only where d ∤ e."""
        d = self.denom
        return ", ".join(
            format_poly([e // d if e % d == 0 else Fraction(e, d) for e in col], "b")
            for col in self.cols
        )

    def __repr__(self):
        return f"{type(self).__name__}[{self.basis_text()}]"

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "field": str(self.field.p),
            "denom": self.denom,
            "basis_columns": [list(c) for c in self.cols],
        }

    @classmethod
    def from_json_dict(cls, data, field=None):
        if field is None:
            field = NumberField(parse_int_poly(data["field"]))
        return cls(field, data["denom"], data["basis_columns"])


class FractionalIdeal(ZLattice):
    """A lattice stable under multiplication by b (a Z[b]-module)."""

    __slots__ = ()

    def _validate(self):
        if _action(self) is None:
            raise NotASublattice("lattice is not stable under multiplication by b")


class Order(FractionalIdeal):
    """A fractional ideal that is a unitary ring (so it contains Z[b])."""

    __slots__ = ()

    def _validate(self):
        super()._validate()
        if not self.contains_element(self.field.one()):
            raise NotASublattice("an order must contain 1")
        escape = _escaping_product(self.field, self.cols, self.denom)
        if escape is not None:
            u, v = (self.basis_elements()[k] for k in escape)
            raise NotASublattice(f"not closed under multiplication: {u} * {v} escapes")


def zbeta(field) -> Order:
    """The monogenic order Z[b] (identity basis), one object per field:
    formed on first read and kept in the field's ``_zbeta`` slot, so that
    its b-action is solved once.  The identity already is a canonical
    basis, so none of the ``ZLattice`` checks run: callers test
    ``ring == zbeta(field)`` in their hot paths."""
    out = field._zbeta
    if out is None:
        n = field.n
        out = object.__new__(Order)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "denom", 1)
        object.__setattr__(out, "cols", tuple((0,) * j + (1,) + (0,) * (n - 1 - j)
                                              for j in range(n)))
        object.__setattr__(field, "_zbeta", out)
    return out


def _zbeta_index(ring) -> int:
    """[R : Z[b]] = d^n / Π diag(C) for an order R = (1/d)·C ⊇ Z[b]."""
    index, rem = divmod(ring.denom**ring.n, math.prod(c[k] for k, c in enumerate(ring.cols)))
    assert not rem, "the lattice does not contain Z[b]"
    return index


def _coordinates(big, small):
    """The integer coordinates of the basis of ``small`` in the basis of
    ``big``, as columns, or None when small ⊄ big."""
    xcols = []
    for col in small.cols:
        rhs = []
        for e in col:
            q, r = divmod(e * big.denom, small.denom)
            if r:
                return None
            rhs.append(q)
        x = solve_upper_cols(big.cols, rhs)
        if x is None:
            return None
        xcols.append(x)
    return xcols


def _from_rational_columns(field, vecs, cls=ZLattice):
    """Lattice spanned by rational coordinate vectors (any count >= n)."""
    denom = math.lcm(*(Fraction(c).denominator for v in vecs for c in v))
    cols = [[int(Fraction(c) * denom) for c in v] for v in vecs]
    return cls(field, denom, cols)


def lattice_from_generators(field, gens, module_closure=False):
    """Z-span of the given field elements as a ZLattice.

    With ``module_closure`` the span is extended to the Z[b]-module the
    generators produce (each generator multiplied by 1, b, ..., b^(n-1))
    — handy when the input is an ideal's generating set rather than a
    Z-basis.  Raises NotFullRank when the span is not full rank.
    """
    gens = list(gens)
    for z in gens:
        if z.field != field:
            raise ValueError("generator belongs to a different field")
    if module_closure:
        beta = field.beta()
        extended = []
        for z in gens:
            cur = z
            for _ in range(field.n):
                extended.append(cur)
                cur = cur * beta
        gens = extended
    if not gens:
        raise NotFullRank("no generators")
    return _from_rational_columns(field, [z.coords for z in gens])


def fractional_ideal(field, gens, module_closure=False) -> FractionalIdeal:
    return lattice_from_generators(field, gens, module_closure).as_ideal()


# ---------------------------------------------------------------------
# colon quotients and everything derived from them

def colon(m, n_lat):
    """The colon module (M : N) = {z in K : z·N ⊆ M} = (N·M^♯)^♯, with
    ♯ the trace dual of ``_trace_dual_lattice``.

    Proof.  The trace form is nondegenerate, so (M^♯)^♯ = M, and
    z·N ⊆ M exactly when Tr(z·y·w) ∈ Z for every y in N and w in M^♯.
    The trace is additive, so that says Tr(z·x) ∈ Z for every x in the
    span N·M^♯ of those products, which is z ∈ (N·M^♯)^♯: two trace
    duals and one ``product``.  For b-stable M and N, (M : N) is b-stable
    (b·z·N = z·b·N ⊆ z·N), so the colon of two ideals is an ideal.
    """
    cls = _joint_class(m, n_lat)
    out = _trace_dual_lattice(product(n_lat, _trace_dual_lattice(m, cls)), cls)
    if debug_asserts_enabled():
        assert m.contains_lattice(product(out, n_lat)), "(M : N)·N is not inside M"
    return out


def _dual_lattice(field, vecs, scale=1, cls=ZLattice):
    """scale·W* as a ``cls`` (see ``ZLattice._canonical``), W* = {y : w·y ∈ Z
    for w in W} the dual of the lattice W the integer vectors span;
    NotFullRank when they span less than Qⁿ.
    *Orientation lemma.*  W* is spanned by the columns of B⁻ᵀ for every
    basis B of W.  For the lower Hermite basis L = J·H·J (J the reversal,
    H the HNF of J·W), δ·L⁻ᵀ = J·(δ·H⁻ᵀ)·J is upper triangular with
    positive pivots, so ``_canonical`` only size-reduces it: one
    ``hnf_cols``, where the lower δ·H⁻ᵀ would need a second."""
    h = [c for c in hnf_cols([c[::-1] for c in vecs]) if any(c)]
    if len(h) != field.n:
        raise NotFullRank(f"generators span rank {len(h)} < {field.n}")
    delta, y = _adjugate_columns(h)
    return cls._canonical(field, delta, [[scale * e for e in c[::-1]] for c in y[::-1]])


def _adjugate_columns(h):
    """(δ, Y) for upper-triangular columns H with positive pivots, δ their
    product and Y the columns of δ·H⁻ᵀ: the rows of X = δ·H⁻¹ = adj(H),
    which is upper triangular, so Y is lower triangular.  Column j of X
    comes from H·X = δ·I by the triangular recurrence (Cohen, GTM 138,
    ch. 2): x_jj = δ/h_jj, and x_ij = -(Σ_(k=i+1..j) h_k[i]·x_kj)/h_ii
    for i = j-1 down to 0, each division exact, as X is integral."""
    n = len(h)
    delta = math.prod(h[i][i] for i in range(n))
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        x[j][j] = delta // h[j][j]
        for i in range(j - 1, -1, -1):
            s = 0
            for k in range(i + 1, j + 1):
                s += h[k][i] * x[k][j]
            x[i][j] = -s // h[i][i]
    return delta, x


def _zbeta_colon(lattice) -> "FractionalIdeal":
    """(Z[b] : L) for a b-stable lattice L, from Euler's dual basis of
    Z[b]; NotASublattice when L is not b-stable.

    *Euler's lemma* (Serre, Local Fields, III §6, Lemma 2).  Write
    p(x)/(x - b) = Σ_j e_j·x^j, so e_j = Σ_(k>j) p_k·b^(k-j-1).  Then
    Tr(b^i·e_j/p'(b)) = δ_ij for 0 <= i, j < n: Lagrange interpolation
    at the roots b_1..b_n of p gives Σ_k b_k^i·p(x)/((x - b_k)·p'(b_k))
    = x^i (both sides have degree below n and agree at every b_k), and
    the left side is Tr(b^i·p(x)/((x - b)·p'(b))) = Σ_j Tr(b^i·e_j/p'(b))·x^j.

    The e_j are a basis of Z[b] (e_j is b^(n-1-j) plus lower powers), so
    the trace dual of Z[b] is Z[b]^♯ = p'(b)⁻¹·Z[b]: Z[b] is Gorenstein.
    For a Z[b]-module L, z·L ⊆ Z[b]^♯ means Tr(z·L·Z[b]) = Tr(z·L) ⊆ Z,
    so (Z[b]^♯ : L) = L^♯ and (Z[b] : L) = p'(b)·L^♯.  An element
    z = Σ_j y_j·e_j/p'(b) has Tr(z·b^i) = y_i, so z ∈ L^♯ exactly when y
    pairs integrally with the coordinates of L, i.e. y ∈ L*, the
    coordinate dual.  Hence (Z[b] : L) = E·L*, where column j of E is
    e_j: the Hankel matrix E[r][j] = p_(r+j+1), with p_n = 1 and zero
    beyond.  *Hankel reversal.*  For L = (1/d)·H, L* = (1/δ)·span(Y),
    Y = d·δ·H⁻ᵀ lower triangular; E = J·U with U[s][j] = p_(n-s+j) unit
    lower triangular, so E·Y = J·(U·Y), its column order reversed, is
    upper triangular with positive pivots: ``_canonical`` size-reduces it,
    and no ``hnf_cols`` runs, against the HNF of n + n² vectors in ``colon``.
    For L = Z[b], a ring, (Z[b] : Z[b]) = Z[b] is returned with no sum.
    """
    field = lattice.field
    if lattice == zbeta(field):
        out = FractionalIdeal._canonical(field, 1, [list(c) for c in lattice.cols])
    else:
        if not isinstance(lattice, FractionalIdeal):
            lattice = lattice.as_ideal()
        n = field.n
        p = field.p.coeffs
        delta, dual = _adjugate_columns(lattice.cols)
        cols = [[lattice.denom * sum(p[r + 1 + j] * y[j] for j in range(n - r)) for r in range(n)]
                for y in reversed(dual)]
        out = FractionalIdeal._canonical(field, delta, cols)
    if debug_asserts_enabled():
        assert out == colon(zbeta(field), lattice), "Euler's (Z[b] : L) != colon"
    return out


def _power_ring(field, action) -> Order:
    """{g(b) : g(X) integral} for the ``_Action`` of X, the b-action on
    some lattice basis (or its transpose, which has the same entry
    vectors): g(X) = sum c_k X^k is integral exactly when c pairs
    integrally with every entry vector (X^0[i][j], ..., X^(n-1)[i][j]) of
    the power table of X, so the ring is the dual of the lattice W they
    span.

    W is found modulo a Krylov determinant.  The entry vectors of column
    j are the rows of K_j = [e_j, X·e_j, ..., X^(n-1)·e_j], so they span
    a sublattice of W of index |det K_j| in Zⁿ, and [Zⁿ : W] divides
    m = gcd_j det K_j.  X has the irreducible char poly p, so Qⁿ is a
    simple Q[X]-module, every u ≠ 0 generates it and m ≠ 0.  m = 1 means
    W = Zⁿ and the ring is Z[b]; otherwise m·Zⁿ ⊆ W, and W is the span of
    the m·e_i and the entry vectors reduced mod m: one HNF whose entries
    stay below m.  Each det K_j is the action's ``krylov_det(j)``, which
    ``_locally_cyclic`` reads again rather than forming it twice.
    """
    n = field.n
    table = action.table
    m = 0
    for j in range(n):
        m = math.gcd(m, action.krylov_det(j))
        if m == 1:
            break
    if m == 1:
        ring = zbeta(field)
    else:
        gens = [[m * (r == i) for r in range(n)] for i in range(n)]
        gens += ([e % m for e in entry] for row in table for entry in row)
        ring = _dual_lattice(field, gens, cls=Order)
    if debug_asserts_enabled():
        plain = _dual_lattice(field, [list(e) for row in table for e in row])
        assert ring == plain, "Krylov-modular ring != the plain dual"
    return ring


def _krylov_dets(action):
    """det K_u for u = e_j (the action's ``krylov_det(j)``), then for
    u = e_i + e_j (i < j), K_u = [u, X·u, ..., X^(n-1)·u]: K_u is linear
    in u, so row k of K_(e_i+e_j) is table[k][i] + table[k][j]."""
    table = action.table
    n = len(table)
    for j in range(n):
        yield action.krylov_det(j)
    for i, j in itertools.combinations(range(n), 2):
        yield det_bareiss([list(map(operator.add, row[i], row[j])) for row in table])


def _locally_cyclic(action, ring) -> bool:
    """True when the ideal I on whose basis b acts by X (the ``_Action`` of
    X itself, not its transpose) is locally principal over the order R,
    so that [R : I·(R:I)] = 1.  R must lie in {g : g(X) integral}, as
    ``is_invertible`` checks.  False means only that the test did not answer.
    The det K_(e_j) that ``_power_ring`` formed for C(I) are read again.

    Proof.  For u ≠ 0 the map g -> g(X)·u is injective on K, so
    [R·u : Z[b]·u] = [R : Z[b]], and Z[b]·u is spanned by the columns of
    K_u, of index |det K_u| in Zⁿ; with R·u ⊆ Zⁿ,
    [Zⁿ : R·u] = |det K_u| / [R : Z[b]].  If a prime ℓ does not divide
    that index, I_ℓ = R_ℓ·u at the localisation at ℓ, and
    I_ℓ·(R_ℓ : I_ℓ) = u·R_ℓ·u⁻¹·R_ℓ = R_ℓ.  Colons and products commute
    with localisation, so ℓ does not divide [R : I·(R:I)].  When the gcd
    of the indices over the u of ``_krylov_dets`` is 1, no prime divides
    it, and the index is 1.  The set of u is fixed.
    """
    index = _zbeta_index(ring)
    g = 0
    for det_k in _krylov_dets(action):
        q, rem = divmod(det_k, index)
        assert not rem, "[R : Z[b]] does not divide det K_u: R is not in C(I)"
        g = math.gcd(g, q)
        if g == 1:
            return True
    return False


def coefficient_ring(ideal) -> Order:
    """C(I) = (I : I), the largest order I is a module over: g(b)·I ⊆ I
    exactly when g(X) is integral, X the b-action on a Z-basis of I, so
    C(I) is ``_power_ring`` of X.  X is the lattice's ``_action``: for the
    ideal of A it is A (``invariants._ideal_in``), otherwise the action
    on the canonical basis, formed on first read; it keeps C(I), so the
    ring is formed once per lattice.  NotASublattice when I is not
    b-stable."""
    action = _action(ideal)
    if action is None:
        raise NotASublattice("lattice is not stable under multiplication by b")
    ring = action.ring(ideal.field)
    if debug_asserts_enabled():
        assert ring == colon(ideal, ideal).as_order(), "ring of the b-action != (I : I)"
    return ring


def _joint_class(i, j):
    """FractionalIdeal when both lattices are ideals, else ZLattice."""
    both = isinstance(i, FractionalIdeal) and isinstance(j, FractionalIdeal)
    return FractionalIdeal if both else ZLattice


def product(i, j):
    """Lattice generated by all pairwise products of basis elements."""
    i._require_same_field(j)
    field = i.field
    nn = field.n
    cols = []
    for a in i.cols:
        mult = _mult_columns(field, a)
        for b in j.cols:
            cols.append([sum(mult[r][t] * b[r] for r in range(nn)) for t in range(nn)])
    return _joint_class(i, j)._canonical(field, i.denom * j.denom, cols)


def lattice_sum(i, j):
    """I + J (smallest lattice containing both)."""
    i._require_same_field(j)
    return _sum(_joint_class(i, j), (i, j))


def _sum(cls, lattices):
    """The sum of lattices of one field as a ``cls`` (see
    ``ZLattice._canonical``), in one canonical form; a single lattice,
    already a ``cls``, is returned as it is."""
    if len(lattices) == 1:
        return lattices[0]
    d = math.lcm(*(x.denom for x in lattices))
    cols = [[e * (d // x.denom) for e in c] for x in lattices for c in x.cols]
    return cls._canonical(lattices[0].field, d, cols)


def intersect(i, j):
    """I ∩ J = (I* + J*)*, with * the dual under the coordinate dot
    product: (1/d)·B has the dual d·(Bᵗ)⁻¹Zⁿ, which ``_dual_lattice``
    forms without a transform."""
    i._require_same_field(j)
    field = i.field
    s = lattice_sum(*(_dual_lattice(field, x.cols, x.denom) for x in (i, j)))
    return _dual_lattice(field, s.cols, s.denom, _joint_class(i, j))


def _trace_dual_lattice(lattice, cls=ZLattice):
    """The trace dual L^♯ = {z : Tr(z·w) ∈ Z for all w in L} of
    L = (1/d)·C as a ``cls`` (see ``ZLattice._canonical``), in integers.

    With G the field's trace Gram matrix (``NumberField._gram``, formed
    once per field), Tr(z·w) = yᵗ·(G·c) for the coordinates y of z and c
    of w, so z ∈ L^♯ exactly when y pairs integrally with every vector of
    G·L = (1/d)·span(G·C): L^♯ is the coordinate dual of G·L, one
    ``_dual_lattice`` with no inverse of G.
    """
    field = lattice.field
    # G is symmetric, so the row c·G is the column G·c.
    return _dual_lattice(field, mat_mul_rows(lattice.cols, field._gram), lattice.denom, cls)


def trace_dual(ideal) -> "FractionalIdeal":
    """I* = {z : Tr(z·y) ∈ Z for all y ∈ I}: the coordinate dual of G·I,
    G the trace Gram matrix of the power basis (``_trace_dual_lattice``).
    The dual of a b-stable lattice is b-stable, as Tr(bz·y) = Tr(z·by);
    any other lattice is checked."""
    stable = isinstance(ideal, FractionalIdeal)
    out = _trace_dual_lattice(ideal, FractionalIdeal if stable else ZLattice)
    if debug_asserts_enabled():
        assert _trace_dual_lattice(out) == ideal, "trace dual is not an involution"
    return out if stable else out.as_ideal()


def _invertibility_index(action, ring, ideal) -> int:
    """[R : I·(R:I)] for an order R inside C(I), 1 exactly when I is
    invertible over R.  ``action``, the b-action of I as
    ``_locally_cyclic`` takes it, answers 1 when it can; ``ideal()``
    forms I for the exact ``_colon_index`` otherwise, or to check the
    Krylov answer under debug assertions."""
    if not _locally_cyclic(action, ring):
        return _colon_index(ideal(), ring)
    if debug_asserts_enabled():
        assert _colon_index(ideal(), ring) == 1, "locally cyclic, yet not invertible"
    return 1


def _colon_index(ideal, ring) -> int:
    """[R : I·(R:I)] from (R:I) and the product.  (R:I)·I ⊆ R always, so
    the index is the ratio of covolumes, read off the HNF diagonals.  For
    R = Z[b], (R:I) is ``_zbeta_colon(I)``."""
    dual = _zbeta_colon(ideal) if ring == zbeta(ring.field) else colon(ring, ideal)
    inner = product(ideal, dual)
    n = ring.n
    num = math.prod(inner.cols[k][k] for k in range(n)) * ring.denom**n
    den = math.prod(ring.cols[k][k] for k in range(n)) * inner.denom**n
    index, rem = divmod(num, den)
    assert not rem, "I·(R:I) is not inside R"
    return index


def is_invertible(ideal, ring) -> bool:
    """True when I is invertible over the order R: I is an R-module
    (R ⊆ C(I)) and I·(R:I) = R.  Then C(I) = R, as z·R = z·I·(R:I) ⊆ R
    for z in C(I).  The product condition alone would hold for every
    order I = S ⊊ R, as 1 ∈ S gives S·(R:S) = R.  R ⊆ C(I) is one
    containment test against C(I), the ring the b-action X of I keeps
    once ``coefficient_ring`` forms it; R over denominator 1 is Z[b],
    inside every C(I), and needs none.  The index is read off X or the
    colon (``_invertibility_index``).  X is the lattice's ``_action``, as
    in ``coefficient_ring``, so the power table and the Krylov
    determinants C(I) was read off serve here too.  NotASublattice when
    I is not b-stable."""
    action = _action(ideal)
    if action is None:
        raise NotASublattice("lattice is not stable under multiplication by b")
    if ring.denom == 1:
        inside = True
    else:
        own = action.ring(ideal.field)
        inside = ring == own or own.contains_lattice(ring)
    result = inside and _invertibility_index(action, ring, lambda: ideal) == 1
    if debug_asserts_enabled():
        alt = coefficient_ring(ideal) == ring and is_divisorial(ideal, ring)
        assert result == alt, "invertibility characterizations disagree"
    return result


def is_divisorial(ideal, ring) -> bool:
    """True when (R : (R : I)) = I (I is reflexive over R)."""
    return colon(ring, colon(ring, ideal)) == ideal


def quotient_group(big, small) -> AbelianGroup:
    """The finite abelian group big/small for small ⊆ big.

    The basis-change matrix X with B_small·(scales) = B_big·X is put in
    Smith form; its diagonal is the invariant-factor list."""
    big._require_same_field(small)
    xcols = _coordinates(big, small)
    if xcols is None:
        raise NotASublattice("quotient_group requires small ⊆ big")
    rows = [list(row) for row in zip(*xcols)]
    return AbelianGroup.from_diagonal(snf_diag(rows))
