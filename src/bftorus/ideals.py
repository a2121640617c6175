"""Full-rank Z-lattices in a number field: fractional ideals, orders,
colon quotients, trace duals, and finite quotient groups.

A lattice is stored as ``(field, denom, cols)`` where ``cols`` are the
columns of a nonsingular integer matrix in canonical column Hermite
form and the lattice is (1/denom)·(Z-span of the columns), coordinates
taken over the power basis of the field.  The pair (denom, cols) is
normalized by dividing out gcd(denom, content), so two equal lattices
always have identical representations and equality is just tuple
equality.  Everything downstream — "these two ideals coincide", "this
module is a ring", "I·I⁻¹ = R" — reduces to that exactness.
"""

import itertools
import json
import math
import operator
from fractions import Fraction

from .config import debug_asserts_enabled
from .errors import NonIntegralResult, NotASublattice, NotFullRank
from .exactmat import _integer_inverse, eval_at_power_table, power_table, transpose
from .kernels import det_bareiss, hnf_cols, mat_mul_rows, snf_diag, solve_upper_cols
from .numberfield import FieldElement, NumberField, _mult_columns
from .polyring import parse_int_poly


def _lcm(a, b):
    return a // math.gcd(a, b) * b


def _beta_columns(field):
    """Columns of multiplication by b on the power basis (all integer)."""
    return _mult_columns(field, [int(c) for c in field.beta().coords])


def _beta_action(cols, mult_b):
    """The integer matrix X (as columns) with Mult(b)·B = B·X, where B is
    the HNF column list ``cols`` and ``mult_b`` is from ``_beta_columns``.

    A lattice (1/d)·B is a Z[b]-module exactly when X is integral; the
    denominator d cancels.  Returns None when some column is not.
    """
    n = len(cols)
    out = []
    for col in cols:
        image = [sum(mult_b[j][i] * col[j] for j in range(n)) for i in range(n)]
        x = solve_upper_cols(cols, image)
        if x is None:
            return None
        out.append(x)
    return out


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


def _is_hnf(cols, n):
    """True when the columns already are the canonical column HNF of a
    full-rank lattice: n columns, upper triangular, positive pivots, and
    every entry right of a pivot in [0, pivot)."""
    if len(cols) != n:
        return False
    for j, col in enumerate(cols):
        pivot = col[j]
        if pivot <= 0 or any(col[j + 1:]):
            return False
        if any(not 0 <= later[j] < pivot for later in cols[j + 1:]):
            return False
    return True


class ZLattice:
    """A full-rank Z-lattice in K, in canonical form (see module doc)."""

    __slots__ = ("field", "denom", "cols")

    def __init__(self, field, denom, cols):
        denom = operator.index(denom)
        if denom <= 0:
            raise ValueError("denominator must be positive")
        n = field.n
        cols = [[operator.index(e) for e in c] for c in cols]
        if any(len(c) != n for c in cols):
            raise ValueError("basis columns must have length n")
        h = cols if _is_hnf(cols, n) else [c for c in hnf_cols(cols)[0] if any(c)]
        if len(h) != n:
            raise NotFullRank(f"generators span rank {len(h)} < {n}")
        g = denom
        for c in h:
            for e in c:
                g = math.gcd(g, e)
        if g > 1:
            denom //= g
            h = [[e // g for e in c] for c in h]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "denom", denom)
        object.__setattr__(self, "cols", tuple(tuple(c) for c in h))
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("lattice values are immutable")

    @classmethod
    def _proven(cls, lattice):
        """``lattice`` as a ``cls`` without re-running its checks, for
        callers that have proven the defining property."""
        out = object.__new__(cls)
        for name in ZLattice.__slots__:
            object.__setattr__(out, name, getattr(lattice, name))
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
        det = 1
        for i in range(self.n):
            det *= self.cols[i][i]
        return Fraction(det, self.denom**self.n)

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

    def __repr__(self):
        basis = ", ".join(str(v) for v in self.basis_elements())
        return f"{type(self).__name__}[{basis}]"

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "field": str(self.field.p),
            "denom": self.denom,
            "basis_columns": [list(c) for c in self.cols],
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data, field=None):
        if field is None:
            field = NumberField(parse_int_poly(data["field"]))
        return cls(field, data["denom"], data["basis_columns"])


class FractionalIdeal(ZLattice):
    """A lattice stable under multiplication by b (a Z[b]-module)."""

    __slots__ = ()

    def _validate(self):
        if _beta_action(self.cols, _beta_columns(self.field)) is None:
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
    """The monogenic order Z[b] (identity basis).  The identity already
    is a canonical basis, so none of the ``ZLattice`` checks run: callers
    test ``ring == zbeta(field)`` in their hot paths."""
    n = field.n
    out = object.__new__(Order)
    object.__setattr__(out, "field", field)
    object.__setattr__(out, "denom", 1)
    object.__setattr__(out, "cols", tuple((0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)))
    return out


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
    denom = 1
    for v in vecs:
        for c in v:
            denom = _lcm(denom, Fraction(c).denominator)
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
    """The colon module (M : N) = {z in K : z·N ⊆ M}, in integers only.

    Each basis vector nu_j of N imposes the condition
    d_M·B_M⁻¹·Mult(nu_j)·y/d_N ∈ Zⁿ on the coordinate vector y of z.
    B_M is upper-triangular with positive pivots, so with δ the product
    of its diagonal δ·B_M⁻¹ = adj(B_M) is integral, and the back
    substitution X_j = B_M⁻¹·(δ·Mult(nu_j)) stays in the integers.  With
    g = gcd(d_N·δ, entries of every d_M·X_j), the conditions read
    S_j·y ∈ s·Zⁿ for s = d_N·δ/g and S_j = d_M·X_j/g, the least common
    denominator cleared.  Writing D = |det S₁|, every admissible y lies
    in (s/D)·Zⁿ, and y = (s/D)·k is admissible exactly when k pairs
    integrally with each e_i and each row of each S_j/D.  So the colon
    is s·W* for W = span{D·e_i, rows of S_j mod D}: one HNF of n + n²
    vectors with entries below D, without a transform.
    """
    m._require_same_field(n_lat)
    field = m.field
    nn = field.n
    delta = math.prod(m.cols[i][i] for i in range(nn))
    md = m.denom * delta
    xs = []  # xs[j][k]: column k of d_M·X_j
    for col in n_lat.cols:
        mult = _mult_columns(field, col)
        xs.append([solve_upper_cols(m.cols, [md * e for e in c]) for c in mult])
    g = math.gcd(n_lat.denom * delta, *(e for x in xs for c in x for e in c))
    rows = [[x[k][i] // g for k in range(nn)] for x in xs for i in range(nn)]
    d_det = abs(det_bareiss(rows[:nn]))
    if d_det == 0:
        raise AssertionError("colon condition matrix must be nonsingular")
    gens = [[d_det * (r == i) for r in range(nn)] for i in range(nn)]
    gens += ([e % d_det for e in row] for row in rows)
    out = _dual_lattice(field, gens, n_lat.denom * delta // g)
    if debug_asserts_enabled():
        assert m.contains_lattice(product(out, n_lat)), "(M : N)·N is not inside M"
    return out


def _dual_lattice(field, vecs, scale=1):
    """scale·W*, W* = {y : w·y ∈ Z for w in W} the dual of the lattice W
    the integer vectors span; NotFullRank when they span less than Qⁿ."""
    return ZLattice(field, *_dual_basis(vecs, field.n, scale))


def _dual_basis(vecs, n, scale=1):
    """(δ, Y) with scale·W* = (1/δ)·span(Y) for ``_dual_lattice``, Y not
    yet in canonical form.  With H the triangular HNF basis of W and δ
    the product of its pivots, W* is spanned by the columns of (Hᵗ)⁻¹,
    the rows of H⁻¹, and δ·H⁻¹ = adj(H) is integral: back substitution
    solves H·x_j = δ·e_j.  Vectors that already are a canonical HNF
    basis are H."""
    h = vecs if _is_hnf(vecs, n) else [c for c in hnf_cols(vecs)[0] if any(c)]
    if len(h) != n:
        raise NotFullRank(f"generators span rank {len(h)} < {n}")
    delta = math.prod(h[i][i] for i in range(n))
    x = [solve_upper_cols(h, [delta * (r == j) for r in range(n)]) for j in range(n)]
    return delta, [[scale * xj[i] for xj in x] for i in range(n)]


def zbeta_colon(lattice) -> "FractionalIdeal":
    """(Z[b] : L) for a b-stable lattice L, from Euler's dual basis of
    Z[b]; NotASublattice when L is not b-stable.

    *Euler's lemma* (Serre, Local Fields, III §6, Lemma 2).  Write
    p(x)/(x - b) = Σ_j e_j·x^j, so e_j = Σ_(k>j) p_k·b^(k-j-1).  Then
    Tr(b^i·e_j/p'(b)) = δ_ij for 0 <= i, j < n.  Proof: with b_1..b_n
    the roots of p, Lagrange interpolation at them gives
    Σ_k b_k^i·p(x)/((x - b_k)·p'(b_k)) = x^i, as both sides have degree
    below n and agree at every b_k.  The left side is
    Tr(b^i·p(x)/((x - b)·p'(b))) = Σ_j Tr(b^i·e_j/p'(b))·x^j; compare
    the coefficients of x^j.

    The e_j are a basis of Z[b] (e_j is b^(n-1-j) plus lower powers), so
    the trace dual of Z[b] is Z[b]^♯ = p'(b)⁻¹·Z[b]: Z[b] is Gorenstein.
    For a Z[b]-module L, z·L ⊆ Z[b]^♯ means Tr(z·L·Z[b]) = Tr(z·L) ⊆ Z,
    so (Z[b]^♯ : L) = L^♯ and (Z[b] : L) = p'(b)·L^♯.  An element
    z = Σ_j y_j·e_j/p'(b) has Tr(z·b^i) = y_i, so z ∈ L^♯ exactly when y
    pairs integrally with the coordinates of L, i.e. y ∈ L*, the
    coordinate dual.  Hence (Z[b] : L) = E·L*, where column j of E is
    e_j: the Hankel matrix E[r][j] = p_(r+j+1), with p_n = 1 and zero
    beyond.  That is n back substitutions for L* and one HNF of n
    columns, against the n² products and the HNF of n + n² vectors of
    ``colon``.
    """
    if not isinstance(lattice, FractionalIdeal):
        lattice = lattice.as_ideal()
    field = lattice.field
    n = field.n
    p = field.p.coeffs
    delta, dual = _dual_basis(lattice.cols, n, lattice.denom)
    cols = [[sum(p[r + 1 + j] * y[j] for j in range(n - r)) for r in range(n)] for y in dual]
    out = FractionalIdeal._proven(ZLattice(field, delta, cols))
    if debug_asserts_enabled():
        assert out == colon(zbeta(field), lattice), "Euler's (Z[b] : L) != colon"
    return out


def _power_ring(field, table) -> Order:
    """{g(b) : g(X) integral} for ``table = power_table(X)``, X the
    b-action on some lattice basis (or its transpose): g(X) = sum c_k X^k
    is integral exactly when c pairs integrally with every entry vector
    (X^0[i][j], ..., X^(n-1)[i][j]), so the ring is the dual of the
    lattice W they span.

    W is found modulo a Krylov determinant.  The entry vectors of column
    j are the rows of K_j = [e_j, X·e_j, ..., X^(n-1)·e_j], so they span
    a sublattice of W of index |det K_j| in Zⁿ, and [Zⁿ : W] divides
    m = gcd_j det K_j.  X has the irreducible char poly p, so Qⁿ is a
    simple Q[X]-module, every u ≠ 0 generates it and m ≠ 0.  m = 1 means
    W = Zⁿ and the ring is Z[b]; otherwise m·Zⁿ ⊆ W, and W is the span of
    the m·e_i and the entry vectors reduced mod m: one HNF whose entries
    stay below m.
    """
    n = field.n
    m = 0
    for j in range(n):
        m = math.gcd(m, det_bareiss([row[j] for row in table]))
        if m == 1:
            break
    if m == 1:
        ring = zbeta(field)
    else:
        gens = [[m * (r == i) for r in range(n)] for i in range(n)]
        gens += ([e % m for e in entry] for row in table for entry in row)
        ring = Order._proven(_dual_lattice(field, gens))
    if debug_asserts_enabled():
        plain = _dual_lattice(field, [list(e) for row in table for e in row])
        assert ring == plain, "Krylov-modular ring != the plain dual"
    return ring


def _krylov_rows(table):
    """K_u for u = e_j, then u = e_i + e_j (i < j), as lists of rows,
    K_u = [u, X·u, ..., X^(n-1)·u] for ``table = power_table(X)``: row i
    of K_(e_j) is the entry vector table[i][j], and K_u is linear in u."""
    n = len(table)
    basic = [[row[j] for row in table] for j in range(n)]
    yield from basic
    for i, j in itertools.combinations(range(n), 2):
        yield [list(map(operator.add, a, b)) for a, b in zip(basic[i], basic[j])]


def _locally_cyclic(table, ring) -> bool:
    """True when the ideal I on whose basis b acts by X (``table =
    power_table(X)``, X itself, not its transpose) is locally principal
    over the order R, so that [R : I·(R:I)] = 1.  R must lie in
    {g : g(X) integral}; see ``_in_power_ring``.  False means only that
    the test did not answer.

    Proof.  For u ≠ 0 the map g -> g(X)·u is injective on K, so
    [R·u : Z[b]·u] = [R : Z[b]], and Z[b]·u is spanned by the columns of
    K_u, of index |det K_u| in Zⁿ; with R·u ⊆ Zⁿ,
    [Zⁿ : R·u] = |det K_u| / [R : Z[b]].  If a prime ℓ does not divide
    that index, I_ℓ = R_ℓ·u at the localisation at ℓ, and
    I_ℓ·(R_ℓ : I_ℓ) = u·R_ℓ·u⁻¹·R_ℓ = R_ℓ.  Colons and products commute
    with localisation, so ℓ does not divide [R : I·(R:I)].  When the gcd
    of the indices over the u of ``_krylov_rows`` is 1, no prime divides
    it, and the index is 1.  The set of u is fixed.
    """
    n = len(table)
    index = ring.denom**n // math.prod(ring.cols[k][k] for k in range(n))
    g = 0
    for rows in _krylov_rows(table):
        q, rem = divmod(det_bareiss(rows), index)
        assert not rem, "[R : Z[b]] does not divide det K_u: R is not in C(I)"
        g = math.gcd(g, q)
        if g == 1:
            return True
    return False


def _in_power_ring(table, ring) -> bool:
    """R ⊆ {g : g(X) integral} for ``table = power_table(X)``: g(X) is
    integral for each basis element g of R."""
    try:
        for c in ring.cols:
            eval_at_power_table(table, ring.denom, c)
    except NonIntegralResult:
        return False
    return True


def coefficient_ring(ideal) -> Order:
    """C(I) = (I : I), the largest order I is a module over: g(b)·I ⊆ I
    exactly when g(X) is integral, X the b-action of I, so C(I) is
    ``_power_ring`` of X.  NotASublattice when I is not b-stable."""
    x = _beta_action(ideal.cols, _beta_columns(ideal.field))
    if x is None:
        raise NotASublattice("lattice is not stable under multiplication by b")
    ring = _power_ring(ideal.field, power_table(x))
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
    return _joint_class(i, j)(field, i.denom * j.denom, cols)


def lattice_sum(i, j):
    """I + J (smallest lattice containing both)."""
    i._require_same_field(j)
    d = _lcm(i.denom, j.denom)
    cols = [[e * (d // i.denom) for e in c] for c in i.cols]
    cols += [[e * (d // j.denom) for e in c] for c in j.cols]
    return _joint_class(i, j)(i.field, d, cols)


def intersect(i, j):
    """I ∩ J = (I* + J*)*, with * the dual under the coordinate dot
    product: (1/d)·B has the dual d·(Bᵗ)⁻¹Zⁿ, which ``_dual_lattice``
    forms without a transform."""
    i._require_same_field(j)
    field = i.field
    s = lattice_sum(*(_dual_lattice(field, x.cols, x.denom) for x in (i, j)))
    return _joint_class(i, j)._proven(_dual_lattice(field, s.cols, s.denom))


def _trace_dual_lattice(lattice):
    """The trace dual of (1/d)·C, in integers.

    G = Tr(c_i·c_j) is an integer matrix and the Gram matrix of the
    basis c_j/d is G/d².  The dual basis is w_j = d·Σ_k (G⁻¹)_kj·c_k,
    so with G⁻¹ = M/D the dual is (1/|D|)·span(d·C·M).
    """
    field = lattice.field
    sums = field._power_sums
    cols = lattice.cols
    gram = []
    for ci in cols:
        # Tr(c_i·b^k): column k of Mult(c_i) against the power sums
        traces = [sum(map(operator.mul, sums, col)) for col in _mult_columns(field, ci)]
        gram.append([sum(map(operator.mul, traces, cj)) for cj in cols])
    m, den = _integer_inverse(gram)
    # G and M are symmetric, so row j of M·C^t is column j of C·M.
    vecs = mat_mul_rows(m, cols)
    return ZLattice(field, abs(den), [[lattice.denom * e for e in v] for v in vecs])


def trace_dual(ideal) -> "FractionalIdeal":
    """I* = {z : Tr(z·y) ∈ Z for all y ∈ I}, via the trace Gram inverse.

    The dual basis w_j of the basis v_i satisfies Tr(v_i·w_j) = δ_ij,
    so w_j = Σ_k (G⁻¹)_kj v_k with G the Gram matrix Tr(v_i·v_j).  The
    dual of a b-stable lattice is b-stable, as Tr(bz·y) = Tr(z·by); any
    other lattice is checked."""
    out = _trace_dual_lattice(ideal)
    if debug_asserts_enabled():
        assert _trace_dual_lattice(out) == ideal, "trace dual is not an involution"
    if isinstance(ideal, FractionalIdeal):
        return FractionalIdeal._proven(out)
    return out.as_ideal()


def _invertibility_index(ideal, ring) -> int:
    """[R : I·(R:I)] for the order R, 1 exactly when I is invertible over
    R.  When R lies in C(I), ``_locally_cyclic`` on the b-action of I
    answers 1 when it can; the exact ``_colon_index`` runs otherwise."""
    x = _beta_action(ideal.cols, _beta_columns(ring.field))
    if x is not None:
        table = power_table(transpose(x))
        if _in_power_ring(table, ring) and _locally_cyclic(table, ring):
            if debug_asserts_enabled():
                assert _colon_index(ideal, ring) == 1, "locally cyclic, yet not invertible"
            return 1
    return _colon_index(ideal, ring)


def _colon_index(ideal, ring) -> int:
    """[R : I·(R:I)] from (R:I) and the product.  (R:I)·I ⊆ R always, so
    the index is the ratio of covolumes, read off the HNF diagonals.  For
    R = Z[b], (R:I) is ``zbeta_colon(I)``."""
    dual = zbeta_colon(ideal) if ring == zbeta(ring.field) else colon(ring, ideal)
    inner = product(ideal, dual)
    n = ring.n
    num = math.prod(inner.cols[k][k] for k in range(n)) * ring.denom**n
    den = math.prod(ring.cols[k][k] for k in range(n)) * inner.denom**n
    index, rem = divmod(num, den)
    assert not rem, "I·(R:I) is not inside R"
    return index


def is_invertible(ideal, ring) -> bool:
    """True when I·(R:I) = R (I invertible over the order R)."""
    result = _invertibility_index(ideal, ring) == 1
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
