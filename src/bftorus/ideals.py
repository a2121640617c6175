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

import json
import math
import operator
from fractions import Fraction

from .config import debug_asserts_enabled
from .errors import NotASublattice, NotFullRank
from .exactmat import _integer_inverse
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
    cols = [list(c) for c in cols]  # the compiled kernels take lists
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
    cols = [list(c) for c in cols]  # the compiled kernels take lists
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


class ZLattice:
    """A full-rank Z-lattice in K, in canonical form (see module doc)."""

    __slots__ = ("field", "denom", "cols")

    def __init__(self, field, denom, cols):
        denom = int(denom)
        if denom <= 0:
            raise ValueError("denominator must be positive")
        n = field.n
        cols = [[int(e) for e in c] for c in cols]
        if any(len(c) != n for c in cols):
            raise ValueError("basis columns must have length n")
        h, _ = hnf_cols(cols)
        h = [c for c in h if any(c)]
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
        return solve_upper_cols(list(map(list, self.cols)), rhs) is not None

    def contains_lattice(self, other):
        self._require_same_field(other)
        return all(self.contains_element(v) for v in other.basis_elements())

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
    """The monogenic order Z[b] (identity basis)."""
    n = field.n
    return Order(field, 1, [[1 if i == j else 0 for i in range(n)] for j in range(n)])


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
    in (s/D)·Zⁿ, and the solutions are exactly
    (s/D)·{k : S_j k ≡ 0 (D)}.  That kernel is read off the HNF
    transform of [stack(S_j) | D·I].
    """
    m._require_same_field(n_lat)
    field = m.field
    nn = field.n
    bcols = [list(c) for c in m.cols]
    delta = math.prod(bcols[i][i] for i in range(nn))
    x_mats = []
    g = n_lat.denom * delta
    for col in n_lat.cols:
        x = []
        for mult_col in _mult_columns(field, col):
            xc = solve_upper_cols(bcols, [delta * e for e in mult_col])
            xc = [m.denom * e for e in xc]
            g = math.gcd(g, *xc)
            x.append(xc)
        x_mats.append(x)
    s = n_lat.denom * delta // g
    # S_j as rows: S_j[i][k] = d_M·X_j[column k][i]/g
    s_mats = [[[x[k][i] // g for k in range(nn)] for i in range(nn)] for x in x_mats]
    d_det = abs(det_bareiss(s_mats[0]))
    if d_det == 0:
        raise AssertionError("colon condition matrix must be nonsingular")
    # Stack all conditions S_j k ≡ 0 (mod D); entries only matter mod D.
    stacked = []
    for sm in s_mats:
        stacked.extend([e % d_det for e in row] for row in sm)
    rows = len(stacked)
    cols = []
    for j in range(nn):
        cols.append([stacked[i][j] for i in range(rows)])
    for i in range(rows):
        cols.append([d_det if r == i else 0 for r in range(rows)])
    h, t = hnf_cols(cols, transform=True)
    kernel = [t[j][:nn] for j in range(len(h)) if not any(h[j])]
    if debug_asserts_enabled():
        assert len(kernel) == nn, "colon kernel has wrong rank"
    return ZLattice(field, d_det, [[s * e for e in k] for k in kernel])


def coefficient_ring(ideal) -> Order:
    """C(I) = (I : I), the largest order I is a module over."""
    return colon(ideal, ideal).as_order()


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
    cls = (
        FractionalIdeal
        if isinstance(i, FractionalIdeal) and isinstance(j, FractionalIdeal)
        else ZLattice
    )
    return cls(field, i.denom * j.denom, cols)


def lattice_sum(i, j):
    """I + J (smallest lattice containing both)."""
    i._require_same_field(j)
    d = _lcm(i.denom, j.denom)
    cols = [[e * (d // i.denom) for e in c] for c in i.cols]
    cols += [[e * (d // j.denom) for e in c] for c in j.cols]
    cls = (
        FractionalIdeal
        if isinstance(i, FractionalIdeal) and isinstance(j, FractionalIdeal)
        else ZLattice
    )
    return cls(i.field, d, cols)


def intersect(i, j):
    """I ∩ J via the kernel of the pasted basis matrix [A | -C]."""
    i._require_same_field(j)
    nn = i.field.n
    d = _lcm(i.denom, j.denom)
    a_cols = [[e * (d // i.denom) for e in c] for c in i.cols]
    c_cols = [[e * (d // j.denom) for e in c] for c in j.cols]
    paste = [list(c) for c in a_cols] + [[-e for e in c] for c in c_cols]
    h, t = hnf_cols(paste, transform=True)
    combos = [t[k][:nn] for k in range(len(h)) if not any(h[k])]
    vecs = []
    for combo in combos:
        vecs.append(
            [sum(a_cols[j2][r] * combo[j2] for j2 in range(nn)) for r in range(nn)]
        )
    cls = (
        FractionalIdeal
        if isinstance(i, FractionalIdeal) and isinstance(j, FractionalIdeal)
        else ZLattice
    )
    return cls(i.field, d, vecs)


def _trace_dual_lattice(lattice):
    """The trace dual of (1/d)·C, in integers.

    G = Tr(c_i·c_j) is an integer matrix and the Gram matrix of the
    basis c_j/d is G/d².  The dual basis is w_j = d·Σ_k (G⁻¹)_kj·c_k,
    so with G⁻¹ = M/D the dual is (1/|D|)·span(d·C·M).
    """
    field = lattice.field
    sums = field._power_sums
    cols = [list(c) for c in lattice.cols]  # the compiled kernels take lists
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
    so w_j = Σ_k (G⁻¹)_kj v_k with G the Gram matrix Tr(v_i·v_j)."""
    out = _trace_dual_lattice(ideal)
    if debug_asserts_enabled():
        assert _trace_dual_lattice(out) == ideal, "trace dual is not an involution"
    return out.as_ideal()


def is_invertible(ideal, ring) -> bool:
    """True when I·(R:I) = R (I invertible over the order R)."""
    result = product(ideal, colon(ring, ideal)) == ring
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
    nn = big.field.n
    bcols = [list(c) for c in big.cols]
    xcols = []
    for col in small.cols:
        rhs = []
        ok = True
        for e in col:
            q, r = divmod(e * big.denom, small.denom)
            if r:
                ok = False
                break
            rhs.append(q)
        x = solve_upper_cols(bcols, rhs) if ok else None
        if x is None:
            raise NotASublattice("quotient_group requires small ⊆ big")
        xcols.append(x)
    rows = [[xcols[j][i] for j in range(nn)] for i in range(nn)]
    return AbelianGroup.from_diagonal(snf_diag(rows))
