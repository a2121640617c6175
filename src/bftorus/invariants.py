"""Bowen-Franks groups, the matrix <-> ideal dictionary, and the
equivalence engines built on top of both.

For an integer matrix A (acting on column vectors) and a rational
polynomial g with g(A) integral,

    BF_g(A) = Z^n / g(A) Z^n

is the generalized Bowen-Franks group; g = x - 1 gives the classical
one and g = x^k - 1 counts the k-periodic points of the induced torus
map.  When the characteristic polynomial p is irreducible, a row
eigenvector v with v.A = beta.v turns A into a fractional ideal of
Q[x]/(p) (Latimer-MacDuffee-Taussky), and the ideal side supplies both
invariants (BF_g(A) = I/g(beta)I) and certificates: equality of
coefficient rings is L-equivalence, and invertibility statements
upgrade it to (strong) BF-equivalence.

Deciding BF-equivalence outright is an open problem, so the engines
come in two sound halves.  ``bf_refute`` searches a finite, documented
candidate list for a distinguishing g - a found witness is a proof of
inequivalence.  ``bf_certify`` applies the sufficient conditions
(square-free discriminant, invertible ideals, degree at most 3) - a
certificate is a proof of equivalence.  When neither side bites, the
verdict is an explicit ``inconclusive`` carrying the exhausted search
bound, never a guess.
"""

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, NamedTuple, Tuple

from .config import debug_asserts_enabled
from .errors import (
    BudgetExceeded,
    CharPolyMismatch,
    DegeneratePeriod,
    FactorizationIncomplete,
    NonIntegralResult,
    ReduciblePolynomial,
)
from .exactmat import (
    IntMatrix,
    _integer_inverse,
    char_poly,
    char_poly_adjugate,
    copy_matrix,
    det,
    eval_at_power_table,
    eval_poly_at_matrix,
    mat_pow,
    power_table,
)
from .ideals import (
    AbelianGroup,
    FractionalIdeal,
    ZLattice,
    _beta_action,
    _beta_columns,
    _colon_index,
    _locally_cyclic,
    _power_ring,
    coefficient_ring,
    is_invertible,
    zbeta,
    zbeta_colon,
)
from .kernels import det_bareiss, mat_mul_rows, snf_diag, snf_rows
from .numberfield import NumberField, _mult_columns
from .polyring import (
    IntPoly,
    RatPoly,
    discriminant,
    format_poly,
    parse_rat_poly,
    poly_mod,
    square_part,
)


def _as_rat_poly(g):
    if isinstance(g, str):
        return parse_rat_poly(g)
    if isinstance(g, IntPoly):
        return g.to_rat()
    if isinstance(g, RatPoly):
        return g
    return RatPoly(g)


def _require_same_char_poly(a, b):
    pa, pb = char_poly(a), char_poly(b)
    if pa != pb:
        raise CharPolyMismatch(f"characteristic polynomials differ: {pa} vs {pb}")
    return pa


# ---------------------------------------------------------------------
# BF groups and periodic points

def _cokernel(m) -> AbelianGroup:
    """Z^n/mZ^n from the Smith diagonal of m alone."""
    diag = snf_diag(m)
    if debug_asserts_enabled():
        assert diag == snf_rows(m)[0], "Smith diagonal != the snf_rows diagonal"
    return AbelianGroup.from_diagonal(diag)


def bf_group(a, g) -> AbelianGroup:
    """BF_g(A) = Z^n/g(A)Z^n in canonical invariant-factor form.

    ``g`` may be a RatPoly, an IntPoly, a coefficient list or a string
    like "x^2-x-1".  Free rank appears exactly when det g(A) = 0.
    Raises NonIntegralResult when g(A) has a denominator; that failure
    is itself conjugacy-invariant information (see bf_refute).
    """
    return _cokernel(eval_poly_at_matrix(_as_rat_poly(g), a))


def bf_k(a, k) -> AbelianGroup:
    """BF_k(A) = Z^n/(A^k - I)Z^n, the group of k-periodic points,
    with A^k formed by repeated squaring.  When det(A^k - I) ≠ 0 the
    Smith diagonal is taken modulo the gcd of the determinant and
    (n-1)-minors (``kernels.snf_diag``), so the elimination works on
    entries below that modulus rather than on those of A^k."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    m = mat_pow(a, k)
    for i in range(len(m)):
        m[i][i] -= 1
    return _cokernel(m)


def _scaled_coords(coeffs, n):
    """(d, r) with d the least positive integer making d.g integral and
    r = d.g as n integer coordinates; g given by its Fraction
    coefficients, of degree < n."""
    d = math.lcm(*(c.denominator for c in coeffs))
    r = [c.numerator * (d // c.denominator) for c in coeffs]
    return d, tuple(r + [0] * (n - len(r)))


class BFProfile:
    """A cache of BF_g(A) values keyed by g reduced mod the char poly.

    Cayley-Hamilton makes g(A) depend only on g mod p, so the reduced
    polynomial is the canonical key, and g(A) is formed as a linear
    combination of A^0..A^(n-1), computed once per profile.  Only g
    with g(A) integral are ever stored; a non-integral g raises through
    ``group``.
    """

    def __init__(self, a):
        self.matrix = copy_matrix(a)
        self.p = char_poly(a)
        self._p_rat = self.p.to_rat()
        self._powers = power_table(self.matrix)
        self.entries: Dict[RatPoly, AbelianGroup] = {}

    def reduce(self, g) -> RatPoly:
        return poly_mod(_as_rat_poly(g), self._p_rat)

    def group(self, g) -> AbelianGroup:
        key = self.reduce(g)
        got = self.entries.get(key)
        if got is None:
            d, r = _scaled_coords(key.coeffs, self.p.degree)
            got = _cokernel(eval_at_power_table(self._powers, d, r))
            self.entries[key] = got
        return got

    def __contains__(self, g):
        return self.reduce(g) in self.entries

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"BFProfile({self.p}, {len(self.entries)} entries)"


class PeriodicStructure(NamedTuple):
    k: int
    group: AbelianGroup
    generators: List[Tuple[Fraction, ...]]  # torus points, coords in [0, 1)


def periodic_structure(a, k) -> PeriodicStructure:
    """Per_k(A) as an explicit subgroup of the torus.

    With U(A^k - I)V = D, generator i is column i of V divided by d_i
    and reduced mod 1.  V is unimodular, so its columns are primitive
    and generator i has order exactly d_i; in particular it lies in
    T_{d_i} (the d_i-division points) and the containments
    T_{d_1} <= Per_k(A) <= T_{d_n} hold.
    """
    a = copy_matrix(a)
    k = operator.index(k)
    if k < 1:
        raise ValueError("period k must be positive")
    n = len(a)
    m = mat_pow(a, k)
    for i in range(n):
        m[i][i] -= 1
    diag, _, v = snf_rows(m)
    if any(d == 0 for d in diag):
        raise DegeneratePeriod(f"det(A^{k} - I) = 0: k-periodic points are not finite")
    gens = []
    for i in range(n):
        gens.append(tuple(Fraction(v[r][i], diag[i]) % 1 for r in range(n)))
    if debug_asserts_enabled():
        ak = mat_pow(a, k)
        for vec in gens:
            img = [sum(ak[r][t] * vec[t] for t in range(n)) - vec[r] for r in range(n)]
            assert all(x.denominator == 1 for x in img), "generator is not k-periodic"
    return PeriodicStructure(k, AbelianGroup.from_diagonal(diag), gens)


# ---------------------------------------------------------------------
# the matrix <-> ideal dictionary

def _row_eigenvector(field, a, adj):
    """Row 0 of adj(beta.I - A): a nonzero v (entries in K) with v.A = beta.v,
    each entry given by its integer power-basis coordinates.

    ``adj`` is [B_0, ..., B_{n-1}] with adj(xI - A) = sum_k x^k B_k (see
    ``exactmat.char_poly_adjugate``).  Since adj(beta.I - A)(beta.I - A)
    = p(beta).I = 0, each row is a row eigenvector; entry j of row 0
    has the integer power-basis coordinates (B_k[0][j])_k, and entry 0
    has beta^(n-1)-coordinate 1 because B_{n-1} = I, so v != 0.
    """
    n = field.n
    vec = [[adj[k][0][j] for k in range(n)] for j in range(n)]
    if debug_asserts_enabled():
        v = [field.element(c) for c in vec]
        for i in range(n):
            lhs = sum((v[j] * a[j][i] for j in range(n)), field.zero())
            assert lhs == v[i] * field.beta(), "v.A != beta.v"
    return vec


def matrix_to_ideal(a) -> FractionalIdeal:
    """The ideal of A: the Z-span of the entries of a row eigenvector.

    The eigenvector is determined only up to a K-scalar, so the ideal
    is canonical only as an ideal class.  A deterministic
    representative is fixed in two steps: the eigenvector is divided
    by its first entry, then the span is rescaled by the rational that
    makes its intersection with Q exactly Z.  Feeding a
    multiplication-by-beta matrix back in recovers the very lattice
    the basis came from whenever that lattice was so normalized (e.g.
    any order), and round-trips through ideal_to_matrix agree up to
    this normalization in general.
    """
    a = copy_matrix(a)
    p, adj = char_poly_adjugate(a)
    return _ideal_in(_dictionary_field(p), a, adj)


def _dictionary_field(p):
    """The number field of the char poly p, or ReduciblePolynomial when
    the dictionary does not apply (degree < 2, or p reducible)."""
    if p.degree < 2:
        raise ReduciblePolynomial("the eigenvector dictionary needs degree >= 2")
    try:
        return NumberField(p)
    except ReduciblePolynomial:
        raise ReduciblePolynomial(
            f"characteristic polynomial {p} is reducible over Q"
        ) from None


def _ideal_in(field, a, adj):
    """``matrix_to_ideal(a)`` in the field of its char poly, from the
    adjugate coefficients of ``exactmat.char_poly_adjugate(a)``."""
    vec = _row_eigenvector(field, a, adj)
    # Every entry is nonzero (a zero entry would cap the span at rank
    # n-1), so dividing by the first one picks a canonical point on the
    # K-line of eigenvectors: v_j/v_0 = Mult(v_0)^-1.v_j, the integer
    # vector adj(Mult(v_0)).v_j over a scalar the rescale absorbs.  Fed
    # columns as rows, _integer_inverse gives the transposed adjugate.
    adj_t, _ = _integer_inverse(_mult_columns(field, vec[0]))
    raw = ZLattice(field, 1, mat_mul_rows(vec, adj_t))
    # The first HNF column spans the intersection with Q; rescale it to Z.
    return FractionalIdeal._proven(ZLattice(field, raw.cols[0][0], raw.cols))


def _matrix_ring(field, table) -> ZLattice:
    """coefficient_ring(matrix_to_ideal(A)) from ``table = power_table(A)``,
    ``field`` being the number field of the char poly of A (degree >= 2).

    The entries of a row eigenvector v are a basis of the ideal I (up to
    the scalar ``matrix_to_ideal`` normalizes by, which leaves C(I)
    alone), and g(beta).v = v.g(A), so g(beta).I lies in I exactly when
    g(A) is integral: C(I) is ``ideals._power_ring`` of A.
    """
    ring = _power_ring(field, table)
    if debug_asserts_enabled():
        a = [[e[1] for e in row] for row in table]
        got = coefficient_ring(matrix_to_ideal(a))
        assert (got.denom, got.cols) == (ring.denom, ring.cols), "ring of g(A) != C(I)"
    return ring


def ideal_to_matrix(ideal) -> IntMatrix:
    """The matrix of multiplication by beta on the canonical basis.

    Inverse direction of the dictionary: beta-stability of the lattice
    is exactly integrality of the result.
    """
    field = ideal.field
    x = _beta_action(ideal.cols, _beta_columns(field))
    if x is None:
        raise NonIntegralResult("multiplication by beta does not preserve this lattice")
    n = field.n
    out = [[x[j][i] for j in range(n)] for i in range(n)]
    if debug_asserts_enabled():
        assert char_poly(out) == field.p, "dictionary broke the char poly"
    return out


# ---------------------------------------------------------------------
# verdicts

VERDICT_KINDS = frozenset(
    {
        "L-equivalent",
        "not-L-equivalent",
        "BF-distinguished",
        "BF-certified",
        "strong-BF-certified",
        "strong-BF-refuted",
        "inconclusive",
    }
)


class EquivalenceVerdict:
    """Outcome of an equivalence engine, always carrying its evidence.

    ``witness`` is a polynomial string for distinguishers or a prose
    reason for certificates; ``groups`` maps "A"/"B" to group strings
    when a mismatch was exhibited ("non-integral" marks a side where
    g(A) left the integers); ``bound`` records the exhausted search
    radius on inconclusive verdicts.
    """

    __slots__ = ("kind", "witness", "groups", "bound")

    def __init__(self, kind, witness=None, groups=None, bound=None):
        if kind not in VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == "inconclusive":
            if bound is None:
                raise ValueError("inconclusive verdicts must carry the search bound")
        elif witness is None:
            raise ValueError(f"a {kind} verdict must carry its witness/reason")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "groups", dict(groups) if groups else None)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, *a):
        raise AttributeError("EquivalenceVerdict is immutable")

    @property
    def conclusive(self):
        return self.kind != "inconclusive"

    def to_json_dict(self):
        out = {"verdict": self.kind}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.groups is not None:
            out["groups"] = dict(self.groups)
        if self.bound is not None:
            out["bound"] = self.bound
        return out

    def __eq__(self, other):
        return isinstance(other, EquivalenceVerdict) and (
            (self.kind, self.witness, self.groups, self.bound)
            == (other.kind, other.witness, other.groups, other.bound)
        )

    def __str__(self):
        if self.kind == "inconclusive":
            return f"inconclusive (searched up to bound {self.bound})"
        extra = f" [{self.witness}]" if self.witness else ""
        return self.kind + extra

    def __repr__(self):
        return f"EquivalenceVerdict({self})"


def _basis_str(lattice):
    return ", ".join(str(z) for z in lattice.basis_elements())


# ---------------------------------------------------------------------
# L-equivalence and the BF engines

def l_equivalent(a, b) -> EquivalenceVerdict:
    """Compare the coefficient rings of the two associated ideals.

    The ideal of A is only an ideal class, but C(I) is a class
    invariant, so this is well defined.  Both rings come from the
    powers of the matrices (``_matrix_ring``), in one number field.
    """
    field = _dictionary_field(_require_same_char_poly(a, b))
    ring_a = _matrix_ring(field, power_table(a))
    ring_b = _matrix_ring(field, power_table(b))
    if ring_a == ring_b:
        return EquivalenceVerdict(
            "L-equivalent", witness=f"common coefficient ring ({_basis_str(ring_a)})"
        )
    return EquivalenceVerdict(
        "not-L-equivalent",
        witness=(
            f"coefficient rings differ: ({_basis_str(ring_a)}) vs "
            f"({_basis_str(ring_b)})"
        ),
    )


def _cyclic_remainders(p, bound):
    """x^k - 1 mod p for k = 1..bound as integer coordinate tuples.

    p is monic, so the division is exact over Z: each step multiplies
    the previous x^(k-1) mod p by x and clears the x^n term with p.
    """
    n = p.degree
    c = p.coeffs
    cur = [1] + [0] * (n - 1)
    for _ in range(bound):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [e - lead * ci for e, ci in zip(cur, c)]
        r = list(cur)
        r[0] -= 1
        yield tuple(r)


REFUTE_SHELL_BUDGET = 1_000_000  # max-norm shell points generated, at most


def _shell(radius, n):
    """The integer n-tuples of max-norm ``radius`` in lexicographic order,
    without drawing the (2·radius - 1)^n tuples inside the shell: a
    first coordinate of modulus ``radius`` frees the rest, any other
    leaves the rest on the shell."""
    if n == 0:
        return
    box = range(-radius, radius + 1)
    for c in box:
        rests = itertools.product(box, repeat=n - 1) if abs(c) == radius else _shell(radius, n - 1)
        for rest in rests:
            yield (c,) + rest


def _refutation_candidates(p, rings, bound):
    """The documented candidate list, deduplicated mod p.

    Yields (d, r, coeffs): the candidate g has coefficients ``coeffs``
    (constant first, for the witness text) and reduces mod p to
    (sum_k r_k x^k)/d, with d the least positive integer that makes
    d.(g mod p) integral and r an integer vector of length deg p.  A
    candidate is dropped when (d, r) or (d, -r) came earlier.

    Deterministic graded order: x^k - 1 for k = 1..bound first (the
    periodic-point invariants), then the basis denominators of both
    coefficient rings (a g that is integral on one side only refutes
    through integrality alone), then every g(beta) with power-basis
    coordinates in max-norm shells 1..bound, first nonzero coordinate
    positive, constants skipped (they never distinguish).  Every shell
    point generated counts against REFUTE_SHELL_BUDGET: BudgetExceeded
    when one more is due.  Only the
    cyclic candidates need reducing; the other two kinds already have
    degree < deg p.  ``rings`` holds the coefficient rings of both
    matrices (``_matrix_ring``), and is empty when p is reducible or of
    degree < 2.
    """
    seen = set()

    def fresh(d, r):
        if (d, r) in seen or (d, tuple(-e for e in r)) in seen:
            return False
        seen.add((d, r))
        return True

    for k, r in enumerate(_cyclic_remainders(p, bound), start=1):
        if fresh(1, r):
            yield 1, r, IntPoly.cyclic(k).coeffs
    n = p.degree
    for ring in rings:
        for z in ring.basis_elements():
            d, r = _scaled_coords(z.coords, n)
            if d != 1 and fresh(d, r):
                yield d, r, z.coords
    generated = 0
    for radius in range(1, bound + 1):
        for tup in _shell(radius, n):
            generated += 1
            if generated > REFUTE_SHELL_BUDGET:
                raise BudgetExceeded(
                    f"bf_refute: the shells up to bound {bound} exceed "
                    f"{REFUTE_SHELL_BUDGET} candidates"
                )
            if not any(tup[1:]):
                continue  # constants (and zero) never distinguish
            first = next(c for c in tup if c)
            if first < 0:
                continue  # g and -g define the same subgroup
            if fresh(1, tup):
                yield 1, tup, tup


def _index_multiple(p):
    """A positive integer divisible by every prime dividing the index
    [Z_K : Z[beta]] of irreducible p: F from disc(p) = F^2 * Delta with
    Delta square-free, or |disc(p)| when factoring disc(p) fails."""
    disc = discriminant(p)
    try:
        return square_part(disc)[0]
    except FactorizationIncomplete:
        return abs(disc)


def _group_or_none(table, d, r):
    try:
        return _cokernel(eval_at_power_table(table, d, r))
    except NonIntegralResult:
        return None


def _matrix_invertibility_index(field, ring, a, table):
    """[R : I·(R:I)] for the ideal I of ``a`` and R = C(I), ``table =
    power_table(a)``, taken as 1 without forming I in two cases.  When R
    = Z[beta]: Z[beta] is Gorenstein, so every ideal whose coefficient
    ring it is is invertible over it.  When ``ideals._locally_cyclic``
    answers: beta acts on I by A in the coordinates c -> v.c, and R =
    C(I) = {g : g(A) integral} by construction."""
    if ring == zbeta(field):
        shortcut = "an ideal with ring Z[beta] is not invertible"
    elif _locally_cyclic(table, ring):
        shortcut = "a locally cyclic ideal is not invertible"
    else:
        shortcut = None
    if shortcut and not debug_asserts_enabled():
        return 1
    index = _colon_index(_ideal_in(field, a, char_poly_adjugate(a)[1]), ring)
    assert index == 1 or shortcut is None, shortcut
    return index


def bf_refute(a, b, bound=4) -> EquivalenceVerdict:
    """Search for a g with BF_g(A) != BF_g(B).

    A witness is a proof that A and B are not BF-equivalent (for
    integrality mismatches: not even L-equivalent).  Exhausting the
    bound proves nothing - the verdict says so.  Each candidate is
    reduced mod p once, and g(A), g(B) are linear combinations of
    powers formed once per matrix; the coefficient rings come from the
    same powers (``_matrix_ring``).

    Candidates that provably cannot distinguish are skipped.  Let p be
    irreducible of degree >= 2, I and J the ideals of A and B.  The row
    eigenvector v of A maps Z^n onto I by c -> v.c, and v.g(A).c =
    g(beta).v.c, so BF_g(A) = I/g(beta)I, and g(A) is integral exactly
    when g(beta) lies in C(I).  Both groups have order |N(g(beta))| =
    |det g(A)| = |det g(B)|; when that is 0, g(beta) = 0 and
    g(A) = g(B) = 0.  A finite abelian group is the sum of its l-parts,
    and the l-part of I/xI is that of I_l/xI_l, over the localisation
    at l.  So an integral g (g(beta) in Z[beta]) gives isomorphic groups
    as soon as I_l and J_l are isomorphic over a ring containing g(beta)
    at every prime l dividing det g(A).  Two steps find such primes.

    1. Let disc(p) = F^2 * Delta with Delta square-free.  The index
       [Z_K : Z[beta]] squared divides disc(p), so every prime l of the
       index divides F.  For l not dividing F the local ring Z[beta]_l
       is maximal, hence a PID, so I_l and J_l are both isomorphic to
       Z[beta]_l.  When F = 1 every integral g is skipped and Z[beta] =
       Z_K is the coefficient ring of both sides, so no candidate has a
       denominator: the verdict is inconclusive at once.  If factoring
       disc(p) fails, |disc(p)| stands in for F; the primes of the
       index divide it too.
    2. When C(I) = C(J) = R, let N_I = [R : I.(R:I)] and N_J likewise,
       and F' = N_I * N_J.  For l not dividing N_I, I_l.(R_l : I_l) =
       R_l, so I_l is an invertible ideal of R_l.  R_l is semilocal
       (its maximal ideals lie over l), and an invertible ideal of a
       semilocal ring is principal, so I_l = alpha.R_l is isomorphic to
       R_l over R_l, as is J_l for l not dividing N_J.  So every g with
       g(beta) in R - every integral g, and every g with g(A) integral -
       gives isomorphic l-parts at the primes l not dividing F'.  An
       integral g with gcd(det g(A), F') = 1 is skipped.  When F' = 1
       no candidate can distinguish: one with g(A) integral has g(B)
       integral too (both rings are R) and isomorphic groups, and one
       with g(A) not integral is not integral on either side; so the
       verdict is inconclusive at once.  When R = Z[beta], N = 1 needs
       no computing: Z[beta] is Gorenstein, so every ideal whose
       coefficient ring it is is invertible over it.  Otherwise N = 1
       is read off Krylov determinants from the powers of A whenever I
       is locally cyclic over R (``ideals._locally_cyclic``):
       |det[u, A.u, ..., A^(n-1).u]| / [R : Z[beta]] is the index of
       R.u in Z^n, and gcd 1 over a fixed set of u makes every I_l
       principal.  Only when that test does not answer are I, (R:I)
       and their product formed.  When the rings differ, a basis
       element of one that is not in the other is a candidate integral
       on one side only, and the search runs with the skip of step 1.

    Candidates with denominators, and every candidate of a reducible
    p, are always evaluated.  A skipped candidate never distinguishes,
    so the witness and its groups are those of the unpruned search.
    With debug assertions on, an answer of step 2 without a search is
    checked against the full search.  The max-norm shells raise
    BudgetExceeded past REFUTE_SHELL_BUDGET generated points (see
    ``_refutation_candidates``); a witness found before that is
    returned as usual.
    """
    p = _require_same_char_poly(a, b)
    bound = operator.index(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rings = ()
    field = f = None
    if p.degree >= 2:
        try:
            field = NumberField(p)
        except ReduciblePolynomial:
            pass
        else:
            f = _index_multiple(p)
            if f == 1:
                return EquivalenceVerdict("inconclusive", bound=bound)
    tables = (power_table(a), power_table(b))
    if field is not None:
        rings = tuple(_matrix_ring(field, table) for table in tables)
        if rings[0] == rings[1]:
            f = _matrix_invertibility_index(field, rings[0], a, tables[0])
            f *= _matrix_invertibility_index(field, rings[0], b, tables[1])
            if f == 1:
                verdict = EquivalenceVerdict("inconclusive", bound=bound)
                if debug_asserts_enabled():
                    full = _search(p, tables, rings, bound, None)
                    assert full == verdict, "equal invertible ideals were distinguished"
                return verdict
    return _search(p, tables, rings, bound, f)


def _search(p, tables, rings, bound, f):
    """bf_refute's loop over ``_refutation_candidates``, skipping the
    integral g with gcd(det g(A), f) = 1; f = None evaluates every
    candidate."""
    table_a, table_b = tables
    for d, r, coeffs in _refutation_candidates(p, rings, bound):
        if d == 1 and f is not None:
            mat_a = eval_at_power_table(table_a, 1, r)
            if math.gcd(det_bareiss(mat_a), f) == 1:
                continue  # |det g(B)| = |det g(A)|, prime to f
            group_a = _cokernel(mat_a)
        else:
            group_a = _group_or_none(table_a, d, r)
        group_b = _group_or_none(table_b, d, r)
        if group_a is None and group_b is None:
            continue
        if group_a != group_b:
            return EquivalenceVerdict(
                "BF-distinguished",
                witness=format_poly(coeffs),
                groups={
                    "A": str(group_a) if group_a is not None else "non-integral",
                    "B": str(group_b) if group_b is not None else "non-integral",
                },
            )
    return EquivalenceVerdict("inconclusive", bound=bound)


def _pair_has_invertible(ideal, zb):
    """At least one of I, (Z[beta]:I) is an invertible Z[beta]-ideal."""
    if is_invertible(ideal, zb):
        return True
    return is_invertible(zbeta_colon(ideal), zb)


def bf_certify(a, b) -> EquivalenceVerdict:
    """Apply the sufficient conditions for (strong) BF-equivalence.

    Cascade, strongest certificate first:
      1. square-free disc(p) and p(0) = +-1: Z[beta] is the maximal
         order, all ideals are invertible there, and every matrix with
         char poly p carries the same BF_g for integral g.
      2. coefficient rings differ: not L-equivalent, hence (L-equivalence
         being necessary) not BF-equivalent either.
      3. both ideals invertible over the common coefficient ring R:
         each is strongly BF-equivalent to R itself, so to each other.
      4. in each pair (I, (Z[beta]:I)) at least one member invertible
         over Z[beta]: BF-equivalent.
      5. degree <= 3: L-equivalence already decides BF-equivalence.
    Anything else is inconclusive (bound 0: no search was involved).
    """
    p = _require_same_char_poly(a, b)
    n = p.degree
    if n < 2:
        raise ReduciblePolynomial("certificates need degree >= 2")
    field = _dictionary_field(p)
    disc = discriminant(p)
    square, _ = square_part(disc)
    if square == 1 and abs(p.coeffs[0]) == 1:
        return EquivalenceVerdict(
            "BF-certified",
            witness=(
                f"disc(p) = {disc} is square-free and p(0) = {p.coeffs[0]}: "
                "Z[beta] is maximal, so all matrices with this characteristic "
                "polynomial share every BF_g"
            ),
        )
    ideal_a = _ideal_in(field, a, char_poly_adjugate(a)[1])
    ideal_b = _ideal_in(field, b, char_poly_adjugate(b)[1])
    ring_a = coefficient_ring(ideal_a)
    ring_b = coefficient_ring(ideal_b)
    if ring_a != ring_b:
        return EquivalenceVerdict(
            "not-L-equivalent",
            witness=(
                f"coefficient rings differ: ({_basis_str(ring_a)}) vs "
                f"({_basis_str(ring_b)}); L-equivalence is necessary for "
                "BF-equivalence, so the pair is BF-inequivalent as well"
            ),
        )
    if is_invertible(ideal_a, ring_a) and is_invertible(ideal_b, ring_b):
        return EquivalenceVerdict(
            "strong-BF-certified",
            witness=(
                "both ideals are invertible over the common coefficient ring "
                f"({_basis_str(ring_a)}); each is strongly BF-equivalent to "
                "that ring, hence to the other"
            ),
        )
    zb = zbeta(field)
    if _pair_has_invertible(ideal_a, zb) and _pair_has_invertible(ideal_b, zb):
        return EquivalenceVerdict(
            "BF-certified",
            witness=(
                "L-equivalent, and in each pair (I, (Z[beta]:I)) at least one "
                "member is an invertible Z[beta]-ideal"
            ),
        )
    if n <= 3:
        return EquivalenceVerdict(
            "BF-certified",
            witness=(
                f"degree {n} <= 3 and equal coefficient rings: L-equivalence "
                "decides BF-equivalence in degree at most 3"
            ),
        )
    return EquivalenceVerdict("inconclusive", bound=0)


_CONJUGACY_MODULI = (2, 3, 4, 5, 6, 7, 8)


def conjugate_mod(a, b, m) -> bool:
    """Is there P with P.A = B.P (mod m) and det(P) a unit mod m?

    Exhaustive over all m^(n^2) candidate matrices - strictly a
    small-case oracle.  Strong BF-equivalence forces conjugacy mod
    every m, so a single failing modulus is a refutation.
    """
    m = operator.index(m)
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return True
    a = copy_matrix(a)
    b = copy_matrix(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("matrix sizes differ")
    am = [[e % m for e in row] for row in a]
    bm = [[e % m for e in row] for row in b]
    for flat in itertools.product(range(m), repeat=n * n):
        pm = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if math.gcd(det(pm) % m, m) != 1:
            continue
        pa = [
            [sum(pm[i][t] * am[t][j] for t in range(n)) % m for j in range(n)]
            for i in range(n)
        ]
        bp = [
            [sum(bm[i][t] * pm[t][j] for t in range(n)) % m for j in range(n)]
            for i in range(n)
        ]
        if pa == bp:
            return True
    return False


def strong_bf_refute(a, b, bound=4) -> EquivalenceVerdict:
    """Refute strong BF-equivalence (R-module isomorphism of all BF_g).

    Any plain abelian mismatch refutes a fortiori, so bf_refute runs
    first.  For degree <= 2 an independent oracle follows: strong
    BF-equivalence is the same as conjugacy mod m for every m, and
    conjugacy is checked exhaustively for small moduli.  Degree >= 3
    conjugacy search is combinatorially out of reach and deliberately
    not attempted.
    """
    p = _require_same_char_poly(a, b)
    first = bf_refute(a, b, bound)
    if first.kind == "BF-distinguished":
        return EquivalenceVerdict(
            "strong-BF-refuted", witness=first.witness, groups=first.groups
        )
    if p.degree <= 2:
        for m in _CONJUGACY_MODULI:
            if not conjugate_mod(a, b, m):
                return EquivalenceVerdict(
                    "strong-BF-refuted", witness=f"not conjugate over Z/{m}"
                )
    return EquivalenceVerdict("inconclusive", bound=bound)


# ---------------------------------------------------------------------
# the suspension flow

def suspension_h1(a) -> AbelianGroup:
    """H1 of the mapping torus of A: Z (the flow direction) + BF_1(A)."""
    g = bf_group(a, IntPoly([-1, 1]))
    return AbelianGroup(g.free_rank + 1, g.torsion)


def flow_invariant_pair(a) -> Tuple[int, AbelianGroup]:
    """(det(I - A), BF_1(A)): the complete flow-equivalence data in the
    subshift setting, recorded here for torus maps."""
    a = copy_matrix(a)
    n = len(a)
    m = [[(1 if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
    return det(m), bf_group(a, IntPoly([-1, 1]))


def _power_word(exponents):
    parts = []
    for idx, e in enumerate(exponents, start=1):
        if e == 0:
            continue
        parts.append(f"x{idx}" if e == 1 else f"x{idx}^{e}")
    return "*".join(parts) if parts else "1"


class Pi1Presentation(NamedTuple):
    generators: List[str]
    relations: List[str]
    matrix: IntMatrix

    def abelianization(self) -> AbelianGroup:
        """Kill the commutators; x0 survives free and relator j becomes
        the vector e_j - (row j of A), so the torsion is Z^n modulo the
        column span of I - A^t (same invariant factors as A - I)."""
        n = len(self.matrix)
        rows = [
            [(1 if i == j else 0) - self.matrix[j][i] for j in range(n)]
            for i in range(n)
        ]
        g = _cokernel(rows)
        return AbelianGroup(g.free_rank + 1, g.torsion)

    def __str__(self):
        return "<" + ", ".join(self.generators) + " | " + ", ".join(self.relations) + ">"


def pi1_presentation(a) -> Pi1Presentation:
    """The fundamental group of the suspension of A.

    Generators x1..xn span the fibre torus, x0 is the loop traced by
    the flow through 0; conjugation by x0 acts on the fibre by the rows
    of A.  The relation schema x0 X^m x0^-1 = X^(mA) over all integer
    row vectors m is generated by its basis instances, so the emitted
    presentation is finite.  Works for any integer matrix (for
    non-unimodular A the "suspension" is the mapping torus of an
    endomorphism and the presentation is emitted all the same).
    """
    a = copy_matrix(a)
    n = len(a)
    gens = [f"x{i}" for i in range(n + 1)]
    rels = [
        f"x{i}*x{j} = x{j}*x{i}"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    for j in range(1, n + 1):
        rels.append(f"x0*x{j}*x0^-1 = {_power_word(a[j - 1])}")
    return Pi1Presentation(gens, rels, a)
