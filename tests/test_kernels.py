"""The integer linear-algebra kernels, against independent oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftorus import invariants, kernels
from bftorus.config import debug_asserts_enabled, set_debug_asserts
from bftorus.ideals import AbelianGroup
from bftorus.kernels import (
    _bareiss,
    _bezout,
    _xgcd,
    det_bareiss,
    hnf_cols,
    mat_mul_rows,
    snf_diag,
    snf_rows,
    solve_upper_cols,
)

from util import mat_mul, oracle_det, oracle_invariant_factors, oracle_same_span


def random_matrix(rng, n, m=None, span=20):
    m = n if m is None else m
    return [[rng.randint(-span, span) for _ in range(m)] for _ in range(n)]


def is_unimodular(rows):
    return abs(oracle_det(rows)) == 1


def test_xgcd_bezout(rng):
    for _ in range(200):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, s, t = _xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0
        if a and b:
            h, s, t = _bezout(a, b)
            assert h == g == s * a + t * b


def test_snf_properties_randomized(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        d, u, v = snf_rows(a)
        # U·A·V = diag(d)
        uav = mat_mul_rows(mat_mul_rows(u, a), v)
        for i in range(n):
            for j in range(n):
                assert uav[i][j] == (d[i] if i == j else 0)
        assert is_unimodular(u) and is_unimodular(v)
        # non-negative divisor chain, zeros last
        nz = [x for x in d if x]
        assert all(x > 0 for x in nz)
        assert d[len(nz):] == [0] * (n - len(nz))
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        # |det| matches the product of the diagonal
        det = oracle_det(a)
        prod = 1
        for x in d:
            prod *= x
        assert abs(det) == prod


def test_snf_repeated_fold_on_same_row():
    # Regression: needs two divisor folds against row 0, and the second
    # must see the updated d[0] rather than the value cached before the
    # first fold fired.
    a = [[15, -4, -9], [-18, -2, 10], [-13, -20, -20]]
    d, u, v = snf_rows(a)
    assert d == [1, 1, 2554]
    uav = mat_mul_rows(mat_mul_rows(u, a), v)
    assert uav == [[1, 0, 0], [0, 1, 0], [0, 0, 2554]]
    assert is_unimodular(u) and is_unimodular(v)


@st.composite
def square_matrices(draw, max_n=7):
    """Square matrices up to max_n, among them zero matrices, singular
    ones with a repeated row, and entries up to 10^90 of either sign."""
    n = draw(st.integers(0, max_n))
    bound = draw(st.sampled_from([0, 1, 9, 10**6, 10**90]))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    return rows


@st.composite
def unimodular_matrices(draw, n):
    """Products of elementary row operations and sign flips."""
    if n < 2:
        return [[draw(st.sampled_from([-1, 1]))] for _ in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )
    for (i, j), c in draw(st.lists(ops, max_size=12)):
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    flip = draw(st.integers(0, n - 1))
    u[flip] = [-x for x in u[flip]]
    return u


@st.composite
def divisor_chains(draw):
    """Smith diagonals d_1 | ... | d_n for n = 1..6: repeated small
    factors, and a last factor that is huge, zero or neither."""
    n = draw(st.integers(1, 6))
    d = [draw(st.sampled_from([1, 1, 2, 3, 4, 6]))]
    for _ in range(n - 1):
        d.append(d[-1] * draw(st.sampled_from([1, 1, 1, 2, 3, 5])))
    tail = draw(st.sampled_from(["plain", "huge", "zero"]))
    if tail == "huge":
        d[-1] *= draw(st.integers(10**20, 10**120))
    elif tail == "zero":
        zeros = draw(st.integers(1, n))
        d[n - zeros:] = [0] * zeros
    return d


def smith(a):
    """snf_diag(a), also read through ``invariants._cokernel``, which
    checks it against ``snf_rows`` when debug assertions are on."""
    d = snf_diag(a)
    assert invariants._cokernel(a) == AbelianGroup.from_diagonal(d)
    return d


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_snf_diag_is_the_snf_rows_diagonal(a):
    assert smith(a) == snf_rows(a)[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_snf_diag_unimodular_invariance(data):
    a = data.draw(square_matrices(max_n=6))
    n = len(a)
    u = data.draw(unimodular_matrices(n))
    v = data.draw(unimodular_matrices(n))
    d = smith(a)
    if n:
        assert smith(mat_mul(u, a)) == d
        assert smith(mat_mul(a, v)) == d
        assert smith(mat_mul(mat_mul(u, a), v)) == d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_smith_diagonal_of_chosen_chains(data):
    d = data.draw(divisor_chains())
    n = len(d)
    u = data.draw(unimodular_matrices(n))
    v = data.draw(unimodular_matrices(n))
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    a = mat_mul(mat_mul(u, diag), v)
    assert smith(a) == d
    assert snf_rows(a)[0] == d
    if n <= 4:
        assert oracle_invariant_factors(a) == d


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_periodic_point_matrices(data):
    # A unit matrix: a companion matrix with constant term ±1 times a
    # unimodular one, so that most A^k - I are nonsingular.
    n = data.draw(st.integers(2, 5))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    last = [data.draw(st.sampled_from([-1, 1]))] + coeffs
    companion = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)] + [last]
    a = mat_mul(companion, data.draw(unimodular_matrices(n)))
    k = data.draw(st.integers(1, 80))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        m = mat_mul(m, a)
    for i in range(n):
        m[i][i] -= 1
    d = smith(m)
    assert d == snf_rows(m)[0]
    assert invariants.bf_k(a, k) == AbelianGroup.from_diagonal(d)


@pytest.fixture
def debug_asserts():
    saved = debug_asserts_enabled()
    set_debug_asserts(True)
    yield
    set_debug_asserts(saved)


def test_smith_properties_with_debug_asserts(debug_asserts):
    """The Smith properties again, with every diagonal that passes
    through ``_cokernel`` checked against ``snf_rows``."""
    test_snf_diag_is_the_snf_rows_diagonal()
    test_snf_diag_unimodular_invariance()
    test_smith_diagonal_of_chosen_chains()
    test_periodic_point_matrices()


def test_debug_check_catches_a_wrong_smith_diagonal(debug_asserts, monkeypatch):
    monkeypatch.setattr(invariants, "snf_diag", lambda m: [1] * (len(m) - 1) + [0])
    with pytest.raises(AssertionError, match="snf_rows"):
        invariants.bf_group([[2, 1], [1, 1]], "x-1")


def test_snf_diag_repeated_fold_on_same_row():
    a = [[15, -4, -9], [-18, -2, 10], [-13, -20, -20]]
    assert snf_diag(a) == [1, 1, 2554]
    assert snf_diag([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diag([[2, 0, 0], [0, 3, 0], [0, 0, 0]]) == [1, 6, 0]
    assert snf_diag([]) == []


def test_snf_diag_without_elimination_when_the_modulus_is_one(monkeypatch):
    # The four (n-1)-minors have gcd 2, the determinant -27: m = 1.
    a = [[-2, 0, 2, -1], [1, 0, 0, -1], [2, 2, 1, 1], [-2, 1, -1, -1]]
    assert _bareiss(a) == (-27, (-4, 6, 18, 0))

    def eliminate(rows, m):
        raise AssertionError(f"elimination mod {m}")

    monkeypatch.setattr(kernels, "_smith_pivots", eliminate)
    assert snf_diag(a) == [1, 1, 1, 27]
    assert snf_diag([[1, 2], [3, 4]]) == [1, 2]
    assert snf_diag([[1, 0, 0], [0, 5, 0], [0, 0, 7]]) == [1, 1, 35]


def test_snf_diag_modulus_a_proper_multiple_of_the_leading_factors():
    # A zero leading entry makes Bareiss swap rows 0 and 1.  The minors
    # have gcd 4 and det = 12, so m = 4: a proper multiple of
    # d_1·d_2 = 2 that d_3 = 6 does not divide.  The chain mod m alone,
    # [1, 2, 2], would be wrong in its last entry.
    a = [[0, -1, -2], [-4, -4, 2], [-2, -3, -4]]
    det, block = _bareiss(a)
    assert det == 12 and math.gcd(*block) == 4
    assert snf_diag(a) == [1, 2, 6] == oracle_invariant_factors(a)
    # Scaling by 3 scales the modulus by 9 and every factor by 3.
    assert snf_diag([[3 * e for e in r] for r in a]) == [3, 6, 18]


def test_bareiss_pivots_and_the_last_step():
    # A zero pivot at the last step needs no swap: det = ±(w·z - x·y)/prev.
    a = [[1, 2, 3], [2, 4, 5], [3, 7, 8]]
    assert _bareiss(a)[0] == det_bareiss(a) == oracle_det(a) == 1
    assert snf_diag(a) == [1, 1, 1]
    # A zero column ends the elimination before the trailing block.
    assert _bareiss([[0, 0, 1], [0, 0, 2], [0, 0, 3]]) == (0, None)
    assert det_bareiss([[-7]]) == -7
    assert det_bareiss([]) == 1


def test_snf_diag_small_and_singular():
    assert snf_diag([[-7]]) == [7]
    assert snf_diag([[0]]) == [0]
    assert snf_diag([[2, 4], [1, 2]]) == [1, 0]
    assert snf_diag([[0, 0, 1], [0, 0, 2], [0, 0, 3]]) == [1, 0, 0]
    assert snf_diag([[2, 4, 6], [4, 8, 12], [6, 12, 18]]) == [2, 0, 0]
    assert snf_diag([[2, 0, 0], [0, 4, 0], [0, 0, 0]]) == [2, 4, 0]


def test_hnf_properties_randomized(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        cols = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        h = hnf_cols(cols)
        assert len(h) == m
        # echelon shape: pivot rows strictly decrease right to left
        pivots = []
        for col in h:
            rows_nz = [r for r, e in enumerate(col) if e]
            pivots.append(max(rows_nz) if rows_nz else -1)
        nz_pivots = [p for p in pivots if p >= 0]
        assert nz_pivots == sorted(nz_pivots)
        assert pivots == sorted(pivots, key=lambda p: (p >= 0, p))
        # pivot entries positive, entries to their right reduced
        for j, p in enumerate(pivots):
            if p < 0:
                continue
            assert h[j][p] > 0
            for j2 in range(j + 1, m):
                assert 0 <= h[j2][p] < h[j][p]
        # the same lattice as the input columns
        assert oracle_same_span(cols, [c for c in h if any(c)])


def test_hnf_nonsingular_square_is_upper_triangular(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        cols = random_matrix(rng, n)
        if oracle_det(cols) == 0:
            continue
        h = hnf_cols(cols)
        for j in range(n):
            assert h[j][j] > 0
            for r in range(j + 1, n):
                assert h[j][r] == 0


def test_solve_upper_roundtrip(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        h = [[0] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = rng.randint(1, 9)
            for r in range(i):
                h[i][r] = rng.randint(-9, 9)
        x = [rng.randint(-9, 9) for _ in range(n)]
        rhs = [sum(h[j][i] * x[j] for j in range(n)) for i in range(n)]
        assert solve_upper_cols(h, rhs) == x
        # poke the rhs off the lattice: 1 + lcm trick not needed, just
        # bump below the last pivot when it exceeds 1
        if h[0][0] > 1:
            assert solve_upper_cols(h, [rhs[0] + 1] + rhs[1:]) is None


def test_det_bareiss_matches_fraction_elimination(rng):
    for _ in range(80):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, span=15)
        assert det_bareiss(a) == oracle_det(a)


def test_mat_mul_rows_small():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert mat_mul_rows(a, b) == [[19, 22], [43, 50]]
