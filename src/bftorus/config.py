"""Runtime toggles.

Debug assertions enable expensive internal cross-checks:
Cayley-Hamilton, as A·B_0 = -p(0)·I, for every char poly read off a
power table (``exactmat.powers_and_char_poly``); U·A·V = D with
unimodular transforms; the Smith diagonal of every BF group
(``snf_diag``, modulo the (n-1)-minor gcd) against that of the
independent transform loop ``snf_rows``; k-periodicity of the
periodic-point generators; every factor pattern of ``is_irreducible``
read off a root count and Stickelberger's parity against distinct-degree
factorisation (``polyring._factor_pattern_mod``); x·A = b·x for the
Krylov-dual basis of ``matrix_to_ideal``, which also guards the power
table of A that the ideal carries (``ideals._Action``); the char poly of
``ideal_to_matrix``; (M : N)·N ⊆ M for every colon; every basis made
canonical by a size reduction, the lattice duals among them, against
``hnf_cols``; every lattice the library forms from its own integers
(``ideals.ZLattice._canonical``) against the validating constructor of
its class, which re-runs the ``operator.index``, b-stability and
ring-closure checks the fast path skips; every ``conductor``,
(Z[b] : Z[b]) = Z[b] among them, against ``colon(zbeta, R)``; the
coefficient ring from the b-action against ``colon(I, I)``; every ring
taken modulo the gcd of its Krylov determinants (``ideals._power_ring``)
against the plain dual of all the entry vectors; every answer of the Krylov test
``ideals._locally_cyclic`` against the exact [R : I·(R:I)], in
``ideals._invertibility_index``, which ``is_invertible``, ``bf_refute``
and ``bf_certify`` share; the trace-dual involution; the two
characterizations of invertibility; the coefficient rings formed from
the powers of A against ``coefficient_ring(matrix_to_ideal(A))``; an
inconclusive verdict that ``bf_refute`` gives without a search, because
both ideals are invertible over one ring, against the full search; the
invertibility of an ideal whose ring is Z[b]; that the last node of the
order lattice, of the largest index, contains every node, so the
lattice has a unique top; the Hasse edges read off the
local covers against the transitive reduction of containment; that
one more Round 2 step (radical and coefficient ring) does not grow the
ℓ-maximal order of any prime ℓ | F, Ore's tops among them, Z[b] where
Ore's index is 0, as well as Round 2's, stopped at the index bound or
the fixed point.  They are controlled by the environment variable
``BFTORUS_DEBUG_ASSERT=1`` or programmatically via :func:`set_debug_asserts`.
"""

import os

_DEBUG_ASSERTS = os.environ.get("BFTORUS_DEBUG_ASSERT") == "1"


def debug_asserts_enabled() -> bool:
    return _DEBUG_ASSERTS


def set_debug_asserts(enabled: bool) -> None:
    global _DEBUG_ASSERTS
    _DEBUG_ASSERTS = bool(enabled)
