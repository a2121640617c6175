"""Runtime toggles.

Debug assertions enable expensive internal cross-checks: Cayley-Hamilton
in ``char_poly_adjugate``; U·A·V = D and A·T = H with unimodular
transforms; the Smith diagonal of every BF group (``snf_diag``, modulo
the (n-1)-minor gcd) against that of the independent transform loop
``snf_rows``; k-periodicity of the periodic-point generators; v·A = b·v
for the dictionary
eigenvector; the char poly of ``ideal_to_matrix``; (M : N)·N ⊆ M for
every colon; ``zbeta_colon`` from Euler's dual basis, and with it every
``conductor``, against ``colon(zbeta, L)``; the coefficient ring from
the b-action against ``colon(I, I)``; every ring taken modulo the gcd
of its Krylov determinants (``ideals._power_ring``) against the plain
dual of all the entry vectors; every answer of the Krylov test
``ideals._locally_cyclic``, in ``bf_refute`` and in
``_invertibility_index``, against the exact [R : I·(R:I)]; the
trace-dual involution; the
two characterizations of invertibility; the coefficient rings formed
from the powers of A against
``coefficient_ring(matrix_to_ideal(A))``; an inconclusive verdict that
``bf_refute`` gives without a search, because both ideals are invertible
over one ring, against the full search; the invertibility of an ideal
whose ring is Z[b]; every enumerated order through the b-action and
ring-closure checks of ``Order``; and that one more Round 2 step (radical
and colon) does not grow an ℓ-maximal order where Round 2 stopped, at
the index bound or the fixed point.  They are
controlled by the environment variable ``BFTORUS_DEBUG_ASSERT=1`` or
programmatically via :func:`set_debug_asserts`.
"""

import os

_DEBUG_ASSERTS = os.environ.get("BFTORUS_DEBUG_ASSERT") == "1"


def debug_asserts_enabled() -> bool:
    return _DEBUG_ASSERTS


def set_debug_asserts(enabled: bool) -> None:
    global _DEBUG_ASSERTS
    _DEBUG_ASSERTS = bool(enabled)
