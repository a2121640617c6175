"""Runtime toggles.

Debug assertions enable expensive internal cross-checks: Cayley-Hamilton
in ``char_poly_adjugate``; U·A·V = D and A·T = H with unimodular
transforms; the Smith diagonal against |det| for BF groups; k-periodicity
of the periodic-point generators; v·A = b·v for the dictionary
eigenvector; the char poly of ``ideal_to_matrix``; the colon kernel rank;
the trace-dual involution; and the two characterizations of
invertibility.  They are controlled by the environment variable
``BFTORUS_DEBUG_ASSERT=1`` or programmatically via
:func:`set_debug_asserts`.
"""

import os

_DEBUG_ASSERTS = os.environ.get("BFTORUS_DEBUG_ASSERT") == "1"


def debug_asserts_enabled() -> bool:
    return _DEBUG_ASSERTS


def set_debug_asserts(enabled: bool) -> None:
    global _DEBUG_ASSERTS
    _DEBUG_ASSERTS = bool(enabled)
