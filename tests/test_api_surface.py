"""The public API of ``bftorus``, pinned.

A name added to or dropped from ``bftorus.__all__`` fails here until
this list changes with it, and the change is recorded in CHANGES.md.
"""

import bftorus

EXPORTS = [
    "AbelianGroup",
    "BFTorusError",
    "BudgetExceeded",
    "CharPolyMismatch",
    "DegeneratePeriod",
    "EquivalenceVerdict",
    "FactorizationIncomplete",
    "FieldElement",
    "FractionalIdeal",
    "IntPoly",
    "NonIntegralResult",
    "NotASublattice",
    "NotFullRank",
    "NotMonic",
    "NumberField",
    "Order",
    "OrderLattice",
    "PeriodicStructure",
    "Pi1Presentation",
    "RatPoly",
    "ReduciblePolynomial",
    "SingularMatrix",
    "SmithDecomposition",
    "ZLattice",
    "ZeroInverse",
    "bf_certify",
    "bf_group",
    "bf_k",
    "bf_refute",
    "char_poly",
    "coefficient_ring",
    "colon",
    "conductor",
    "conjugate_mod",
    "det",
    "discriminant",
    "enumerate_order_lattice",
    "eval_poly_at_matrix",
    "flow_invariant_pair",
    "fractional_ideal",
    "ideal_to_matrix",
    "intersect",
    "is_divisorial",
    "is_invertible",
    "is_irreducible",
    "l_equivalent",
    "lattice_from_generators",
    "lattice_sum",
    "mat_pow",
    "matrix_to_ideal",
    "maximal_order",
    "non_invertible_primes",
    "order_discriminant",
    "parse_int_poly",
    "parse_rat_poly",
    "periodic_structure",
    "pi1_presentation",
    "product",
    "quotient_group",
    "smith_normal_form",
    "strong_bf_refute",
    "suspension_h1",
    "trace_dual",
    "zbeta",
]


def test_exports_are_pinned():
    assert sorted(bftorus.__all__) == EXPORTS


def test_every_export_imports():
    namespace = {}
    exec("from bftorus import *", namespace)
    assert all(name in namespace for name in EXPORTS)
