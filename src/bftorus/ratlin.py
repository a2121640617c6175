"""Empty: bftorus has no Fraction linear algebra left.

Inverses, trace duals, g(A) for rational g and minimal polynomials are
computed on the integer kernels, from the powers of one power table
(``exactmat.power_table``) and ``kernels``.  This module exists only
because the per-layer benchmark harness (``perfbench``) imports one
module per layer name and lists ``ratlin`` among them; its ``ratlin.*``
figures therefore read 0.
"""
