"""Exact intrinsic complex on Heisenberg groups with a numeric harness.

The symbolic layers (group law, polynomials, enveloping-algebra operators,
weighted exterior algebra, the core complex and its homotopies) work over
exact rationals; the grid layer carries the floating-point scaling probes.
"""

__version__ = "0.1.0"
