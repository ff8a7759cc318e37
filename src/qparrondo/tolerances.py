"""Centralized numeric tolerances.

STRUCTURAL_TOL guards exact structural facts (norms, unitarity, stochastic
rows).
"""

STRUCTURAL_TOL = 1e-12
