"""chowcalc: exact computer algebra for intersection-theoretic bookkeeping
on moduli of curves.

Modules:
  algebra    exact rationals, weighted graded polynomials, row reduction
  quotient   finitely presented graded rings: Hilbert functions, normal
             forms, Poincare-duality pairings
  bundles    formal vector bundles and root-free (Adams operation) Chern calculus
  schur      partitions, Schur/Littlewood-Richardson combinatorics
  geometry   Hirzebruch surfaces as Chow rings, Grassmannians, stratum dimensions
  grr        pushforwards along the universal curve into the kappa ring
  expr/evaluator/checks/cli   the verification CLI
"""

__version__ = "0.1.0"
