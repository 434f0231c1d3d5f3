#!/usr/bin/env python3
"""Print the structural data of the shipped kappa-ring presentations:
Hilbert functions, normal forms of the leading monomials, and the
Poincare pairing matrices.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chowcalc.algebra import GradedPoly, format_poly  # noqa: E402
from chowcalc.evaluator import format_value  # noqa: E402
from chowcalc.quotient import (  # noqa: E402
    hilbert_function,
    kappa1_power_presentation,
    m6_presentation,
    normal_form,
    pairing_matrix,
)


def main() -> None:
    m6 = m6_presentation()
    k1 = GradedPoly.variable(m6.table, "k1")
    k2 = GradedPoly.variable(m6.table, "k2")

    print("genus-6 kappa ring")
    print("  hilbert through degree 8:", hilbert_function(m6, 8))
    for p, label in ((k1**3, "k1^3"), (k1**4, "k1^4"), (k1**2 * k2, "k1^2*k2")):
        print(f"  nf({label}) = {format_poly(normal_form(p, m6))}")
    for i in range(5):
        mat = pairing_matrix(m6, i, 4)
        print(f"  pairing degree {i}: {format_value(mat)}")
    det = pairing_matrix(m6, 2, 4).determinant()
    print("  degree-2 pairing determinant:", det)

    print("\nlower genus")
    for g in range(2, 6):
        h = hilbert_function(kappa1_power_presentation(g), g + 1)
        print(f"  genus {g}: hilbert {h}")


if __name__ == "__main__":
    main()
