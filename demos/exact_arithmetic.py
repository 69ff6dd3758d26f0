"""Exact phase comparison and Laurent rational functions.

Every ordering decision in this package reduces to integer cross
products, and every series coefficient is a ratio of integer Laurent
polynomials kept in canonical form.  This script walks through both
layers.
"""

from fractions import Fraction

from hallq import (
    GaussianRational,
    LaurentPoly,
    RationalFunction,
    phase_cmp,
)


def g(re, im):
    return GaussianRational(Fraction(re), Fraction(im))


def main():
    print("== phases without floating point ==")
    z, w = g(2, 1), g(1, 2)
    print(f"z = {z}, w = {w}")
    # phase_cmp is -1, 0 or +1 as arg z <, =, > arg w
    print(f"phase_cmp(z, w) = {phase_cmp(z, w)}  (cross product {z.cross(w)})")
    # scaling never changes a phase
    print(f"phase_cmp(3z, z) = {phase_cmp(GaussianRational.of(3 * z.re, 3 * z.im), z)}")

    print()
    print("== Laurent polynomials ==")
    t = LaurentPoly.t_power(1)
    q = LaurentPoly.q_power(1)  # q = t^2
    print(f"t * t = {t * t}")
    print(f"q - 1 = {q - LaurentPoly.one()}")
    s = t + LaurentPoly.t_power(-1)
    print(f"(t + t^-1)^2 = {s * s}")

    print()
    print("== rational functions in canonical form ==")
    a = RationalFunction(LaurentPoly(1, [2]), LaurentPoly(0, [-2, 0, 2]))
    b = RationalFunction(LaurentPoly(1, [1]), LaurentPoly(0, [-1, 0, 1]))
    print(f"2t/(2t^2-2) prints as {a}")
    print(f"t/(t^2-1)  prints as {b}")
    # the canonical form makes == a comparison of values
    print(f"equal? {a == b}")
    print(f"product with its reciprocal: {b * b.inv()}")
    print(f"value at t = 2: {b.eval(2)}")


if __name__ == "__main__":
    main()
