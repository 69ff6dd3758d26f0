"""Exact phase comparison and the coefficient ring Z[t^+-1][1/Phi_i].

Every ordering decision in this package reduces to integer cross
products, and every series coefficient is an integer Laurent polynomial
over a product of cyclotomic polynomials Phi_i(t), kept in canonical
form.  This script walks through both layers.
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
    print("== the coefficient ring Z[t^+-1][1/Phi_i] ==")
    # a value is a numerator over prod Phi_i^e_i, given by its exponents:
    # t (1 + t) / (Phi_1 Phi_2), where Phi_1 = t - 1 and Phi_2 = t + 1
    a = RationalFunction(LaurentPoly(1, [1, 1]), [(1, 1), (2, 1)])
    b = RationalFunction(LaurentPoly(1, [1]), [(1, 1), (2, 1)])
    print(f"t(1+t)/(t^2-1) prints reduced, Phi_2 cancelled: {a}")
    print(f"t/(t^2-1)  prints as {b}")
    # the canonical form makes == a comparison of values
    print(f"equal? {a == b}; a - b = {a - b}")
    # b's numerator is a monomial, so b is a unit of the ring
    print(f"product with its reciprocal: {b * b.inv()}")
    print(f"value at t = 2: {b.eval(2)}")

if __name__ == "__main__":
    main()
