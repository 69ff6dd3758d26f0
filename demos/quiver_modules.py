"""The category of nilpotent cyclic-quiver representations, by hand.

Indecomposables are uniserial: pick a socle vertex and a length.  The
script reads the subobject chain of a uniserial off the submodule census
over F_2, prints the Euler and commutator forms, automorphism-group sizes
as polynomials in the field size q, and the translation tau on the image
of a module in the quantum torus.
"""

from hallq import CyclicQuiver, ModuleIso, apply_translate, integrate, submodule_census


def main():
    q = CyclicQuiver(3)

    print("== a uniserial and its chain, from the census over F_2 ==")
    r = q.R(3, 3)
    print(f"module {r}, dimension vector {q.dim_of_indec(r)}")
    for sub, quo, count in submodule_census(q.n, ModuleIso.of(r), 2):
        if sub and quo:
            print(f"  0 -> {sub} -> {r} -> {quo} -> 0   ({count} such submodule)")

    print()
    print("== bilinear forms on dimension vectors ==")
    e1, e2 = q.e(1), q.e(2)
    print(f"euler(e1, e1) = {q.euler_form(e1, e1)}")
    print(f"euler(e1, e2) = {q.euler_form(e1, e2)}")
    print(f"lambda(e1, e2) = {q.lambda_form(e1, e2)}")
    print(f"lambda(delta, e2) = {q.lambda_form(q.delta, e2)}  (delta is central)")

    print()
    print("== automorphism counts over F_q ==")
    for m in [
        ModuleIso.of(q.simple(1)),
        ModuleIso.of(q.simple(1), q.simple(1)),
        ModuleIso.of(q.R(1, 2)),
        ModuleIso.of(q.R(1, 2), q.simple(1)),
    ]:
        poly = q.aut_poly(m)
        print(f"|Aut({m})| = {poly}   at q=2: {poly.eval_even_at_q(2)}")

    print()
    print("== translation on the image in the quantum torus ==")
    m = ModuleIso.of(q.R(2, 1), q.R(1, 3))
    image = integrate(q, m, 4)
    print(f"[{m}] = {image}")
    print(f"tau [{m}] = {apply_translate(image)}")
    print(f"tau^3 [{m}] == [{m}]: {apply_translate(image, 3) == image}")

    print()
    total = sum(1 for _ in q.enumerate_iso_classes(4))
    print(f"iso classes with total dimension <= 4: {total}")


if __name__ == "__main__":
    main()
