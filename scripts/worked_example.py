#!/usr/bin/env python3
"""Walk through the RS(16,4)/GF(17) running example end to end.

Encodes f = 1 + x + x^2 + x^3, injects the weight-7 error (1,2,...,7,0,...),
then decodes with all three decoders and checks the two solution spaces match
under the diagonal change of coordinates.
"""

from rsdec import (
    CodeSpec,
    Field,
    UniPoly,
    Word,
    build_A,
    build_Bbar,
    corrupt,
    encode,
    mgs_decode,
    nullspace,
    nullspace_equivalence,
    power_word,
    scaling_map,
    virs_decode,
    virs_radius,
    wb_decode,
    wb_radius,
)


def fmt(p):
    return " ".join(str(c) for c in p.coeffs) if p.degree >= 0 else "0"


def main():
    F = Field(17, alpha=3)
    spec = CodeSpec(F, 16, 4)
    s = 2
    print(f"code: RS(16, 4) over GF(17), locators a^0..a^15 with a = 3")
    print(f"half-distance radius: {wb_radius(16, 4)}")
    print(f"virtual-interleaving radius at s={s}: {virs_radius(16, 4, s)}")
    print()

    f = UniPoly.from_ints(F, [1, 1, 1, 1])
    c = encode(spec, f)
    e = Word.from_ints(F, [1, 2, 3, 4, 5, 6, 7] + [0] * 9, kind="error")
    r = corrupt(c, e)
    print("f :", fmt(f))
    print("c :", " ".join(map(str, c.to_ints())))
    print("e :", " ".join(map(str, e.to_ints())))
    print("r :", " ".join(map(str, r.to_ints())))
    print("r^<2> :", " ".join(map(str, power_word(r, 2).to_ints())))
    print()

    for name, out in [
        ("wb  ", wb_decode(spec, r)),
        ("virs", virs_decode(spec, r, s)),
        ("mgs ", mgs_decode(spec, r, s)),
    ]:
        if out.success:
            print(f"{name}: success  f = {fmt(out.f)}   errors at {out.error_positions}")
        else:
            print(f"{name}: failure  ({out.reason})")
    print()

    tau = virs_radius(16, 4, s)
    A = build_A(spec, r, s, tau)
    sysb = build_Bbar(spec, r, s, tau)
    D = scaling_map(s, F)
    same = nullspace_equivalence(A, sysb.matrix, D, sysb.widths)
    print(f"system A: {A.nrows}x{A.ncols}, dim null = {len(nullspace(A))}")
    print(f"system Bbar: {sysb.matrix.nrows}x{sysb.matrix.ncols}, dim null = {len(nullspace(sysb.matrix))}")
    print(f"diagonal scalars: {D.scalars}")
    print(f"solution spaces identical under D: {same}")


if __name__ == "__main__":
    main()
