"""Fundamental invariants from scratch: the invariant degrees and the
Reynolds operator.

The degrees d_i are read off the fixed spaces, sum over g of t^(dim V^g)
= prod_i (t + d_i - 1); the Molien series printed here is
prod_i 1/(1 - t^d_i) over them, which for a reflection group equals
(1/|G|) * sum over g of 1/det(I - tg).

The catalog stores known invariants, but nothing in the pipeline depends on
them being *those* invariants.  Here we derive a fresh tuple for the
dihedral group by averaging monomials over the group, and show the
resulting connection system differs from the catalog one while passing the
same exact checks.
"""

from reflconn import (
    build_system,
    catalog_lookup,
    check_integrability,
    fundamental_invariants,
    invariant_degrees,
    reynolds,
)
from reflconn.invariants import molien_series
from reflconn.parsing import parse_expr
from reflconn.render import render_text


def main():
    group, catalog_inv = catalog_lookup("G(2,1,2)")

    series = molien_series(group, 9)
    print("Molien series coefficients (t^0..t^8):",
          [str(c) for c in series])
    print("invariant degrees:", invariant_degrees(group))

    x1sq = parse_expr("x1^2", alphabet="x", nvars=2, conductor=12)
    print(f"\nReynolds average of x1^2: {reynolds(x1sq, group)}")

    inv = fundamental_invariants(group)
    print("\nderived invariants:")
    for k, phi in enumerate(inv.phis):
        print(f"  z{k + 1} = {phi}")
    print("catalog invariants:")
    for k, phi in enumerate(catalog_inv.phis):
        print(f"  z{k + 1} = {phi}")

    cs = build_system(group, inv)
    assert check_integrability(cs).all_passed
    print("\nconnection system for the derived (non-catalog) invariants:")
    print(render_text(cs, "G(2,1,2), Reynolds invariants"))


if __name__ == "__main__":
    main()
