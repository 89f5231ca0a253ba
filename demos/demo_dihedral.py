"""Walk through the full pipeline for the dihedral group of order 8.

The group G(2,1,2) (symmetries of the square) is small enough that every
intermediate object fits on a screen: the eight elements, the two
fundamental invariants, the Jacobian, and the final connection matrices in
invariant coordinates.
"""

from reflconn import (
    build_system,
    catalog_lookup,
    check_integrability,
    connection_in_z,
    full_report,
    jacobian,
    scaled_connection,
)
from reflconn.render import readable_poly, readable_ratfun


def main():
    group, inv = catalog_lookup("G(2,1,2)")
    print(f"group {group.name}: order {group.order}, "
          f"{len(group.reflection_indices)} reflections, "
          f"det character of order {group.det_char_order}")

    print("\nfundamental invariants:")
    for k, phi in enumerate(inv.phis):
        print(f"  z{k + 1} = {readable_poly(phi)}  (degree {inv.degrees[k]})")

    jd = jacobian(inv)
    print("\nJacobian of the invariants:")
    for row in jd.jac:
        print("  [ " + " , ".join(str(e) for e in row) + " ]")
    print(f"  det = {jd.det}")

    sc = scaled_connection(jd, group=group)
    # every reflecting hyperplane has e_H = 2, so the discriminant is det^2
    print(f"  discriminant = {sc.discriminant}")
    cs = connection_in_z(sc, inv)
    print("\nconnection matrices in invariant coordinates:")
    for ell, mat in enumerate(cs.matrices):
        print(f"  A{ell + 1}:")
        for row in mat:
            print("    [ " + " , ".join(readable_ratfun(e) for e in row) + " ]")

    print("\nverification:")
    print(full_report(group, inv, jd, sc, cs).render())

    # the one-liner that does all of the above
    assert check_integrability(build_system(group, inv)).all_passed


if __name__ == "__main__":
    main()
