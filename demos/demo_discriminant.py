"""The discriminant Delta that every connection system is written over.

Each reflecting hyperplane H of a complex reflection group is the zero set
of a linear form alpha_H and is fixed pointwise by a cyclic group of order
e_H.  The connection matrices A_l have at most a logarithmic pole along
Delta = prod_H alpha_H^(e_H), up to a constant, so Delta * A_l is
polynomial.  This prints the hyperplanes with their e_H, and Delta in the
invariant coordinates z, for
G4-G7 and for G(3,1,3) on its Reynolds invariants.  The number of
reflections is sum_H (e_H - 1), and deg Delta is sum_H e_H.
"""

import time

from reflconn import (
    catalog_lookup,
    connection_in_z,
    fundamental_invariants,
    jacobian,
    scaled_connection,
)
from reflconn.groups import close_group, hyperplanes, parse_matrix, validate_reflection_group
from reflconn.render import readable_poly

# G(3,1,3): the transpositions (1 2), (2 3), and diag(zeta_3, 1, 1)
G313_GENERATORS = (
    [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
    [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
    [["zeta", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
)


def show(name, group, inv):
    t0 = time.perf_counter()
    jd = jacobian(inv)
    sc = scaled_connection(jd, group=group)
    cs = connection_in_z(sc, inv)
    elapsed = time.perf_counter() - t0
    planes = hyperplanes(group)
    print(f"=== {name}: order {group.order}, {len(group.reflection_indices)} "
          f"reflections, {len(planes)} hyperplanes, built in {elapsed:.2f}s ===")
    for alpha, e in planes:
        print(f"  e_H = {e}: {readable_poly(alpha)}")
    assert sum(e - 1 for _, e in planes) == len(group.reflection_indices)
    assert sc.discriminant.total_degree() == sum(e for _, e in planes)
    print(f"  deg Delta = {sc.discriminant.total_degree()}")
    print(f"  Delta(z) = {readable_poly(cs.denominator)}")
    print()


def main():
    for name in ("G4", "G5", "G6", "G7"):
        group, inv = catalog_lookup(name)
        show(name, group, inv)
    group = validate_reflection_group(
        close_group([parse_matrix(m, 3) for m in G313_GENERATORS])
    )
    show("G(3,1,3)", group, fundamental_invariants(group))


if __name__ == "__main__":
    main()
