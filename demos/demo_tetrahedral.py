"""Compute the connection systems for the tetrahedral groups G4-G7.

These are the first four primitive complex reflection groups in the
Shephard-Todd classification.  G4 and G5 are generated by order-3
reflections, G6 mixes orders 2 and 3, and G7 needs three generating
reflections (it is not well-generated).  The denominators below are the
discriminants of the groups rewritten in invariant coordinates.
"""

import time

from reflconn import build_system, catalog_lookup, check_integrability
from reflconn.render import render_text


def main():
    for name in ("G4", "G5", "G6", "G7"):
        group, inv = catalog_lookup(name)
        t0 = time.perf_counter()
        cs = build_system(group, inv)
        elapsed = time.perf_counter() - t0
        print(f"=== {name}: order {group.order}, "
              f"{len(group.reflection_indices)} reflections, "
              f"built in {elapsed:.2f}s ===")
        print(render_text(cs, name))
        report = check_integrability(cs)
        assert report.all_passed
        print(report.render())
        print()


if __name__ == "__main__":
    main()
