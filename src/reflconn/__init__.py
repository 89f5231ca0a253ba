"""Exact construction of integrable differential systems whose differential
Galois group is a prescribed complex reflection group.

The pipeline: close a finite matrix group over a cyclotomic field, validate
that its reflections generate it, obtain fundamental invariants (catalog or
Reynolds averaging), form the Jacobian of the invariants, build the
connection matrices in the original coordinates as polynomials over the
discriminant of the group, rewrite everything in the invariant
coordinates by exact linear algebra, and verify all defining identities
exactly.
"""

from .connection import build_system, connection_in_z, jacobian, scaled_connection
from .invariants import (
    catalog_lookup,
    fundamental_invariants,
    invariant_degrees,
    reynolds,
)
from .verify import check_integrability, full_report

__version__ = "0.1.0"

__all__ = [
    "build_system",
    "catalog_lookup",
    "check_integrability",
    "connection_in_z",
    "full_report",
    "fundamental_invariants",
    "invariant_degrees",
    "jacobian",
    "reynolds",
    "scaled_connection",
]
