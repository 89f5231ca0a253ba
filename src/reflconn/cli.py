"""Command-line front end.

Subcommands: list, compute, verify, rewrite, invariants.
Exit codes: 0 success, 2 input error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from .connection import connection_in_z, jacobian, scaled_connection
from .errors import NonInvariantEntry, ReflconnError
from .groups import DEFAULT_CAP, group_from_spec, load_group_spec, read_json
from .invariants import (
    catalog_names,
    fundamental_invariants,
    invariants_from_spec,
    load_catalog_spec,
)
from .parsing import parse_expr
from .render import (
    readable_poly,
    render_json,
    render_latex,
    render_text,
    system_from_dict,
)
from .rewrite import Rewriter
from .verify import check_integrability, check_rank_one, check_torsion_free, full_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3


def _resolve_group(args):
    """(name, GroupData, catalog InvariantTuple or None) from CLI flags."""
    if getattr(args, "spec_file", None):
        spec = load_group_spec(args.spec_file)
    else:
        spec = load_catalog_spec(args.group)
    if args.cap is not None:
        spec = dict(spec, cap=args.cap)
    group = group_from_spec(spec)
    inv = invariants_from_spec(spec, group) if spec.get("invariants") else None
    return spec.get("name", args.group or "unnamed"), group, inv


def _pick_invariants(args, group, catalog_inv):
    if args.invariants == "reynolds" or catalog_inv is None:
        return fundamental_invariants(group)
    return catalog_inv


def cmd_list(args) -> int:
    for name in catalog_names():
        print(name)
    return EXIT_OK


def cmd_compute(args) -> int:
    name, group, catalog_inv = _resolve_group(args)
    phi = _pick_invariants(args, group, catalog_inv)
    jd = jacobian(phi)
    try:
        sc = scaled_connection(jd, group=group)
    except NonInvariantEntry as exc:
        # the invariants given fail a group check: a failed verification
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    cs = connection_in_z(sc, phi)
    report = full_report(group, phi, jd, sc, cs)

    if args.format == "json":
        artifact = render_json(cs, name, group.conductor)
    elif args.format == "latex":
        artifact = render_latex(cs, name)
    else:
        artifact = render_text(cs, name)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(artifact)
    else:
        sys.stdout.write(artifact)
    if args.verbose or not report.all_passed:
        print(report.render(), file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_verify(args) -> int:
    try:
        cs = system_from_dict(read_json(args.path, "stored system"))
    except (OSError, ValueError, KeyError, ReflconnError) as exc:
        print(f"error: cannot load system: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if cs.rank > 1:
        jacobian(cs.invariants_used)  # SingularJacobian for dependent invariants
        report = check_integrability(cs)
        report.checks.extend(check_torsion_free(cs).checks)
    else:
        report = check_rank_one(cs)
    print(report.render())
    return EXIT_OK if report.all_passed else EXIT_VERIFY


def cmd_rewrite(args) -> int:
    name, group, catalog_inv = _resolve_group(args)
    phi = _pick_invariants(args, group, catalog_inv)
    f = parse_expr(args.expr, alphabet="x", nvars=group.rank, conductor=group.conductor)
    jacobian(phi)  # SingularJacobian for dependent invariants, before rewriting
    print(Rewriter(phi).rewrite(f))
    return EXIT_OK


def cmd_invariants(args) -> int:
    name, group, catalog_inv = _resolve_group(args)
    phi = _pick_invariants(args, group, catalog_inv)
    print(f"group: {name} (order {group.order}, "
          f"{len(group.reflection_indices)} reflections)")
    for k, p in enumerate(phi.phis):
        print(f"z{k + 1} = {readable_poly(p)}   (degree {phi.degrees[k]})")
    return EXIT_OK


def _add_group_flags(sub):
    g = sub.add_mutually_exclusive_group(required=True)
    g.add_argument("--group", help="catalog group name (see `list`)")
    g.add_argument("--spec-file", help="path to a group specification file")
    sub.add_argument(
        "--invariants",
        choices=["catalog", "reynolds"],
        default="catalog",
        help="source of fundamental invariants",
    )
    sub.add_argument("--cap", type=int, default=None,
                     help=f"group closure cap (default {DEFAULT_CAP})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflconn",
        description="Integrable differential systems for complex reflection groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog groups").set_defaults(func=cmd_list)

    p = sub.add_parser("compute", help="compute and verify a connection system")
    _add_group_flags(p)
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p.add_argument("--out", help="write the artifact to this path")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print the verification report even on success")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="re-check a stored JSON system")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rewrite", help="rewrite an invariant polynomial in z")
    p.add_argument("expr")
    _add_group_flags(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("invariants", help="print fundamental invariants")
    _add_group_flags(p)
    p.set_defaults(func=cmd_invariants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReflconnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
