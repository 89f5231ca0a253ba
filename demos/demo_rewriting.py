"""The rewriting problem: expressing invariant polynomials in invariant
coordinates.

Any polynomial fixed by the whole group is a polynomial in the fundamental
invariants, and finding that expression is exact linear algebra over the
exponent set {e : sum e_i * d_i = deg f}.  Non-invariant input is detected,
not approximated.
"""

from reflconn import catalog_lookup
from reflconn.errors import NotInvariant
from reflconn.parsing import parse_expr
from reflconn.rewrite import Rewriter, exponent_set


def main():
    group, inv = catalog_lookup("G(2,1,2)")
    rewriter = Rewriter(inv)
    print(f"invariant degrees: {inv.degrees}")
    print(f"exponent set for degree 8: {exponent_set(8, inv.degrees).members}")
    print()

    examples = [
        "x1^2 + x2^2",
        "x1^4 + x2^4",
        "x1^6 + x2^6",
        "x1^8 + x2^8",
        "x1^4*x2^2 + x1^2*x2^4",
    ]
    for text in examples:
        f = parse_expr(text, alphabet="x", nvars=2, conductor=12)
        print(f"{text}  ->  {rewriter.rewrite(f)}")

    print()
    bad = parse_expr("x1^2 - x2^2", alphabet="x", nvars=2, conductor=12)
    try:
        rewriter.rewrite(bad)
    except NotInvariant as exc:
        print(f"x1^2 - x2^2 is rejected: {exc}")

    # round trip: a weighted-homogeneous z-polynomial (all terms land in the
    # same x-degree), pushed down to x and lifted back
    f_tilde = parse_expr("z1^4 - 5*z1^2*z2 + 7*z2^2", alphabet="z", nvars=2, conductor=12)
    f = f_tilde.compose(list(inv.phis))
    assert rewriter.rewrite(f) == f_tilde
    print(f"round trip confirmed for {f_tilde}")


if __name__ == "__main__":
    main()
