"""Independent checks of reflconn outputs, made apart from the program.

Expression strings in the package's grammar are parsed here into sparse
polynomials (dicts from exponent tuples to coefficients) and evaluated in
double precision, with zeta_N = exp(2*pi*i/N).  Every comparison carries
an a-priori rounding scale, the sum of the absolute values of the terms
that enter it, so a tolerance of TOL times that scale separates rounding
from a real defect.  Nothing in this module imports reflconn.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

TOL = 1e-9

# Published data (Shephard-Todd 1954; Lehrer-Taylor, Unitary Reflection
# Groups, 2009): group order, degrees, number of reflections.
TABLE = {
    "G(2,1,2)": (8, (2, 4), 4),
    "G4": (24, (4, 6), 8),
    "G5": (72, (6, 12), 16),
    "G6": (48, (4, 12), 14),
    "G7": (144, (12, 12), 22),
    "G(2,1,3)": (48, (2, 4, 6), 9),
    "G(3,3,3)": (54, (3, 3, 6), 9),
}


def gmpn_degrees(m: int, p: int, n: int) -> tuple[int, ...]:
    """Closed-form degrees of G(m,p,n): m, 2m, ..., (n-1)m, nm/p."""
    return tuple(sorted([k * m for k in range(1, n)] + [n * m // p]))


class CheckFailed(Exception):
    """An output of the program failed an independent check."""


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+\d*)|([-+*/^()]))")


def _p_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def parse(text: str, nvars: int, conductor: int, alphabet: str = "x", exact=False):
    """Parse into {exponents: coefficient}.

    Coefficients are Fractions until a zeta occurs; with exact=True a
    zeta is refused, so the result is an exact rational polynomial.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if not text[pos:].strip():
                break
            raise ValueError(f"bad character at {pos} in {text[:40]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append("")
    zero = (0,) * nvars
    zeta = cmath.exp(2j * math.pi / conductor)
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr():
        neg = peek() == "-"
        if neg:
            take()
        acc = term()
        if neg:
            acc = {e: -c for e, c in acc.items()}
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            if op == "-":
                rhs = {e: -c for e, c in rhs.items()}
            acc = _p_add(acc, rhs)
        return acc

    def term():
        acc = factor()
        while peek() == "*":
            take()
            acc = _p_mul(acc, factor())
        return acc

    def factor():
        b = base()
        if peek() == "^":
            take()
            k = int(take())
            out = {zero: Fraction(1)}
            for _ in range(k):
                out = _p_mul(out, b)
            return out
        return b

    def base():
        tok = take()
        if tok.isdigit():
            if peek() == "/":
                take()
                return {zero: Fraction(int(tok), int(take()))}
            return {zero: Fraction(int(tok))} if int(tok) else {}
        if tok == "zeta":
            if exact:
                raise CheckFailed(f"expected a rational polynomial, got {text[:60]!r}")
            return {zero: zeta}
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return inner
        if tok[:1] == alphabet and tok[1:].isdigit():
            k = int(tok[1:])
            return {tuple(1 if j == k - 1 else 0 for j in range(nvars)): Fraction(1)}
        raise ValueError(f"unexpected token {tok!r} in {text[:40]!r}")

    result = expr()
    if peek() != "":
        raise ValueError(f"trailing input in {text[:40]!r}")
    return result


def total_degrees(p) -> set[int]:
    return {sum(e) for e in p}


def derivative(p, index: int):
    """Partial derivative with respect to the 0-based variable index."""
    out = {}
    for e, c in p.items():
        k = e[index]
        if k:
            out[e[:index] + (k - 1,) + e[index + 1 :]] = c * k
    return out


# -- evaluation -------------------------------------------------------------

def evaluate(p, point):
    """(value, bound): the value at point and the sum of |terms| there."""
    value = 0j
    bound = 0.0
    for e, c in p.items():
        t = complex(c)
        for x, k in zip(point, e):
            if k:
                t *= x ** k
        value += t
        bound += abs(t)
    return value, bound


def random_point(rng, n: int):
    return tuple(
        cmath.rect(rng.uniform(0.6, 1.4), rng.uniform(0.0, 2 * math.pi)) for _ in range(n)
    )


def matrix_from_strings(rows, conductor: int):
    return [[complex(parse(s, 1, conductor).get((0,), 0)) for s in row] for row in rows]


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def det(m):
    """Determinant of a small complex matrix by elimination with pivoting."""
    a = [list(r) for r in m]
    n = len(a)
    d = 1 + 0j
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        if a[piv][c] == 0:
            return 0j
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return d


def inverse(m):
    n = len(m)
    a = [list(r) + [1.0 + 0j if i == j else 0j for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(a[r][c]))
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def check_close(value, other, scale, what):
    if abs(value - other) > TOL * scale + 1e-300:
        raise CheckFailed(
            f"{what}: {value:.6g} != {other:.6g} (scale {scale:.3g})"
        )


# -- invariants -------------------------------------------------------------

def jacobian_polys(phis):
    n = len(phis)
    return [[derivative(p, j) for j in range(n)] for p in phis]


def well_conditioned_point(rng, jac, n, tries=50):
    """A random point where det J is far from zero relative to its terms."""
    for _ in range(tries):
        x = random_point(rng, n)
        vals = [[evaluate(p, x) for p in row] for row in jac]
        j = [[v for v, _ in row] for row in vals]
        d = det(j)
        scale = math.prod(max(b for _, b in row) for row in vals)
        if abs(d) > 1e-4 * scale:
            return x, j
    raise CheckFailed("no point with an invertible Jacobian: invariants dependent")


def _moved(p, generators, x):
    """Generators g with p(g x) != p(x), as (index, p(x), p(gx), scale)."""
    a, ba = evaluate(p, x)
    for gi, g in enumerate(generators):
        b, bb = evaluate(p, mat_vec(g, x))
        if abs(a - b) > TOL * (ba + bb) + 1e-300:
            yield gi, a, b, ba + bb


def is_invariant(p, generators, rng) -> bool:
    return next(_moved(p, generators, random_point(rng, len(generators[0]))), None) is None


def check_invariants(phis, generators, rng, points=2):
    """Each phi is fixed by every generator, and the Jacobian is invertible."""
    n = len(generators[0])
    jac = jacobian_polys(phis)
    for _ in range(points):
        x, _ = well_conditioned_point(rng, jac, n)
        for k, p in enumerate(phis):
            for gi, a, b, scale in _moved(p, generators, x):
                raise CheckFailed(
                    f"invariant {k + 1} moved by generator {gi}: {a:.6g} -> {b:.6g} (scale {scale:.3g})"
                )


def jacobian_det_degree(phis, rng) -> int:
    """Degree of det J, read from det J(2x) / det J(x) at a random point."""
    n = len(phis)
    jac = jacobian_polys(phis)
    x, j = well_conditioned_point(rng, jac, n)
    j2 = [[evaluate(p, tuple(2 * t for t in x))[0] for p in row] for row in jac]
    k = math.log2(abs(det(j2) / det(j)))
    if abs(k - round(k)) > 1e-6:
        raise CheckFailed(f"det J is not homogeneous (log2 ratio {k})")
    return round(k)


def check_shephard_todd(name, order, reflections, degrees, det_degree):
    want_order, want_degrees, want_refl = TABLE[name]
    if order != want_order or reflections != want_refl:
        raise CheckFailed(f"{name}: order {order}, {reflections} reflections")
    if tuple(sorted(degrees)) != want_degrees:
        raise CheckFailed(f"{name}: degrees {degrees}, published {want_degrees}")
    if math.prod(degrees) != order or sum(d - 1 for d in degrees) != reflections:
        raise CheckFailed(f"{name}: degrees {degrees} break prod = |G| or sum = #refl")
    if det_degree != reflections:
        raise CheckFailed(f"{name}: deg det J = {det_degree}, reflections {reflections}")


# -- connection systems -----------------------------------------------------

class System:
    """A rendered z-space system, parsed from its JSON dict."""

    def __init__(self, data: dict):
        self.rank = n = data["rank"]
        self.conductor = data["conductor"]
        self.phis = [parse(s, n, self.conductor) for s in data["invariants"]]
        self.entries = [
            [
                [
                    (parse(e["num"], n, self.conductor, "z"), parse(e["den"], n, self.conductor, "z"))
                    for e in row
                ]
                for row in mat
            ]
            for mat in data["matrices"]
        ]

    def values(self, z, with_derivatives=False):
        """A[l][r][c] as (value, scale), and dA[l][r][c][i] = d/dz_i of it.

        Returns None where a denominator is close to zero at z.
        """
        n = self.rank
        vals = []
        ders = []
        for mat in self.entries:
            vrows, drows = [], []
            for row in mat:
                vrow, drow = [], []
                for num, den in row:
                    nv, nb = evaluate(num, z)
                    dv, db = evaluate(den, z)
                    if abs(dv) < 1e-6 * db:
                        return None
                    a = nv / dv
                    vrow.append((a, (nb + abs(a) * db) / abs(dv)))
                    if with_derivatives:
                        parts = []
                        for i in range(n):
                            n1, n1b = evaluate(derivative(num, i), z)
                            d1, d1b = evaluate(derivative(den, i), z)
                            val = (n1 * dv - nv * d1) / (dv * dv)
                            scale = (n1b * db + nb * d1b) / abs(dv) ** 2 + abs(val) * 2 * db / abs(dv)
                            parts.append((val, scale))
                        drow.append(parts)
                vrows.append(vrow)
                drows.append(drow)
            vals.append(vrows)
            ders.append(drows)
        return vals, ders


def _point_for(system, with_derivatives, make_point):
    for _ in range(50):
        args = make_point()
        got = system.values(args[0], with_derivatives)
        if got is not None:
            return args, got
    raise CheckFailed("no point away from the denominators")


def check_integrability(system: System, rng, points=2):
    """d_i A_j - d_j A_i = A_i A_j - A_j A_i at random z points."""
    n = system.rank
    for _ in range(points):
        _, (a, da) = _point_for(system, True, lambda: (random_point(rng, n),))
        for i in range(n):
            for j in range(i + 1, n):
                for r in range(n):
                    for c in range(n):
                        lhs = da[j][r][c][i][0] - da[i][r][c][j][0]
                        scale = da[j][r][c][i][1] + da[i][r][c][j][1]
                        rhs = 0j
                        for t in range(n):
                            rhs += a[i][r][t][0] * a[j][t][c][0] - a[j][r][t][0] * a[i][t][c][0]
                            scale += a[i][r][t][1] * a[j][t][c][1] + a[j][r][t][1] * a[i][t][c][1]
                        check_close(lhs, rhs, scale, f"integrability ({i + 1},{j + 1}) entry ({r + 1},{c + 1})")


def check_connection_in_x(system: System, rng, points=2):
    """A_l(phi(x)) J(x) = delta_l(J)(x), with delta_l = sum_i (J^-1)_{il} d/dx_i."""
    n = system.rank
    jac = jacobian_polys(system.phis)
    hess = [[[derivative(p, i) for i in range(n)] for p in row] for row in jac]

    def make_point():
        x, j = well_conditioned_point(rng, jac, n)
        z = tuple(evaluate(p, x)[0] for p in system.phis)
        return z, x, j

    for _ in range(points):
        (z, x, j), (a, _) = _point_for(system, False, make_point)
        jb = [[evaluate(p, x)[1] for p in row] for row in jac]
        jinv = inverse(j)
        h = [[[evaluate(p, x) for p in cell] for cell in row] for row in hess]
        for ell in range(n):
            for r in range(n):
                for c in range(n):
                    lhs = 0j
                    scale = 0.0
                    for t in range(n):
                        lhs += a[ell][r][t][0] * j[t][c]
                        scale += a[ell][r][t][1] * jb[t][c]
                    rhs = 0j
                    for i in range(n):
                        rhs += jinv[i][ell] * h[r][c][i][0]
                        scale += abs(jinv[i][ell]) * h[r][c][i][1]
                    check_close(lhs, rhs, scale, f"A_{ell + 1} J = delta_{ell + 1}(J) entry ({r + 1},{c + 1})")
