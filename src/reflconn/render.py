"""Text, JSON, and LaTeX rendering of connection systems.

JSON keeps exact zeta-basis coefficient strings (parser round-trippable);
text and LaTeX print coefficients in the 1, i, sqrt(3), i*sqrt(3) basis
when the conductor allows it, for readability, and in powers of zeta
otherwise; every sum is joined by cyclo.signed_sum.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .connection import ConnectionSystem
from .cyclo import MAX_RANK, CycloNum, signed_sum, zeta_power
from .errors import DenominatorMismatch, InvalidSpec, NotDivisible, describe
from .groups import is_matrix, is_positive_int, require_name
from .invariants import InvariantTuple
from .parsing import parse_expr
from .poly import MPoly, RatFun


# -- readable coefficients ---------------------------------------------------

def to_readable_basis(c: CycloNum):
    """Coordinates (a, b, s, t) with c = a + b*i + s*sqrt(3) + t*i*sqrt(3).

    Returns None unless the conductor is 12, where these four numbers are
    a basis over Q.  With zeta = (sqrt(3) + i)/2, zeta^2 = (1 + i*sqrt(3))/2
    and zeta^3 = i, c = a0 + a1*zeta + a2*zeta^2 + a3*zeta^3 has
    coordinates (a0 + a2/2, a1/2 + a3, a1/2, a2/2).
    """
    if c.conductor != 12:
        return None
    a0, a1, a2, a3 = c.coeffs
    return (a0 + a2 / 2, a1 / 2 + a3, a1 / 2, a2 / 2)


# the names of 1, i, sqrt(3), i*sqrt(3) in text (False) and LaTeX (True)
_BASIS_NAMES = {
    False: ("", "i", "sqrt(3)", "i*sqrt(3)"),
    True: ("", "i", r"\sqrt{3}", r"i\sqrt{3}"),
}


def _zeta_power_tex(k: int) -> str:
    # the empty group ends the control word before a following variable
    return "" if k == 0 else r"\zeta{}" if k == 1 else rf"\zeta^{{{k}}}"


def _readable_terms(c: CycloNum, latex: bool) -> list:
    """Nonzero (rational, symbol) pairs that sum to c: in the readable basis
    at conductor 12, in powers of zeta otherwise."""
    coords = to_readable_basis(c)
    if coords is not None:
        return [(q, sym) for q, sym in zip(coords, _BASIS_NAMES[latex]) if q]
    power = _zeta_power_tex if latex else zeta_power
    return [(q, power(k)) for k, q in enumerate(c.coeffs) if q]


def _frac_str(q: Fraction, latex: bool) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if latex:
        return rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"
    return f"{q.numerator}/{q.denominator}"


def readable_poly(p: MPoly, latex: bool = False) -> str:
    """p with readable coefficients: a one-term coefficient carries its sign
    into the sum, a longer one is parenthesised."""
    glue = "" if latex else "*"

    def number(q):
        return _frac_str(q, latex)

    def glued(*parts):
        return glue.join(part for part in parts if part)

    terms = []
    for exps, coeff in p.sorted_terms():
        mono_parts = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            v = f"{p.alphabet}{i + 1}" if not latex else f"{p.alphabet}_{{{i + 1}}}"
            if e == 1:
                mono_parts.append(v)
            elif latex:
                mono_parts.append(f"{v}^{{{e}}}")
            else:
                mono_parts.append(f"{v}^{e}")
        mono = glue.join(mono_parts)
        pieces = _readable_terms(coeff, latex)
        if len(pieces) == 1:
            q, sym = pieces[0]
            terms.append((q, glued(sym, mono)))
        else:
            terms.append((1, glued(f"({signed_sum(pieces, glue, number)})", mono)))
    return signed_sum(terms, glue, number)


def readable_ratfun(r: RatFun, latex: bool = False) -> str:
    if r.is_polynomial():
        return readable_poly(r.num, latex)
    if latex:
        return rf"\frac{{{readable_poly(r.num, True)}}}{{{readable_poly(r.den, True)}}}"
    return f"({readable_poly(r.num)}) / ({readable_poly(r.den)})"


# -- renderers --------------------------------------------------------------

def render_text(cs: ConnectionSystem, group_name: str) -> str:
    lines = [f"group: {group_name}"]
    for k, phi in enumerate(cs.invariants_used.phis):
        lines.append(f"z{k + 1} = {readable_poly(phi)}")
    for ell, mat in enumerate(cs.matrices):
        lines.append(f"A{ell + 1}:")
        for row in mat:
            lines.append("  [ " + " , ".join(readable_ratfun(e) for e in row) + " ]")
    return "\n".join(lines) + "\n"


def render_latex(cs: ConnectionSystem, group_name: str) -> str:
    lines = [f"% connection system for {group_name}"]
    for k, phi in enumerate(cs.invariants_used.phis):
        lines.append(rf"z_{{{k + 1}}} = {readable_poly(phi, latex=True)}")
    for ell, mat in enumerate(cs.matrices):
        dens = {str(e.den) for row in mat for e in row}
        if len(dens) == 1 and not mat[0][0].is_polynomial():
            q = mat[0][0].den
            body = [
                " & ".join(readable_poly(e.num, latex=True) for e in row)
                for row in mat
            ]
            rows_tex = " \\\\ ".join(body)
            lines.append(
                rf"A_{{{ell + 1}}} = \frac{{1}}{{{readable_poly(q, latex=True)}}}"
                rf"\begin{{pmatrix}} {rows_tex} \end{{pmatrix}}"
            )
        else:
            body = [
                " & ".join(readable_ratfun(e, latex=True) for e in row)
                for row in mat
            ]
            rows_tex = " \\\\ ".join(body)
            lines.append(
                rf"A_{{{ell + 1}}} = \begin{{pmatrix}} {rows_tex} \end{{pmatrix}}"
            )
    return "\n".join(lines) + "\n"


def system_to_dict(cs: ConnectionSystem, group_name: str, conductor: int) -> dict:
    return {
        "group": group_name,
        "conductor": conductor,
        "rank": cs.rank,
        "invariants": [str(p) for p in cs.invariants_used.phis],
        "denominator": str(cs.denominator),
        "matrices": [
            [
                [{"num": str(e.num), "den": str(e.den)} for e in row]
                for row in mat
            ]
            for mat in cs.matrices
        ],
    }


def render_json(cs: ConnectionSystem, group_name: str, conductor: int) -> str:
    return json.dumps(system_to_dict(cs, group_name, conductor), indent=2) + "\n"


def _check_header(data) -> None:
    """Raise InvalidSpec unless data has the types of the JSON schema."""
    if not isinstance(data, dict):
        raise InvalidSpec("a stored system must be a JSON object")
    require_name(data.get("group"), "group")
    # m, the scaling exponent that older artifacts carry, is optional
    for key in ("conductor", "rank", "m"):
        if (key != "m" or key in data) and not is_positive_int(data.get(key)):
            raise InvalidSpec(f"{key} must be a positive integer, got {describe(data.get(key))}")
    rank = data["rank"]
    if rank > MAX_RANK:
        raise InvalidSpec(f"rank must be at most {MAX_RANK}, got {describe(rank)}")
    invariants = data.get("invariants")
    if (
        not isinstance(invariants, list)
        or len(invariants) != rank
        or not all(isinstance(s, str) for s in invariants)
    ):
        raise InvalidSpec(f"invariants must be a list of {rank} strings")
    if not isinstance(data.get("denominator"), str):
        raise InvalidSpec("denominator must be a string")
    matrices = data.get("matrices")
    if not isinstance(matrices, list) or len(matrices) != rank or not all(
        is_matrix(mat, rank, _is_entry) for mat in matrices
    ):
        raise InvalidSpec(
            f"matrices must be a list of {rank} {rank}x{rank} matrices "
            "of {num, den} string entries"
        )


def _is_entry(e) -> bool:
    return isinstance(e, dict) and isinstance(e.get("num"), str) and isinstance(e.get("den"), str)


def system_from_dict(data: dict) -> ConnectionSystem:
    """Rebuild a ConnectionSystem from the JSON schema.

    Each entry's reduced denominator must divide the common denominator;
    the common-denominator numerators are reconstructed by exact division.
    Each distinct denominator string is parsed, and divides the common
    denominator, once.
    """
    _check_header(data)
    conductor = data["conductor"]
    rank = data["rank"]
    pz = lambda s: parse_expr(s, alphabet="z", nvars=rank, conductor=conductor)
    px = lambda s: parse_expr(s, alphabet="x", nvars=rank, conductor=conductor)
    q = pz(data["denominator"])
    if not q:
        raise InvalidSpec("denominator must be nonzero")
    phis = tuple(px(s) for s in data["invariants"])
    inv = InvariantTuple(
        phis=phis, degrees=tuple(p.total_degree() for p in phis), source="catalog"
    )
    matrices = []
    numerators = []
    dens = {}  # denominator string -> (den, q / den made monic)
    for mat in data["matrices"]:
        rows = []
        num_rows = []
        for row in mat:
            r = []
            nr = []
            for entry in row:
                num = pz(entry["num"])
                den, cofactor = dens.get(entry["den"], (None, None))
                if den is None:
                    den = pz(entry["den"])
                    if not den:
                        raise InvalidSpec("entry denominators must be nonzero")
                rf = RatFun(num, den)
                r.append(rf)
                if cofactor is None:
                    try:
                        cofactor = q.exact_div(rf.den)
                    except NotDivisible:
                        raise DenominatorMismatch(
                            "entry denominator does not divide the common denominator"
                        ) from None
                    dens[entry["den"]] = den, cofactor
                nr.append(rf.num * cofactor)
            rows.append(tuple(r))
            num_rows.append(tuple(nr))
        matrices.append(tuple(rows))
        numerators.append(tuple(num_rows))
    return ConnectionSystem(
        matrices=tuple(matrices),
        numerators=tuple(numerators),
        denominator=q,
        invariants_used=inv,
    )
