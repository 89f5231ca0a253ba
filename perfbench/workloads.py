"""The three workloads.  Each one has a set-up, which builds a fixed list
of operations from the seed, and a pass, which runs that list once.

The program is reached only through module attributes of reflconn
(`rc.connection.jacobian`, not a name bound at import time), so the
wrappers of tracing.py see every call.  Every operation returns plain
data (strings, booleans); its check is made by numeric.py, apart from the
program, and never calls back into reflconn.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from itertools import combinations

import numeric as num


class Op:
    """One operation: run() calls the program, check(out) tests its output."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# -- groups -----------------------------------------------------------------

def _perm(n, i, j):
    return [
        ["1" if (r == c and r not in (i, j)) or {r, c} == {i, j} else "0" for c in range(n)]
        for r in range(n)
    ]


def _elementary(k, n, m):
    """e_k(x1^m, ..., xn^m) as a string."""
    return " + ".join(
        "*".join(f"x{i + 1}^{m}" for i in subset) for subset in combinations(range(n), k)
    )


def gmpn_spec(m, p, n=3):
    """Group spec of G(m,p,n) with its closed-form invariants.

    Conductor m, except that zeta_2 is written -1 over Q (conductor 1).
    Generators: the transpositions (i i+1), and diag(zeta^p, 1, ..., 1)
    when p < m, or the twisted transposition x1 <-> zeta^-1 x2 when p = m.
    """
    conductor = 1 if m == 2 else m

    def zpow(k):
        k %= m
        if k == 0:
            return "1"
        return "-1" if m == 2 else f"zeta^{k}"

    gens = [_perm(n, i, i + 1) for i in range(n - 1)]
    if p < m:
        g = _perm(n, 0, 0)
        g[0][0] = zpow(p)
    else:
        g = _perm(n, 0, 1)
        g[0][1], g[1][0] = zpow(-1), zpow(1)
    gens.append(g)
    top = "*".join(f"x{i + 1}" for i in range(n))
    e = m // p
    invariants = [_elementary(k, n, m) for k in range(1, n)]
    invariants.append(top if e == 1 else f"({top})^{e}")
    return {"name": f"G({m},{p},{n})", "conductor": conductor, "rank": n,
            "generators": gens, "invariants": invariants, "mpn": (m, p, n)}


def group_spec(rc, name):
    if name.startswith("G(") and name != "G(2,1,2)":
        m, p, n = (int(t) for t in name[2:-1].split(","))
        return gmpn_spec(m, p, n)
    return rc.invariants.load_catalog_spec(name)


def numeric_generators(spec):
    return [num.matrix_from_strings(g, spec["conductor"]) for g in spec["generators"]]


def _check_group(name, group):
    order, degrees, refl = num.TABLE[name]
    if group.order != order or len(group.reflection_indices) != refl:
        raise num.CheckFailed(
            f"{name}: closed to order {group.order} with "
            f"{len(group.reflection_indices)} reflections, published {order}, {refl}"
        )


def _exponents(target, degrees):
    """All e >= 0 with sum e_i * degrees_i == target, in lexicographic order."""
    if len(degrees) == 1:
        q, r = divmod(target, degrees[0])
        return [(q,)] if r == 0 else []
    return [
        (e,) + rest
        for e in range(target // degrees[0] + 1)
        for rest in _exponents(target - e * degrees[0], degrees[1:])
    ]


# -- catalog_systems --------------------------------------------------------

CATALOG_GROUPS = ("G(2,1,2)", "G4", "G5", "G6", "G7", "G(2,1,3)", "G(3,3,3)")


class CatalogSystems:
    """jacobian -> scaled_connection -> connection_in_z -> full_report ->
    render_json for each group, with the invariants given, not derived."""

    name = "catalog_systems"
    bypassed = ("invariants.",)
    bypassed_when_timed = ()
    unused = frozenset({"render.system_from_dict_s"})

    def __init__(self, rc, rng):
        self.rc = rc
        self.order = list(CATALOG_GROUPS)
        rng.shuffle(self.order)
        self.rng = rng
        self.renders: dict[str, str] = {}

    def setup(self):
        rc = self.rc
        state = []
        for name in self.order:
            spec = group_spec(rc, name)
            group = rc.groups.group_from_spec(spec)
            inv = rc.invariants.invariants_from_spec(spec, group)
            state.append((name, spec, group, inv))
        return state

    def check_setup(self, state):
        for name, _, group, _ in state:
            _check_group(name, group)

    def ops(self, state):
        return [self._op(*entry) for entry in state]

    def _op(self, name, spec, group, inv):
        rc = self.rc
        gens = numeric_generators(spec)

        def run():
            jd = rc.connection.jacobian(inv, det_char_order=group.det_char_order)
            sc = rc.connection.scaled_connection(jd, group=group)
            cs = rc.connection.connection_in_z(sc, inv)
            report = rc.verify.full_report(group, inv, jd, sc, cs)
            return report.all_passed, rc.render.render_json(cs, name, group.conductor)

        def check(out):
            passed, text = out
            if not passed:
                raise num.CheckFailed(f"{name}: full_report failed")
            first = self.renders.setdefault(name, text)
            if text != first:
                raise num.CheckFailed(f"{name}: two renders in one run differ")
            system = num.System(json.loads(text))
            num.check_integrability(system, self.rng)
            num.check_connection_in_x(system, self.rng)
            num.check_invariants(system.phis, gens, self.rng, points=1)
            degrees = [max(num.total_degrees(p)) for p in system.phis]
            num.check_shephard_todd(
                name, group.order, len(group.reflection_indices), degrees,
                num.jacobian_det_degree(system.phis, self.rng),
            )

        return Op(name, run, check)


# -- derive_invariants ------------------------------------------------------

DERIVE_GROUPS = ("G(2,1,2)", "G4", "G6", "G(2,1,3)", "G(3,3,3)")


class DeriveInvariants:
    """invariant_degrees and fundamental_invariants (Molien + Reynolds) on
    a validated group: the path of `--invariants reynolds`."""

    name = "derive_invariants"
    bypassed = ("connection.", "rewrite.", "verify.", "render.")
    bypassed_when_timed = ()
    unused = frozenset({"poly.exact_div_calls", "linalg.solve_unique_calls",
                        "linalg.solve_unique_max_cols"})

    def __init__(self, rc, rng):
        self.rc = rc
        self.order = list(DERIVE_GROUPS)
        rng.shuffle(self.order)
        self.rng = rng

    def setup(self):
        state = []
        for name in self.order:
            spec = group_spec(self.rc, name)
            state.append((name, spec, self.rc.groups.group_from_spec(spec)))
        return state

    def check_setup(self, state):
        for name, _, group in state:
            _check_group(name, group)

    def ops(self, state):
        return [self._op(*entry) for entry in state]

    def _op(self, name, spec, group):
        rc = self.rc
        gens = numeric_generators(spec)
        published = num.TABLE[name][1]

        def run():
            degrees = rc.invariants.invariant_degrees(group)
            inv = rc.invariants.fundamental_invariants(group)
            return tuple(degrees), tuple(inv.degrees), [str(p) for p in inv.phis]

        def check(out):
            degrees, inv_degrees, phis = out
            if degrees != published or tuple(sorted(inv_degrees)) != published:
                raise num.CheckFailed(f"{name}: degrees {degrees}, published {published}")
            if "mpn" in spec and degrees != num.gmpn_degrees(*spec["mpn"]):
                raise num.CheckFailed(f"{name}: degrees {degrees} break the G(m,p,n) form")
            polys = [num.parse(s, group.rank, group.conductor) for s in phis]
            for p, d in zip(polys, inv_degrees):
                if num.total_degrees(p) != {d}:
                    raise num.CheckFailed(f"{name}: invariant not homogeneous of degree {d}")
            num.check_invariants(polys, gens, self.rng)

        return Op(name, run, check)


# -- query_stream -----------------------------------------------------------

QUERY_GROUPS = ("G4", "G6", "G(2,1,3)")
DRAWS_PER_DEGREE = 2  # invariant queries per group and weighted degree
ARTIFACT_CHECKS = 3  # honest re-verifications per group, and as many flipped


def _coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


class QueryStream:
    """Small requests against systems built once in set-up: rewrite an
    invariant (must return the drawn g), rewrite a non-invariant (must
    raise NotInvariant), re-verify an artifact (must pass) and re-verify
    it with one flipped sign (must fail)."""

    name = "query_stream"
    bypassed = ("invariants.",)
    bypassed_when_timed = ("connection.",)
    unused = frozenset({"verify.equivariance_s", "verify.det_character_s",
                        "verify.cross_validate_s", "verify.invariance_s"})

    def __init__(self, rc, rng):
        self.rc = rc
        self.seed = rng.random()
        self.rng = rng

    def setup(self):
        rc = self.rc
        rng = random.Random(self.seed)  # every set-up builds the same inputs
        state = {"groups": [], "requests": []}
        for name in QUERY_GROUPS:
            spec = group_spec(rc, name)
            group = rc.groups.group_from_spec(spec)
            inv = rc.invariants.invariants_from_spec(spec, group)
            jd = rc.connection.jacobian(inv, det_char_order=group.det_char_order)
            sc = rc.connection.scaled_connection(jd, group=group)
            cs = rc.connection.connection_in_z(sc, inv)
            artifact = rc.render.render_json(cs, name, group.conductor)
            rewriter = rc.rewrite.Rewriter(inv)
            state["groups"].append((name, spec, group, inv, artifact))
            state["requests"] += self._requests(rng, name, spec, group, inv, artifact, rewriter)
        rng.shuffle(state["requests"])
        # fill each rewriter's product cache, so the timed requests run hot
        for kind, _, text, rewriter, *_ in state["requests"]:
            if kind == "invariant":
                rewriter.rewrite(rc.parsing.parse_expr(text, "x", rewriter.nvars, rewriter.conductor))
        return state

    def _requests(self, rng, name, spec, group, inv, artifact, rewriter):
        rc = self.rc
        n, cond = group.rank, group.conductor
        cyc = rc.cyclo.CycloNum
        top = max(inv.degrees)
        out = []
        invariant_polys = []
        for degree in range(2 * top, 4 * top + 1):
            exps = _exponents(degree, tuple(inv.degrees))
            if not exps:
                continue
            for _ in range(DRAWS_PER_DEGREE):
                g = {e: _coefficient(rng) for e in exps}
                gz = rc.poly.MPoly("z", n, cond, {e: cyc.from_rational(c, cond) for e, c in g.items()})
                f = gz.compose(list(inv.phis))
                invariant_polys.append(f)
                out.append(("invariant", name, str(f), rewriter, g))
        gens = numeric_generators(spec)
        # one non-invariant query at every other weighted degree, so that the
        # seed changes the values of the requests but not their sizes
        for f in invariant_polys[:: 2 * DRAWS_PER_DEGREE]:
            d = f.total_degree()
            while True:
                cut = sorted(rng.sample(range(d + n - 1), n - 1))
                exps = tuple(b - a - 1 for a, b in zip([-1] + cut, cut + [d + n - 1]))
                mono = rc.poly.MPoly("x", n, cond, {exps: cyc.from_rational(_coefficient(rng), cond)})
                text = str(f + mono)
                # a monomial such as (x1*x2*x3)^2 can itself be invariant:
                # confirm numerically that the query is not, else draw again
                if not num.is_invariant(num.parse(text, n, cond), gens, rng):
                    break
            out.append(("non_invariant", name, text, rewriter, None))
        data = json.loads(artifact)
        entries = [
            (ell, r, c)
            for ell, mat in enumerate(data["matrices"])
            for r, row in enumerate(mat)
            for c, e in enumerate(row)
            if e["num"] != "0"
        ]
        for ell, r, c in rng.sample(entries, ARTIFACT_CHECKS):
            flipped = copy.deepcopy(data)
            entry = flipped["matrices"][ell][r][c]
            entry["num"] = f"-({entry['num']})"
            out.append(("verify", name, artifact, None, True))
            out.append(("verify_flipped", name, json.dumps(flipped, indent=2), None, False))
        return out

    def check_setup(self, state):
        """Confirm every generated input numerically, apart from the program."""
        rng = self.rng
        info = {}
        for name, spec, group, inv, artifact in state["groups"]:
            _check_group(name, group)
            phis = [num.parse(s, group.rank, group.conductor) for s in spec["invariants"]]
            info[name] = (group, phis, numeric_generators(spec))
            num.check_integrability(num.System(json.loads(artifact)), rng)
        for kind, name, text, _, expect in state["requests"]:
            group, phis, gens = info[name]
            if kind == "invariant":
                f = num.parse(text, group.rank, group.conductor)
                x = num.random_point(rng, group.rank)
                z = tuple(num.evaluate(p, x)[0] for p in phis)
                fx, fb = num.evaluate(f, x)
                gz, gb = num.evaluate(expect, z)
                num.check_close(fx, gz, fb + gb, f"{name}: query string is not g(phi)")
            elif kind != "non_invariant":  # confirmed while it was drawn
                system = num.System(json.loads(text))
                try:
                    num.check_integrability(system, rng)
                    integrable = True
                except num.CheckFailed:
                    integrable = False
                if integrable != expect:
                    raise num.CheckFailed(f"{name}: artifact integrability is {integrable}")

    def ops(self, state):
        return [self._op(*request) for request in state["requests"]]

    def _op(self, kind, name, text, rewriter, expect):
        rc = self.rc
        if kind in ("invariant", "non_invariant"):
            def run():
                f = rc.parsing.parse_expr(text, "x", rewriter.nvars, rewriter.conductor)
                try:
                    return str(rewriter.rewrite(f))
                except rc.errors.NotInvariant:
                    return None

            def check(out):
                if kind == "non_invariant":
                    if out is not None:
                        raise num.CheckFailed(f"{name}: non-invariant query was rewritten")
                    return
                if out is None:
                    raise num.CheckFailed(f"{name}: invariant query was rejected")
                got = num.parse(out, rewriter.nvars, rewriter.conductor, "z", exact=True)
                if got != expect:
                    raise num.CheckFailed(f"{name}: rewrite returned {out[:80]}, not the drawn g")
        else:
            def run():
                cs = rc.render.system_from_dict(json.loads(text))
                return rc.verify.check_integrability(cs).all_passed

            def check(out):
                if out is not expect:
                    raise num.CheckFailed(f"{name}: {kind} gave all_passed={out}")

        return Op(f"{kind}:{name}", run, check)


WORKLOADS = {w.name: w for w in (CatalogSystems, DeriveInvariants, QueryStream)}
