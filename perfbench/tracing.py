"""Per-layer tracing of reflconn, installed from outside the package.

Every public function and method of each module in src/reflconn is
replaced, in every reflconn module namespace that holds it, by a wrapper
that counts the call and records a span on a stack.  A layer's self time
is the time spent inside its spans minus the time spent in child spans;
the inclusive time of a name counts only its outermost calls, so
recursion (Laplace det, MPoly powers) is not counted twice.
"""

from __future__ import annotations

import sys
import time

# Layer -> (module, names).  A name "Class.method" wraps a method; names
# listed here that a module lacks are skipped, so the metric reads zero
# and the expectations in workloads.py report it.
LAYERS = {
    "cyclo": ("reflconn.cyclo", (
        "CycloNum.__add__", "CycloNum.__sub__", "CycloNum.__rsub__", "CycloNum.__neg__",
        "CycloNum.__mul__", "CycloNum.inverse", "CycloNum.__truediv__",
        "CycloNum.__rtruediv__", "CycloNum.__pow__", "CycloNum.multiplicative_order",
        "CycloNum.zeta", "CycloNum.from_poly_coeffs",
    )),
    "poly": ("reflconn.poly", (
        "MPoly.__add__", "MPoly.__sub__", "MPoly.__rsub__", "MPoly.__neg__", "MPoly.__mul__",
        "MPoly.__pow__", "MPoly.__eq__", "MPoly.exact_div", "MPoly.divides", "MPoly.partial",
        "MPoly.compose", "MPoly.substitute_linear", "RatFun.__init__", "RatFun.__eq__",
        "RatFun.__add__", "RatFun.__sub__", "RatFun.__mul__", "RatFun.__neg__",
        "RatFun.reciprocal", "RatFun.compose", "RatFun.reduced", "cyclotomic_polynomial",
        "require_homogeneous",
    )),
    "linalg": ("reflconn.linalg", (
        "mat_mul", "mat_sub", "identity_matrix", "det", "adjugate", "mat_inverse",
        "row_echelon", "mat_rank", "solve_unique",
    )),
    "parsing": ("reflconn.parsing", ("parse_expr", "parse_scalar")),
    "groups": ("reflconn.groups", (
        "close_group", "is_reflection_matrix", "is_reflection", "validate_reflection_group",
        "parse_matrix", "group_from_spec",
    )),
    "invariants": ("reflconn.invariants", (
        "reynolds", "is_invariant", "molien_series", "invariant_degrees",
        "fundamental_invariants",
    )),
    "connection": ("reflconn.connection", (
        "jacobian", "scaled_connection", "connection_in_z", "connection_in_x",
        "build_system", "delta_apply",
    )),
    "rewrite": ("reflconn.rewrite", ("Rewriter.rewrite", "Rewriter.product", "exponent_set")),
    "verify": ("reflconn.verify", (
        "check_invariance", "check_equivariance", "check_determinant_character",
        "check_integrability", "cross_validate", "full_report",
    )),
    "render": ("reflconn.render", (
        "render_text", "render_latex", "render_json", "system_to_dict", "system_from_dict",
        "readable_poly", "readable_ratfun", "to_readable_basis",
    )),
}

# Per-layer metric -> how it is read from the counters.
# ("calls", name) | ("incl", name) | ("self", layer) | ("extra", key)
METRICS = {
    "cyclo.mul_calls": ("calls", "cyclo:CycloNum.__mul__"),
    "cyclo.inverse_calls": ("calls", "cyclo:CycloNum.inverse"),
    "cyclo.self_s": ("self", "cyclo"),
    "poly.mul_calls": ("calls", "poly:MPoly.__mul__"),
    "poly.substitute_linear_calls": ("calls", "poly:MPoly.substitute_linear"),
    "poly.compose_calls": ("calls", "poly:MPoly.compose"),
    "poly.exact_div_calls": ("calls", "poly:MPoly.exact_div"),
    "poly.self_s": ("self", "poly"),
    "linalg.det_calls": ("calls", "linalg:det"),
    "linalg.adjugate_calls": ("calls", "linalg:adjugate"),
    "linalg.row_echelon_calls": ("calls", "linalg:row_echelon"),
    "linalg.solve_unique_calls": ("calls", "linalg:solve_unique"),
    "linalg.solve_unique_max_cols": ("extra", "solve_unique_max_cols"),
    "linalg.self_s": ("self", "linalg"),
    "parsing.parse_expr_calls": ("calls", "parsing:parse_expr"),
    "parsing.self_s": ("self", "parsing"),
    "groups.close_group_s": ("incl", "groups:close_group"),
    "groups.validate_s": ("incl", "groups:validate_reflection_group"),
    "groups.elements": ("extra", "elements"),
    "invariants.invariant_degrees_s": ("incl", "invariants:invariant_degrees"),
    "invariants.fundamental_invariants_s": ("incl", "invariants:fundamental_invariants"),
    "invariants.reynolds_calls": ("calls", "invariants:reynolds"),
    "connection.jacobian_s": ("incl", "connection:jacobian"),
    "connection.scaled_connection_s": ("incl", "connection:scaled_connection"),
    "connection.connection_in_z_s": ("incl", "connection:connection_in_z"),
    "rewrite.rewrite_calls": ("calls", "rewrite:Rewriter.rewrite"),
    "rewrite.self_s": ("self", "rewrite"),
    "rewrite.product_hit_ratio": ("extra", "product_hit_ratio"),
    "verify.equivariance_s": ("incl", "verify:check_equivariance"),
    "verify.det_character_s": ("incl", "verify:check_determinant_character"),
    "verify.integrability_s": ("incl", "verify:check_integrability"),
    "verify.cross_validate_s": ("incl", "verify:cross_validate"),
    "verify.invariance_s": ("incl", "verify:check_invariance"),
    "render.render_json_s": ("incl", "render:render_json"),
    "render.system_from_dict_s": ("incl", "render:system_from_dict"),
}

UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio"}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Counters:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.extra = {"elements": 0, "solve_unique_max_cols": 0,
                      "product_hits": 0, "product_lookups": 0}

    def copy(self) -> "Counters":
        c = Counters()
        c.calls = dict(self.calls)
        c.incl = dict(self.incl)
        c.self_s = dict(self.self_s)
        c.extra = dict(self.extra)
        return c

    def minus(self, other: "Counters", divisor: int = 1) -> dict:
        """(self - other) / divisor as plain dicts.

        solve_unique_max_cols is a running maximum, so it is taken as is.
        """
        def diff(a, b):
            return {k: (a.get(k, 0) - b.get(k, 0)) / divisor for k in set(a) | set(b)}
        extra = diff(self.extra, other.extra)
        extra["solve_unique_max_cols"] = self.extra["solve_unique_max_cols"]
        return {"calls": diff(self.calls, other.calls), "incl": diff(self.incl, other.incl),
                "self_s": diff(self.self_s, other.self_s), "extra": extra}


class Tracer:
    """Installs the wrappers; counters accumulate until the process ends."""

    def __init__(self):
        self.c = Counters()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "reflconn" or k.startswith("reflconn.")]
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[modname]
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(f"{layer}:{dotted}")
                    continue
                key = f"{layer}:{dotted}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer, key))
                else:
                    wrapped = self._wrap(raw, layer, key)
                if owner_name:
                    # aliases such as __rmul__ = __mul__ share the function
                    for alias, value in list(vars(owner).items()):
                        if value is raw:
                            setattr(owner, alias, wrapped)
                else:
                    for m in modules:
                        for alias, value in list(vars(m).items()):
                            if value is raw:
                                setattr(m, alias, wrapped)

    def _wrap(self, fn, layer, key):
        stack = self._stack
        depth = self._depth
        depth[key] = 0
        perf = time.perf_counter
        c = self.c
        before = {
            "rewrite:Rewriter.product": self._note_product,
            "linalg:solve_unique": self._note_solve,
        }.get(key)
        count_elements = key == "groups:close_group"

        def wrapper(*args, **kwargs):
            if before:
                before(args)
            depth[key] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                c.self_s[layer] += dur - child
                c.calls[key] = c.calls.get(key, 0) + 1
                depth[key] -= 1
                if not depth[key]:
                    c.incl[key] = c.incl.get(key, 0.0) + dur
            if count_elements:
                c.extra["elements"] += len(result.elements)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _note_product(self, args):
        rewriter, exps = args[0], args[1]
        self.c.extra["product_lookups"] += 1
        if exps in getattr(rewriter, "_products", ()):
            self.c.extra["product_hits"] += 1

    def _note_solve(self, args):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        if cols > self.c.extra["solve_unique_max_cols"]:
            self.c.extra["solve_unique_max_cols"] = cols


def combine(a: dict, b: dict) -> dict:
    """Sum of two phases (max for the max-type extra)."""
    out = {}
    for part in ("calls", "incl", "self_s", "extra"):
        x, y = a[part], b[part]
        out[part] = {k: x.get(k, 0) + y.get(k, 0) for k in set(x) | set(y)}
    key = "solve_unique_max_cols"
    out["extra"][key] = max(a["extra"][key], b["extra"][key])
    return out


def read_metrics(phase: dict) -> dict:
    """Per-layer metric values from a counters dict made by Counters.minus."""
    out = {}
    for name, (kind, key) in METRICS.items():
        if kind == "calls":
            calls = phase["calls"].get(key, 0)
            out[name] = int(calls) if float(calls).is_integer() else calls
        elif kind == "incl":
            out[name] = phase["incl"].get(key, 0.0)
        elif kind == "self":
            out[name] = phase["self_s"].get(key, 0.0)
        elif key == "product_hit_ratio":
            lookups = phase["extra"]["product_lookups"]
            out[name] = phase["extra"]["product_hits"] / lookups if lookups else 0.0
        else:
            out[name] = phase["extra"][key]
    return out
