#!/usr/bin/env python3
"""Benchmark of the reflconn pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog_systems --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # self-test, then every workload
    python3 perfbench/run.py --self-test     # show that the output checks can fail

Run from the root of a checkout; the program is imported from ./src.
One workload runs in this process, from one single-threaded client in a
closed loop: set-up (repeated SETUP_REPEATS times, median reported), then
whole passes over the set-up's fixed operation list until at least
--seconds of program time has been measured (and at least MIN_PASSES
passes).  Times are scaled to a reference machine speed (see Clock).
Each operation's output is checked apart from the program (numeric.py);
the checks are not timed.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
Results and traces are also written to perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
SETUP_REPEATS = 3
MIN_PASSES = 2
MODULES = ("cyclo", "poly", "linalg", "parsing", "groups", "invariants",
           "connection", "rewrite", "verify", "render", "errors")

sys.dont_write_bytecode = True  # leave the checkout as it is
sys.path.insert(0, str(HERE))
import numeric as num  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, gmpn_spec  # noqa: E402

# The speed of the machine this benchmark was built on drifts by up to 2x
# within minutes, and in bursts of seconds, for identical work (other
# tenants).  Every timed span is therefore scaled by the speed of a fixed
# pure-Python probe (sparse Fraction polynomial products, the same kind of
# work as the program's hot path, but no reflconn code), run just before
# and just after the span and, from a timer signal, every
# SAMPLE_INTERVAL_S inside it:
#     scaled = raw * PROBE_REFERENCE_S / mean(probe times)
# The handler's own time is taken off the raw time.  A change to the
# program moves the raw time and not the probe, so it shows in full; a
# change of machine speed moves both and cancels.
_rng = random.Random(0)
_PROBE_A = {(i, j): Fraction(_rng.randint(-50, 50), _rng.randint(1, 6)) for i in range(6) for j in range(4)}
_PROBE_B = {(i, j): Fraction(_rng.randint(-50, 50), _rng.randint(1, 6)) for i in range(4) for j in range(4)}
PROBE_REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05


def probe_once() -> float:
    t0 = time.perf_counter()
    out = {}
    for e1, c1 in _PROBE_A.items():
        for e2, c2 in _PROBE_B.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - t0


def probe() -> float:
    return statistics.median(probe_once() for _ in range(3))


class Clock:
    """Times calls, raw and scaled to the reference probe speed."""

    def __init__(self, sample=True):
        """With sample=False (traced runs, whose spans the signal would
        lengthen) only the probes before and after each call are made."""
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.edge = probe()
        self.edges = [self.edge]
        if sample:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe_once())
        self.handler_s += time.perf_counter() - t0

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def call(self, fn):
        """(result or exception, raw seconds, scaled seconds, cpu seconds)."""
        first, spent = len(self.samples), self.handler_s
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed operation by the caller
            out = exc
        handler = self.handler_s - spent
        raw = time.perf_counter() - t0 - handler
        cpu = time.process_time() - c0 - handler
        inside = self.samples[first:]
        after = probe()
        speed = statistics.mean([self.edge, after] + inside)
        self.edge = after
        self.edges.append(after)
        return out, raw, raw * PROBE_REFERENCE_S / speed, cpu


def load_program():
    """Import reflconn and its modules from ./src."""
    sys.path.insert(0, str(SRC))
    import importlib

    rc = importlib.import_module("reflconn")
    for m in MODULES:
        importlib.import_module(f"reflconn.{m}")
    if Path(rc.__file__).resolve().parent != (SRC / "reflconn").resolve():
        sys.exit(f"error: imported reflconn from {rc.__file__}, not from {SRC}")
    return rc


def trace_faults(wl, setup_phase, timed_phase, combined):
    """Expectations of the layer map in README.md that a trace breaks."""
    faults = []
    for metric, value in tracing.read_metrics(combined).items():
        if any(metric.startswith(p) for p in wl.bypassed):
            if value:
                faults.append(f"{metric} = {value}, but {wl.name} bypasses it")
        elif metric not in wl.unused and not value:
            faults.append(f"{metric} never hit on {wl.name}, which uses it")
    for metric, value in tracing.read_metrics(timed_phase).items():
        if any(metric.startswith(p) for p in wl.bypassed_when_timed) and value:
            faults.append(f"{metric} = {value} in the timed phase of {wl.name}")
    return faults


def run_workload(name, seed, seconds, trace):
    clock = Clock(sample=not trace)
    rc, import_raw, import_s, _ = clock.call(load_program)
    if isinstance(rc, Exception):
        raise rc
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    rng = random.Random(seed)
    wl = WORKLOADS[name](rc, rng)
    setups, setups_raw = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        state, raw, scaled, _ = clock.call(wl.setup)
        if isinstance(state, Exception):
            raise state
        setups.append(scaled)
        setups_raw.append(raw)
    wrong, failures = [], []
    try:
        wl.check_setup(state)
    except num.CheckFailed as exc:
        wrong.append(f"set-up: {exc}")
    ops = wl.ops(state)
    after_setup = tracer.c.copy() if tracer else None

    wall = scaled_total = cpu = 0.0
    attempted = failed = passes = 0
    durations = [[] for _ in ops]
    while passes < MIN_PASSES or scaled_total < seconds:
        for op, times in zip(ops, durations):
            attempted += 1
            out, raw, scaled, op_cpu = clock.call(op.run)
            cpu += op_cpu
            times.append(scaled)
            wall += raw
            scaled_total += scaled
            if isinstance(out, Exception):
                failed += 1
                failures.append(f"{op.label}: {type(out).__name__}: {out}")
                continue
            try:
                op.check(out)
            except num.CheckFailed as exc:
                wrong.append(f"{op.label}: wrong output: {exc}")
        passes += 1

    clock.stop()
    done = attempted - failed
    # Bursts of slowness last seconds, so the rate is taken over a median
    # pass: each operation's median scaled time across the passes, summed.
    probes = clock.edges + clock.samples
    op_medians = [statistics.median(t) for t in durations]
    median_pass_s = sum(op_medians)
    ops_per_s = done / passes / median_pass_s
    setup_s = import_s + statistics.median(setups)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": passes, "ops_per_pass": len(ops), "attempted": attempted,
        "failed": failed, "ops_per_s": ops_per_s, "median_pass_scaled_s": median_pass_s,
        "setup_s": setup_s, "setup_repeats_scaled_s": setups,
        "op_median_scaled_s": [[op.label, t] for op, t in zip(ops, op_medians)],
        "raw": {"ops_per_s_over_all_passes": done / wall, "program_wall_s": wall,
                "program_cpu_s": cpu, "import_s": import_raw, "setup_repeats_s": setups_raw},
        "probe_s": {"reference": PROBE_REFERENCE_S, "median": statistics.median(probes),
                    "min": min(probes), "max": max(probes)},
        "wrong": wrong[:50], "failures": failures[:50],
    }
    if tracer:
        setup_phase = after_setup.minus(tracing.Counters())
        timed_phase = tracer.c.minus(after_setup, divisor=passes)
        combined = tracing.combine(setup_phase, timed_phase)
        faults = trace_faults(wl, setup_phase, timed_phase, combined) + [
            f"{k}: not found in reflconn, so not traced" for k in tracer.missing
        ]
        metrics = {
            k: {"value": v, "unit": tracing.metric_unit(k)}
            for k, v in tracing.read_metrics(combined).items()
        }
        record.update(
            faults=faults,
            metrics_setup=tracing.read_metrics(setup_phase),
            metrics_timed_per_pass=tracing.read_metrics(timed_phase),
            layer_self_s={"setup": setup_phase["self_s"], "timed_per_pass": timed_phase["self_s"]},
            calls={"setup": setup_phase["calls"], "timed_per_pass": timed_phase["calls"]},
        )
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    kind = "trace" if trace else "result"
    (OUT / f"{kind}-{name}-seed{seed}.json").write_text(json.dumps(record, indent=2) + "\n")

    faults = record.get("faults", [])
    for line in (wrong + failures)[:20] + faults:
        print(line, file=sys.stderr)
    print(f"{name} seed {seed}: {done} of {attempted} operations in {passes} passes, "
          f"{wall:.3f} s wall ({scaled_total:.3f} s scaled) and {cpu:.3f} s cpu in the program")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    correct = not wrong and not faults
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """Honest outputs pass the checks; outputs with one defect fail them."""
    rc = load_program()
    rng = random.Random(0)
    bad = []
    for spec in (rc.invariants.load_catalog_spec("G4"), gmpn_spec(3, 3, 3)):
        name = spec["name"]
        group = rc.groups.group_from_spec(spec)
        inv = rc.invariants.invariants_from_spec(spec, group)
        cs = rc.connection.build_system(group, inv)
        data = json.loads(rc.render.render_json(cs, name, group.conductor))
        honest = num.System(data)
        gens = [num.matrix_from_strings(g, spec["conductor"]) for g in spec["generators"]]
        num.check_integrability(honest, rng)
        num.check_connection_in_x(honest, rng)
        num.check_invariants(honest.phis, gens, rng)
        checks = {"integrability": num.check_integrability, "A J = delta(J)": num.check_connection_in_x}
        flips = 0
        for ell, mat in enumerate(data["matrices"]):
            for r, row in enumerate(mat):
                for c, entry in enumerate(row):
                    if entry["num"] == "0":
                        continue
                    flipped = json.loads(json.dumps(data))
                    flipped["matrices"][ell][r][c]["num"] = f"-({entry['num']})"
                    system = num.System(flipped)
                    for what, check in checks.items():
                        try:
                            check(system, rng)
                            bad.append(f"{name}: {what} accepted A_{ell + 1}({r + 1},{c + 1}) flipped")
                        except num.CheckFailed:
                            flips += 1
        perturbed = 0
        for k, phi in enumerate(honest.phis):
            if len(phi) < 2:
                continue  # a multiple of an invariant monomial is still invariant
            for exps in phi:
                phis = [dict(p) for p in honest.phis]
                phis[k][exps] = phis[k][exps] + Fraction(1, 7)
                try:
                    num.check_invariants(phis, gens, rng, points=1)
                    bad.append(f"{name}: invariant {k + 1} with coefficient {exps} perturbed accepted")
                except num.CheckFailed:
                    perturbed += 1
        print(f"self-test {name}: {flips} flipped-sign rejections, "
              f"{perturbed} perturbed-coefficient rejections")
    try:
        num.check_shephard_todd("G4", 24, 8, [4, 8], 8)
        bad.append("G4: wrong degrees accepted")
    except num.CheckFailed:
        pass
    for b in bad:
        print(b, file=sys.stderr)
    print("self-test " + ("passed" if not bad else "FAILED"))
    return 0 if not bad else 1


def run_all(seed, seconds):
    """Self-test, then each workload in its own process, untraced."""
    status = subprocess.run([sys.executable, __file__, "--self-test"], cwd=ROOT).returncode
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"{name}: exited with {proc.returncode} and no result")
            status = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, m in result["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
        status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "reflconn" / "__init__.py").is_file():
        print(f"error: no reflconn sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
