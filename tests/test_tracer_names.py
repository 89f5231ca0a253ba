"""Every name the benchmark tracer wraps still exists.

perfbench/tracing.py looks each entry of LAYERS up by module and attribute
and reports a missing one as a fault, but only after a traced benchmark
run.  This reads the same table and fails at once.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for modname, names in _layers().values():
        module = importlib.import_module(modname)
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = vars(module).get(owner_name) if owner_name else module
            if owner is None or attr not in vars(owner):
                missing.append(f"{modname}.{dotted}")
    assert missing == []
