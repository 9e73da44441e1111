"""The benchmark tracer wraps qnbench functions by name, so each name it
lists must still exist: a rename fails here instead of at ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("qnbench_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for module_name, path, _, _ in _tracer_targets():
        home = importlib.import_module(f"qnbench.{module_name}")
        if "." in path:  # a method, patched on its class
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"tracer targets without a qnbench attribute: {missing}"
