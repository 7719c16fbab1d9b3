"""The traced bench pass wraps suspkit functions by name; a name it lists
must exist, or `layer_trace.Tracer.install()` fails at bench time."""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _layers():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import layer_trace
    finally:
        sys.path.remove(str(BENCH_DIR))
    return layer_trace.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for _, targets in _layers():
        for module_name, qualname, _ in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                # install() patches the class's own attribute.
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                found = cls is not None and attr in vars(cls)
            else:
                found = callable(getattr(module, qualname, None))
            if not found:
                missing.append(f"{module_name}.{qualname}")
    assert missing == []
