"""The benchmark's tracer wraps orecalc functions by name
(`perfbench/tracer.py`, `TARGETS`); each of those names must still resolve,
so deleting or renaming a traced function fails here first."""
import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def _targets():
    # loading the module only defines TARGETS; nothing is wrapped
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_function_resolves():
    missing = []
    for name, module, qualname, _, _ in _targets():
        obj = importlib.import_module("orecalc." + module)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((name, "orecalc.%s.%s" % (module, qualname)))
    assert missing == []
