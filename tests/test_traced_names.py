"""The benchmark's tracer finds nlgap's functions by name; a renamed or
deleted one would only show as missing in a traced benchmark round.  This
reads perfbench/tracing.py from its file, without installing the tracer,
and resolves each name as Tracer.install does."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name: str) -> bool:
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"nlgap.{layer}")
    cls_name, _, method = attr.rpartition(".")
    if cls_name:  # a method must be defined on the class itself
        return callable(vars(getattr(module, cls_name, object)).get(method))
    return callable(getattr(module, attr, None))


def test_every_traced_name_resolves():
    names = load_tracing().traced_names()
    assert names
    assert [name for name in names if not resolves(name)] == []
