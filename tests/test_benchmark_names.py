"""The benchmark's tracer wraps library functions by module attribute name;
every name it looks up must still exist."""

import importlib.util
from pathlib import Path

import feqbf

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.WRAPPED
        if not hasattr(getattr(feqbf, module, None), attr)
    ]
    assert tracer.WRAPPED and missing == []
