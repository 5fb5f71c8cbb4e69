"""Every function the benchmark's tracer wraps still exists under its dotted name."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("target", [t for _, targets, _ in spans.LAYERS for t in targets])
def test_layer_target_resolves(target):
    assert spans._resolve(target) is not None, f"{target} is gone; its layer would read 0"
