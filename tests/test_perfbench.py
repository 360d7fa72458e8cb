"""The benchmark's traced pass can still find every function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_lookup_site_resolves(name):
    modules, _ = TARGETS[name]
    home, attr = name.rsplit(".", 1)
    assert hasattr(modules[0], attr), f"{modules[0].__name__} no longer has {attr}"
    assert getattr(modules[0], attr) is getattr(importlib.import_module(f"minbal.{home}"), attr)
