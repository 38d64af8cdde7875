"""The library names the benchmark's traced run looks up must exist.

``perfbench/spans.py`` resolves every ``(module, attribute)`` of its
``INNER`` table with ``getattr`` and wraps it with ``setattr``, so a name
removed from the library fails every traced benchmark op. This test loads
that file by path (it is not a package) and checks the names here instead.
"""

import importlib.util
import sys
from pathlib import Path

import torusarr  # noqa: F401  (the tracer reads the package's modules from sys.modules)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_inner_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.INNER
    for mod_name, attr, _layer in spans.INNER:
        assert mod_name in sys.modules, mod_name
        assert hasattr(sys.modules[mod_name], attr), f"{mod_name}.{attr}"
