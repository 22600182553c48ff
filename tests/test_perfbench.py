"""The library names the benchmark's traced mode rebinds must exist.

``perfbench/workloads.py`` wraps each ``(module, attribute)`` of its
``TRACE_POINTS`` in a span.  A renamed or removed library function
would otherwise surface only when the benchmark itself runs.
"""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_trace_points_resolve_to_callables(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    missing = [f"{module.__name__}.{attribute}"
               for module, attribute, _ in workloads.TRACE_POINTS
               if not callable(getattr(module, attribute, None))]
    assert workloads.TRACE_POINTS and missing == []
