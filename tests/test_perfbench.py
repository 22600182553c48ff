"""The benchmark must keep running on the library.

``perfbench/workloads.py`` wraps each ``(module, attribute)`` of its
``TRACE_POINTS`` in a span, and drives the library through its public
calls.  A renamed or removed library function, or a changed signature,
would otherwise surface only when the benchmark itself runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


PERFBENCH = WORKLOADS.parent
WORKLOAD_NAMES = ("train-ddvo", "train-dvo-em", "train-pose-param", "odometry-160")


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py``, its workloads and ``smoke.TINY_STEPS``, imported
    the way ``python3 perfbench/run.py`` imports them; the import path
    and module table are restored afterwards."""
    names = ("run", "spans", "workloads", "smoke")
    saved = {name: sys.modules.pop(name, None) for name in names}
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        run = importlib.import_module("run")
        smoke = importlib.import_module("smoke")
        yield run, run.load_library(), smoke.TINY_STEPS
    for name in names:
        sys.modules.pop(name, None)
        if saved[name] is not None:
            sys.modules[name] = saved[name]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_workload_passes_its_gate(bench, name):
    # The traced run applies the benchmark's correctness gate, its
    # ZERO_CALLS check and, on odometry-160, its pose-quality bounds.
    run, workloads, tiny_steps = bench
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)
    result, report, _ = run.measure(workloads, 0.0, name, 3, 0, True, tiny_steps[name])
    assert result["correct"], report["problems"]
