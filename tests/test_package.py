"""The package's public surface: what ``from dvokit import *`` exports."""

from pathlib import Path

import numpy as np

import dvokit


def test_star_import_resolves_every_exported_name():
    namespace = {}
    # A stale entry in __all__ fails here, at the star-import.
    exec("from dvokit import *", namespace)
    assert len(dvokit.__all__) == len(set(dvokit.__all__))
    assert [name for name in dvokit.__all__ if name not in namespace] == []


def test_readme_library_example_runs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert np.allclose(namespace["result"].pose.t, [0.03, 0.0, 0.0], atol=3e-3)
    grad = namespace["grad_depth"]
    assert grad.shape == namespace["depth"].values.shape
    assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
