"""The package's public surface: what ``from dvokit import *`` exports,
and the README's code and config names."""

import importlib
import re
from pathlib import Path

import numpy as np

import dvokit
from dvokit.config import _DEFAULTS, _section_fields, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_dotted_names_exist():
    # A backticked `section.name` names a key of a config section or an
    # attribute of a dvokit module; a prefix that is neither (a removed
    # section, say) is stale too.
    sections = set(_DEFAULTS)
    checked, stale = 0, []
    for section, name in re.findall(r"`([a-z_]+)\.([A-Za-z_]\w*)`", README.read_text()):
        try:
            module = importlib.import_module(f"dvokit.{section}")
        except ModuleNotFoundError:
            module = None
        checked += 1
        is_key = section in sections and name in _section_fields(section)
        if not (is_key or hasattr(module, name)):
            stale.append(f"{section}.{name}")
    assert checked > 10
    assert stale == []


def test_readme_config_block_parses():
    # Fenced blocks with no info string hold `section.key = value` lines.
    fenced = README.read_text().split("```")[1::2]
    blocks = [body[1:] for body in fenced if body.startswith("\n")]
    assert blocks
    for block in blocks:
        parse_config(block)


def test_readme_bench_files_exist():
    # Every paired-run file the README cites sits at the repo root.
    named = set(re.findall(r"BENCH_\d+\.json", README.read_text()))
    assert named
    assert sorted(n for n in named if not (README.parent / n).is_file()) == []
