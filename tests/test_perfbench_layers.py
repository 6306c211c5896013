"""The benchmark's layer attribution must name entry points that exist.

``perfbench/layers.py`` wraps each ``(module, attribute path, layer)``
in ``ENTRY_POINTS`` with a timer for traced runs.  A renamed or moved
entry point would only crash ``perfbench/run.py --trace 1``; resolving
every path here (read-only, nothing is patched) catches it in tier 1.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize(
    "module_name, path, layer",
    LAYERS.ENTRY_POINTS,
    ids=[layer for _, _, layer in LAYERS.ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, path, layer):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    static = inspect.getattr_static(owner, attr)
    target = static.__func__ if isinstance(static, classmethod) else static
    assert inspect.isfunction(target), f"{module_name}.{path} is not a function"


def test_timed_layers_have_entry_points():
    layers = {layer for _, _, layer in LAYERS.ENTRY_POINTS}
    for workload, timed in LAYERS.TIMED.items():
        assert set(timed) <= layers, workload
