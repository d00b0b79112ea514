"""Every function the benchmark times by name exists where the name says.

The traced benchmark (``bench/tracing.py``) wraps public functions by module
and name and reports the per-layer metrics listed in ``BENCHMARK.json``; a
metric ``<layer>.<fn>.busy_s`` whose function is gone, renamed or only
re-exported from another module makes a traced run fail.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_timed_functions_are_defined_in_their_modules():
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    timed = [name.rsplit(".", 1)[0] for name in names if name.endswith(".busy_s")]
    assert len(timed) == 30
    for qualified in timed:
        layer, fn = qualified.split(".")
        module = importlib.import_module(f"floorcomm.{layer}")
        obj = getattr(module, fn, None)
        assert inspect.isfunction(obj), qualified
        assert obj.__module__ == module.__name__, qualified
