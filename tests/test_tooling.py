"""The benchmark tracer's layer names must name functions of the package.

`perfbench/tracer.py` wraps each name in `LAYERS` by looking it up at
install time, so a renamed or deleted function would only fail once a
traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert "bitops.gf2_rank_fast" in tracer.LAYERS
    for layer in tracer.LAYERS:
        mod_name, fn_name = layer.split(".")
        fn = getattr(importlib.import_module(f"hypermagic.{mod_name}"), fn_name, None)
        assert callable(fn), f"{layer} names no function of the package"
