"""Every name the benchmark's tracer wraps still exists where it looks.

`perfbench/tracer.py` replaces `owner.__dict__[attr]` for each entry of
its TIMING and LAYERS tables. A renamed or moved function fails only a
traced benchmark run, so this test reads the tables and checks each name.
"""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    entries = tracer.TIMING + tracer.LAYERS
    assert len(entries) >= 20
    missing = ["%s.%s" % (owner.__name__, attr)
               for owner, attr, _ in entries
               if not callable(owner.__dict__.get(attr))]
    assert missing == []
