"""The benchmark tracer binds functions by name; they must keep resolving.

``perfbench/spans.py`` wraps each ``(module, function)`` of its ``TARGETS``
through ``sys.modules`` right after ``import starkladder.cli``.  The check
runs in a fresh interpreter, so modules imported by other tests cannot mask
a removed function or a module that is no longer imported eagerly.
"""

import os
import subprocess
import sys
from pathlib import Path

import starkladder

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CHECK = """
import importlib.util, sys
import starkladder.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
for module, func, _ in spans.TARGETS:
    if not callable(getattr(sys.modules.get(module), func, None)):
        print(f"{module}.{func}")
"""


def test_every_traced_function_resolves():
    src = str(Path(starkladder.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, str(SPANS)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == [], f"tracer targets no longer resolve: {proc.stdout}"
