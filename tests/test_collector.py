"""The CLI freezes the import heap; the library leaves the collector alone.

Each check runs in a fresh interpreter, so neither pytest's own collector
settings nor an earlier test's ``main`` call can mask the result.
"""

import os
import subprocess
import sys
from pathlib import Path

import starkladder

CHECK = """
import gc, io, contextlib
import starkladder
print(gc.get_freeze_count(), gc.isenabled())
import starkladder.cli
print(gc.get_freeze_count(), gc.isenabled())
with contextlib.redirect_stdout(io.StringIO()):
    assert starkladder.cli.main(["list"]) == 0
print(gc.get_freeze_count(), gc.isenabled())
"""


def test_only_main_freezes_the_import_heap():
    src = str(Path(starkladder.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], capture_output=True, text=True, env=env, check=True
    )
    package, cli, after_main = [line.split() for line in proc.stdout.splitlines()]
    assert package == cli == ["0", "True"]
    assert int(after_main[0]) > 0 and after_main[1] == "True"
