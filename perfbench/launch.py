"""Run one ``starkladder`` command the way the console script does.

    python3 perfbench/launch.py MARKS TRACE INVOCATION [starkladder args...]

Imports ``starkladder.cli``, writes to the JSON file MARKS the
CLOCK_MONOTONIC time at which that import ended, and then calls
``starkladder.cli.main``.  With TRACE = 1 the layer functions and kernels
are wrapped first (see ``spans.py``) and the spans go to MARKS as well,
tagged with INVOCATION.  The exit code is the command's.
"""

import json
import sys
import time


def main() -> int:
    marks_path, trace, invocation, argv = (
        sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:])
    import starkladder.cli

    marks = {"imported": time.clock_gettime(time.CLOCK_MONOTONIC)}
    recorder = None
    if trace:
        import spans

        recorder = spans.install(invocation)
    try:
        return starkladder.cli.main(argv)
    finally:
        if recorder is not None:
            marks["spans"] = recorder.spans
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main())
