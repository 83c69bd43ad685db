"""Print, as one JSON object, what a result must record to be compared.

Runs in the same interpreter and environment as the measured commands, so
the BLAS thread variables it reports are the pinned ones.  Importing
``starkladder.cli`` here also checks that the package is present.
"""

import json
import os
import platform

import starkladder.cli  # noqa: F401
import numpy
import scipy


def _blas(config: dict) -> dict:
    blas = config["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": _blas(numpy.show_config(mode="dicts")),
    "scipy_blas": _blas(scipy.show_config(mode="dicts")),
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_model": _cpu_model(),
}))
