"""Outside-in span recorder for one ``starkladder`` process.

``install()`` wraps the public functions of each layer, and the numpy/scipy
kernels they call, at every module attribute that binds them: the runners
import most of them by name, so patching the defining module alone would
miss those calls.  Spans stay in memory as
``[name, start, end, parent, invocation, attrs]`` rows (CLOCK_MONOTONIC
seconds, ``parent`` the index of the enclosing span or -1) and are written
once, when the process ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _matrix_attrs(args, kwargs, result):
    a = np.ascontiguousarray(args[0] if args else kwargs["a"])
    return {"n": int(a.shape[0]), "sha": hashlib.blake2b(a.view(np.uint8)).hexdigest()}


def _dim_attrs(args, kwargs, result):
    return {"dim": int(result.dim)}


def _ladder_attrs(args, kwargs, result):
    devs = [f.max_spacing_deviation for f in result.families]
    return {"max_spacing_deviation": max(devs)} if devs else {}


def _evolve_attrs(args, kwargs, result):
    return {"fallback": result.method != "spectral"}


# (defining module, function, attrs hook).  The span name is
# "<layer>.<function>" with the layer taken from the module name.
TARGETS = (
    ("starkladder.lattices", "build_chain", _dim_attrs),
    ("starkladder.lattices", "build_pair_lattice", _dim_attrs),
    ("starkladder.spectra", "eigendecompose", None),
    ("starkladder.spectra", "detect_ladders", _ladder_attrs),
    ("starkladder.spectra", "select_reference_state", None),
    ("starkladder.spectra", "scan_E0_vs_omega", None),
    ("starkladder.dynamics", "evolve", _evolve_attrs),
    ("starkladder.dynamics", "family_projection", None),
    ("starkladder.dynamics", "fidelity", None),
    ("starkladder.pairmap", "oracle_pair_hamiltonian", None),
    ("starkladder.pairmap", "sector_decompose", None),
    ("starkladder.pairmap", "lift_1d_evolution", None),
    ("starkladder.pairmap", "sector_reassembled_distance", None),
    ("starkladder.experiments", "run", None),
    ("scipy.linalg", "eig", _matrix_attrs),
    ("numpy.linalg", "eigvals", None),
    ("numpy.linalg", "cond", None),
    ("numpy.linalg", "solve", None),
    ("scipy.optimize", "linear_sum_assignment", None),
)


class Recorder:
    """In-memory span list with a stack of open spans (single thread)."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []
        self._open: list = []

    def _span(self, name: str) -> list:
        span = [name, now(), None, self._open[-1] if self._open else -1,
                self.invocation, {}]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = now()
        self._open.pop()

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                # Hashing a 1600x1600 matrix takes tens of ms; give it a span
                # of its own so it is not billed to the caller's self time.
                extra = self._span("trace.attrs")
                try:
                    span[5] = attrs(args, kwargs, result)
                finally:
                    self._close(extra)
            return result

        return wrapper


def install(invocation: str) -> Recorder:
    """Wrap every target at each module attribute that binds it."""
    recorder = Recorder(invocation)
    bound_in = [m for name, m in sys.modules.items()
                if name == "starkladder" or name.startswith("starkladder.")]
    for module_name, func, attrs in TARGETS:
        module = sys.modules[module_name]
        original = getattr(module, func)
        layer = module_name.split(".")[1] if module_name.startswith("starkladder.") else "kernel"
        wrapper = recorder.wrap(f"{layer}.{func}", original, attrs)
        for mod in (module, *bound_in):
            if getattr(mod, func, None) is original:
                setattr(mod, func, wrapper)
    return recorder
