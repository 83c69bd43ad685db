import tracemalloc

import pytest

from starkladder.lattices import LatticeKind, LatticeSpec, build_chain
from starkladder.spectra import eigendecompose


def _traced_peak(call) -> tuple:
    """``(call(), peak)``: what ``call()`` returns, and the peak bytes it
    allocates through Python's allocators."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    """The memory guards' one tracer: ``traced_peak(call)`` is ``(call(), peak)``."""
    return _traced_peak


@pytest.fixture(scope="session")
def dimer60():
    """1/i chain, 60 sites, slope 0.2: the workhorse configuration."""
    spec = LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.2)
    h = build_chain(spec)
    return spec, h, eigendecompose(h)


@pytest.fixture(scope="session")
def dimer1000():
    """The 1/i chain of the long-chain benchmark: 1000 sites, slope 0.2."""
    h = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=1000, omega=0.2))
    return eigendecompose(h)


@pytest.fixture(scope="session")
def jjstar60():
    """J/J* chain with |J| = 1 (J = 0.8 + 0.6i), 60 sites, slope 0.2."""
    spec = LatticeSpec(
        kind=LatticeKind.DIMER_JJSTAR, n_sites=60, omega=0.2, j_even=0.8 + 0.6j
    )
    h = build_chain(spec)
    return spec, h, eigendecompose(h)


@pytest.fixture(scope="session")
def uniform80():
    """Hermitian uniform chain, 80 sites, slope 0.5."""
    spec = LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=80, omega=0.5)
    h = build_chain(spec)
    return spec, h, eigendecompose(h)
