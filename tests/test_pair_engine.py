"""Kronecker-sum pair engine against the dense pair lattices it replaces."""

import collections
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import starkladder.dynamics as dynamics
import starkladder.spectra as spectra
from starkladder.dynamics import evolve
from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    PairMatrix,
    build_chain,
    build_pair_lattice,
)
from starkladder.pairmap import pair_basis
from starkladder.spectra import eigendecompose

from sector_reference import reference_projector

PAIR_KINDS = [k for k in LatticeKind if k.is_pair]


def _random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_embed_and_restrict_are_the_sector_projector(kind):
    side = 7
    basis = pair_basis(kind, side)
    proj = reference_projector(basis)
    amps = _random_state(basis.dim, 11)
    psi = _random_state(side * side, 12).reshape(side, side)
    np.testing.assert_allclose(basis.embed(amps).ravel(), proj.T @ amps, atol=1e-15)
    np.testing.assert_allclose(basis.restrict(psi), proj @ psi.ravel(), atol=1e-15)
    np.testing.assert_allclose(basis.restrict(basis.embed(amps)), amps, atol=1e-15)
    batch = np.stack([amps, _random_state(basis.dim, 13)])
    np.testing.assert_allclose(basis.embed(batch).reshape(2, -1), batch @ proj, atol=1e-15)


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
@settings(deadline=None, max_examples=40)
@given(
    side=st.integers(min_value=4, max_value=12),
    omega=st.floats(min_value=0.05, max_value=1.0),
    offset_frac=st.floats(min_value=0.0, max_value=1.0),
    t_frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engine_matches_dense_expm(kind, side, omega, offset_frac, t_frac, seed):
    offset = min(int(offset_frac * side), side - 1)  # every site can be the origin
    h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=side, omega=omega,
                                       origin_offset=offset))
    phi0 = _random_state(h.dim, seed)
    t = t_frac * math.pi / omega
    series = evolve(h, phi0, [0.0, t])
    assert series.method == "spectral"
    assert series.basis_labels == pair_basis(kind, side).labels
    exact = scipy.linalg.expm(-1j * h.entries * t) @ phi0
    err = np.linalg.norm(series.states[-1] - exact) / np.linalg.norm(exact)
    assert err <= 1e-9


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_integrator_branch_agrees_with_spectral(kind, monkeypatch):
    omega = 0.2
    h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=6, omega=omega))
    phi0 = _random_state(h.dim, 7)
    times = np.linspace(0.0, math.pi / omega, 9)
    spectral = evolve(h, phi0, times)
    monkeypatch.setattr(dynamics, "CONDITION_LIMIT", 0.0)
    integrated = evolve(h, phi0, times)
    assert spectral.method == "spectral"
    assert integrated.method.startswith("integrator")
    for a, b in zip(spectral.states, integrated.states):
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_products_are_the_restricted_kronecker_products(kind):
    # the Kronecker route's columns, against the (k, L, L) route of outer
    # products restricted all at once, down to the memory layout, on which
    # the rounding of later matrix products depends
    h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=7, omega=0.3))
    spectrum = eigendecompose(h)
    assert spectrum.solver == "kronecker"
    columns = spectrum.eigenvectors(slice(None))
    chain = eigendecompose(h.chain)
    x, y = h.basis.layout[:2]
    order = spectra._level_order(chain.eigenvalues[x] + chain.eigenvalues[y])
    i, j = x[order], y[order]
    rows = chain.right_eigenvectors.T
    replaced = h.basis.restrict(rows[i, :, None] * rows[j, None, :]).T
    spectra._fix_phases(replaced)
    np.testing.assert_array_equal(columns, replaced)
    assert columns.strides == replaced.strides
    proj = reference_projector(h.basis)
    v = chain.right_eigenvectors
    kron = np.stack([np.kron(v[:, a], v[:, b]) for a, b in zip(i, j)], axis=1)
    dense = proj @ kron
    spectra._fix_phases(dense)
    np.testing.assert_allclose(columns, dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_engine_reports_the_product_basis(kind, monkeypatch):
    # the pair basis is V x V: the chain's route and kappa(V)^2, on both paths
    chain = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=8, omega=0.2))
    spectrum = eigendecompose(chain)
    single = evolve(chain, _random_state(8, 3), [0.0, 1.0])
    assert (single.solver, single.condition) == ("tridiagonal", spectrum.condition)
    h = PairMatrix(chain, pair_basis(kind, 8))
    for limit in (dynamics.CONDITION_LIMIT, 0.0):
        monkeypatch.setattr(dynamics, "CONDITION_LIMIT", limit)
        series = evolve(h, _random_state(h.dim, 4), [0.0, 1.0])
        assert series.solver == "tridiagonal"
        assert series.condition == spectrum.condition**2


def test_engine_rejects_mismatched_chain():
    chain = build_chain(LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=6, omega=0.2))
    with pytest.raises(ValueError, match="does not match pair side"):
        PairMatrix(chain, pair_basis(LatticeKind.PAIR_2D_ELECTRON, 8))


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=lambda k: k.value)
def test_engine_decomposes_the_chain_only(kind, monkeypatch, traced_peak):
    # evolve synthesizes a pair lattice from its chain's L x L spectrum:
    # no eigendecomposition of the L^2 x L^2 lattice, and no L^2 x L^2 basis
    # in memory (the Kronecker-route basis peaked at 30 to 83 MB at L = 40)
    calls = collections.Counter()

    def counted(h):
        calls[type(h).__name__] += 1
        return eigendecompose(h)

    monkeypatch.setattr(dynamics, "eigendecompose", counted)
    small = build_pair_lattice(LatticeSpec(kind=kind, n_sites=6, omega=0.2))
    dynamics._own_spectrum(small, None)  # the counter sees a pair lattice's call
    assert calls == collections.Counter(PairMatrix=1)
    calls.clear()

    omega = 0.2
    h = build_pair_lattice(LatticeSpec(kind=kind, n_sites=40, omega=omega))
    phi0 = _random_state(h.dim, 9)
    times = [0.0, math.pi / (2 * omega), math.pi / omega]
    series, peak = traced_peak(lambda: evolve(h, phi0, times))
    assert series.method == "spectral"
    assert calls == collections.Counter(ChainMatrix=1)
    assert peak < 2e6


def test_engine_takes_the_chain_spectrum_only():
    # a given spectrum must be the chain's, the one the synthesis expands
    # in; the lattice's own Kronecker-route spectrum has another dimension
    h = build_pair_lattice(LatticeSpec(kind=LatticeKind.PAIR_2D_ELECTRON, n_sites=6,
                                       omega=0.2))
    phi0, times = _random_state(h.dim, 8), [0.0, 1.0, 2.0]
    given = evolve(h, phi0, times, spectrum=eigendecompose(h.chain))
    assert given.states.tobytes() == evolve(h, phi0, times).states.tobytes()
    with pytest.raises(ValueError, match="belongs to another matrix"):
        evolve(h, phi0, times, spectrum=eigendecompose(h))
