"""Shift-and-sign symmetry operators against their dense matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from starkladder.lattices import (
    LatticeKind,
    LatticeSpec,
    OperatorMatrix,
    apply_symmetry,
    build_chain,
    compose,
    gauge_conjugation_deviation,
    gauge_op,
    interior_margin,
    parity_2d_op,
    ramped_translation_deviation,
    time_reversal_op,
    translation_op,
)

from symmetry_reference import (
    dense_gauge,
    dense_gauge_conjugation_deviation,
    dense_parity_2d,
    dense_ramped_translation_deviation,
    dense_translation,
)


def _random_vector(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _leaf(name: str, dim: int, n0: int):
    """A leaf op and its dense reference action on a vector."""
    if name == "translate":
        t = dense_translation(dim, n0)
        return translation_op(dim, n0), lambda v: t @ v
    if name == "gauge":
        g = dense_gauge(dim)
        return gauge_op(dim), lambda v: g @ v
    return time_reversal_op(), np.conj


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.sampled_from(["translate", "gauge", "time_reversal"]),
                    st.integers(-n - 1, n + 1),
                ),
                min_size=1,
                max_size=4,
            ),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_apply_symmetry_equals_dense_reference(case, seed):
    n, names = case
    vec = _random_vector(np.random.default_rng(seed), n)
    leaves = [_leaf(name, n, n0) for name, n0 in names]
    for op, dense in leaves:
        np.testing.assert_array_equal(apply_symmetry(op, vec), dense(vec))
    expected = vec
    for _, dense in reversed(leaves):  # compose(a, b) applies b first
        expected = dense(expected)
    chain = compose(*(op for op, _ in leaves))
    assert chain.antiunitary == (sum(n == "time_reversal" for n, _ in names) % 2 == 1)
    np.testing.assert_array_equal(apply_symmetry(chain, vec), expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_parity_equals_dense_reference(side, seed):
    vec = _random_vector(np.random.default_rng(seed), side * side)
    np.testing.assert_array_equal(
        apply_symmetry(parity_2d_op(side), vec), dense_parity_2d(side) @ vec
    )


def _relative_gap(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), np.finfo(float).tiny)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 40),
    st.integers(-3, 3),
    st.one_of(st.none(), st.integers(0, 6)),
    st.floats(-2.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_deviations_equal_dense_formulas_on_random_matrices(n, n0, margin, omega, seed):
    m = max(interior_margin(n) if margin is None else margin, abs(n0))
    if 2 * m >= n:
        return  # no interior window on this truncation
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    entries = b + b.T  # complex symmetric, like every lattice the package builds
    h = OperatorMatrix(entries, tuple(range(n)))
    ramped = ramped_translation_deviation(h, omega, n0=n0, margin=margin)
    reference = dense_ramped_translation_deviation(entries, omega, n0=n0, margin=margin)
    assert _relative_gap(ramped, reference) < 1e-13
    gauge = gauge_conjugation_deviation(h)
    assert _relative_gap(gauge, dense_gauge_conjugation_deviation(entries)) < 1e-13


def test_deviations_equal_dense_formulas_on_chains():
    specs = [
        LatticeSpec(kind=LatticeKind.DIMER_1I, n_sites=60, omega=0.3),
        LatticeSpec(kind=LatticeKind.DIMER_JJSTAR, n_sites=31, omega=0.3, j_even=0.8 + 0.6j),
        LatticeSpec(kind=LatticeKind.UNIFORM_1D, n_sites=17, omega=0.3),
    ]
    for spec in specs:
        h = build_chain(spec)
        for n0 in (-2, -1, 1, 2):
            ramped = ramped_translation_deviation(h, spec.omega, n0=n0)
            reference = dense_ramped_translation_deviation(h.entries, spec.omega, n0=n0)
            assert abs(ramped - reference) <= 1e-13 * max(1.0, reference)
        gauge = gauge_conjugation_deviation(h)
        reference = dense_gauge_conjugation_deviation(h.entries)
        assert abs(gauge - reference) <= 1e-13 * max(1.0, reference)


def test_symmetry_ops_stay_linear_in_memory(traced_peak):
    # dense 10^5 x 10^5 operators would take 80 GB each
    n = 10**5
    vec = np.ones(n, dtype=complex)
    out, peak = traced_peak(
        lambda: apply_symmetry(compose(translation_op(n, 2), gauge_op(n)), vec))
    assert peak < 20e6
    np.testing.assert_array_equal(out[:6], [0, 0, 1, 1, -1, -1])
