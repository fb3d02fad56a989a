import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adiabound import (
    BasisSpec,
    Diagonal,
    DsqPolicy,
    LinearCombination,
    ModeSum,
    ProjectorComplement,
    StateVector,
    basis_vector,
    build_tsp_finite,
    build_tsp_tuple,
    coherent_state,
    default_fock_cutoff,
    expectation,
    ground_state,
    invariant_sector,
    mode_digits,
    random_instance,
    to_dense,
    uniform_state,
    variance,
)
from adiabound import hilbert

SEED = 20260825


def _random_state(rng, basis):
    amps = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, amps / np.linalg.norm(amps))


def _dense_single_mode(alpha, dim):
    # (a† - conj(alpha)) (a - alpha) from the truncated ladder matrices
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    eye = np.eye(dim, dtype=complex)
    return (a.conj().T - np.conj(alpha) * eye) @ (a - alpha * eye)


# ---------------------------------------------------------------------------
# bases and index arithmetic
# ---------------------------------------------------------------------------

def test_basis_validation():
    with pytest.raises(ValueError):
        BasisSpec("grid", (4,))  # unknown kind
    with pytest.raises(ValueError):
        BasisSpec("flat", ())  # empty dims
    with pytest.raises(ValueError):
        BasisSpec("flat", (0,))  # nonpositive dim
    with pytest.raises(ValueError):
        BasisSpec("flat", (2, 2))  # flat takes one dimension
    with pytest.raises(ValueError):
        BasisSpec("modes", (3, 4))  # ladders must share a dimension


def test_basis_properties():
    flat = BasisSpec.flat(6)
    assert (flat.dim, flat.n_modes) == (6, 1)
    with pytest.raises(ValueError):
        flat.n_max  # no occupation cutoff on a flat basis
    ladder = BasisSpec.modes(1, 9)
    assert (ladder.dim, ladder.n_modes, ladder.n_max) == (10, 1, 9)
    modes = BasisSpec.modes(4, 2)
    assert (modes.dim, modes.n_modes, modes.n_max) == (81, 4, 2)


def test_mode_digit_values():
    basis = BasisSpec.modes(3, 2)
    # mode 1 varies fastest: flat = m1 + 3*m2 + 9*m3
    assert mode_digits(basis, 0) == (0, 0, 0)
    assert mode_digits(basis, 5) == (2, 1, 0)
    assert mode_digits(basis, 18) == (0, 0, 2)
    assert mode_digits(basis, basis.dim - 1) == (2, 2, 2)


def test_mode_digit_roundtrip():
    basis = BasisSpec.modes(3, 2)
    for flat in range(basis.dim):
        digs = mode_digits(basis, flat)
        assert all(0 <= d <= 2 for d in digs)
        assert sum(d * 3 ** i for i, d in enumerate(digs)) == flat  # base-3 digit sum


def test_mode_digit_bounds():
    basis = BasisSpec.modes(2, 2)
    with pytest.raises(ValueError):
        mode_digits(basis, 9)
    with pytest.raises(ValueError):
        mode_digits(basis, -1)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_state_norm_enforced():
    basis = BasisSpec.flat(3)
    with pytest.raises(ValueError):
        StateVector(basis, np.array([1.0, 1.0, 0.0]))
    sv = StateVector(basis, np.array([1.0, 1.0, 0.0]), unnormalized=True)
    assert abs(sv.norm() - math.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        StateVector(basis, np.zeros(4))  # shape mismatch


def test_uniform_state():
    basis = BasisSpec.flat(7)
    sv = uniform_state(basis)
    assert abs(sv.norm() - 1.0) < 1e-12
    assert np.allclose(sv.amps, 1.0 / math.sqrt(7))


# ---------------------------------------------------------------------------
# operator representations
# ---------------------------------------------------------------------------

def test_operator_validation():
    basis = BasisSpec.flat(3)
    with pytest.raises(ValueError):
        Diagonal(basis, np.zeros(4))  # shape mismatch
    with pytest.raises(ValueError):
        Diagonal(basis, np.array([0.0, np.inf, 1.0]))  # non-finite
    with pytest.raises(ValueError):
        ProjectorComplement(basis, np.array([1.0, 1.0, 0.0]))  # not unit
    with pytest.raises(ValueError):
        ModeSum(basis, (1.0,))  # needs a modes basis
    with pytest.raises(ValueError):
        ModeSum(BasisSpec.modes(3, 2), (1.0, 2.0))  # alpha count mismatch
    diag = Diagonal(basis, np.arange(3.0))
    with pytest.raises(ValueError):
        LinearCombination(basis, ())  # no terms
    with pytest.raises(ValueError):
        LinearCombination(basis, ((math.nan, diag),))
    with pytest.raises(ValueError):
        LinearCombination(BasisSpec.flat(4), ((1.0, diag),))  # basis mismatch


def test_diagonal_values_read_only():
    op = Diagonal(BasisSpec.flat(3), np.arange(3.0))
    with pytest.raises(ValueError):
        op.values[0] = 5.0


def test_dense_matches_hand_matrices():
    basis = BasisSpec.flat(4)
    vals = np.array([0.0, 1.5, -2.0, 0.25])
    assert np.array_equal(to_dense(Diagonal(basis, vals)), np.diag(vals).astype(complex))

    rng = np.random.default_rng(SEED)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    proj = to_dense(ProjectorComplement(basis, v))
    assert np.allclose(proj, np.eye(4) - np.outer(v, v.conj()), atol=1e-14)

    op = ModeSum(BasisSpec.modes(1, 7), (1.3 - 0.4j,))
    assert np.allclose(to_dense(op), _dense_single_mode(1.3 - 0.4j, 8), atol=1e-12)


def test_mode_sum_matches_kron():
    # mode 1 fastest means its term is kron(I, I, h); mode 3 slowest gets kron(h, I, I)
    basis = BasisSpec.modes(3, 2)
    alphas = (0.9, -0.4 + 0.2j, 1.1j)
    d = 3
    eye = np.eye(d, dtype=complex)
    terms = [
        np.kron(eye, np.kron(eye, _dense_single_mode(alphas[0], d))),
        np.kron(eye, np.kron(_dense_single_mode(alphas[1], d), eye)),
        np.kron(_dense_single_mode(alphas[2], d), np.kron(eye, eye)),
    ]
    dense = to_dense(ModeSum(basis, alphas))
    assert np.allclose(dense, sum(terms), atol=1e-12)


def _mode_sum_reference(op, amps):
    # the plain per-mode loop, a fresh array for every product
    d, dim, lead = op.basis.dims[0], op.basis.dim, amps.shape[:-1]
    sq = np.sqrt(np.arange(1, d, dtype=float))[:, None]
    out, low = None, 1
    for alpha in op.alphas:
        cube = amps.reshape(*lead, dim // (low * d), d, low)
        u = -alpha * cube
        u[..., :-1, :] += sq * cube[..., 1:, :]
        term = -np.conj(alpha) * u
        term[..., 1:, :] += sq * u[..., :-1, :]
        out = term.reshape(amps.shape) if out is None else out + term.reshape(amps.shape)
        low *= d
    return out


@pytest.mark.parametrize("n_max,alphas", [(7, (1.3 - 0.4j,)), (5, (0.9, 1.4j)),
                                          (4, (0.3, -0.8 + 0.5j, 1.1j)), (1, (0.2j, 0.5, 0.9, -0.3))])
def test_mode_sum_apply_reuses_buffers_bit_for_bit(n_max, alphas):
    op = ModeSum(BasisSpec.modes(len(alphas), n_max), alphas)
    rng = np.random.default_rng(SEED)
    for shape in [(op.basis.dim,), (4, op.basis.dim)]:
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = amps.copy()
        assert np.array_equal(op.apply_amps(amps), _mode_sum_reference(op, amps))
        assert np.array_equal(amps, kept)


def test_linear_combination_dense():
    basis = BasisSpec.flat(5)
    rng = np.random.default_rng(SEED)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v /= np.linalg.norm(v)
    diag = Diagonal(basis, rng.standard_normal(5))
    proj = ProjectorComplement(basis, v)
    combo = LinearCombination(basis, ((0.7, diag), (-0.3, proj), (0.0, diag)))
    dense = 0.7 * to_dense(diag) - 0.3 * to_dense(proj)
    assert np.allclose(to_dense(combo), dense, atol=1e-13)
    assert combo.norm_bound() == pytest.approx(0.7 * diag.norm_bound() + 0.3)


def test_dense_refuses_large_dims():
    with pytest.raises(ValueError):
        to_dense(Diagonal(BasisSpec.flat(5000), np.zeros(5000)))


class _CountingOp(hilbert.HamiltonianOp):
    """Pass-through that counts apply_amps calls and keeps the base lower_bound."""

    def __init__(self, op):
        self.op, self.basis, self.calls = op, op.basis, 0

    def apply_amps(self, amps):
        self.calls += 1
        return self.op.apply_amps(amps)

    def norm_bound(self):
        return self.op.norm_bound()


def _dense_by_columns(op):
    # the per-column reference that the block build must reproduce bit for bit
    dim = op.basis.dim
    out = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        out[:, j] = op.apply_amps(e)
    return out


@pytest.mark.parametrize("dim", [84, 256, 600])
def test_to_dense_blocks_match_the_column_build(dim):
    rng = np.random.default_rng(SEED)
    flat = BasisSpec.flat(dim)
    diag = Diagonal(flat, rng.standard_normal(dim))
    proj = ProjectorComplement(flat, _random_state(rng, flat).amps)
    ops = [diag, proj, LinearCombination(flat, ((0.6, diag), (-1.3, proj))),
           ModeSum(BasisSpec.modes(1, dim - 1), (1.2 - 0.7j,))]
    if dim == 256:
        ops.append(ModeSum(BasisSpec.modes(2, 15), (0.8, -1.1 + 0.3j)))
    for op in ops:
        counted = _CountingOp(op)
        assert np.array_equal(to_dense(counted), _dense_by_columns(op)), type(op).__name__
        assert counted.calls == math.ceil(dim / 256)


def test_apply_amps_acts_on_the_last_axis():
    rng = np.random.default_rng(SEED)
    flat = BasisSpec.flat(27)
    diag = Diagonal(flat, rng.standard_normal(27))
    proj = ProjectorComplement(flat, _random_state(rng, flat).amps)
    modes = BasisSpec.modes(3, 2)
    exact = [diag, ModeSum(BasisSpec.modes(1, 26), (1.2 + 0.7j,)),
             ModeSum(modes, (0.9, -0.4 + 0.2j, 1.1j)),
             LinearCombination(modes, ((0.5, ModeSum(modes, (0.3, 0.2, -0.1j))),
                                       (-0.7, Diagonal(modes, rng.standard_normal(27)))))]
    roundoff = [proj, LinearCombination(flat, ((0.4, diag), (-1.3, proj)))]
    block = rng.standard_normal((2, 3, 27)) + 1j * rng.standard_normal((2, 3, 27))
    rows = block.reshape(-1, 27)
    for op, bitwise in [(op, True) for op in exact] + [(op, False) for op in roundoff]:
        out = op.apply_amps(block)
        assert out.shape == block.shape
        by_row = np.stack([op.apply_amps(row) for row in rows])
        if bitwise:
            assert np.array_equal(out.reshape(-1, 27), by_row), type(op).__name__
        else:
            err = np.max(np.abs(out.reshape(-1, 27) - by_row), axis=1)
            assert np.all(err <= 1e-15 * np.linalg.norm(rows, axis=1)), type(op).__name__


def _operator_zoo(rng):
    flat = BasisSpec.flat(12)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    return [
        Diagonal(flat, rng.standard_normal(12)),
        ProjectorComplement(flat, v),
        ModeSum(BasisSpec.modes(1, 11), (1.2 + 0.7j,)),
        ModeSum(BasisSpec.modes(2, 5), (0.8, -1.1 + 0.3j)),
        LinearCombination(flat, ((0.4, Diagonal(flat, rng.standard_normal(12))),
                                 (1.3, ProjectorComplement(flat, v)))),
    ]


def test_hermiticity_loop():
    rng = np.random.default_rng(SEED)
    for op in _operator_zoo(rng):
        scale = op.norm_bound()
        for _ in range(25):
            u = _random_state(rng, op.basis).amps
            w = _random_state(rng, op.basis).amps
            lhs = np.vdot(u, op.apply_amps(w))
            rhs = np.vdot(op.apply_amps(u), w)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, scale)


def test_positive_semidefinite_loop():
    rng = np.random.default_rng(SEED)
    psd = [
        ProjectorComplement(BasisSpec.flat(9), basis_vector(BasisSpec.flat(9), 2).amps),
        ModeSum(BasisSpec.modes(1, 11), (1.2 + 0.7j,)),
        ModeSum(BasisSpec.modes(2, 5), (0.8, -1.1 + 0.3j)),
    ]
    for op in psd:
        for _ in range(40):
            w = _random_state(rng, op.basis).amps
            val = np.vdot(w, op.apply_amps(w))
            assert val.real >= -1e-12 * op.norm_bound()


def test_norm_bound_dominates_spectrum():
    rng = np.random.default_rng(SEED)
    for op in _operator_zoo(rng):
        top = float(np.linalg.norm(to_dense(op), 2))
        assert op.norm_bound() >= top - 1e-10


def test_lower_bound_sits_below_spectrum():
    rng = np.random.default_rng(SEED)
    zoo = _operator_zoo(rng)
    diag, proj = zoo[0], zoo[1]
    zoo.append(LinearCombination(diag.basis, ((0.6, diag), (-1.7, proj), (-0.2, diag))))
    zoo.append(_CountingOp(diag))  # only norm_bound: base-class floor
    for op in zoo:
        bottom = float(np.linalg.eigvalsh(to_dense(op))[0])
        assert op.lower_bound() <= bottom + 1e-10
        assert op.lower_bound() >= -op.norm_bound()
    assert diag.lower_bound() == float(np.min(diag.values))
    assert zoo[-1].lower_bound() == -diag.norm_bound()


# ---------------------------------------------------------------------------
# apply / expectation / variance
# ---------------------------------------------------------------------------

def test_apply_and_expectation_against_dense():
    rng = np.random.default_rng(SEED)
    for op in _operator_zoo(rng):
        dense = to_dense(op)
        for _ in range(10):
            sv = _random_state(rng, op.basis)
            out = op.apply_amps(sv.amps)
            assert np.allclose(out, dense @ sv.amps, atol=1e-12 * max(1.0, op.norm_bound()))
            want = float(np.real(sv.amps.conj() @ dense @ sv.amps))
            assert expectation(op, sv) == pytest.approx(want, abs=1e-11 * max(1.0, op.norm_bound()))
            h_amps = dense @ sv.amps
            want_var = float(np.real(h_amps.conj() @ h_amps)) - want ** 2
            assert variance(op, sv) == pytest.approx(max(want_var, 0.0),
                                                     abs=1e-10 * max(1.0, op.norm_bound()) ** 2)


def test_expectation_on_eigenstates():
    basis = BasisSpec.flat(4)
    op = Diagonal(basis, np.array([0.0, 2.5, -1.0, 7.0]))
    sv = basis_vector(basis, 1)
    assert expectation(op, sv) == 2.5
    assert variance(op, sv) == 0.0  # clamped exactly for an eigenstate


def test_expectation_rejects_non_hermitian():
    class _Skew(hilbert.HamiltonianOp):
        def __init__(self, basis):
            self.basis = basis

        def apply_amps(self, amps):
            return 1j * amps

    sv = uniform_state(BasisSpec.flat(2))
    with pytest.raises(ValueError):
        expectation(_Skew(sv.basis), sv)


def test_operations_check_basis():
    op = Diagonal(BasisSpec.flat(3), np.zeros(3))
    sv = basis_vector(BasisSpec.flat(4), 0)
    with pytest.raises(ValueError):
        expectation(op, sv)
    with pytest.raises(ValueError):
        variance(op, sv)


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

def test_coherent_state_moments():
    prep = coherent_state(2.0, n_max=40)
    number = Diagonal(prep.state.basis, np.arange(41.0))
    assert expectation(number, prep.state) == pytest.approx(4.0, abs=1e-8)
    assert variance(number, prep.state) == pytest.approx(4.0, abs=1e-8)
    assert abs(prep.state.norm() - 1.0) < 1e-12


def test_coherent_state_mass_accounting():
    prep = coherent_state(1.7, n_max=30)
    assert prep.captured_mass + prep.tail_mass == pytest.approx(1.0, abs=1e-12)
    assert prep.renorm_factor == pytest.approx(1.0 / math.sqrt(prep.captured_mass), rel=1e-12)
    assert prep.n_max == 30


def test_coherent_state_phases():
    alpha = 2.0 * np.exp(1j * math.pi / 3)
    prep = coherent_state(alpha, n_max=30)
    mags = np.abs(prep.state.amps)
    want = mags * np.exp(1j * np.arange(31) * math.pi / 3)
    assert np.allclose(prep.state.amps, want, atol=1e-14)


def test_coherent_state_zero_alpha():
    prep = coherent_state(0.0, n_max=5)
    assert np.array_equal(prep.state.amps, basis_vector(BasisSpec.modes(1, 5), 0).amps)
    assert prep.tail_mass == 0.0


def test_coherent_state_rejects_fat_tail():
    with pytest.raises(ValueError) as err:
        coherent_state(3.0, n_max=9)
    assert "n_max=" in str(err.value)  # names a sufficient cutoff
    with pytest.raises(ValueError):
        coherent_state(1.0, n_max=-1)


@pytest.mark.parametrize("mu, n_max, needed", [(24, 20, 61), (3, 5, 19), (720, 700, 897)])
def test_coherent_state_names_the_smallest_sufficient_cutoff(mu, n_max, needed):
    alpha = math.sqrt(mu)
    with pytest.raises(ValueError, match=f"n_max={needed} suffices"):
        coherent_state(alpha, n_max)
    assert coherent_state(alpha, needed).tail_mass <= hilbert.COHERENT_TAIL_TOL
    with pytest.raises(ValueError, match=f"n_max={needed} suffices"):
        coherent_state(alpha, needed - 1)


def test_poisson_tail_matches_scipy_on_a_grid():
    # P(X > k) against scipy's incomplete-gamma form, from k = 0 far into the tail
    from scipy.special import pdtrc

    for mu in np.geomspace(1e-3, 800.0, 40):
        k_max = int(mu + 60.0 * math.sqrt(mu) + 80.0)
        ks = np.union1d(np.arange(min(k_max, 60) + 1), np.linspace(0, k_max, 80).astype(int))
        for k in ks.tolist():
            got, want = hilbert.poisson_tail(k, mu), float(pdtrc(k, mu))
            if want > 1e-300:
                assert abs(got - want) <= 1e-10 * want, (mu, k)
            assert (got > hilbert.COHERENT_TAIL_TOL) == (want > hilbert.COHERENT_TAIL_TOL)


def _tail_by_terms(k, mu):
    """P(X > k) as the sum of its terms j > k, the way poisson_tail sums past the mode."""
    log_mu = math.log(mu)
    logs = [j * log_mu - mu - math.lgamma(j + 1)
            for j in range(k + 1, int(mu + 40.0 * math.sqrt(mu) + 100.0))]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def test_poisson_tail_below_the_mode_is_one_minus_its_head():
    # both sums carry the rounding of terms whose log is O(mu log mu), so they
    # part by up to about 1.2e-15 * mu: 2.3e-11 at mu ~ 2e4, and each is that
    # far from scipy's incomplete gamma
    for mu in np.geomspace(1.01, 1e4, 30).tolist():
        for k in sorted({int(k) for k in np.linspace(0, math.ceil(mu) - 2, 10)}):
            if k + 1 < mu:
                got = hilbert.poisson_tail(k, mu)
                assert abs(got - _tail_by_terms(k, mu)) <= 2e-15 * mu, (k, mu)
                assert got > 0.5 > hilbert.COHERENT_TAIL_TOL, (k, mu)


def test_poisson_tail_below_the_mode_keeps_no_terms():
    tracemalloc.start()
    try:
        assert hilbert.poisson_tail(5, 1e6) == 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_default_cutoff_keeps_tail_small():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        alpha = rng.uniform(0.0, 3.0) * np.exp(2j * math.pi * rng.uniform())
        prep = coherent_state(alpha)
        assert prep.tail_mass <= 1e-10
        assert prep.n_max == default_fock_cutoff(alpha)
        number = Diagonal(prep.state.basis, np.arange(prep.n_max + 1.0))
        assert expectation(number, prep.state) == pytest.approx(abs(alpha) ** 2, abs=1e-6)
    assert default_fock_cutoff(0) == 0
    # the smallest cutoff for the tail, from below 1e-10 up to far beyond the models
    for mu in np.geomspace(1e-12, 3e4, 60).tolist() + [1.0, 2.0, 3.0, 24.0, 720.0]:
        alpha = math.sqrt(mu)
        n, mu = default_fock_cutoff(alpha), abs(alpha) ** 2
        assert hilbert.poisson_tail(n, mu) <= hilbert.COHERENT_TAIL_TOL, mu
        assert n == 0 or hilbert.poisson_tail(n - 1, mu) > hilbert.COHERENT_TAIL_TOL, mu


def test_coherent_state_near_null_of_quadratic():
    # (a† - conj(alpha))(a - alpha) annihilates its own coherent state up to truncation
    prep = coherent_state(1.5)
    op = ModeSum(prep.state.basis, (1.5,))
    assert expectation(op, prep.state) <= 1e-8


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

def test_ground_state_diagonal():
    basis = BasisSpec.flat(5)
    gs = ground_state(Diagonal(basis, np.array([3.0, -1.0, 0.5, -1.0, 2.0])))
    assert gs.energy == -1.0
    assert gs.residual == 0.0
    assert gs.state.amps.tolist() == basis_vector(basis, 1).amps.tolist()

    gs2 = ground_state(Diagonal(basis, np.arange(5.0)))
    assert gs2.state.amps.tolist() == basis_vector(basis, 0).amps.tolist()

    # levels whose exact float minimum (position 3) is not the first member
    # of the tolerance set: the state follows the set
    levels = np.array([2.0, 1.0 + 2.0 ** -52, 3.0, 1.0, 1.0 + 2.0 ** -51, 1.5])
    gs3 = ground_state(Diagonal(BasisSpec.flat(levels.size), levels))
    assert hilbert.argmin_set(levels)[0] == (1, 3, 4)
    assert int(np.argmin(levels)) == 3
    assert gs3.state.amps.tolist() == basis_vector(gs3.state.basis, 1).amps.tolist()


def test_ground_state_projector():
    basis = BasisSpec.flat(6)
    v = uniform_state(basis).amps
    gs = ground_state(ProjectorComplement(basis, v))
    assert gs.energy == 0.0
    assert np.allclose(gs.state.amps, v)


def test_ground_state_dense_path():
    # dim 16 stays on the dense branch; cross-check against eigh directly
    op = ModeSum(BasisSpec.modes(1, 15), (0.5,))
    gs = ground_state(op)
    evals = np.linalg.eigvalsh(to_dense(op))
    assert gs.energy == pytest.approx(float(evals[0]), abs=1e-12)
    assert gs.matvecs == 16 + 1  # the dense solve, then the residual check's apply


def test_ground_state_iterative_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 16)
    op = ModeSum(BasisSpec.modes(1, 40), (1.5,))
    gs = ground_state(op)
    evals, evecs = np.linalg.eigh(to_dense(op))
    assert gs.energy == pytest.approx(float(evals[0]), abs=1e-6)
    assert gs.energy <= 1e-6  # near-null ground level of a PSD operator
    assert abs(np.vdot(evecs[:, 0], gs.state.amps)) ** 2 >= 1.0 - 1e-6
    assert gs.residual <= 1e-6
    assert 0 < gs.matvecs <= hilbert.MATVEC_BUDGET


def test_ground_state_iterative_mode_sum(monkeypatch):
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 16)
    op = ModeSum(BasisSpec.modes(2, 5), (0.9, 1.4))
    gs = ground_state(op)
    evals, evecs = np.linalg.eigh(to_dense(op))
    assert gs.energy == pytest.approx(float(evals[0]), abs=1e-8)
    assert abs(np.vdot(evecs[:, 0], gs.state.amps)) ** 2 >= 1.0 - 1e-8


_PRODUCT_CASES = {
    "one-real": (9, (1.3,)),
    "one-complex": (4, (0.6 - 0.8j,)),
    "two-real": (5, (0.9, 1.4)),
    "two-complex": (6, (0.7 - 0.4j, 1.2 + 0.9j)),
    "three-unequal": (4, (0.3, 1.1j, -0.8 + 0.5j)),
    "three-n_max-1": (1, (0.2, 0.5 - 0.1j, 0.9)),
    "two-n_max-1-equal": (1, (0.6j, 0.6j)),
    "three-zero": (3, (0.0, 0.0, 0.0)),
}


@pytest.mark.parametrize("name", list(_PRODUCT_CASES))
def test_mode_sum_product_ground_state_matches_dense_oracle(name):
    n_max, alphas = _PRODUCT_CASES[name]
    op = ModeSum(BasisSpec.modes(len(alphas), n_max), alphas)
    gs = ground_state(op)
    evals, evecs = np.linalg.eigh(to_dense(op))
    assert abs(gs.energy - evals[0]) <= 1e-12
    assert abs(np.vdot(evecs[:, 0], gs.state.amps)) ** 2 >= 1.0 - 1e-12
    assert gs.residual <= hilbert.RESIDUAL_RTOL
    assert gs.matvecs == len(alphas) * (n_max + 1) + 1


def test_mode_sum_product_ground_state_checks_its_residual(monkeypatch):
    monkeypatch.setattr(hilbert, "RESIDUAL_RTOL", 0.0)
    with pytest.raises(hilbert.NumericGuardError, match="residual"):
        ground_state(ModeSum(BasisSpec.modes(2, 5), (0.9, 1.4j)))


def test_tuple_driver_ground_state_never_reaches_lanczos():
    # dim 32,768: eigsh takes ~390 matvecs, the product three ladders of 32 plus one
    h_i = build_tsp_tuple(random_instance(3, SEED), n_max=31).h_i
    assert h_i.basis.dim == 32 ** 3
    assert ground_state(h_i).matvecs <= 3 * 32 + 1


# ---------------------------------------------------------------------------
# the eigensolver helper
# ---------------------------------------------------------------------------

def _lowest_cases():
    rng = np.random.default_rng(SEED)
    flat = BasisSpec.flat(30)
    diag = Diagonal(flat, rng.standard_normal(30))
    proj = ProjectorComplement(flat, _random_state(rng, flat).amps)
    return {
        "diagonal": diag,
        "projector": proj,
        "coherent": ModeSum(BasisSpec.modes(1, 29), (1.2 + 0.5j,)),
        "modesum": ModeSum(BasisSpec.modes(2, 5), (0.9, 1.4j)),
        "combination": LinearCombination(flat, ((0.3, diag), (0.7, proj))),
        "negative-term": LinearCombination(flat, ((1.0, proj), (-0.5, diag))),
    }


@pytest.mark.parametrize("name", list(_lowest_cases()))
@pytest.mark.parametrize("path", ["dense", "eigsh"])
def test_lowest_matches_dense_oracle(monkeypatch, name, path):
    if path == "eigsh":
        monkeypatch.setattr(hilbert, "DENSE_LIMIT", 8)
    op = _lowest_cases()[name]
    oracle = np.linalg.eigvalsh(to_dense(op))
    for k in (1, 3):
        pairs = hilbert.lowest(op, k)
        scale = max(1.0, op.norm_bound())
        assert np.allclose(pairs.values, oracle[:k], rtol=0.0, atol=1e-9 * scale)
        assert np.allclose(pairs.vectors.conj().T @ pairs.vectors, np.eye(k), atol=1e-10)
        applied = np.column_stack([op.apply_amps(v) for v in pairs.vectors.T])
        residuals = np.linalg.norm(applied - pairs.vectors * pairs.values, axis=0)
        assert np.all(residuals <= hilbert.RESIDUAL_RTOL * scale)
        assert np.allclose(pairs.residuals, residuals, atol=1e-12 * scale)
        if path == "eigsh":
            assert op.basis.dim > hilbert.DENSE_LIMIT and pairs.matvecs > 0
        elif isinstance(op, LinearCombination):
            assert pairs.matvecs == k  # the projector-plus-diagonal sector: one block apply
        else:
            assert pairs.matvecs == op.basis.dim


@pytest.mark.parametrize("k", [0, -1, -3])
def test_lowest_rejects_a_count_below_one(k):
    # values[:k] would count from the end and return dim + k pairs
    with pytest.raises(ValueError, match="at least 1"):
        hilbert.lowest(Diagonal(BasisSpec.flat(5), np.arange(5.0)), k)


def test_lowest_rejects_a_bad_eigsh_pair(monkeypatch):
    # an eigensolver that hands back a non-eigenvector must not pass
    import scipy.sparse.linalg as arpack

    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 8)
    op = ModeSum(BasisSpec.modes(1, 29), (1.2,))
    rng = np.random.default_rng(SEED)

    def bad_eigsh(linop, k, **kwargs):
        vecs = np.linalg.qr(rng.standard_normal((op.basis.dim, k)) + 0j)[0]
        return np.zeros(k), vecs

    monkeypatch.setattr(arpack, "eigsh", bad_eigsh)
    with pytest.raises(hilbert.NumericGuardError, match="residual"):
        hilbert.lowest(op, 1)


def test_lowest_restarts_a_stalled_eigsh(monkeypatch):
    import scipy.sparse.linalg as arpack

    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 8)
    op = ModeSum(BasisSpec.modes(1, 29), (1.2,))
    real_eigsh = arpack.eigsh
    starts = []

    def stalls_twice(linop, k, **kwargs):
        starts.append(kwargs["v0"])
        if len(starts) <= 2:
            raise arpack.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((op.basis.dim, 0)))
        return real_eigsh(linop, k, **kwargs)

    monkeypatch.setattr(arpack, "eigsh", stalls_twice)
    pairs = hilbert.lowest(op, 1)
    assert len(starts) == 3 and not np.allclose(starts[0], starts[1])
    assert pairs.values[0] == pytest.approx(np.linalg.eigvalsh(to_dense(op))[0], abs=1e-9)

    def always_stalls(linop, k, **kwargs):
        raise arpack.ArpackNoConvergence("stalled", np.zeros(0), np.zeros((op.basis.dim, 0)))

    monkeypatch.setattr(arpack, "eigsh", always_stalls)
    with pytest.raises(hilbert.NumericGuardError, match="converge"):
        hilbert.lowest(op, 1)

    def arpack_fails(linop, k, **kwargs):
        raise arpack.ArpackError(-9999)

    # any other ARPACK error is a failed guard too, not a bug
    monkeypatch.setattr(arpack, "eigsh", arpack_fails)
    with pytest.raises(hilbert.NumericGuardError, match="eigensolve failed"):
        hilbert.lowest(op, 1)


def _sector_cases():
    cases = {}
    for n in (4, 64, 256):
        basis = BasisSpec.flat(n)
        for marked in ((0,), (1, 2, n - 1)):
            values = np.ones(n)
            values[list(marked)] = 0.0
            cases[f"grover-n{n}-marked{len(marked)}"] = (
                ProjectorComplement(basis, uniform_state(basis).amps), Diagonal(basis, values))
    for m in (3, 4):
        for kind in ("parity", "random"):
            bundle = build_tsp_finite(random_instance(m, SEED), DsqPolicy(kind))
            cases[f"tsp-finite-m{m}-{kind}"] = (bundle.h_i, bundle.h_p)
    rng = np.random.default_rng(SEED)
    basis = BasisSpec.flat(27)
    levels = Diagonal(basis, rng.integers(0, 4, 27).astype(float))
    # v on one basis vector: every level but that entry's carries weight 0
    cases["projector-on-a-basis-vector"] = (
        ProjectorComplement(basis, basis_vector(basis, 5).amps), levels)
    # a complex v spread over 4 levels of 4 to 9 entries each
    cases["complex-axis"] = (ProjectorComplement(basis, _random_state(rng, basis).amps), levels)
    return cases


@pytest.mark.parametrize("name", list(_sector_cases()))
def test_lowest_solves_the_projector_plus_diagonal_sector_exactly(name):
    h_i, h_p = _sector_cases()[name]
    ops = [LinearCombination(h_i.basis, ((1.0 - s, h_i), (s, h_p))) for s in (0.0, 0.25, 0.5, 1.0)]
    # +-(H_P - H_I), the second with the diagonal first
    ops += [LinearCombination(h_i.basis, ((-1.0, h_i), (1.0, h_p))),
            LinearCombination(h_i.basis, ((-1.0, h_p), (1.0, h_i)))]
    for op in ops:
        oracle = np.linalg.eigvalsh(to_dense(op))
        scale = max(1.0, op.norm_bound())
        for k in (1, 2, 3):
            pairs = hilbert.lowest(op, k)
            assert pairs.matvecs == k
            want = oracle[:k]
            assert np.all(np.abs(pairs.values - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
            assert np.allclose(pairs.vectors.conj().T @ pairs.vectors, np.eye(k), rtol=0.0,
                               atol=1e-12)
            applied = np.column_stack([op.apply_amps(v) for v in pairs.vectors.T])
            residuals = np.linalg.norm(applied - pairs.vectors * pairs.values, axis=0)
            assert np.all(residuals <= hilbert.RESIDUAL_RTOL * scale)
            assert np.allclose(pairs.residuals, residuals, rtol=0.0, atol=1e-12 * scale)


def test_one_eigensolver_call_site():
    # every eigensolve in the package runs inside hilbert.lowest, which verifies
    # it, or in the one stacked sector solve that lowest and lowest_levels share,
    # which checks every pair's residual in the sector
    solver = re.compile(r"\beig(?:h|sh|valsh)\b")
    for path in Path(hilbert.__file__).parent.glob("*.py"):
        if path.name != "hilbert.py":
            assert not solver.search(path.read_text()), path.name
    tree = ast.parse(Path(hilbert.__file__).read_text())

    def solver_calls(node):
        return {id(c) for c in ast.walk(node) if isinstance(c, ast.Call)
                and solver.fullmatch(getattr(c.func, "attr", getattr(c.func, "id", "")))}

    def function(scope, name):
        return next(n for n in scope.body if isinstance(n, ast.FunctionDef) and n.name == name)

    sector = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "InvariantSector")
    lowest, solve = function(tree, "lowest"), function(sector, "solve")
    assert len(solver_calls(solve)) == 1
    assert solver_calls(tree) == solver_calls(lowest) | solver_calls(solve)
    assert solver_calls(lowest) != set()


def _stacked_level_cases():
    cases = dict(_sector_cases())
    sector = invariant_sector(build_tsp_finite(random_instance(4, 1), DsqPolicy("random")))
    assert sector.levels.size == 238
    cases["tsp-finite-m4-random-sector"] = (sector.h_i, sector.h_p)
    return cases


@pytest.mark.parametrize("budget", ["one-matrix-a-chunk", "one-chunk"])
@pytest.mark.parametrize("name", list(_stacked_level_cases()))
def test_stacked_sector_levels_are_lowest_values_bit_for_bit(name, budget, monkeypatch):
    h_i, h_p = _stacked_level_cases()[name]
    monkeypatch.setattr(hilbert, "_STACK_BYTES", 1 if budget == "one-matrix-a-chunk" else 1 << 40)
    s = np.array([0.0, 0.1, 0.25, 0.5, 0.7, 0.999, 1.0])
    f, g = np.concatenate([1.0 - s, [-1.0, 1.0]]), np.concatenate([s, [1.0, -1.0]])
    for k in (1, 2, 3):
        # the terms in either order: H_I first, and H_P first
        for terms in (((f, h_i), (g, h_p)), ((g, h_p), (f, h_i))):
            levels = hilbert.lowest_levels(terms, k)
            assert levels.shape == (f.size, k)
            for i, row in enumerate(levels):
                op = LinearCombination(h_i.basis, tuple((c[i], t) for c, t in terms))
                assert row.tobytes() == hilbert.lowest(op, k).values.tobytes(), (i, k)


def test_lowest_levels_goes_point_by_point_without_a_sector():
    basis = BasisSpec.flat(6)
    h_i, h_p = Diagonal(basis, np.arange(6.0)), Diagonal(basis, np.arange(6.0)[::-1])
    f = np.array([1.0, 0.5, 0.0])
    levels = hilbert.lowest_levels(((f, h_i), (1.0 - f, h_p)), 2)
    for row, c in zip(levels, f):
        op = LinearCombination(basis, ((c, h_i), (1.0 - c, h_p)))
        assert row.tobytes() == hilbert.lowest(op, 2).values.tobytes()
    with pytest.raises(ValueError, match="k must be at least 1"):
        hilbert.lowest_levels(((f, h_i), (1.0 - f, h_p)), 0)


def test_a_perturbed_stacked_eigenvector_fails_the_sector_residual(monkeypatch):
    h_i, h_p = _sector_cases()["tsp-finite-m4-parity"]
    eigh = np.linalg.eigh

    def perturbed(stack):
        values, vectors = eigh(stack)
        vectors[vectors.shape[0] // 2, 0, 0] += 1e-3  # one vector of one matrix
        return values, vectors

    s = np.linspace(0.0, 1.0, 5)
    hilbert.lowest_levels(((1.0 - s, h_i), (s, h_p)), 2)
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(hilbert.NumericGuardError, match="sector eigenpair residual"):
        hilbert.lowest_levels(((1.0 - s, h_i), (s, h_p)), 2)
