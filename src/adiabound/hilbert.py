"""State vectors and structured Hermitian operators with matrix-free action.

Operators never materialize their full matrix during normal use; each
representation knows how to act on an amplitude vector and how to bound its
own spectrum: ``norm_bound`` from above in absolute value, ``lower_bound``
from below.  ``to_dense`` exists for small-dimension scans and tests.

Mode ordering convention: for a multi-mode basis the flat index is the
little-endian mixed-radix number of the per-mode occupations, i.e. mode 1
varies fastest.  ``mode_digits`` is the only scalar decoder of it; the
models encode labels by reshaping to ``BasisSpec.dims``.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "BasisSpec",
    "StateVector",
    "HamiltonianOp",
    "Diagonal",
    "ProjectorComplement",
    "ModeSum",
    "LinearCombination",
    "GroundState",
    "Eigenpairs",
    "InvariantSector",
    "CoherentPrep",
    "NumericGuardError",
    "basis_vector",
    "uniform_state",
    "mode_digits",
    "expectation",
    "variance",
    "coherent_state",
    "default_fock_cutoff",
    "ground_state",
    "lowest",
    "lowest_levels",
    "to_dense",
]

#: states must carry unit norm within this unless explicitly flagged
NORM_TOL = 1e-10
#: two energies (eigenvalues, diagonal entries, tour lengths) this close, relative
#: to 1 + |lower|, count as degenerate; the one rule for every argmin set
DEGENERACY_RTOL = 1e-9
#: hard cap on matrix-vector products per iterative eigensolve
MATVEC_BUDGET = 10_000
#: :func:`lowest` diagonalizes the dense matrix at or below this dimension, and
#: the sector of a projector-plus-diagonal operator at or below this many levels
DENSE_LIMIT = 2048
#: every eigenpair from :func:`lowest` has ||H v - lambda v|| below this times
#: max(1, norm_bound)
RESIDUAL_RTOL = 1e-8
#: :meth:`InvariantSector.solve` stacks at most this many bytes of sector
#: matrices (and at least one) per ``numpy.linalg.eigh`` call
_STACK_BYTES = 1 << 19
#: :func:`to_dense` applies the operator to this many basis vectors at a time
_DENSE_BLOCK = 256
#: :func:`to_dense` refuses a larger dimension
TO_DENSE_MAX_DIM = 4096
#: :func:`coherent_state` fails when the discarded tail mass exceeds this
COHERENT_TAIL_TOL = 1e-10


class NumericGuardError(RuntimeError):
    """A numeric guard stopped a computation: an eigenpair residual, an
    eigensolver's matvec budget or convergence, or an integrator's norm drift
    crossed its tolerance."""


@dataclass(frozen=True)
class BasisSpec:
    """Labelled computational basis: 'flat' indices, or a tensor product of
    one or more identical truncated fock ladders ('modes')."""

    kind: str
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("flat", "modes"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("basis dims must be positive")
        if self.kind == "flat" and len(self.dims) != 1:
            raise ValueError("flat basis takes a single dimension")
        if self.kind == "modes" and len(set(self.dims)) != 1:
            raise ValueError("mode ladders must share one per-mode dimension")

    @staticmethod
    def flat(n: int) -> "BasisSpec":
        return BasisSpec("flat", (int(n),))

    @staticmethod
    def modes(n_modes: int, n_max: int) -> "BasisSpec":
        return BasisSpec("modes", (int(n_max) + 1,) * int(n_modes))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def n_max(self) -> int:
        if self.kind == "flat":
            raise ValueError("flat basis has no occupation cutoff")
        return self.dims[0] - 1


def mode_digits(basis: BasisSpec, flat: int) -> tuple[int, ...]:
    """Per-mode occupations of a flat index, mode 1 first (fastest)."""
    if not 0 <= flat < basis.dim:
        raise ValueError(f"flat index {flat} outside basis of dim {basis.dim}")
    d = basis.dims[0]
    out = []
    rem = flat
    for _ in range(basis.n_modes):
        out.append(rem % d)
        rem //= d
    return tuple(out)


@dataclass
class StateVector:
    """Complex amplitudes over a basis.  Unit norm is enforced at build time
    unless ``unnormalized=True`` (evolved states carry their true norm)."""

    basis: BasisSpec
    amps: np.ndarray
    unnormalized: bool = False

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.basis.dim,):
            raise ValueError(f"amplitudes shape {amps.shape} does not match basis dim {self.basis.dim}")
        self.amps = amps
        if not self.unnormalized and abs(self.norm() - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {self.norm()!r} is not 1 within {NORM_TOL}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_same_basis(a: BasisSpec, b: BasisSpec) -> None:
    if a != b:
        raise ValueError(f"basis mismatch: {a} vs {b}")


def basis_vector(basis: BasisSpec, index: int) -> StateVector:
    amps = np.zeros(basis.dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(basis, amps)


def uniform_state(basis: BasisSpec) -> StateVector:
    amps = np.full(basis.dim, 1.0 / math.sqrt(basis.dim), dtype=np.complex128)
    return StateVector(basis, amps)


# ---------------------------------------------------------------------------
# operator representations
# ---------------------------------------------------------------------------

class HamiltonianOp:
    """Base class; subclasses are Hermitian by construction."""

    basis: BasisSpec

    def apply_amps(self, amps: np.ndarray) -> np.ndarray:
        """H applied along the last axis of a ``(..., dim)`` array: each row of a
        block is one amplitude vector, and the result has the input's shape."""
        raise NotImplementedError

    def norm_bound(self) -> float:
        """Cheap upper bound on the operator 2-norm."""
        raise NotImplementedError

    def lower_bound(self) -> float:
        """Cheap lower bound on the smallest eigenvalue."""
        return -self.norm_bound()


@dataclass(frozen=True)
class Diagonal(HamiltonianOp):
    basis: BasisSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.basis.dim,):
            raise ValueError(f"diagonal shape {values.shape} does not match basis dim {self.basis.dim}")
        if not np.all(np.isfinite(values)):
            raise ValueError("diagonal entries must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def apply_amps(self, amps: np.ndarray) -> np.ndarray:
        return self.values * amps

    @cached_property
    def level_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct values ascending, each entry's position among them and
        each value's multiplicity; only bit-identical entries share a value.
        The values cannot change, so this is computed once, on first use."""
        split = np.unique(self.values, return_inverse=True, return_counts=True)
        return tuple(part.setflags(write=False) or part for part in split)

    def norm_bound(self) -> float:
        return float(np.max(np.abs(self.values)))

    def lower_bound(self) -> float:
        return float(np.min(self.values))


@dataclass(frozen=True)
class ProjectorComplement(HamiltonianOp):
    """1 - |v><v| for a unit vector v."""

    basis: BasisSpec
    vector: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.complex128)
        if vec.shape != (self.basis.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match basis dim {self.basis.dim}")
        if abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
            raise ValueError("projector axis must be a unit vector")
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "_col", vec.conj().reshape(-1, 1))

    def apply_amps(self, amps: np.ndarray) -> np.ndarray:
        return amps - self.vector * (amps @ self._col)

    def norm_bound(self) -> float:
        return 1.0

    def lower_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class ModeSum(HamiltonianOp):
    """sum_i (a_i† - conj(alpha_i))(a_i - alpha_i) on a product of truncated
    fock ladders; one mode is the single displaced oscillator.

    The truncated a and a† stay exact adjoints, so the operator is Hermitian
    and positive semidefinite at any cutoff; only the near-zero ground energy
    inherits the truncation tail.
    """

    basis: BasisSpec
    alphas: tuple[complex, ...]

    def __post_init__(self):
        if self.basis.kind != "modes":
            raise ValueError("ModeSum lives on a modes basis")
        alphas = tuple(complex(a) for a in self.alphas)
        if len(alphas) != self.basis.n_modes:
            raise ValueError(f"expected {self.basis.n_modes} alphas, got {len(alphas)}")
        object.__setattr__(self, "alphas", alphas)
        # sqrt(1..d-1): entry n-1 is the matrix element between |n-1> and |n>
        object.__setattr__(self, "_sq", np.sqrt(np.arange(1, self.basis.dims[0], dtype=float)))

    def apply_amps(self, amps: np.ndarray) -> np.ndarray:
        amps = np.asarray(amps, dtype=np.complex128)
        d, dim, lead = self.basis.dims[0], self.basis.dim, amps.shape[:-1]
        sq = self._sq[:, None]
        # buffers per call, reused by every mode (the operator is frozen and
        # may be shared between threads, so it holds none)
        out = np.empty(amps.shape, dtype=np.complex128)
        u = np.empty_like(out)
        term = np.empty_like(out) if len(self.alphas) > 1 else None
        low = 1
        for i, alpha in enumerate(self.alphas):
            # mode i is axis -2 of a (*lead, high, d, low) view
            shape = (*lead, dim // (low * d), d, low)
            cube, uc = amps.reshape(shape), u.reshape(shape)
            tc = (out if i == 0 else term).reshape(shape)
            u_lo, t_lo = uc[..., :-1, :], tc[..., :-1, :]
            # the term's rows hold sq * cube until the term is written, and
            # sq * u overwrites the rows of u that nothing reads again
            np.multiply(-alpha, cube, out=uc)
            np.multiply(sq, cube[..., 1:, :], out=t_lo)
            u_lo += t_lo
            np.multiply(-alpha.conjugate(), uc, out=tc)
            np.multiply(sq, u_lo, out=u_lo)
            tc[..., 1:, :] += u_lo
            if i:
                out += term
            low *= d
        return out

    def norm_bound(self) -> float:
        root = math.sqrt(self.basis.n_max)
        return sum((root + abs(a)) ** 2 for a in self.alphas)

    def lower_bound(self) -> float:
        return 0.0


@dataclass(frozen=True)
class LinearCombination(HamiltonianOp):
    """Real linear combination of Hermitian operators on one basis."""

    basis: BasisSpec
    terms: tuple[tuple[float, HamiltonianOp], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        for coeff, op in self.terms:
            _check_same_basis(self.basis, op.basis)
            if not math.isfinite(coeff):
                raise ValueError("coefficients must be finite reals")

    def apply_amps(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(amps), dtype=np.complex128)
        for coeff, op in self.terms:
            if coeff != 0.0:
                out += coeff * op.apply_amps(amps)
        return out

    def norm_bound(self) -> float:
        return sum(abs(c) * op.norm_bound() for c, op in self.terms)

    def lower_bound(self) -> float:
        # a negative coefficient flips the term, so its floor is -|c| * ||op||
        return sum(c * (op.lower_bound() if c >= 0 else op.norm_bound()) for c, op in self.terms)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def expectation(op: HamiltonianOp, psi: StateVector) -> float:
    """<psi|H|psi> for a normalized state; rejects a visible imaginary part."""
    _check_same_basis(op.basis, psi.basis)
    val = complex(np.vdot(psi.amps, op.apply_amps(psi.amps)))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary residue {val.imag!r}; operator not Hermitian?")
    return val.real


def variance(op: HamiltonianOp, psi: StateVector) -> float:
    """<H^2> - <H>^2 via the applied vector's norm; clamped at zero."""
    _check_same_basis(op.basis, psi.basis)
    h_psi = op.apply_amps(psi.amps)
    mean = complex(np.vdot(psi.amps, h_psi))
    if abs(mean.imag) > 1e-10 * max(1.0, abs(mean.real)):
        raise ValueError(f"expectation has imaginary residue {mean.imag!r}; operator not Hermitian?")
    second = float(np.real(np.vdot(h_psi, h_psi)))
    return max(second - mean.real ** 2, 0.0)


def default_fock_cutoff(alpha: complex) -> int:
    """The smallest n with ``poisson_tail(n, |alpha|^2) <= COHERENT_TAIL_TOL``, 0 at alpha = 0.
    The tail falls in n and tops 1/4 at floor(|alpha|^2) >= 1, so the search starts there."""
    mu = abs(alpha) ** 2
    if mu == 0:
        return 0
    lo, step = math.floor(mu), 1
    while poisson_tail(lo + step, mu) > COHERENT_TAIL_TOL:
        step *= 2
    return bisect.bisect_left(range(lo + step + 1), True, lo=lo,
                              key=lambda n: poisson_tail(n, mu) <= COHERENT_TAIL_TOL)


@dataclass
class CoherentPrep:
    """Truncated coherent state plus its truncation accounting."""

    state: StateVector
    n_max: int
    captured_mass: float
    tail_mass: float
    renorm_factor: float


def coherent_state(alpha: complex, n_max: int | None = None) -> CoherentPrep:
    """Coherent state of displacement alpha on a fock ladder cut at n_max.

    Amplitudes come from the closed form exp(-|a|^2/2) a^n / sqrt(n!), built in
    log space so large |alpha| cannot overflow, then renormalized over the kept
    levels.  If the discarded tail mass exceeds ``COHERENT_TAIL_TOL`` the call
    fails and names the smallest sufficient cutoff, :func:`default_fock_cutoff`.
    """
    alpha = complex(alpha)
    n_max = default_fock_cutoff(alpha) if n_max is None else n_max
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    mu = abs(alpha) ** 2
    tail = poisson_tail(n_max, mu) if mu > 0 else 0.0
    if tail > COHERENT_TAIL_TOL:
        raise ValueError(f"coherent tail mass {tail:.3e} above {COHERENT_TAIL_TOL:.1e} at "
                         f"n_max={n_max}; n_max={default_fock_cutoff(alpha)} suffices")
    n = np.arange(n_max + 1)
    if mu > 0:
        log_mag = -0.5 * mu + n * math.log(abs(alpha)) - 0.5 * np.array(
            [math.lgamma(k + 1) for k in n])
        amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    else:
        amps = (n == 0).astype(np.complex128)
    captured = float(np.sum(np.abs(amps) ** 2))
    renorm = 1.0 / math.sqrt(captured)
    state = StateVector(BasisSpec.modes(1, n_max), amps * renorm)
    return CoherentPrep(state=state, n_max=n_max, captured_mass=captured,
                        tail_mass=tail, renorm_factor=renorm)


def poisson_tail(k: int, mu: float) -> float:
    """P(X > k) for X ~ Poisson(mu), mu > 0, from the terms e^-mu mu^j / j!,
    each taken in log space so none overflows.  Below the mode (k + 1 < mu)
    it is 1 minus the head j <= k, in O(k) time and O(1) memory; the tail is
    then about one half or more, so the subtraction costs no precision that
    matters.  Otherwise it is the sum over j > k.  Past the mode each term is
    mu / j times the one before, so the terms left sum to at most
    t mu / (j - mu) after a term t; the sum stops once that is below e^-40
    (4e-18) of its largest term."""
    log_mu = math.log(mu)
    if k + 1 < mu:
        return 1.0 - math.fsum(math.exp(j * log_mu - mu - math.lgamma(j + 1))
                               for j in range(k + 1))
    logs, top, j = [], -math.inf, k + 1
    while True:
        logs.append(j * log_mu - mu - math.lgamma(j + 1))
        top = max(top, logs[-1])
        j += 1
        if j > mu and logs[-1] + math.log(mu / (j - mu)) < top - 40.0:
            break
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


# ---------------------------------------------------------------------------
# ground states
# ---------------------------------------------------------------------------

@dataclass
class GroundState:
    energy: float
    state: StateVector
    residual: float
    matvecs: int = 0


def degeneracy_tol(e: float) -> float:
    """How far above ``e`` a value may sit and still tie with it."""
    return DEGENERACY_RTOL * (1.0 + abs(e))


def argmin_set(values: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum of ``values`` and every position within DEGENERACY_RTOL of it."""
    e0 = float(np.min(values))
    return tuple(int(i) for i in np.nonzero(values <= e0 + degeneracy_tol(e0))[0]), e0


def ground_state(op: HamiltonianOp) -> GroundState:
    """Lowest eigenpair. Structured cases are exact; everything else comes
    from :func:`lowest`.

    A ``ModeSum`` is a sum of commuting one-mode terms, so its ground state is
    the product of the modes' ground states, each from :func:`lowest` on one
    ladder (mode 1 varies fastest), at the sum of their energies.  The product
    pair passes the same residual check as :func:`lowest`'s.
    """
    if isinstance(op, Diagonal):
        ties, e0 = argmin_set(op.values)
        return GroundState(energy=e0, state=basis_vector(op.basis, ties[0]), residual=0.0)
    if isinstance(op, ProjectorComplement):
        # |v> is the unique zero mode; the rest of the spectrum sits at 1
        return GroundState(energy=0.0, state=StateVector(op.basis, op.vector.copy()),
                           residual=0.0)
    if isinstance(op, ModeSum):
        ladder = BasisSpec.modes(1, op.basis.n_max)
        modes = [lowest(ModeSum(ladder, (alpha,)), 1) for alpha in op.alphas]
        energy = sum(float(p.values[0]) for p in modes)
        amps = modes[0].vectors[:, 0]
        for p in modes[1:]:
            amps = np.kron(p.vectors[:, 0], amps)
        residual = float(np.linalg.norm(op.apply_amps(amps) - energy * amps))
        tol = RESIDUAL_RTOL * max(1.0, op.norm_bound())
        if residual > tol:
            raise NumericGuardError(
                f"product ground state residual {residual:.3e} above {tol:.3e}")
        return GroundState(energy=energy, state=StateVector(op.basis, amps), residual=residual,
                           matvecs=sum(p.matvecs for p in modes) + 1)
    pairs = lowest(op, 1)
    return GroundState(energy=float(pairs.values[0]),
                       state=StateVector(op.basis, pairs.vectors[:, 0]),
                       residual=float(pairs.residuals[0]), matvecs=pairs.matvecs)


class Eigenpairs(NamedTuple):
    values: np.ndarray     # ascending, shape (k,)
    vectors: np.ndarray    # unit columns, shape (dim, k)
    residuals: np.ndarray  # ||H v - lambda v|| of each pair
    matvecs: int


def lowest(op: HamiltonianOp, k: int) -> Eigenpairs:
    """The k lowest eigenpairs of ``op`` (fewer only when dim < k).

    A ``LinearCombination`` of one ``ProjectorComplement`` a (1 - |v><v|) and
    one ``Diagonal`` b diag(d), in either order, is solved exactly in its
    :class:`InvariantSector` whenever v reaches at most ``DENSE_LIMIT`` levels
    of d: :meth:`InvariantSector.solve` gives the lowest pairs of the sector's
    K x K matrix, which merge with the closed-form levels a + b lam_j, and
    only the k chosen vectors are built in the full space.

    Any other operator up to ``DENSE_LIMIT`` dimensions is diagonalized as a
    dense matrix.  Above it, ARPACK's implicitly restarted Lanczos (eigsh)
    runs matrix-free from a seeded start vector, starting afresh if it stalls,
    all under ``MATVEC_BUDGET``; a Rayleigh-Ritz step then refines its vectors
    together with the exact ground vectors of every
    ``Diagonal``/``ProjectorComplement`` term, a level Lanczos can miss.
    Each of the three small matrices (sector, dense, Rayleigh-Ritz) goes to
    ``numpy.linalg.eigh``, real where it has no imaginary part, whose full
    spectrum is sliced to the k lowest pairs; scipy loads only for Lanczos.
    Every returned pair must satisfy
    ||H v - lambda v|| <= RESIDUAL_RTOL * max(1, norm_bound).  Every failed
    guard, and any other ARPACK error, raises :class:`NumericGuardError`.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    dim = op.basis.dim
    # asked for one pair, ARPACK's complex driver can settle on the second level
    # (it does on a one-mode ModeSum), so it always computes two or more, and it
    # needs dim > n_ritz + 1
    n_ritz = max(k, 2)
    tol = RESIDUAL_RTOL * max(1.0, op.norm_bound())
    split = _sector_split(op.terms) if isinstance(op, LinearCombination) else None
    if split is not None:
        a, b, sector = split
        values, coeffs = sector.solve(np.array([a]), np.array([b]), k, tol)
        values, vectors = sector.lift(a, b, values[0], coeffs[0], min(k, dim))
        h_vectors = op.apply_amps(vectors.T).T
        matvecs = vectors.shape[1]
    elif dim <= max(DENSE_LIMIT, n_ritz + 1):
        basis, h_basis, matvecs = None, to_dense(op), dim
        small = h_basis
    else:
        count = 0

        def matvec(x):
            nonlocal count
            count += 1
            if count > MATVEC_BUDGET:
                raise _BudgetExceeded
            return op.apply_amps(np.asarray(x, dtype=np.complex128).reshape(-1))

        from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence, LinearOperator,
                                          eigsh)

        linop = LinearOperator((dim, dim), matvec=matvec, dtype=np.complex128)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            try:
                _, ritz = eigsh(linop, k=n_ritz, which="SA", v0=v0, tol=1e-10,
                                maxiter=MATVEC_BUDGET)
                break
            except _BudgetExceeded:
                raise NumericGuardError(
                    f"eigensolve exceeded {MATVEC_BUDGET} matvecs") from None
            except ArpackNoConvergence as exc:
                stalled = exc  # restart from a fresh vector
            except ArpackError as exc:
                raise NumericGuardError(f"eigensolve failed: {exc}") from exc
        else:
            raise NumericGuardError(f"eigensolve failed to converge after restarts: {stalled}")
        terms = op.terms if isinstance(op, LinearCombination) else ((1.0, op),)
        exact = [ground_state(t).state.amps for _, t in terms
                 if isinstance(t, (Diagonal, ProjectorComplement))]
        basis = np.linalg.qr(np.column_stack([ritz, *exact]))[0]
        h_basis = op.apply_amps(basis.T).T
        matvecs = count + basis.shape[1]
        small = basis.conj().T @ h_basis
    if split is None:
        if not small.imag.any():
            small = small.real  # LAPACK's real symmetric driver takes about half the time
        values, coeffs = np.linalg.eigh(small)
        values, coeffs = values[:k], coeffs[:, :k]
        vectors = coeffs if basis is None else basis @ coeffs
        h_vectors = h_basis @ coeffs
    residuals = np.linalg.norm(h_vectors - vectors * values, axis=0)
    if np.any(residuals > tol):
        raise NumericGuardError(f"eigenpair residual {residuals.max():.3e} above {tol:.3e}")
    return Eigenpairs(values, vectors, residuals, matvecs)


def lowest_levels(terms: tuple[tuple[np.ndarray, HamiltonianOp], ...], k: int) -> np.ndarray:
    """The k lowest eigenvalues (fewer only when dim < k) of the
    ``LinearCombination`` of ``terms`` = ((c_1, op_1), (c_2, op_2), ...) at
    each entry i of the coefficient arrays c_j, one row per i: each row is
    :func:`lowest`'s ``values`` for the operator of that entry, bit for bit.

    A projector-plus-diagonal pair is solved in its :class:`InvariantSector`
    for every entry at once: one stacked :meth:`InvariantSector.solve`, each
    pair residual-checked in the sector against :func:`lowest`'s tolerance,
    and :meth:`InvariantSector.merge`'s closed-form levels.  No full-space
    vector is built.  The sector spans an invariant subspace, and the lift of
    its coefficients is an isometry onto it, so the sector residual is the
    full-space one up to rounding.  Any other operator goes to :func:`lowest`
    one entry at a time.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    terms = [(np.asarray(c, dtype=float), op) for c, op in terms]
    basis = terms[0][1].basis
    split = _sector_split(terms)
    if split is None:
        return np.array([lowest(LinearCombination(basis, tuple((float(c[i]), op) for c, op in terms)),
                                k).values for i in range(terms[0][0].size)])
    a, b, sector = split
    norm = sum(np.abs(c) * op.norm_bound() for c, op in terms)
    values, _ = sector.solve(a, b, k, RESIDUAL_RTOL * np.maximum(1.0, norm))
    return sector.merge(a, b, values, min(k, basis.dim))[0]


def _sector_split(terms) -> tuple[float, float, InvariantSector] | None:
    """(a, b, sector) of terms (a, 1 - |v><v|), (b, diag(d)), in either order,
    that :func:`lowest` can solve, else None; a and b are the terms'
    coefficients, scalars or arrays."""
    if len(terms) != 2:
        return None
    (a, proj), (b, diag) = sorted(terms, key=lambda t: not isinstance(t[1], ProjectorComplement))
    if not (isinstance(proj, ProjectorComplement) and isinstance(diag, Diagonal)):
        return None
    sector = InvariantSector.of(proj, diag)
    return (a, b, sector) if sector.reached.size <= DENSE_LIMIT else None


@dataclass(frozen=True)
class InvariantSector:
    """A projector axis v and a diagonal d split by the levels lam_j of d
    (:attr:`Diagonal.level_split`).  With P_j the projector onto level j and
    w_j = ||P_j v||, the vectors P_j v / w_j span a sector that holds v and is
    invariant under every a (1 - |v><v|) + b diag(d), which acts there as
    a (1 - w w^T) + b diag(lam); the rest of level j is orthogonal to v.

    ``h_i`` = 1 - |w><w|, ``h_p`` = diag(lam), ``g_i`` = w and the targets of
    :func:`argmin_set` are that model on every level, weight 0 where v misses
    one; :meth:`matrix` and :meth:`lift` serve :func:`lowest` on the
    ``reached`` levels.
    """

    vector: np.ndarray   # the axis v
    levels: np.ndarray   # the distinct values lam_j of d, ascending
    group: np.ndarray    # each entry's level j
    counts: np.ndarray   # each level's multiplicity m_j
    weights: np.ndarray  # w_j = ||P_j v||
    reached: np.ndarray  # the levels with w_j > 0

    @staticmethod
    def of(proj: ProjectorComplement, diag: Diagonal) -> "InvariantSector":
        _check_same_basis(proj.basis, diag.basis)
        levels, group, counts = diag.level_split
        weights = np.sqrt(np.bincount(group, weights=np.abs(proj.vector) ** 2,
                                      minlength=levels.size))
        return InvariantSector(proj.vector, levels, group, counts, weights,
                               np.flatnonzero(weights > 0))

    @cached_property
    def g_i(self) -> StateVector:
        return StateVector(BasisSpec.flat(self.levels.size), self.weights)

    @cached_property
    def h_i(self) -> ProjectorComplement:
        return ProjectorComplement(self.g_i.basis, self.weights)

    @cached_property
    def h_p(self) -> Diagonal:
        return Diagonal(self.g_i.basis, self.levels)

    @property
    def target_indices(self) -> tuple[int, ...]:
        return argmin_set(self.levels)[0]

    def matrix(self, a, b) -> np.ndarray:
        """a (1 - w w^T) + b diag(lam) over the reached levels, one K x K
        matrix per entry of the arrays a and b (shape (*a.shape, K, K)).  It is
        built in place, and each entry rounds as that expression does."""
        w, lam = self.weights[self.reached], self.levels[self.reached]
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        out = np.empty((*a.shape, w.size, w.size))
        np.multiply(w[:, None], w, out=out)
        np.subtract(0.0, out, out=out)  # off the diagonal, 1 - w w^T is 0 - w_i w_j
        out *= a[..., None, None]
        out += (b * 0.0)[..., None, None]  # and b diag(lam) is b 0, a signed zero
        out.reshape(*a.shape, -1)[..., ::w.size + 1] = (
            a[..., None] * (1.0 - w * w) + b[..., None] * lam)
        return out

    def solve(self, a: np.ndarray, b: np.ndarray, k: int, tol) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenpairs of :meth:`matrix` at each entry i of the
        1-d arrays a and b: values ascending, shape (n, k), and sector
        coefficients, shape (n, K, k).  The matrices go to
        ``numpy.linalg.eigh`` in stacks of at most ``_STACK_BYTES`` (one at
        least), which gives each matrix the bits a call on it alone gives.
        Every pair must satisfy ||M c - lambda c|| <= tol (a scalar, or one
        per i), else :class:`NumericGuardError`."""
        size = self.reached.size
        rows = max(1, _STACK_BYTES // (8 * size * size))
        tol = np.broadcast_to(tol, a.shape)
        k = min(k, size)
        values, coeffs = np.empty((a.size, k)), np.empty((a.size, size, k))
        for lo in range(0, a.size, rows):
            part = slice(lo, lo + rows)
            stack = self.matrix(a[part], b[part])
            lam, vec = np.linalg.eigh(stack)
            lam, vec = lam[:, :k], vec[:, :, :k]
            residuals = np.linalg.norm(stack @ vec - vec * lam[:, None, :], axis=1)
            bad = np.flatnonzero(residuals.max(axis=1) > tol[part])
            if bad.size:
                i = bad[0]
                raise NumericGuardError(f"sector eigenpair residual {residuals[i].max():.3e} "
                                        f"above {tol[part][i]:.3e}")
            values[part], coeffs[part] = lam, vec
            del stack, vec  # free this chunk before the next one is built
        return values, coeffs

    def merge(self, a, b, values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The k lowest of the sector ``values`` (along the last axis; a and b
        are scalars, or one per row) and the closed-form levels a + b lam_j
        (each m_j - 1 times, or m_j times when v misses it), ascending; ties
        keep sector values first.  Also each one's position in the sector
        values followed by the closed-form ones, and the level of each
        closed-form one."""
        spare = self.counts - (self.weights > 0)
        closed = np.repeat(np.arange(self.levels.size), np.minimum(spare, k))
        a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
        merged = np.concatenate([values, a + b * self.levels[closed]], axis=-1)
        order = np.argsort(merged, axis=-1, kind="stable")[..., :k]
        return np.take_along_axis(merged, order, -1), order, closed

    def lift(self, a: float, b: float, values: np.ndarray, coeffs: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`merge` of the eigenpairs (``values``, ``coeffs``) of
        :meth:`matrix`, with unit vectors in the full space."""
        levels, group, weights = self.levels, self.group, self.weights
        merged, order, closed = self.merge(a, b, values, k)
        vectors = np.empty((group.size, k), dtype=np.complex128)
        # a sector pair's vector is sum_j c_j P_j v / w_j over the reached levels
        in_sector = order < values.size
        full = np.zeros((levels.size, np.count_nonzero(in_sector)))
        full[self.reached] = coeffs[:, order[in_sector]]
        scale = np.where(weights > 0, weights, 1.0)
        vectors[:, in_sector] = full[group] * (self.vector / scale[group])[:, None]
        for col in np.flatnonzero(~in_sector):
            i = order[col] - values.size  # copy i - (first copy) of level closed[i]
            vectors[:, col] = self._inside(closed[i], i - np.searchsorted(closed, closed[i]))
        return merged, vectors

    def _inside(self, j: int, r: int) -> np.ndarray:
        """The r-th of an orthonormal set of unit vectors inside level j and
        orthogonal to v: column r + 1 of the Householder reflection that maps
        v's unit part on the level to its first entry, or the level's r-th
        entry when v misses the level."""
        members = np.flatnonzero(self.group == j)
        out = np.zeros(self.group.size, dtype=np.complex128)
        w = self.weights[j]
        if not w > 0:
            out[members[r]] = 1.0
            return out
        u = self.vector[members] / w
        head = abs(u[0])
        tail = np.conj(u[r + 1])
        u[0] += u[0] / head if head > 0 else 1.0  # |u|^2 = 2 (1 + head)
        col = u * (-tail / (1.0 + head))
        col[r + 1] += 1.0
        out[members] = col
        return out


class _BudgetExceeded(Exception):
    pass


def to_dense(op: HamiltonianOp) -> np.ndarray:
    """Materialize the matrix by applying to blocks of at most 256 basis vectors
    (small dims only).  Each row of a block holds a single 1, so every entry
    equals the one a single-column apply gives; the working memory beyond the
    matrix is a few (256, dim) arrays."""
    dim = op.basis.dim
    if dim > TO_DENSE_MAX_DIM:
        raise ValueError(f"refusing to densify dim {dim} > {TO_DENSE_MAX_DIM}")
    out = np.empty((dim, dim), dtype=np.complex128)
    for lo in range(0, dim, _DENSE_BLOCK):
        rows = min(_DENSE_BLOCK, dim - lo)
        out[:, lo:lo + rows] = op.apply_amps(np.eye(rows, dim, lo, dtype=np.complex128)).T
    return out
