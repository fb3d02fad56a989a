"""Closed-tour TSP instances, tour/tuple encodings, and exact tour statistics.

Everything here works on labeled closed tours: a tour visits each of the M
cities exactly once and returns to its start city, and the M cyclic rotations
of a visiting order count as distinct tours.  Nothing is quotiented out, so an
instance has exactly M! tours, and rotated copies tie exactly: every length is
one sum of the tour's sorted legs.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._ziggurat import KI, WI
from .hilbert import BasisSpec, argmin_set, degeneracy_tol, mode_digits

__all__ = [
    "Tour",
    "TspFormatError",
    "TspInstance",
    "DsqPolicy",
    "DistanceSampler",
    "BruteForceResult",
    "SigmaRow",
    "SigmaReport",
    "FractionRow",
    "FractionReport",
    "tour_length",
    "rank_to_tour",
    "index_to_tuple",
    "is_tour",
    "effective_length",
    "effective_lengths_all",
    "tour_index_mask",
    "tour_lengths_by_rank",
    "brute_force_shortest",
    "sigma_m",
    "sigma_scaling_study",
    "tour_fraction_decay",
    "random_instance",
    "parse_instance",
    "serialize_instance",
]

Tour = tuple[int, ...]

#: 20! is the largest factorial that fits a signed 64-bit rank
MAX_RANK_CITIES = 20
#: brute force budget: an all-tie instance still sums all 10! tours from city 0
MAX_ENUM_CITIES = 11
#: closed-form spread bound: d is 32 MB at 2048 cities
MAX_SPREAD_CITIES = 2048
#: the largest M whose M + 1 a double holds exactly, as lgamma(M + 1) needs
MAX_FRACTION_CITIES = 2 ** 53 - 1
#: safety factor of the penalty ceiling over the worst tour
LMAX_SAFETY = 1.1
#: above this M the penalty ceiling falls back to M * max(d)
_EXACT_LMAX_MAX_M = 10
#: rows per block of the sorted-leg sum and of the rotation ranks, so an 8!-row
#: scan never holds all its legs or ranks at once
_LENGTH_CHUNK = 1 << 12
#: bytes of sampled distance matrices per spread pass, so a study at large M
#: holds a few matrices at a time, never all its samples
_SIGMA_STACK_BYTES = 1 << 20
#: cities after a scanned block's prefix: of 5..8, 6 and 7 timed fastest for
#: brute force at M = 8..11, and 7 keeps an all-tie M = 11 scan to 720 blocks
_BLOCK_CITIES = 7
#: counters per raw-word read and per vectorized block of the random d^2
#: policy: of 2^9..2^12, 2^10 timed within 2% of the fastest on the M = 6
#: labels and holds under 100 KB beside the surcharges
_RAW_CHUNK = 1 << 10
#: the 52 bits of the ziggurat's rabs
_RABS = (1 << 52) - 1
#: the largest value of one 64-bit word of a Philox counter
_WORD = (1 << 64) - 1


class TspFormatError(ValueError):
    """Instance file rejected; `line` is the 1-based offending line if known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def _validate_distances(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if d.shape[0] < 3:
        raise ValueError("an instance needs at least 3 cities")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    if np.any(d < 0.0):
        raise ValueError("distances must be nonnegative")
    if np.any(np.diagonal(d) != 0.0):
        raise ValueError("the diagonal must be exactly zero")
    return d


@dataclass
class TspInstance:
    """Distance matrix plus the penalty ceiling ``l_max`` used for non-tours.

    ``l_max`` exceeds every tour length, so any state carrying it (or more)
    can never be mistaken for a tour.  Build instances via
    :meth:`from_distances` unless a specific ceiling is wanted.
    """

    d: np.ndarray
    l_max: float
    name: str = "tsp"

    def __post_init__(self):
        d = _validate_distances(self.d).copy()
        d.setflags(write=False)
        self.d = d
        self.l_max = float(self.l_max)
        if not (math.isfinite(self.l_max) and self.l_max > 0.0):
            raise ValueError("l_max must be positive and finite")

    @property
    def M(self) -> int:
        return self.d.shape[0]

    @classmethod
    def from_distances(cls, d, name: str = "tsp") -> "TspInstance":
        """Build an instance with ``l_max = 1.1 * (worst tour length)``.

        The worst tour is found exactly for M <= 10, over the (M-1)! tours
        from city 0, since a rotation has the same length: only the prefix
        blocks whose Held-Karp bound (:func:`_prefix_bounds`) can still reach
        the running maximum are summed, so the maximum is that of the full
        scan bit for bit.  Beyond that the ceiling falls back to the weaker
        but safe bound ``1.1 * M * max(d)``.
        """
        d = _validate_distances(d)
        M = d.shape[0]
        if M <= _EXACT_LMAX_MAX_M:
            prefixes, bounds, slack = _prefix_bounds(d, np.fmax)
            worst = -math.inf
            for i in np.argsort(-bounds, kind="stable"):
                if bounds[i] + slack < worst:
                    break  # every later block is bounded lower still
                worst = max(worst, float(np.max(_lengths_of(_block(prefixes[i], M), d))))
        else:
            worst = M * float(np.max(d))
        return cls(d=d, l_max=LMAX_SAFETY * worst, name=name)


@dataclass(frozen=True)
class DistanceSampler:
    """Entry-wise distance sampler.  kind: 'uniform' (low/high) or 'constant'."""

    kind: str = "uniform"
    low: float = 0.0
    high: float = 1.0
    value: float = 1.0
    symmetric: bool = False

    def __post_init__(self):
        if self.kind not in ("uniform", "constant"):
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        for key in ("low", "high", "value"):  # every distance finite and nonnegative
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ValueError(f"sampler {key} must be finite and >= 0, got {getattr(self, key)}")
        if self.kind == "uniform" and not self.high > self.low:
            raise ValueError("uniform sampler needs high > low")

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform":
            d = rng.uniform(self.low, self.high, size=(m, m))
        else:
            d = np.full((m, m), float(self.value))
        if self.symmetric:
            upper = np.triu(d, 1)
            d = upper + upper.T
        np.fill_diagonal(d, 0.0)
        return d


def random_instance(m: int, seed: int, sampler: DistanceSampler | None = None,
                    stream: int = 0, name: str | None = None) -> TspInstance:
    """Sample an instance from the stream keyed by (seed, m, stream)."""
    sampler = sampler or DistanceSampler()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, stream)))
    d = sampler.sample(m, rng)
    return TspInstance.from_distances(d, name=name or f"random-m{m}-s{seed}-{stream}")


# ---------------------------------------------------------------------------
# tours and encodings
# ---------------------------------------------------------------------------

def _check_tour(tour, m: int) -> None:
    if len(tour) != m:
        raise ValueError(f"tour has {len(tour)} cities, instance has {m}")
    if sorted(tour) != list(range(m)):
        raise ValueError(f"{tuple(tour)} is not a permutation of 0..{m - 1}")


def tour_length(inst: TspInstance, tour) -> float:
    """Length of the closed tour, including the return leg to the start city."""
    _check_tour(tour, inst.M)
    return float(_lengths_of(np.array([tour]), inst.d)[0])


def _lengths_of(perms: np.ndarray, d: np.ndarray) -> np.ndarray:
    # every tour length, scalar or tabled: a row's legs sorted (nonnegative floats
    # order as their int64 bits), then added strictly left to right by one
    # accumulate, so rotations (and reversals, for a symmetric d) have the same
    # legs and get the same bits; the closing + 0.0 gives a row of -0.0 legs the
    # +0.0 that a sum started from +0.0 gives it
    m = len(d)
    out = np.empty(len(perms))
    for lo in range(0, len(perms), _LENGTH_CHUNK):
        rows = perms[lo:lo + _LENGTH_CHUNK].astype(np.intp)
        legs = rows * m  # flat index of each leg: city, then its successor
        legs[:, :-1] += rows[:, 1:]
        legs[:, -1] += rows[:, 0]
        legs = d.ravel()[legs]
        legs.view(np.int64).sort(axis=1)
        out[lo:lo + len(rows)] = np.cumsum(legs, axis=1, out=legs)[:, -1] + 0.0
    return out


def _block(prefix: tuple[int, ...], m: int) -> np.ndarray:
    """Every permutation of range(m) that starts with ``prefix``, in rank order."""
    tails = _all_perms(m - len(prefix))
    if not prefix:
        return tails
    rest = np.array([c for c in range(m) if c not in prefix], dtype=np.int8)
    return np.hstack([np.tile(np.array(prefix, dtype=np.int8), (len(tails), 1)), rest[tails]])


@functools.cache
def _all_perms(m: int) -> np.ndarray:
    """All permutations of range(m) in lexicographic (rank) order, cached for m <= 8."""
    if m > 8:
        raise ValueError("permutation table capped at 8 cities")
    if m == 0:
        return np.zeros((1, 0), dtype=np.int8)
    arr = np.concatenate([_block((first,), m) for first in range(m)])
    arr.setflags(write=False)
    return arr


def _completions(d: np.ndarray, best) -> np.ndarray:
    """The Held-Karp table of ``d``: entry [S, j] is the ``best`` (``np.fmin``
    or ``np.fmax``) length of a path from city j through every city of the
    set S back to city 0, where bit c - 1 of S stands for city c >= 1.

    It has 2^(M-1) x M entries, filled one subset size at a time (Held & Karp,
    J. SIAM 10, 196 (1962)).  Entries with j in S are no path and are never
    read.  Each path is summed from its last leg back, and rounding is
    monotone, so an entry is the best of its paths' rounded sums.  Each layer
    also gathers the rows of the next one, masked out; they start as quiet
    NaN, so no leftover bit pattern can raise a floating-point error there.
    """
    m = len(d)
    masks = np.arange(1 << (m - 1))
    sizes = np.bitwise_count(masks)
    bits = 1 << np.arange(m - 1)  # bit c - 1 of S is city c
    table = np.full((masks.size, m), np.nan)
    table[0] = d[:, 0]
    for size in range(1, m):
        layer = masks[sizes == size][:, None]
        # via[S, j, c - 1]: j -> c, then c's best path through S - {c}
        via = d[:, 1:] + table[layer ^ bits, np.arange(1, m)][:, None, :]
        in_s = (layer & bits != 0)[:, None, :]
        table[layer[:, 0]] = best.reduce(np.where(in_s, via, np.nan), axis=2)
    return table


def _prefix_bounds(d: np.ndarray, best) -> tuple[list[Tour], np.ndarray, float]:
    """The prefix blocks of the (M-1)! tours from city 0, each block's best
    length from :func:`_completions`, and the rounding slack of those bounds.

    A block holds the tours that start with one prefix (0, a, ...) and end in
    every order of the other ``min(M - 2, _BLOCK_CITIES)`` cities.  Its bound is
    the prefix's legs plus the best completion: the best over the block of one
    rounded sum of each tour's M legs.  :func:`_lengths_of` sums the same legs
    in another order.  Each sum of M nonnegative legs takes M - 1 roundings, so
    it is within gamma(M - 1) L of the exact length L <= M max(d), where
    gamma(n) = n u / (1 - n u) and u = eps / 2 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Sec. 4.2).  So a block's best sorted-leg
    length is within 2 gamma(M - 1) M max(d) < 2 (M - 1) M u max(d) (1 + 1e-14)
    of its bound.  The slack M^2 eps max(d) = 2 M^2 u max(d) adds 2 M u max(d),
    which covers the rounding of a comparison against an optimum <= M max(d).
    """
    m = len(d)
    tail = min(m - 2, _BLOCK_CITIES)
    prefixes = [(0, *p) for p in itertools.permutations(range(1, m), m - 1 - tail)]
    rows = np.array(prefixes, dtype=np.intp)
    legs = d[rows[:, :-1], rows[:, 1:]].sum(axis=1)
    left = (1 << (m - 1)) - 1 - ((1 << rows[:, 1:]) >> 1).sum(axis=1)
    bounds = legs + _completions(d, best)[left, rows[:, -1]]
    return prefixes, bounds, m * m * np.finfo(float).eps * float(np.max(d))


def _rotation_ranks(rows: np.ndarray) -> np.ndarray:
    """1-based ranks of every rotation of each row: column k holds the rank of
    the row rotated left by k.  Rows of the tours from city 0 give each tour
    exactly once this way.

    A rank is 1 + sum_i c_i (M-1-i)!, with Lehmer digit c_i the number of later
    cities below the one at position i (Knuth, TAOCP vol. 2, Sec. 3.3.2).
    Moving the first city to the end adds one later city to every other
    position, so each city's digit goes up by one where the moved city is below
    it, and the moved city's digit is 0: one (M, rows) int8 compare-and-add per
    rotation, never a pairwise table.  Rotation k puts city column p at
    position (p - k) mod M, so its weights are one row of a rotated factorial
    table.  Digits are below M <= 11 and ranks at most M! <= 11! < 2^53, so
    each weighted sum is exact in doubles, in any order.
    """
    n, m = rows.shape
    cities = np.ascontiguousarray(rows.T)
    digits = np.zeros((m, n), dtype=np.int8)
    for q in range(1, m):
        digits[:q] += cities[q] < cities[:q]
    factorials = np.array([math.factorial(m - 1 - i) for i in range(m)], dtype=float)
    weights = factorials[(np.arange(m) - np.arange(m)[:, None]) % m]
    ranks = np.empty((m, n))
    for k in range(m):
        np.matmul(weights[k], digits.astype(float), out=ranks[k])
        digits += cities[k] < cities
        digits[k] = 0
    ranks += 1
    return ranks.astype(np.int64).T


def rank_to_tour(k: int, m: int) -> Tour:
    """Tour with 1-based lexicographic rank k among the m! permutations."""
    if not 3 <= m <= MAX_RANK_CITIES:
        raise ValueError(f"m must be in [3, {MAX_RANK_CITIES}], got {m}")
    nfact = math.factorial(m)
    if not 1 <= k <= nfact:
        raise ValueError(f"rank {k} outside [1, {m}!] = [1, {nfact}]")
    rem = k - 1
    pool = list(range(m))
    out = []
    for i in range(m - 1, -1, -1):
        digit, rem = divmod(rem, math.factorial(i))
        out.append(pool.pop(digit))
    return tuple(out)


def index_to_tuple(s: int, m: int) -> Tour:
    """Decode the 1-based state index into (m_1, ..., m_M), least significant first.

    The encoding is s = 1 + sum_i m_i * M**(i-1) with digits in 0..M-1, so the
    first component varies fastest as s increases: the occupations of flat
    index s-1 on M ladders cut at M-1 (:func:`hilbert.mode_digits`).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not 1 <= s <= m ** m:
        raise ValueError(f"index {s} outside [1, {m}^{m}]")
    return mode_digits(BasisSpec.modes(m, m - 1), s - 1)


def is_tour(digits) -> bool:
    """True when the tuple visits every city exactly once."""
    return sorted(digits) == list(range(len(digits)))


# ---------------------------------------------------------------------------
# effective lengths (penalized non-tours)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DsqPolicy:
    """How the d**2 penalty surcharge of a non-tour index is produced.

    'parity' gives the deterministic ``(1 - (-1)**s) * l_max`` (0 for even s,
    2*l_max for odd s).  'random' squares one normal draw with standard
    deviation ``sigma_d``; the draw is a pure function of (seed, s) through a
    counter-based generator, so single values can be reproduced without
    generating any prefix.
    """

    kind: str = "parity"
    sigma_d: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("parity", "random"):
            raise ValueError(f"unknown d^2 policy {self.kind!r}")
        if not math.isfinite(self.sigma_d):
            raise ValueError(f"sigma_d must be finite, got {self.sigma_d!r}")
        if self.kind != "random":
            return
        if not self.sigma_d > 0:
            raise ValueError("random policy needs sigma_d > 0")
        seed = self.seed  # the Philox key
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or not 0 <= seed < 1 << 128):
            raise ValueError(f"random policy needs an integer seed in [0, 2^128), got {seed!r}")

    def dsq(self, s: int, l_max: float) -> float:
        """The surcharge of index s; a random one is the square of the fresh
        draw that :meth:`_dsq_all` matches, made without its bulk set-up."""
        if self.kind == "random":
            gen, seek = _fresh_philox(self.seed)
            seek(s)
            draw = gen.normal(0.0, self.sigma_d)
            return draw * draw
        return float(self._dsq_all([s], l_max)[0])

    def _dsq_all(self, s_values, l_max: float) -> np.ndarray:
        """Surcharges of the indices ``s_values``, in their order.

        Each random draw is bit-identical to
        ``Generator(Philox(key=seed, counter=s)).normal(0.0, sigma_d)``, however
        many are drawn at once.  A fresh Philox generator at counter s reads
        its first 64-bit word w from block s + 1.  So one generator set fresh
        at the first counter s0 of a run of consecutive counters reads, by
        ``random_raw``, the w of counter s0 + k as its word 4k.  numpy's
        ziggurat (:mod:`._ziggurat`) returns after that one word when
        rabs = (w >> 9) & (2^52 - 1) is below ``KI[w & 0xff]``, with the draw
        +-rabs * ``WI[w & 0xff]``; the sign bit and loc = 0.0 cannot change
        the square.  So the first raw word decides the fast path, and every
        other counter (about 1.5% of them) gets one fresh draw.
        """
        if self.kind == "parity":
            return np.where(np.asarray(s_values) % 2 == 0, 0.0, 2.0 * l_max)
        # exact counters: np.asarray rounds a list of ints past int64 to floats
        s = s_values if isinstance(s_values, np.ndarray) else np.asarray(s_values, dtype=object)
        if s.size == 0:
            return np.empty(0)
        if s.dtype.kind != "i":
            s = s.astype(object)
        if s.min() < 0 or s.max() >= 1 << 256:  # as Philox(counter=s) rejects them
            raise ValueError("Philox counters must lie in [0, 2^256)")
        breaks = (np.flatnonzero(np.diff(s) != 1) + 1).tolist() if s.size > 1 else []
        gen, seek = _fresh_philox(self.seed)
        out = np.empty(s.size)
        raw = out.view(np.uint64)  # the first word of each counter, until replaced
        for a, b in zip([0, *breaks], [*breaks, s.size]):
            seek(int(s[a]))
            for lo in range(a, b, _RAW_CHUNK):
                hi = min(b, lo + _RAW_CHUNK)
                raw[lo:hi] = gen.bit_generator.random_raw(4 * (hi - lo))[::4]
        sigma_d = float(self.sigma_d)
        for lo in range(0, s.size, _RAW_CHUNK):
            w = raw[lo:lo + _RAW_CHUNK]
            idx, rabs = (w & 0xFF).astype(np.intp), w >> 9 & _RABS
            slow = (np.flatnonzero(rabs >= KI[idx]) + lo).tolist()
            out[lo:lo + _RAW_CHUNK] = sigma_d * (rabs * WI[idx])
            for k in slow:
                seek(int(s[k]))
                out[k] = gen.normal(0.0, sigma_d)
        out *= out
        return out


#: each thread's one Philox generator and its saved fresh state, made on first use
_PHILOX = threading.local()


def _fresh_philox(key: int):
    """This thread's Philox generator, and a ``seek(s)`` that sets it to the
    state of a fresh ``Generator(Philox(key=key, counter=s))``.  A constructed
    Philox, even a keyed one, seeds a ``SeedSequence`` from OS entropy (about
    10 us); setting a saved state takes about 1 us.  ``seek`` rejects counters
    outside [0, 2^256), as ``Philox(counter=s)`` does.
    """
    if not hasattr(_PHILOX, "gen"):
        _PHILOX.gen = np.random.Generator(np.random.Philox(key=0))
        _PHILOX.fresh = _PHILOX.gen.bit_generator.state
    gen, fresh = _PHILOX.gen, _PHILOX.fresh
    key = int(key)
    fresh["state"]["key"][:] = [key & _WORD, key >> 64]

    def seek(counter: int) -> None:
        counter = int(counter)
        if not 0 <= counter < 1 << 256:
            raise ValueError("Philox counters must lie in [0, 2^256)")
        fresh["state"]["counter"][:] = _philox_words(counter)
        gen.bit_generator.state = fresh

    return gen, seek


def _philox_words(counter: int) -> list[int]:
    """The 256-bit Philox counter as four little-endian 64-bit words."""
    if 0 <= counter <= _WORD:
        return [counter, 0, 0, 0]
    return [counter >> 64 * w & _WORD for w in range(4)]


def effective_length(inst: TspInstance, s: int, policy: DsqPolicy) -> float:
    """Tour length if index s encodes a tour, else ``d^2 + l_max``."""
    digits = index_to_tuple(s, inst.M)
    if is_tour(digits):
        return tour_length(inst, digits)
    return policy.dsq(s, inst.l_max) + inst.l_max


def _tour_positions(m: int) -> np.ndarray:
    """Position s-1 of each tour among the M^M labels, in rank order: a tour's
    digits are its permutation row, so s-1 is that row's base-M value."""
    if m > 8:
        raise ValueError("full M^M table capped at M = 8")
    return _all_perms(m) @ m ** np.arange(m)


def tour_index_mask(m: int) -> np.ndarray:
    """Boolean mask over s = 1..M^M (position s-1): True where s encodes a tour."""
    mask = np.zeros(m ** m, dtype=bool)
    mask[_tour_positions(m)] = True
    return mask


def effective_lengths_all(inst: TspInstance, policy: DsqPolicy) -> np.ndarray:
    """Vector of effective lengths for s = 1..M^M (index s at position s-1)."""
    tours = _tour_positions(inst.M)
    non_tour = np.ones(inst.M ** inst.M, dtype=bool)
    non_tour[tours] = False
    out = np.empty(non_tour.size)
    out[tours] = tour_lengths_by_rank(inst)
    non_idx = np.flatnonzero(non_tour)
    out[non_idx] = policy._dsq_all(non_idx + 1, inst.l_max) + inst.l_max
    return out


def tour_lengths_by_rank(inst: TspInstance) -> np.ndarray:
    """Tour lengths ordered by 1-based rank (position k-1 holds rank k); M <= 9.

    Only the (M-1)! tours from city 0 are summed; each length is then written
    at the ranks of the tour's M rotations, which have the same legs and so
    the same bits.
    """
    m = inst.M
    if m > 9:
        raise ValueError("rank table capped at 9 cities")
    rows = _block((0,), m)
    lengths = _lengths_of(rows, inst.d)
    out = np.empty(math.factorial(m))
    for lo in range(0, len(rows), _LENGTH_CHUNK):
        out[_rotation_ranks(rows[lo:lo + _LENGTH_CHUNK]) - 1] = lengths[lo:lo + _LENGTH_CHUNK, None]
    return out


# ---------------------------------------------------------------------------
# exact enumeration statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BruteForceResult:
    tour: Tour
    length: float
    tied_ranks: tuple[int, ...]  # every rank within DEGENERACY_RTOL of the optimum


def brute_force_shortest(inst: TspInstance) -> BruteForceResult:
    """Exact shortest closed tour; ties resolved to the smallest rank.

    ``tied_ranks`` lists every rank within DEGENERACY_RTOL of the optimum:
    every rotation (and, for a symmetric d, reversal) of each optimal cycle.
    The lengths are the sorted-leg sums of a full scan, bit for bit, but only
    the prefix blocks of the tours from city 0 whose Held-Karp bound
    (:func:`_prefix_bounds`) can still reach the running optimum are summed,
    best bound first; each tied tour then stands for its M rotations.
    """
    m = inst.M
    if m > MAX_ENUM_CITIES:
        raise ValueError(f"brute force capped at {MAX_ENUM_CITIES} cities")
    prefixes, bounds, slack = _prefix_bounds(inst.d, np.fmin)
    # keep each length within the tolerance of the best so far; that only
    # shrinks as the best falls, so the rule applied at the end is exact
    best, rows, lengths = math.inf, [], []
    for i in np.argsort(bounds, kind="stable"):
        if bounds[i] - slack > best + degeneracy_tol(best):
            break  # no tour of this block or a later one can tie
        block = _block(prefixes[i], m)
        block_lengths = _lengths_of(block, inst.d)
        best = min(best, float(np.min(block_lengths)))
        keep = block_lengths <= best + degeneracy_tol(best)
        rows.append(block[keep])
        lengths.append(block_lengths[keep])
    pos, best = argmin_set(np.concatenate(lengths))
    tied = np.concatenate(rows)[list(pos)]
    ties = tuple(np.sort(_rotation_ranks(tied), axis=None).tolist())
    return BruteForceResult(tour=rank_to_tour(ties[0], m), length=best, tied_ranks=ties)


def _spreads(d: np.ndarray) -> np.ndarray:
    """The spread of :func:`sigma_m` of each matrix of the (n, M, M) stack ``d``,
    with the bits of that matrix alone: each total runs over its flattened M^2
    entries (numpy's pairwise order), and ``row @ col`` is one BLAS dot per
    matrix, since a batched product adds in another order.
    """
    n, m, _ = d.shape
    # legs centred on their mean: the variance is shift-invariant, and the sums cancel less
    c = d - (d.reshape(n, -1).sum(axis=1) / (m * (m - 1)))[:, None, None]
    c.reshape(n, -1)[:, ::m + 1] = 0.0
    row, col = c.sum(axis=2), c.sum(axis=1)
    sq = (c * c).reshape(n, -1).sum(axis=1)                          # same leg twice
    back = (c * c.transpose(0, 2, 1)).reshape(n, -1).sum(axis=1)     # a leg and its reverse
    # sums of c_ab c_be over distinct a, b, e and of c_ab c_ce over distinct
    # a, b, c, e, by inclusion-exclusion over the shared cities (sum(c) = 0)
    adjacent = np.array([r @ k for r, k in zip(row, col)]) - back
    disjoint = sq + back - ((row + col) ** 2).sum(axis=1) if m > 3 else 0.0
    var = (sq + (2.0 * adjacent + disjoint) / (m - 2)) / (m - 1)
    # sq >= +0.0 makes var never -0.0, so np.maximum clamps it as max(var, 0.0) does
    return np.sqrt(np.maximum(var, 0.0))


def sigma_m(inst: TspInstance) -> float:
    """Population standard deviation of all M! closed-tour lengths, in closed form:
    Var(L) = M Var(leg) + 2M Cov(adjacent legs) + M(M-3) Cov(legs with no city
    in common).  Where the true spread is 0 (any symmetric M = 3 instance) the
    variance cancels only to roundoff: it reads up to about sqrt(eps) * max(d).
    """
    if inst.M > MAX_SPREAD_CITIES:
        raise ValueError(f"spread capped at {MAX_SPREAD_CITIES} cities")
    return float(_spreads(inst.d[None])[0])


@dataclass(frozen=True)
class SigmaRow:
    m: int
    samples: int
    sigma_mean: float
    sigma_stderr: float
    ratio_sqrtm: float


@dataclass
class SigmaReport:
    rows: list[SigmaRow]


def sigma_scaling_study(sampler: DistanceSampler, m_values, samples: int,
                        seed: int) -> SigmaReport:
    """Mean tour-length spread over sampled instances, per instance size.

    Instance (m, idx) always draws from the stream keyed by (seed, m, idx),
    so rows are reproducible independently of iteration order.  Samples are
    stacked up to ``_SIGMA_STACK_BYTES`` (or one larger matrix) per
    :func:`_spreads` pass.
    """
    if samples < 1:
        raise ValueError("need at least one sample per size")
    rows = []
    for m in m_values:
        if not 3 <= m <= MAX_SPREAD_CITIES:
            raise ValueError(f"sizes must be in [3, {MAX_SPREAD_CITIES}], got {m}")
        sigmas = np.empty(samples)
        per_pass = max(1, _SIGMA_STACK_BYTES // (8 * m * m))
        for lo in range(0, samples, per_pass):
            stack = np.empty((min(per_pass, samples - lo), m, m))
            for idx, d in enumerate(stack, start=lo):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, idx)))
                d[...] = sampler.sample(m, rng)
            sigmas[lo:lo + len(stack)] = _spreads(stack)
        mean = float(np.mean(sigmas))
        stderr = float(np.std(sigmas, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        rows.append(SigmaRow(m=m, samples=samples, sigma_mean=mean,
                             sigma_stderr=stderr, ratio_sqrtm=mean / math.sqrt(m)))
    return SigmaReport(rows=rows)


@dataclass(frozen=True)
class FractionRow:
    m: int
    exact_ratio: float        # M! / M^M, exact integer arithmetic then one rounding
    stirling: float           # sqrt(2 pi M) * exp(-M)
    stirling_rel_dev: float
    sqrt_m_form: float        # exp(-M) / sqrt(M), the cruder closed form
    sqrt_m_form_rel_dev: float
    log_exact: float          # ln(M!/M^M) in log-space (no overflow for any M)


@dataclass
class FractionReport:
    rows: list[FractionRow]


#: B_2k / (2k (2k - 1)), k = 1..7: r(M) = ln M! - ln(sqrt(2 pi M) (M/e)^M) is
#: their sum over M^(2k - 1) (Abramowitz & Stegun 6.1.41).  The series
#: alternates, so from M = 21 on the omitted rest is under 1e-18 of r.
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def tour_fraction_decay(m_values) -> FractionReport:
    """How the tour fraction M!/M^M decays, against two closed forms.

    The exact ratio is computed in integer arithmetic (as a Fraction) for
    M <= 20 and in log-space beyond, never through a lossy factorial float.
    Beyond M = 20 the deviations come from the Stirling remainder r(M), not
    from a difference of logs whose roundoff grows as M log M; so they keep
    full precision, and stay finite where the ratios underflow.
    """
    rows = []
    for m in m_values:
        if not 1 <= m <= MAX_FRACTION_CITIES:
            raise ValueError("sizes must be in 1..2**53 - 1")
        log_exact = math.lgamma(m + 1) - m * math.log(m)
        stirling = math.sqrt(2.0 * math.pi * m) * math.exp(-m)
        crude = math.exp(-m) / math.sqrt(m)
        if m <= 20:
            exact = float(Fraction(math.factorial(m), m ** m))
            stirling_dev, crude_dev = exact / stirling - 1.0, exact / crude - 1.0
        else:
            # exact / stirling = exp(r) and exact / crude = sqrt(2 pi) M exp(r)
            x, r = 1.0 / m, 0.0
            for c in reversed(_STIRLING_SERIES):  # Horner in 1/M^2
                r = r * (x * x) + c
            r *= x
            exact = math.exp(log_exact)
            stirling_dev = math.expm1(r)
            crude_dev = math.sqrt(2.0 * math.pi) * m * math.exp(r) - 1.0
        rows.append(FractionRow(m, exact, stirling, stirling_dev, crude, crude_dev, log_exact))
    return FractionReport(rows=rows)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def parse_instance(path, fmt: str = "tsplib") -> TspInstance:
    """Load an instance file.  fmt is 'tsplib' (subset) or 'matrix'.

    Every fault in the file raises :class:`TspFormatError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TspFormatError(f"cannot read {path}: {exc}") from exc
    parsers = {"tsplib": _parse_tsplib, "matrix": _parse_matrix}
    if fmt not in parsers:
        raise ValueError(f"unknown instance format {fmt!r}")
    d, name = parsers[fmt](text, path.stem)
    try:
        return TspInstance.from_distances(d, name=name)
    except ValueError as exc:  # every entry passed, but l_max is 0 or overflows
        raise TspFormatError(f"no usable penalty ceiling: {exc}") from None


def serialize_instance(inst: TspInstance) -> str:
    """Matrix-format text: first line M, then M whitespace-separated rows.

    Floats are written with repr, so parse(serialize(inst)) reproduces the
    distance matrix (and hence l_max) bit for bit.
    """
    lines = [str(inst.M)]
    for row in inst.d:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _city_count(tok: str, line: int, what: str) -> int:
    try:
        m = int(tok)
    except ValueError:
        raise TspFormatError(f"{what} must be an integer, got {tok!r}", line=line) from None
    if m < 3:
        raise TspFormatError(f"{what} must be >= 3, got {m}", line=line)
    return m


def _matrix(pairs: list[tuple[str, int]], m: int, line: int) -> np.ndarray:
    """The row-major M x M matrix of M*M (token, line) pairs; ``line`` is
    blamed for a count fault when there are no pairs at all."""
    if len(pairs) != m * m:
        where = pairs[-1][1] if pairs else line
        raise TspFormatError(f"expected {m * m} matrix entries, found {len(pairs)}", line=where)
    d = np.empty((m, m))
    for pos, (tok, n) in enumerate(pairs):
        i, j = divmod(pos, m)
        try:
            val = float(tok)
        except ValueError:
            raise TspFormatError(f"bad number {tok!r}", line=n) from None
        if not math.isfinite(val):
            raise TspFormatError(f"non-finite distance d[{i}][{j}] = {tok}", line=n)
        if val < 0:
            raise TspFormatError(f"negative distance d[{i}][{j}] = {val}", line=n)
        if i == j and val != 0.0:
            raise TspFormatError(f"nonzero diagonal d[{i}][{i}] = {val}", line=n)
        d[i, j] = val
    return d


def _parse_matrix(text: str, name: str) -> tuple[np.ndarray, str]:
    pairs = [(tok, n) for n, raw in enumerate(text.splitlines(), start=1)
             if not raw.strip().startswith("#") for tok in raw.split()]
    if not pairs:
        raise TspFormatError("empty matrix file")
    (head, line), body = pairs[0], pairs[1:]
    return _matrix(body, _city_count(head, line, "city count"), line), name


#: the data section that each supported EDGE_WEIGHT_TYPE reads
_TSPLIB_SECTIONS = {"EXPLICIT": "EDGE_WEIGHT_SECTION", "EUC_2D": "NODE_COORD_SECTION"}


def _parse_tsplib(text: str, name: str) -> tuple[np.ndarray, str]:
    lines = text.splitlines()
    header: dict[str, tuple[str, int]] = {}
    section = None
    for start, raw in enumerate(lines, start=1):
        key, colon, val = raw.partition(":")
        key = key.strip().upper()
        if key in (*_TSPLIB_SECTIONS.values(), "EOF"):
            section = key
            break
        if colon:
            header[key] = (val.strip(), start)
        elif raw.strip():
            raise TspFormatError(f"expected 'KEY : value', got {raw.strip()!r}", line=start)

    def need(key: str, allowed=None) -> tuple[str, int]:
        if key not in header:
            raise TspFormatError(f"missing required header {key}")
        val, line = header[key]
        if allowed and val.upper() not in allowed:
            raise TspFormatError(f"unsupported {key} {val!r}", line=line)
        return val, line

    need("TYPE", ("TSP",))
    m = _city_count(*need("DIMENSION"), "DIMENSION")
    ewt = need("EDGE_WEIGHT_TYPE", tuple(_TSPLIB_SECTIONS))[0].upper()
    name = header.get("NAME", ("",))[0] or name
    if section is None:
        raise TspFormatError("no data section found")
    if ewt == "EXPLICIT":
        need("EDGE_WEIGHT_FORMAT", ("FULL_MATRIX",))
    if section != _TSPLIB_SECTIONS[ewt]:
        raise TspFormatError(f"{ewt} instance needs {_TSPLIB_SECTIONS[ewt]}, got {section}",
                             line=start)
    rows = []
    for n, raw in enumerate(lines[start:], start=start + 1):
        if raw.strip().upper() == "EOF":
            break
        rows.append((n, raw.strip()))
    if ewt == "EXPLICIT":
        return _matrix([(tok, n) for n, row in rows for tok in row.split()], m, start), name
    coords: dict[int, tuple[float, float]] = {}
    for n, row in rows:
        parts = row.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise TspFormatError(f"expected 'index x y', got {row!r}", line=n)
        try:
            idx, xy = int(parts[0]), (float(parts[1]), float(parts[2]))
        except ValueError:
            raise TspFormatError(f"bad node line {row!r}", line=n) from None
        if not 1 <= idx <= m:
            raise TspFormatError(f"node index {idx} outside 1..{m}", line=n)
        if idx in coords:
            raise TspFormatError(f"duplicate node index {idx}", line=n)
        if not all(map(math.isfinite, xy)):
            raise TspFormatError(f"non-finite coordinate in node line {row!r}", line=n)
        coords[idx] = xy
    if len(coords) != m:
        raise TspFormatError(f"expected {m} nodes, found {len(coords)}", line=start)
    pts = np.array([coords[k] for k in range(1, m + 1)])
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        # nearest-integer rounding, floor(x + 0.5), as the format defines it
        d = np.floor(np.sqrt(np.sum(diff * diff, axis=2)) + 0.5)
    if not np.all(np.isfinite(d)):
        raise TspFormatError("node coordinates too far apart for finite distances", line=start)
    np.fill_diagonal(d, 0.0)
    return d, name
