import functools
import hashlib
import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from adiabound import tsp
from adiabound.hilbert import degeneracy_tol
from adiabound import (
    DistanceSampler,
    DsqPolicy,
    TspFormatError,
    TspInstance,
    brute_force_shortest,
    effective_length,
    effective_lengths_all,
    index_to_tuple,
    is_tour,
    parse_instance,
    random_instance,
    rank_to_tour,
    serialize_instance,
    sigma_m,
    sigma_scaling_study,
    tour_fraction_decay,
    tour_index_mask,
    tour_length,
    tour_lengths_by_rank,
)

SEED = 20260825


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError):
        TspInstance.from_distances(np.zeros((2, 2)))  # too few cities
    with pytest.raises(ValueError):
        TspInstance.from_distances(np.zeros((3, 4)))  # not square
    bad = np.ones((3, 3)) - np.eye(3)
    bad[0, 1] = -0.5
    with pytest.raises(ValueError):
        TspInstance.from_distances(bad)  # negative distance
    bad = np.ones((3, 3))
    with pytest.raises(ValueError):
        TspInstance.from_distances(bad)  # nonzero diagonal
    bad = np.ones((3, 3)) - np.eye(3)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        TspInstance.from_distances(bad)  # non-finite


def test_instance_distances_read_only():
    inst = random_instance(4, SEED)
    with pytest.raises(ValueError):
        inst.d[0, 1] = 99.0


def test_l_max_small_m_is_worst_tour(cyclic4):
    worst = max(tour_length(cyclic4, p) for p in itertools.permutations(range(4)))
    assert cyclic4.l_max == pytest.approx(1.1 * worst, rel=0, abs=0)


def test_l_max_large_m_uses_max_leg():
    m = 12
    d = np.abs(np.subtract.outer(np.arange(float(m)), np.arange(float(m))))
    inst = TspInstance.from_distances(d)
    assert inst.l_max == 1.1 * m * d.max()


def test_l_max_m10_frozen():
    # the exact 10! scan; seed 2 re-frozen 1 ulp lower when lengths became sorted-leg sums
    assert random_instance(10, 1).l_max == 9.627617773133679
    assert random_instance(10, 2).l_max == 9.421913790285762


_LMAX_SAMPLERS = {
    "uniform": DistanceSampler(),
    "symmetric": DistanceSampler(symmetric=True),
    "constant": DistanceSampler(kind="constant", value=0.1),  # every tour ties
}


@functools.cache
def _lex_table(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))), dtype=np.int8).reshape(-1, k)


def _full_scan(m: int):
    """Every one of the m! permutation rows in rank order (itertools' order),
    one block per (m-8)-city prefix."""
    for prefix in itertools.permutations(range(m), max(m - 8, 0)):
        rest = np.array([c for c in range(m) if c not in prefix], dtype=np.int8)
        tails = rest[_lex_table(m - len(prefix))]
        head = np.tile(np.array(prefix, dtype=np.int8), (len(tails), 1))
        yield np.hstack([head, tails])


def _sorted_leg_sums(rows: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row's closed-tour legs, sorted and added left to right."""
    rows = rows.astype(np.intp)
    legs = np.sort(d[rows, np.roll(rows, -1, axis=1)], axis=1)
    out = np.zeros(len(rows))
    for leg in legs.T:
        out += leg
    return out


def _scan_lengths(inst) -> np.ndarray:
    return np.concatenate([_sorted_leg_sums(rows, inst.d) for rows in _full_scan(inst.M)])


def _scan_worst(inst) -> float:
    return max(float(np.max(_sorted_leg_sums(rows, inst.d))) for rows in _full_scan(inst.M))


@pytest.mark.parametrize("sampler", list(_LMAX_SAMPLERS))
@pytest.mark.parametrize("m", range(3, 11))
def test_l_max_is_the_full_scan_bit_for_bit(m, sampler):
    # oracle: every one of the m! rows, not only the Held-Karp bounded blocks
    for seed in range(6) if m <= 8 else (SEED,):
        inst = random_instance(m, seed, _LMAX_SAMPLERS[sampler])
        assert inst.l_max == 1.1 * _scan_worst(inst)


def test_random_instance_reproducible():
    a = random_instance(5, 7)
    b = random_instance(5, 7)
    c = random_instance(5, 7, stream=1)
    e = random_instance(5, 8)
    assert np.array_equal(a.d, b.d)
    assert not np.array_equal(a.d, c.d)
    assert not np.array_equal(a.d, e.d)


def test_symmetric_sampler(rng):
    d = DistanceSampler(symmetric=True).sample(6, rng)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_constant_sampler(rng):
    d = DistanceSampler(kind="constant", value=2.5).sample(4, rng)
    assert np.all(d[~np.eye(4, dtype=bool)] == 2.5)


@pytest.mark.parametrize("kwargs", [{"low": -1.0}, {"kind": "constant", "value": -2.0},
                                    {"high": math.inf}, {"kind": "constant", "value": math.nan}])
def test_sampler_rejects_what_an_instance_rejects(kwargs):
    # every distance it could draw must be finite and nonnegative
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        DistanceSampler(**kwargs)


# ---------------------------------------------------------------------------
# tour lengths and ranking
# ---------------------------------------------------------------------------

def test_tour_length_hand_sum(cyclic4):
    # 0->1->2->3->0: legs 1+1+1 and the closing leg 3
    assert tour_length(cyclic4, (0, 1, 2, 3)) == 6.0
    # 0->2->1->3->0: 2+1+2+3
    assert tour_length(cyclic4, (0, 2, 1, 3)) == 8.0


def test_rank_roundtrip_exhaustive():
    for m in (3, 4, 5):
        perms = list(itertools.permutations(range(m)))
        for k, perm in enumerate(perms, start=1):
            assert rank_to_tour(k, m) == perm  # rank order is lexicographic


def test_rank_roundtrip_m8():
    m = 8
    perms = itertools.permutations(range(m))
    for k, perm in enumerate(perms, start=1):
        assert rank_to_tour(k, m) == perm
    assert k == math.factorial(m)


def test_rank_bounds():
    with pytest.raises(ValueError):
        rank_to_tour(0, 4)
    with pytest.raises(ValueError):
        rank_to_tour(25, 4)


def _ranks(rows: np.ndarray) -> np.ndarray:
    """0-based ranks of permutation rows: rank order is the order of their
    base-M values."""
    weights = rows.shape[1] ** np.arange(rows.shape[1] - 1, -1, -1)
    return np.searchsorted(tsp._all_perms(rows.shape[1]) @ weights, rows @ weights)


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("m", range(3, 9))
def test_every_rotation_of_a_tour_has_the_same_bits(m, symmetric):
    inst = random_instance(m, SEED, DistanceSampler(symmetric=symmetric))
    lengths = tour_lengths_by_rank(inst)
    perms = tsp._all_perms(m)
    images = [np.roll(perms, -r, axis=1) for r in range(m)]
    if symmetric:  # a reversal walks the same legs backwards
        images += [image[:, ::-1] for image in images]
    for image in images:
        assert np.array_equal(lengths[_ranks(image)], lengths)
    # one length per directed cycle, or per undirected one when d is symmetric
    cycles = math.factorial(m - 1) // (2 if symmetric else 1)
    assert np.unique(lengths).size == cycles


def test_tour_lengths_by_rank_matches_scalar(cyclic4):
    table = tour_lengths_by_rank(cyclic4)
    for k, perm in enumerate(itertools.permutations(range(4)), start=1):
        assert table[k - 1] == tour_length(cyclic4, perm)  # bit-identical


def test_brute_force_cyclic4(cyclic4):
    res = brute_force_shortest(cyclic4)
    assert res.length == 6.0
    assert tour_length(cyclic4, res.tour) == res.length
    # the full argmin set, by independent enumeration
    ties = [k for k, p in enumerate(itertools.permutations(range(4)), start=1)
            if tour_length(cyclic4, p) == 6.0]
    assert list(res.tied_ranks) == ties
    for rank in res.tied_ranks:
        assert tour_length(cyclic4, rank_to_tour(rank, 4)) == 6.0


def test_brute_force_rotation_degeneracy():
    # generic asymmetric distances: exactly the M cyclic rotations tie
    inst = random_instance(4, SEED)
    res = brute_force_shortest(inst)
    assert len(res.tied_ranks) == 4
    tours = {rank_to_tour(k, 4) for k in res.tied_ranks}
    base = res.tour
    rotations = {tuple(base[(i + r) % 4] for i in range(4)) for r in range(4)}
    assert tours == rotations


def test_brute_force_matches_enumeration():
    inst = random_instance(6, SEED)
    best = min(tour_length(inst, p) for p in itertools.permutations(range(6)))
    assert brute_force_shortest(inst).length == best


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("m", range(3, 10))
def test_brute_force_ties_every_rotation_exactly(m, symmetric):
    inst = random_instance(m, SEED, DistanceSampler(symmetric=symmetric))
    res = brute_force_shortest(inst)
    assert len(res.tied_ranks) % (2 * m if symmetric else m) == 0
    assert {tour_length(inst, rank_to_tour(k, m)) for k in res.tied_ranks} == {res.length}


def test_brute_force_tour_is_the_smallest_tied_rank():
    # the tour is tied_ranks[0] at every M, the smallest rank of the optimal cycle
    for m, seed in ((8, 1), (8, 2), (9, 0)):
        res = brute_force_shortest(random_instance(m, seed))
        assert res.tour == rank_to_tour(res.tied_ranks[0], m)


def test_brute_force_m10_frozen():
    # the chunked one-pass scan; the length re-frozen 1 ulp higher when lengths
    # became sorted-leg sums, the ranks unchanged
    res = brute_force_shortest(random_instance(10, 2))
    assert res.length == 1.2111442962742658
    assert res.tied_ranks == (73327, 496443, 1032658, 1315649, 1595560, 2144461,
                              2420492, 2549259, 3141065, 3323234)
    assert res.tour == rank_to_tour(res.tied_ranks[0], 10)


def test_all_perms_is_the_lexicographic_table():
    for m in range(1, 9):
        assert np.array_equal(tsp._all_perms(m), _lex_table(m))
    with pytest.raises(ValueError, match="capped at 8"):
        tsp._all_perms(9)


def test_prefix_blocks_and_rotation_ranks_follow_rank_order():
    # the blocks, in the order _prefix_bounds lists them, are the 9! tours from
    # city 0 in rank order; each row's rotation k has the rank in column k
    m = 10
    offsets = {0, 1, 5039, 5040, math.factorial(m - 1) - 1}
    offsets |= set(np.random.default_rng(SEED).integers(0, math.factorial(m - 1), 40).tolist())
    prefixes, bounds, _ = tsp._prefix_bounds(random_instance(m, SEED).d, np.fmin)
    assert len(prefixes) == len(bounds) == math.factorial(m - 1) // math.factorial(7)
    start = 0
    for prefix in prefixes:
        block = tsp._block(prefix, m)
        for off in sorted(o for o in offsets if start <= o < start + len(block)):
            row = tuple(int(c) for c in block[off - start])
            assert row == rank_to_tour(off + 1, m)
            ranks = tsp._rotation_ranks(block[off - start:off - start + 1])[0]
            assert [rank_to_tour(int(k), m) for k in ranks] == [row[r:] + row[:r]
                                                                for r in range(m)]
        start += len(block)
    assert start == math.factorial(m - 1)
    # at M = 8 the rotations of the tours from city 0 are every rank exactly once
    ranks = tsp._rotation_ranks(tsp._block((0,), 8))
    assert np.array_equal(np.sort(ranks, axis=None), np.arange(1, math.factorial(8) + 1))


def _assert_full_scan(inst) -> None:
    """brute_force_shortest and tour_lengths_by_rank against all M! rows."""
    m = inst.M
    lengths = _scan_lengths(inst)
    table = tour_lengths_by_rank(inst)
    assert np.array_equal(table.view(np.int64), lengths.view(np.int64))  # bit for bit
    best = float(np.min(lengths))
    ties = tuple(int(k) + 1 for k in np.flatnonzero(lengths <= best + degeneracy_tol(best)))
    res = brute_force_shortest(inst)
    assert res.length == best
    assert res.tied_ranks == ties
    assert res.tour == rank_to_tour(ties[0], m)


@pytest.mark.parametrize("sampler", list(_LMAX_SAMPLERS))
@pytest.mark.parametrize("m", range(3, 10))
def test_brute_force_and_rank_table_are_the_full_scan_bit_for_bit(m, sampler):
    for seed in range(3) if m <= 8 else (SEED,):
        _assert_full_scan(random_instance(m, seed, _LMAX_SAMPLERS[sampler]))


def _near_tie(m: int, kind: str, seed: int) -> np.ndarray:
    """A constant d with about a third of its entries moved by up to 6 ulps,
    and for "tolerance" also by a quarter to one tie tolerance: Held-Karp
    bounds within their rounding slack of the lengths they bound."""
    rng = np.random.default_rng(seed)
    ulps = rng.integers(-6, 7, size=(m, m)) * np.spacing(0.1)
    moved = rng.random((m, m)) < 0.3
    d = 0.1 + np.where(moved, ulps, 0.0)
    if kind == "tolerance":
        steps = rng.choice([0.25, 0.5, 1.0], size=(m, m))
        d += np.where(moved, steps, 0.0) * degeneracy_tol(0.1 * m)
    np.fill_diagonal(d, 0.0)
    return d


#: (m, kind, seed): with no rounding slack, the first and the fourth give a
#: wrong l_max and the second and the third a wrong tie set
_NEAR_TIES = [(4, "ulps", 30), (4, "tolerance", 22), (5, "tolerance", 54), (7, "ulps", 39),
              (9, "ulps", 0), (9, "tolerance", 0), (10, "ulps", 0), (10, "tolerance", 0)]


@pytest.mark.parametrize("m, kind, seed", _NEAR_TIES)
def test_near_ties_are_the_full_scan_bit_for_bit(m, kind, seed):
    inst = TspInstance.from_distances(_near_tie(m, kind, seed))
    assert inst.l_max == 1.1 * _scan_worst(inst)
    if m <= 9:
        _assert_full_scan(inst)


def _traced_peak_mb(fn, *args) -> float:
    tsp._all_perms.cache_clear()  # count the permutation tables each call builds
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_tour_statistics_memory_stays_bounded():
    # the 9!-row scans that the Held-Karp block bounds replaced peaked at
    # 12.2, 16.6 and 8.5 MB; the rank table itself is 9! doubles, 2.9 MB
    assert _traced_peak_mb(random_instance, 10, 1) < 4.0
    assert _traced_peak_mb(brute_force_shortest, random_instance(10, 2)) < 4.0
    assert _traced_peak_mb(tour_lengths_by_rank, random_instance(9, 7)) < 6.0
    # every tour ties, so every block is scanned and kept: 5.25 MB before
    constant = random_instance(8, SEED, DistanceSampler(kind="constant", value=0.1))
    assert _traced_peak_mb(brute_force_shortest, constant) < 5.0


# ---------------------------------------------------------------------------
# tuple codec
# ---------------------------------------------------------------------------

def _digit_sum(digits, m: int) -> int:
    """The 1-based index of a base-m digit tuple, least significant first."""
    return 1 + sum(v * m ** i for i, v in enumerate(digits))


def test_tuple_named_values():
    assert index_to_tuple(1, 3) == (0, 0, 0)
    assert index_to_tuple(27, 3) == (2, 2, 2)
    assert index_to_tuple(2, 3) == (1, 0, 0)  # first component is least significant
    assert index_to_tuple(4, 3) == (0, 1, 0)


def test_tuple_roundtrip_exhaustive():
    for m in (3, 4, 6):
        for s in range(1, m ** m + 1):
            digits = index_to_tuple(s, m)
            assert len(digits) == m
            assert all(0 <= v < m for v in digits)
            assert _digit_sum(digits, m) == s


def test_tuple_roundtrip_m8_sampled(rng):
    m = 8
    for s in rng.integers(1, m ** m + 1, size=2000):
        assert _digit_sum(index_to_tuple(int(s), m), m) == int(s)


def test_tuple_bounds():
    with pytest.raises(ValueError):
        index_to_tuple(0, 3)
    with pytest.raises(ValueError):
        index_to_tuple(28, 3)
    with pytest.raises(ValueError):
        index_to_tuple(1, 0)


def test_is_tour():
    assert is_tour((2, 0, 1))
    assert not is_tour((0, 0, 1))
    assert not is_tour((0, 1, 3))


def test_tour_index_mask_counts():
    for m in (3, 4, 5):
        mask = tour_index_mask(m)
        assert mask.shape == (m ** m,)
        assert int(mask.sum()) == math.factorial(m)
        for s in np.nonzero(mask)[0][:10] + 1:
            assert is_tour(index_to_tuple(int(s), m))


# ---------------------------------------------------------------------------
# effective lengths
# ---------------------------------------------------------------------------

def test_effective_length_parity(cyclic4):
    policy = DsqPolicy("parity")
    lm = cyclic4.l_max
    # s=1 is (0,0,0,0): not a tour, odd, so penalty 2*l_max on top of l_max
    assert effective_length(cyclic4, 1, policy) == 3.0 * lm
    assert effective_length(cyclic4, 2, policy) == lm  # even non-tour
    s_tour = _digit_sum((0, 1, 2, 3), 4)
    assert effective_length(cyclic4, s_tour, policy) == 6.0


def test_effective_length_random_policy(cyclic4):
    p1 = DsqPolicy("random", sigma_d=1.0, seed=5)
    p2 = DsqPolicy("random", sigma_d=2.0, seed=5)
    p3 = DsqPolicy("random", sigma_d=1.0, seed=6)
    v1 = [p1.dsq(s, cyclic4.l_max) for s in (1, 2, 9)]
    assert v1 == [p1.dsq(s, cyclic4.l_max) for s in (1, 2, 9)]  # pure in (seed, s)
    assert all(v >= 0.0 for v in v1)
    # doubling sigma scales the underlying draw exactly
    assert [p2.dsq(s, cyclic4.l_max) for s in (1, 2, 9)] == [4.0 * v for v in v1]
    assert v1 != [p3.dsq(s, cyclic4.l_max) for s in (1, 2, 9)]


def test_effective_lengths_all_matches_scalar():
    inst = random_instance(3, SEED)
    for policy in (DsqPolicy("parity"), DsqPolicy("random", sigma_d=0.7, seed=3)):
        vec = effective_lengths_all(inst, policy)
        for s in range(1, 28):
            assert vec[s - 1] == effective_length(inst, s, policy)  # bit-identical


def test_random_effective_lengths_match_a_fresh_philox_per_index():
    for m in range(3, 7):
        inst = random_instance(m, SEED)
        policy = DsqPolicy("random", sigma_d=0.7, seed=m)
        vec = effective_lengths_all(inst, policy)
        non_tours = np.nonzero(~tour_index_mask(m))[0] + 1
        draws = [np.random.Generator(np.random.Philox(key=m, counter=int(s))).normal(0.0, 0.7)
                 for s in non_tours]
        assert np.array_equal(vec[non_tours - 1], np.square(draws) + inst.l_max)  # bit-identical
    # counters above 2**64 split into the generator's four 64-bit words
    s = 7 ** 25
    gen = np.random.Generator(np.random.Philox(key=3, counter=s))
    draw = float(gen.normal(0.0, 1.0))
    assert DsqPolicy("random", seed=3).dsq(s, 1.0) == draw * draw


def _fresh_dsq(seed: int, sigma_d: float, s: int) -> float:
    draw = np.random.Generator(np.random.Philox(key=seed, counter=s)).normal(0.0, sigma_d)
    return draw * draw


def _fresh_words(seed: int, s: int) -> int:
    """64-bit words that one normal draw takes from a fresh Philox at counter s < 2**64."""
    bits = np.random.Philox(key=seed, counter=s)
    np.random.Generator(bits).normal()
    state = bits.state
    return 4 * (int(state["state"]["counter"][0]) - s - 1) + state["buffer_pos"]


@pytest.mark.parametrize("sigma_d", [0.5, 0.7, 2.0])
def test_bulk_random_surcharges_match_a_fresh_philox_per_counter(sigma_d):
    seed = 11
    span = list(range(1, 1201))
    # the bulk draw must also hold where a fresh draw takes more than one word
    assert any(_fresh_words(seed, s) > 1 for s in span)
    scattered = [40, 7, 8, 9, 9, 3, 1000, 2, 2, 41, 39, 40]
    wide = list(range(2 ** 64 - 3, 2 ** 64 + 4))  # one run across the 64-bit word
    policy = DsqPolicy("random", sigma_d=sigma_d, seed=seed)
    for s_values in (span, np.arange(1, 1201), scattered, np.array(scattered), wide, [17], []):
        expected = [_fresh_dsq(seed, sigma_d, int(s)) for s in s_values]
        assert policy._dsq_all(s_values, 1.0).tolist() == expected  # bit-identical
        assert [policy.dsq(s, 1.0) for s in s_values] == expected


def test_effective_lengths_tours_below_penalties():
    inst = random_instance(4, SEED)
    vec = effective_lengths_all(inst, DsqPolicy("random", sigma_d=0.5, seed=1))
    mask = tour_index_mask(4)
    assert vec[mask].max() < inst.l_max  # l_max has 10% headroom over the worst tour
    assert vec[~mask].min() >= inst.l_max


# ---------------------------------------------------------------------------
# spread statistics
# ---------------------------------------------------------------------------

def test_sigma_m_flagged_example():
    # all six tours enumerate to lengths {3,3,3,6,6,6}: population std 1.5
    d = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    inst = TspInstance.from_distances(d)
    lengths = [tour_length(inst, p) for p in itertools.permutations(range(3))]
    assert sorted(lengths) == [3.0, 3.0, 3.0, 6.0, 6.0, 6.0]
    assert sigma_m(inst) == pytest.approx(1.5, abs=1e-15)
    assert sigma_m(inst) == pytest.approx(np.std(lengths), abs=1e-15)


def test_sigma_m_matches_enumeration():
    inst = random_instance(5, SEED)
    lengths = [tour_length(inst, p) for p in itertools.permutations(range(5))]
    assert sigma_m(inst) == pytest.approx(np.std(lengths), rel=1e-13)


@functools.lru_cache
def _itertools_table(m):
    return np.array(list(itertools.permutations(range(m))))


def _enumerated_lengths(d):
    m = d.shape[0]
    perms = _itertools_table(m)
    return sum(d[perms[:, j], perms[:, (j + 1) % m]] for j in range(m))


def _exact_sigma(d):
    m = d.shape[0]
    e = [[Fraction(float(x)) for x in row] for row in d]
    lengths = [sum((e[p[j]][p[(j + 1) % m]] for j in range(m)), Fraction(0))
               for p in itertools.permutations(range(m))]
    mean = sum(lengths, Fraction(0)) / len(lengths)
    return math.sqrt(sum((x - mean) ** 2 for x in lengths) / len(lengths))


SAMPLERS = (DistanceSampler(), DistanceSampler(symmetric=True),
            DistanceSampler(low=100.0, high=101.0))


def test_sigma_closed_form_matches_exact_enumeration():
    for m in range(4, 8):
        for k, sampler in enumerate(SAMPLERS):
            d = sampler.sample(m, np.random.default_rng([SEED, m, k]))
            exact = _exact_sigma(d)
            assert abs(tsp._sigma_from_d(d) / exact - 1.0) <= 2e-15


def test_sigma_closed_form_matches_float_enumeration():
    for m in range(3, 10):
        for k, sampler in enumerate(SAMPLERS):
            d = sampler.sample(m, np.random.default_rng([SEED, m, k]))
            if m == 3 and sampler.symmetric:
                continue  # every tour has the same length: see the next test
            ref = float(np.std(_enumerated_lengths(d)))
            assert sigma_m(TspInstance.from_distances(d)) == pytest.approx(ref, rel=1e-12)


def test_sigma_zero_spread_reads_at_most_sqrt_eps():
    for seed in range(50):
        d = DistanceSampler(symmetric=True).sample(3, np.random.default_rng(seed))
        assert np.ptp(_enumerated_lengths(d)) <= 1e-15
        assert 0.0 <= tsp._sigma_from_d(d) <= 1e-7 * d.max()


def test_sigma_needs_no_enumeration(monkeypatch):
    inst = random_instance(9, SEED)

    def forbidden(*args):
        raise AssertionError("spread computed by enumerating tours")

    monkeypatch.setattr(tsp, "_all_perms", forbidden)
    monkeypatch.setattr(tsp, "_lengths_of", forbidden)
    assert sigma_m(inst) > 0.0
    rep = sigma_scaling_study(DistanceSampler(), [9, 12, 300], samples=2, seed=0)
    assert [r.m for r in rep.rows] == [9, 12, 300]
    with pytest.raises(ValueError, match="2048"):
        sigma_scaling_study(DistanceSampler(), [2049], samples=1, seed=0)


def test_sigma_scaling_study_reproducible():
    sampler = DistanceSampler()
    rep1 = sigma_scaling_study(sampler, [5, 6], samples=8, seed=11)
    rep2 = sigma_scaling_study(sampler, [5, 6], samples=8, seed=11)
    assert rep1.rows == rep2.rows
    rows = rep1.rows
    assert [r.m for r in rows] == [5, 6]
    for r in rows:
        assert r.samples == 8
        assert r.ratio_sqrtm == r.sigma_mean / math.sqrt(r.m)
        assert r.sigma_stderr < r.sigma_mean


def test_sigma_scaling_csv_header(tmp_path, capsys):
    # sigma.csv is written one SigmaRow per line; its header must name the
    # row's fields in order; the numbers read back bit for bit
    from adiabound.cli import OutputDir, _run_sigma_scan

    plan = {"sampler": DistanceSampler(), "m_values": [5], "samples": 2, "seed": 0}
    _run_sigma_scan(plan, OutputDir(tmp_path), threads=1)
    capsys.readouterr()
    lines = (tmp_path / "sigma.csv").read_text().splitlines()
    assert lines[0] == "M,samples,sigma_mean,sigma_stderr,ratio_sqrtM"
    row = sigma_scaling_study(DistanceSampler(), [5], samples=2, seed=0).rows[0]
    m, samples, mean, stderr, ratio = lines[1].split(",")
    assert (int(m), int(samples)) == (row.m, row.samples)
    assert float(mean) == row.sigma_mean
    assert float(stderr) == row.sigma_stderr
    assert float(ratio) == row.ratio_sqrtm


# ---------------------------------------------------------------------------
# tour fraction decay
# ---------------------------------------------------------------------------

def test_tour_fraction_exact_values():
    rep = tour_fraction_decay([3, 8])
    r3, r8 = rep.rows
    assert r3.exact_ratio == float(Fraction(math.factorial(3), 3 ** 3))
    assert r8.exact_ratio == float(Fraction(math.factorial(8), 8 ** 8))
    assert r3.log_exact == pytest.approx(math.log(6.0 / 27.0), rel=1e-15)


def test_tour_fraction_closed_forms():
    rep = tour_fraction_decay([10])
    row = rep.rows[0]
    bare = math.sqrt(2 * math.pi * 10) * math.exp(-10)
    assert row.stirling == pytest.approx(bare, rel=1e-15)
    assert row.stirling_rel_dev == pytest.approx(abs(row.exact_ratio / bare - 1.0), rel=1e-12)
    inverted = math.exp(-10) / math.sqrt(10)
    assert row.sqrt_m_form == pytest.approx(inverted, rel=1e-15)
    assert row.sqrt_m_form_rel_dev > 1.0  # that form is off by orders of magnitude


def test_tour_fraction_past_float_underflow():
    # M!/M^M and both closed forms underflow from M ~ 745; the deviations do not
    row, = tour_fraction_decay([750]).rows
    assert row.exact_ratio == row.stirling == row.sqrt_m_form == 0.0
    assert row.stirling_rel_dev == pytest.approx(1.0 / (12 * 750), rel=1e-3)
    assert row.sqrt_m_form_rel_dev == pytest.approx(math.sqrt(2 * math.pi) * 750, rel=1e-3)
    with pytest.raises(ValueError, match="sizes must be in"):
        tour_fraction_decay([2 ** 53])


def test_tour_fraction_large_m_log_space():
    rep = tour_fraction_decay([40])
    row = rep.rows[0]
    expected = math.lgamma(41) - 40 * math.log(40)
    assert row.log_exact == pytest.approx(expected, rel=1e-12)
    assert row.exact_ratio == pytest.approx(math.exp(expected), rel=1e-12)


_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _fraction_deviations_60(m):
    """(stirling_rel_dev, sqrt_m_form_rel_dev) from the exact M!/M^M, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ratio = Decimal(math.factorial(m)) / Decimal(m) ** m
        stirling = (2 * _PI_60 * m).sqrt() * (-Decimal(m)).exp()
        crude = (-Decimal(m)).exp() / Decimal(m).sqrt()
        return float(ratio / stirling - 1), float(ratio / crude - 1)


@pytest.mark.parametrize("m", range(21, 31))
def test_tour_fraction_deviations_past_20_match_the_exact_ratio(m):
    # the deviation is ~4e-3 here, and a difference of logs such as
    # lgamma(M + 1) - M log M carries ~1e-14 of roundoff
    row, = tour_fraction_decay([m]).rows
    stirling_dev, crude_dev = _fraction_deviations_60(m)
    assert row.stirling_rel_dev == pytest.approx(stirling_dev, rel=1e-15, abs=0.0)
    assert row.sqrt_m_form_rel_dev == pytest.approx(crude_dev, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m", [10 ** 6, 10 ** 9, 2 ** 53 - 1])
def test_tour_fraction_deviation_keeps_full_precision_at_large_m(m):
    # exp(1/(12M) - 1/(360 M^3)) - 1 to 60 digits; the next series term is
    # below 1e-26 of it here.  A difference of logs carries ~M log(M) eps of
    # roundoff, above the whole deviation 1/(12M) from M ~ 1e7.
    row, = tour_fraction_decay([m]).rows
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(1) / (12 * Decimal(m)) - Decimal(1) / (360 * Decimal(m) ** 3)
        want = float(r.exp() - 1)
    assert row.stirling_rel_dev == pytest.approx(want, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_matrix_roundtrip(tmp_path, cyclic4):
    path = tmp_path / "inst.mat"
    path.write_text(serialize_instance(cyclic4))
    back = parse_instance(path, fmt="matrix")
    assert back.M == 4
    assert np.array_equal(back.d, cyclic4.d)  # bit-exact through repr
    assert back.l_max == cyclic4.l_max


def test_matrix_roundtrip_random(tmp_path):
    inst = random_instance(5, SEED)
    path = tmp_path / "inst.mat"
    path.write_text(serialize_instance(inst))
    assert np.array_equal(parse_instance(path, fmt="matrix").d, inst.d)


def test_matrix_comments_and_errors(tmp_path):
    path = tmp_path / "inst.mat"
    path.write_text("# a comment\n3\n0 1 2\n1 0 1\n")
    with pytest.raises(TspFormatError) as err:
        parse_instance(path, fmt="matrix")
    assert "expected 9 matrix entries" in str(err.value)
    assert err.value.line == 4


def test_tsplib_euc2d(tmp_path):
    path = tmp_path / "tri.tsp"
    path.write_text("\n".join([
        "NAME : tri",
        "TYPE : TSP",
        "DIMENSION : 3",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
        "1 0.0 0.0",
        "2 3.0 0.0",
        "3 0.0 4.0",
        "EOF",
    ]) + "\n")
    inst = parse_instance(path)
    assert inst.name == "tri"
    assert inst.d[0, 1] == 3.0 and inst.d[0, 2] == 4.0 and inst.d[1, 2] == 5.0
    assert np.array_equal(inst.d, inst.d.T)


def test_tsplib_explicit_matrix(tmp_path):
    path = tmp_path / "ex.tsp"
    path.write_text("\n".join([
        "NAME: ex",
        "TYPE: TSP",
        "DIMENSION: 3",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
        "0 2 4",
        "2 0 6 4 6 0",
        "EOF",
    ]) + "\n")
    inst = parse_instance(path)
    assert inst.d[0, 2] == 4.0 and inst.d[2, 1] == 6.0


def test_tsplib_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.tsp"
    path.write_text("\n".join([
        "NAME: bad",
        "TYPE: TSP",
        "DIMENSION: 3",
        "EDGE_WEIGHT_TYPE: EXPLICIT",
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX",
        "EDGE_WEIGHT_SECTION",
        "0 2 4",
        "2 0 x",
        "4 6 0",
        "EOF",
    ]) + "\n")
    with pytest.raises(TspFormatError) as err:
        parse_instance(path)
    assert err.value.line == 8


def test_tsplib_rejects_unsupported(tmp_path):
    path = tmp_path / "geo.tsp"
    path.write_text("NAME: g\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nEOF\n")
    with pytest.raises(TspFormatError):
        parse_instance(path)


def test_parse_missing_file():
    with pytest.raises(TspFormatError):
        parse_instance("/nonexistent/foo.tsp")


_EX_HEAD = ["NAME: ex", "TYPE: TSP", "DIMENSION: 3", "EDGE_WEIGHT_TYPE: EXPLICIT",
            "EDGE_WEIGHT_FORMAT: FULL_MATRIX"]
_EU_HEAD = ["NAME: tri", "TYPE: TSP", "DIMENSION: 3", "EDGE_WEIGHT_TYPE: EUC_2D"]


def _tsplib(head, section, rows):
    return "\n".join([*head, section, *rows, "EOF"]) + "\n"


def _explicit(rows=("0 2 4", "2 0 6", "4 6 0"), head=_EX_HEAD, section="EDGE_WEIGHT_SECTION"):
    return _tsplib(head, section, rows)


def _euc(rows=("1 0.0 0.0", "2 3.0 0.0", "3 0.0 4.0"), head=_EU_HEAD,
         section="NODE_COORD_SECTION"):
    return _tsplib(head, section, rows)


def _swap(head, pos, line):
    return [*head[:pos], line, *head[pos + 1:]] if line else [*head[:pos], *head[pos + 1:]]


# every rejection path of both readers, with the line each one names (None
# where no line is at fault); frozen from the reader before the two formats
# shared one matrix check.  The non-finite, far-apart and zero-ceiling cases
# are new: the earlier reader let them through to a plain ValueError with no
# line.  "explicit-count-before-syntax" pins the shared order of checks; the
# earlier EXPLICIT reader reported its bad number on line 8.
_REJECTED = {
    "matrix-empty": ("matrix", "", None),
    "matrix-only-comments": ("matrix", "# only a comment\n\n", None),
    "matrix-bad-count": ("matrix", "# c\nthree\n0 1 2\n1 0 1\n2 1 0\n", 2),
    "matrix-float-count": ("matrix", "3.0\n0 1 2\n1 0 1\n2 1 0\n", 1),
    "matrix-small-count": ("matrix", "2\n0 1\n1 0\n", 1),
    "matrix-bad-entry": ("matrix", "3\n0 1 x\n1 0 1\n2 1 0\n", 2),
    "matrix-nan": ("matrix", "3\n0 1 2\n1 0 nan\n2 1 0\n", 3),
    "matrix-inf": ("matrix", "3\n0 1 2\n1 0 1\n2 inf 0\n", 4),
    "matrix-overflow": ("matrix", "3\n0 1e400 2\n1 0 1\n2 1 0\n", 2),
    "matrix-negative": ("matrix", "3\n0 1 2\n1 0 -1\n2 1 0\n", 3),
    "matrix-diagonal": ("matrix", "3\n0 1 2\n1 0.5 1\n2 1 0\n", 3),
    "matrix-too-few": ("matrix", "# a comment\n3\n0 1 2\n1 0 1\n", 4),
    "matrix-too-many": ("matrix", "3\n0 1 2\n1 0 1\n2 1 0\n\n7\n", 6),
    "matrix-no-entries": ("matrix", "3\n", 1),
    "matrix-zero-ceiling": ("matrix", "3\n0 0 0\n0 0 0\n0 0 0\n", None),
    "tsplib-empty": ("tsplib", "", None),
    "tsplib-no-colon": ("tsplib", _explicit(head=_swap(_EX_HEAD, 1, "COMMENT no colon")), 2),
    "tsplib-no-type": ("tsplib", _explicit(head=_swap(_EX_HEAD, 1, None)), None),
    "tsplib-atsp": ("tsplib", _explicit(head=_swap(_EX_HEAD, 1, "TYPE: ATSP")), 2),
    "tsplib-no-dimension": ("tsplib", _explicit(head=_swap(_EX_HEAD, 2, None)), None),
    "tsplib-bad-dimension": ("tsplib", _explicit(head=_swap(_EX_HEAD, 2, "DIMENSION: three")), 3),
    "tsplib-small-dimension": ("tsplib", _explicit(head=_swap(_EX_HEAD, 2, "DIMENSION: 2")), 3),
    "tsplib-no-weight-type": ("tsplib", _explicit(head=_swap(_EX_HEAD, 3, None)), None),
    "tsplib-geo": ("tsplib", _explicit(head=_swap(_EX_HEAD, 3, "EDGE_WEIGHT_TYPE: GEO")), 4),
    "tsplib-no-weight-format": ("tsplib", _explicit(head=_EX_HEAD[:4]), None),
    "tsplib-upper-row": ("tsplib",
                         _explicit(head=_swap(_EX_HEAD, 4, "EDGE_WEIGHT_FORMAT: UPPER_ROW")), 5),
    "tsplib-no-section": ("tsplib", "\n".join(_EX_HEAD) + "\n", None),
    "explicit-node-section": ("tsplib", _explicit(section="NODE_COORD_SECTION"), 6),
    "explicit-eof-section": ("tsplib", "\n".join(_EX_HEAD) + "\nEOF\n", 6),
    "euc-weight-section": ("tsplib", _euc(section="EDGE_WEIGHT_SECTION"), 5),
    "explicit-bad-entry": ("tsplib", _explicit(rows=("0 2 4", "2 0 x", "4 6 0")), 8),
    "explicit-nan": ("tsplib", _explicit(rows=("0 2 4", "2 0 nan", "4 6 0")), 8),
    "explicit-minus-inf": ("tsplib", _explicit(rows=("0 2 4", "2 0 6", "-inf 6 0")), 9),
    "explicit-overflow": ("tsplib", _explicit(rows=("0 2 1e400", "2 0 6", "4 6 0")), 7),
    "explicit-negative": ("tsplib", _explicit(rows=("0 2 4", "2 0 -6", "4 6 0")), 8),
    "explicit-diagonal": ("tsplib", _explicit(rows=("0 2 4", "2 3 6", "4 6 0")), 8),
    "explicit-too-few": ("tsplib", _explicit(rows=("0 2 4", "2 0 6")), 8),
    "explicit-no-entries": ("tsplib", _explicit(rows=()), 6),
    "explicit-too-many": ("tsplib", _explicit(rows=("0 2 4", "2 0 6", "4 6 0 1")), 9),
    "explicit-count-before-syntax": ("tsplib", _explicit(rows=("0 2 4", "2 0 x", "4 6 0", "1")),
                                     10),
    "euc-short-node": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0", "3 0.0 4.0")), 7),
    "euc-long-node": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0 0.0 1", "3 0.0 4.0")), 7),
    "euc-bad-coordinate": ("tsplib", _euc(rows=("1 0.0 0.0", "2 a 0.0", "3 0.0 4.0")), 7),
    "euc-bad-index": ("tsplib", _euc(rows=("1 0.0 0.0", "x 3.0 0.0", "3 0.0 4.0")), 7),
    "euc-index-above": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0 0.0", "4 0.0 4.0")), 8),
    "euc-index-zero": ("tsplib", _euc(rows=("0 0.0 0.0", "2 3.0 0.0", "3 0.0 4.0")), 6),
    "euc-duplicate": ("tsplib", _euc(rows=("1 0.0 0.0", "1 3.0 0.0", "3 0.0 4.0")), 7),
    "euc-nan": ("tsplib", _euc(rows=("1 0.0 0.0", "2 nan 0.0", "3 0.0 4.0")), 7),
    "euc-inf": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0 0.0", "3 0.0 inf")), 8),
    "euc-overflow": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0 0.0", "3 -1e400 4.0")), 8),
    "euc-far-apart": ("tsplib", _euc(rows=("1 1e200 0.0", "2 -1e200 0.0", "3 0.0 4.0")), 5),
    "euc-too-few": ("tsplib", _euc(rows=("1 0.0 0.0", "2 3.0 0.0")), 5),
    "euc-zero-ceiling": ("tsplib", _euc(rows=("1 0.0 0.0", "2 0.0 0.0", "3 0.0 0.0")), None),
}


@pytest.mark.parametrize("fmt, text, line", _REJECTED.values(), ids=_REJECTED.keys())
def test_parse_rejects_with_its_line(tmp_path, fmt, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(TspFormatError) as err:
        parse_instance(path, fmt=fmt)
    assert err.value.line == line
    assert str(err.value).startswith("line ") == (line is not None)


# sha256 prefix of d's bytes, and l_max, frozen from the reader before the two
# formats shared one matrix check; l_max of m6, m7 and m10 re-frozen (1-2 ulps)
# when lengths became sorted-leg sums
_ACCEPTED = {
    "random-m3": ("ee908186a41d1221", 1.0285119895200925),
    "random-m4": ("1a0ed8973c21c38d", 3.0883164368656315),
    "random-m5": ("a6cf3ab4030b7972", 4.1260046552041345),
    "random-m6": ("e026f8a61cd54f9b", 4.8388618134224),
    "random-m7": ("40a721fbd82403a4", 6.271758088330907),
    "random-m8": ("ce86c9fa55c1f156", 7.603668999078625),
    "random-m9": ("80f8ef35a5a0f088", 8.163988819968987),
    "random-m10": ("89fbca88c5366367", 8.73714149860107),
    "ex": ("a12657aee38fd950", 13.200000000000001),
    "quad": ("82fa232cba7e8052", 18.700000000000003),
}


@pytest.mark.parametrize("stem", _ACCEPTED)
def test_parse_matches_frozen_instances(tmp_path, stem):
    if stem.startswith("random"):
        fmt, text = "matrix", serialize_instance(random_instance(int(stem[8:]), 0))
    elif stem == "ex":
        fmt, text = "tsplib", _explicit(rows=("0 2 4", "2 0 6", "4 6 0", "EOF", "junk after EOF"))
    else:
        fmt, text = "tsplib", _euc(rows=("1 0.0 0.0", "", "2 3.0 0.0", "3 0.0 4.0", "4 2.5 -1.5"),
                                   head=["NAME : quad", "type: tsp", "DIMENSION : 4",
                                         "EDGE_WEIGHT_TYPE : euc_2d"])
    path = tmp_path / f"{stem}.txt"
    path.write_text(text)
    inst = parse_instance(path, fmt=fmt)
    digest, l_max = _ACCEPTED[stem]
    assert hashlib.sha256(inst.d.tobytes()).hexdigest()[:16] == digest
    assert inst.l_max == l_max
    assert inst.name == stem
