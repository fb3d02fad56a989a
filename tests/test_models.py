import hashlib
import itertools
import math

import numpy as np
import pytest

from adiabound import (
    Diagonal,
    DsqPolicy,
    StateVector,
    brute_force_shortest,
    build_grover,
    build_tsp_finite,
    build_tsp_rank,
    build_tsp_tuple,
    delta_ie,
    delta_ie_asymptote_study,
    effective_lengths_all,
    expectation,
    index_to_tuple,
    is_tour,
    mode_digits,
    random_instance,
    rank_to_tour,
    sigma_m,
    tour_index_mask,
    tour_length,
    tour_lengths_by_rank,
    uniform_state,
)
from adiabound import hilbert
from adiabound.hilbert import argmin_set

SEED = 20260825


# ---------------------------------------------------------------------------
# marked-state search
# ---------------------------------------------------------------------------

def test_grover_validation():
    with pytest.raises(ValueError):
        build_grover(1)
    with pytest.raises(ValueError):
        build_grover(2 ** 21)
    with pytest.raises(ValueError):
        build_grover(4, marked=4)
    with pytest.raises(ValueError):
        build_grover(4, marked=-1)


def test_grover_bundle_shape():
    b = build_grover(8, marked=3)
    assert b.kind == "grover"
    assert b.target_indices == (3,)
    assert not len(b.target_indices) > 1
    assert b.target_energy == 0.0
    assert b.e_i0 == 0.0
    assert b.budget.alpha_cost == 0.0
    assert b.budget.linear_path_norm_bound == 2.0
    assert b.decode(5) == 5
    with pytest.raises(ValueError):
        b.decode(8)
    # the driver ground state is the uniform start at energy zero
    assert expectation(b.h_i, b.g_i) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(b.g_i.amps, 1.0 / math.sqrt(8))


def test_grover_spread_closed_form():
    for n in (2, 4, 8, 64, 1024):
        b = build_grover(n)
        want = math.sqrt(n - 1.0) / n
        assert delta_ie(b.g_i, b.h_p) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# rank encoding
# ---------------------------------------------------------------------------

def test_rank_model_diagonal_layout():
    inst = random_instance(4, SEED)
    b = build_tsp_rank(inst)
    nfact = 24
    values = b.h_p.values
    assert np.array_equal(values[:nfact], tour_lengths_by_rank(inst))
    assert np.all(values[nfact:] == inst.l_max)
    # level n encodes the tour of rank n+1
    assert b.decode(0) == rank_to_tour(1, 4)
    assert b.decode(23) == rank_to_tour(24, 4)
    assert b.decode(nfact) is None  # padding level


def test_rank_model_targets_match_brute_force():
    inst = random_instance(4, SEED)
    b = build_tsp_rank(inst)
    bf = brute_force_shortest(inst)
    assert b.target_indices == tuple(r - 1 for r in bf.tied_ranks)
    assert b.target_energy == pytest.approx(bf.length, rel=1e-12)
    assert len(b.target_indices) > 1  # cyclic rotations tie by construction


def test_rank_model_alpha_budget():
    for m in (3, 4):
        inst = random_instance(m, SEED)
        b = build_tsp_rank(inst)
        assert b.budget.alpha_cost == float(math.factorial(m))  # exact
        number = np.arange(b.g_i.basis.dim, dtype=float)
        mean_n = float(np.sum(number * np.abs(b.g_i.amps) ** 2))
        assert mean_n == pytest.approx(math.factorial(m), rel=1e-8)


def test_rank_model_validation():
    with pytest.raises(ValueError):
        build_tsp_rank(random_instance(7, SEED))  # capped at 6 cities
    inst = random_instance(4, SEED)
    with pytest.raises(ValueError):
        build_tsp_rank(inst, n_max=22)  # drops tour levels
    with pytest.raises(ValueError):
        build_tsp_rank(inst, alpha_sq=0.0)


def test_rank_spread_tracks_tour_spread():
    # the coherent start concentrates near level M!, inside the tour band,
    # so the spread stays within a small factor of the plain tour-length std
    for m in (3, 4):
        inst = random_instance(m, SEED)
        b = build_tsp_rank(inst)
        spread = delta_ie(b.g_i, b.h_p)
        ref = sigma_m(inst)
        assert ref / 3.0 <= spread <= ref * 3.0


# ---------------------------------------------------------------------------
# tuple encoding and the finite restriction
# ---------------------------------------------------------------------------

def test_tuple_model_alpha_cost_is_m_squared():
    for m in (3, 4):
        inst = random_instance(m, SEED)
        tup = build_tsp_tuple(inst)
        rank = build_tsp_rank(inst)
        assert tup.budget.alpha_cost == float(m * m)  # exact
        assert rank.budget.alpha_cost == float(math.factorial(m))
        if m >= 4:  # M^2 < M! only from four cities on
            assert tup.budget.alpha_cost < rank.budget.alpha_cost


def test_tuple_model_validation():
    with pytest.raises(ValueError):
        build_tsp_tuple(random_instance(5, SEED))  # capped at 4 cities
    inst = random_instance(4, SEED)
    with pytest.raises(ValueError):
        build_tsp_tuple(inst, n_max=2)  # cannot hold occupation 3
    with pytest.raises(ValueError):
        build_tsp_tuple(inst, alpha_sq_per_mode=-1.0)


def test_tuple_model_diagonal_matches_finite_restriction():
    inst = random_instance(4, SEED)
    policy = DsqPolicy("random", sigma_d=0.5, seed=7)
    tup = build_tsp_tuple(inst, policy=policy)
    fin = build_tsp_finite(inst, policy=policy)
    m, d = 4, tup.h_p.basis.n_max + 1
    eff = effective_lengths_all(inst, policy)
    assert np.array_equal(fin.h_p.values, eff)
    # walk every in-range tuple through both codecs
    for s in range(1, m ** m + 1):
        digits = index_to_tuple(s, m)
        flat = sum(dig * d ** i for i, dig in enumerate(digits))
        assert tup.h_p.values[flat] == eff[s - 1]
        assert tup.decode(flat) == digits
    # every other level carries the plain ceiling
    in_range = {sum(dig * d ** i for i, dig in enumerate(index_to_tuple(s, m)))
                for s in range(1, m ** m + 1)}
    outside = np.setdiff1d(np.arange(tup.h_p.basis.dim), sorted(in_range))
    assert np.all(tup.h_p.values[outside] == inst.l_max)


def test_tuple_and_finite_targets_agree():
    inst = random_instance(4, SEED)
    policy = DsqPolicy("random", sigma_d=0.5, seed=7)
    tup = build_tsp_tuple(inst, policy=policy)
    fin = build_tsp_finite(inst, policy=policy)
    tup_tuples = {tup.decode(i) for i in tup.target_indices}
    fin_tuples = {fin.decode(i) for i in fin.target_indices}
    assert tup_tuples == fin_tuples
    assert tup.target_energy == pytest.approx(fin.target_energy, rel=1e-12)


def test_tuple_out_of_range_decode_is_none():
    inst = random_instance(3, SEED)
    tup = build_tsp_tuple(inst)
    d = tup.h_p.basis.n_max + 1
    assert d > 3  # default cutoff leaves out-of-range levels
    flat_high = 3  # occupation (3,0,0) is outside city range
    assert tup.decode(flat_high) is None


def test_tuple_start_state_is_coherent_product():
    inst = random_instance(3, SEED)
    tup = build_tsp_tuple(inst)
    prep = tup.preps[0]
    assert len(tup.preps) == 3
    for flat in (0, 1, 5, 100):
        digits = mode_digits(tup.g_i.basis, flat)
        want = np.prod([prep.state.amps[dig] for dig in digits])
        assert tup.g_i.amps[flat] == pytest.approx(want, rel=1e-12)


def test_in_range_uniform_spread_matches_finite():
    # a state uniform over the in-range labels sees exactly the finite
    # model's diagonal, so the spreads agree to roundoff
    inst = random_instance(3, SEED)
    policy = DsqPolicy()
    tup = build_tsp_tuple(inst, policy=policy)
    fin = build_tsp_finite(inst, policy=policy)
    m, d = 3, tup.h_p.basis.n_max + 1
    amps = np.zeros(tup.h_p.basis.dim, dtype=np.complex128)
    for s in range(1, m ** m + 1):
        digits = index_to_tuple(s, m)
        amps[sum(dig * d ** i for i, dig in enumerate(digits))] = 1.0
    amps /= np.linalg.norm(amps)
    restricted = StateVector(tup.h_p.basis, amps)
    assert delta_ie(restricted, tup.h_p) == pytest.approx(
        delta_ie(fin.g_i, fin.h_p), rel=1e-12)


def test_finite_model_targets_are_shortest_tours():
    inst = random_instance(4, SEED)  # asymmetric: ties are the 4 rotations
    fin = build_tsp_finite(inst)
    bf = brute_force_shortest(inst)
    assert len(fin.target_indices) == 4
    for idx in fin.target_indices:
        digits = fin.decode(idx)
        assert is_tour(digits)
        assert tour_length(inst, digits) == pytest.approx(bf.length, rel=1e-12)


def test_finite_model_degenerate_line_metric(cyclic4):
    # |i-j| distances put 16 of the 24 tours at the optimum length 6
    fin = build_tsp_finite(cyclic4)
    assert len(fin.target_indices) > 1
    want = set()
    for s in range(1, 4 ** 4 + 1):
        digits = index_to_tuple(s, 4)
        if is_tour(digits) and abs(tour_length(cyclic4, digits) - 6.0) < 1e-9:
            want.add(s - 1)
    assert set(fin.target_indices) == want
    assert len(want) == 16


def test_finite_model_validation():
    with pytest.raises(ValueError):
        build_tsp_finite(random_instance(7, SEED))  # capped at 6 cities


# ---------------------------------------------------------------------------
# the encoding layer, frozen: sha256 of the raw float64/int64 bytes, taken
# before the label codec, the tour positions and the ladder builder were
# merged into one place each; the tables holding M >= 4 tour lengths were
# re-frozen when every length became one sorted-leg sum (a few ulps)
# ---------------------------------------------------------------------------

FROZEN_EFFECTIVE = {
    (3, "parity"): "52de2e691f47ae8ebeadb5d2d73f0599af03e8676da66459a508c9de68188355",
    (3, "random"): "586e41064d0e6f20fd05c6f625eae9b0b53636371f67122e63152e31778660ff",
    (4, "parity"): "88bece6d18378b859d44b9d0b776d7c596a9a49177b4a3aab5f8000d37915e19",
    (4, "random"): "a226a20d263e71a13c0252607d9555a71ff0bf1b7c7af8ff1e41a7b553aef2f4",
    (5, "parity"): "c8f0ebef291d08d3172e861dde237766f08eff5ccb40fc1f6c0a4271ed86e6a9",
    (5, "random"): "9018bdd21d9087473515a96d7e5280339eff5992be98b98c033e7ddc15c49823",
    (6, "parity"): "90f5a04d9f00264ccee28a51c8b88419269c975d07b36f64b96bb4cad0c58587",
    (6, "random"): "011fd10bf80ff6fa1ded2c8241c47589f25a29515c6c4d8909f2d9ad48fd127e",
}
FROZEN_POLICIES = {"parity": DsqPolicy(), "random": DsqPolicy("random", sigma_d=0.7, seed=3)}
#: (model, M) -> (default n_max, the former default ceil(|alpha|^2 + 10 |alpha| + 10)),
#: at |alpha|^2 = M! for tsp-rank and M a mode for tsp-tuple; the ladder digests
#: below were frozen at the former default, and pin the builders' bits there
LADDER_N_MAX = {("rank", 3): (27, 41), ("rank", 4): (61, 83), ("rank", 5): (196, 240),
                ("rank", 6): (897, 999), ("tuple", 3): (19, 31), ("tuple", 4): (22, 34)}
#: (h_p.values, target_indices, g_i.amps)
FROZEN_TUPLE = {
    3: ("0ea8a7061941613435461f9da154eb2281e00a2db6d5e085a54f564dff001087",
        "2ce9fd49e3872a207e970f8da3066d93da3250ff70a79ce8c4c451bfdee2c6c5",
        "98b5fbf25861211631b382b3231adc8ce4f2f8dc6de95aed9d175de661fdc96a"),
    4: ("baba6f234656c31f8646c2d123d9b390d7e488f5c76fcf94c36f9634e2bfc815",
        "26f3c2550b45a883224a3be33412dd5039fa1ec65ccabdbb183ad40cf3c7a098",
        "33b558e35e7e6ca833db90aa0562b6327b340af27873ebfe6ecd3f6ba2a92513"),
}
#: (h_p.values, g_i.amps)
FROZEN_RANK = {
    3: ("57c6031d4b98537aaeacf6dffd3f2ff6499fe20023d1a8e0ebea44f9c5832083",
        "6b0384dabdca4aa15873267fa3a0070c84d13f9577b0a33f6e3f25839343205d"),
    5: ("ddc43d7880aa833769cf99c1113f50dc7c7072dc498a4b43811a407ea44ca254",
        "40377215ce8ffdba024e0e19ce6fd79a4ba48d9661edd5c6781eaf9064790086"),
}


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("m, policy", sorted(FROZEN_EFFECTIVE))
def test_effective_lengths_all_frozen(m, policy):
    vec = effective_lengths_all(random_instance(m, SEED), FROZEN_POLICIES[policy])
    assert _sha(vec) == FROZEN_EFFECTIVE[m, policy]


@pytest.mark.parametrize("m", sorted(FROZEN_TUPLE))
def test_tuple_model_frozen(m):
    b = build_tsp_tuple(random_instance(m, SEED), n_max=LADDER_N_MAX["tuple", m][1])
    targets = np.array(b.target_indices, dtype=np.int64)
    assert (_sha(b.h_p.values), _sha(targets), _sha(b.g_i.amps)) == FROZEN_TUPLE[m]


@pytest.mark.parametrize("m", sorted(FROZEN_RANK))
def test_rank_model_frozen(m):
    b = build_tsp_rank(random_instance(m, SEED), n_max=LADDER_N_MAX["rank", m][1])
    assert (_sha(b.h_p.values), _sha(b.g_i.amps)) == FROZEN_RANK[m]


# tsp-tuple M = 4 is 1.5 million levels at the former cutoff
@pytest.mark.parametrize("kind, m", sorted(set(LADDER_N_MAX) - {("tuple", 4)}))
def test_the_default_cutoff_keeps_the_spread(kind, m):
    # the smallest cutoff that keeps the coherent tail under 1e-10 moves
    # Delta_I E by under 1e-9 relative against a longer ladder
    build = build_tsp_rank if kind == "rank" else build_tsp_tuple
    inst = random_instance(m, 1)
    b = build(inst)
    n_max, former = LADDER_N_MAX[kind, m]
    assert b.g_i.basis.n_max == n_max
    spread = delta_ie(b.g_i, b.h_p)
    for longer in (former, n_max + 5):
        ref = build(inst, n_max=longer)
        assert abs(spread - delta_ie(ref.g_i, ref.h_p)) <= 1e-9 * spread, longer


@pytest.mark.parametrize("alpha_scale", [0.5, 0.7, 0.77])
def test_the_default_cutoff_keeps_every_label_level(alpha_scale):
    # below alpha_scale 0.78 the tail alone would cut the 720 tour levels of M = 6
    mu = alpha_scale * math.factorial(6)
    assert hilbert.default_fock_cutoff(math.sqrt(mu)) < 719
    b = build_tsp_rank(random_instance(6, SEED), alpha_sq=mu)
    assert b.g_i.basis.n_max == 719
    assert b.preps[0].tail_mass <= hilbert.COHERENT_TAIL_TOL


def test_an_unreachable_displacement_fails_before_any_cutoff_search():
    # every cutoff that keeps the tail holds more than |alpha|^2 levels a mode
    inst = random_instance(3, SEED)
    for build, alpha_sq in ((build_tsp_rank, 1e12), (build_tsp_rank, math.inf),
                            (build_tsp_tuple, 200.0)):
        with pytest.raises(ValueError, match=r"must be in \(0, "):
            build(inst, alpha_sq)


@pytest.mark.parametrize("m", range(1, 7))
def test_tour_index_mask_is_the_codec_tour_test(m):
    want = [is_tour(index_to_tuple(s, m)) for s in range(1, m ** m + 1)]
    assert tour_index_mask(m).tolist() == want


@pytest.mark.parametrize("build", [
    lambda inst: build_grover(16, marked=5),
    build_tsp_rank,
    build_tsp_tuple,
    build_tsp_finite,
    lambda inst: build_tsp_finite(inst, DsqPolicy("random", sigma_d=0.5, seed=2)),
], ids=["grover", "tsp-rank", "tsp-tuple", "tsp-finite", "tsp-finite-random"])
def test_every_model_has_a_diagonal_problem_and_argmin_targets(build):
    b = build(random_instance(3, SEED))
    assert isinstance(b.h_p, Diagonal)
    targets, e0 = argmin_set(b.h_p.values)
    assert b.target_indices == targets
    assert b.target_energy == e0
    assert b.budget.h_i_norm_bound == b.h_i.norm_bound()
    assert b.budget.h_p_norm_bound == b.h_p.norm_bound()


# ---------------------------------------------------------------------------
# spread asymptotics
# ---------------------------------------------------------------------------

def test_asymptote_study_columns():
    rep = delta_ie_asymptote_study([3, 4])
    assert [r.m for r in rep.rows] == [3, 4]
    for r in rep.rows:
        assert r.ratio == pytest.approx(r.delta_ie / r.non_tour_std, rel=1e-12)
        assert r.tour_fraction == math.factorial(r.m) / r.m ** r.m
    # parity reference is the ceiling itself; random reference sqrt(2)*sigma_d^2
    assert rep.rows[0].penalty_std_ref > 0
    rnd = delta_ie_asymptote_study([3], policy=DsqPolicy("random", sigma_d=0.5, seed=1))
    assert rnd.rows[0].penalty_std_ref == pytest.approx(math.sqrt(2.0) * 0.25, rel=1e-12)


def test_asymptote_study_direct_recompute():
    policy = DsqPolicy()
    rep = delta_ie_asymptote_study([4], policy=policy, seed=3)
    inst = random_instance(4, 3, stream=0)
    eff = effective_lengths_all(inst, policy)
    mask = tour_index_mask(4)
    assert rep.rows[0].delta_ie == pytest.approx(float(np.std(eff)), rel=1e-12)
    assert rep.rows[0].non_tour_std == pytest.approx(float(np.std(eff[~mask])), rel=1e-12)
    assert rep.rows[0].penalty_std_ref == inst.l_max
    # the uniform start of the finite model sees the same spread
    fin = build_tsp_finite(inst, policy=policy)
    assert delta_ie(uniform_state(fin.h_p.basis), fin.h_p) == pytest.approx(
        rep.rows[0].delta_ie, rel=1e-10)


def test_asymptote_ratio_approaches_one():
    # as the tour fraction dies off, the full spread collapses onto the
    # penalty-entry spread: monotone from M=3, within 10% by M=6
    rep = delta_ie_asymptote_study([3, 4, 5, 6])
    ratios = [r.ratio for r in rep.rows]
    assert all(r > 1.0 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) <= 0.10


def test_asymptote_study_reproducible():
    a = delta_ie_asymptote_study([3, 4], seed=5)
    b = delta_ie_asymptote_study([3, 4], seed=5)
    assert [r.delta_ie for r in a.rows] == [r.delta_ie for r in b.rows]
    c = delta_ie_asymptote_study([3, 4], seed=6)
    assert a.rows[0].delta_ie != c.rows[0].delta_ie
