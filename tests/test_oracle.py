import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracebounds import (
    DGPConfig,
    OutcomeMeans,
    StrataProbs,
    TruthRecord,
    brute_force_trim_extremes,
    check_appendix_d,
    estimate_p_m1,
    simulate,
    true_estimands,
)
from tracebounds.errors import (
    EmptyReactiveStratum,
    InvariantViolation,
    NoReactiveTreated,
    TooLarge,
)

from tracebounds.data import _CHUNK as CHUNK
from tracebounds.oracle import _M_TABLE, _STRATA, _draw_cells

from conftest import make_random_dataset


def _config(**overrides) -> DGPConfig:
    base = dict(
        n=500,
        strata=StrataProbs(at=0.3, c=0.4, nt=0.3),
        means=OutcomeMeans(at=(0.0, 1.0), c=(0.0, 2.0), nt=(1.0, 0.5)),
        noise_sd=0.0,
        seed=0,
    )
    base.update(overrides)
    return DGPConfig(**base)


# -- population quantities ----------------------------------------------------


def test_true_estimands_hand_case():
    truth = true_estimands(_config())
    # reactive mass 0.7 mixes effects 1 and 2 with weights 3:4
    assert truth.p_m1 == pytest.approx(0.7)
    assert truth.trace == pytest.approx(1.1 / 0.7)
    assert truth.trace0 == pytest.approx(-0.5)
    assert truth.te == pytest.approx(0.95)


def test_true_estimands_everyone_reacts():
    cfg = _config(strata=StrataProbs(at=0.0, c=1.0, nt=0.0))
    truth = true_estimands(cfg)
    assert truth.p_m1 == 1.0
    assert truth.trace0 is None
    assert truth.trace == pytest.approx(2.0)
    assert truth.te == pytest.approx(2.0)


def test_true_estimands_type3_zero_nonreactive_effect():
    cfg = _config(
        means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
        type3=True,
    )
    truth = true_estimands(cfg)
    assert truth.trace0 == 0.0


def test_true_estimands_need_reactive_mass():
    with pytest.raises(EmptyReactiveStratum):
        true_estimands(_config(strata=StrataProbs(at=0.0, c=0.0, nt=1.0)))


def test_truth_record_identity_enforced():
    with pytest.raises(InvariantViolation):
        TruthRecord(trace=1.0, trace0=0.0, te=5.0, p_m1=0.5)


@given(
    st.floats(0.05, 0.9),
    st.floats(0.05, 0.9),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.floats(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_truth_satisfies_decomposition(a, c, e_at, e_c, e_nt):
    total = a + c
    if total >= 0.99:
        a, c = a / total * 0.9, c / total * 0.9
    strata = StrataProbs(at=a, c=c, nt=1.0 - a - c)
    means = OutcomeMeans(at=(0.0, e_at), c=(0.0, e_c), nt=(0.0, e_nt))
    truth = true_estimands(_config(strata=strata, means=means))
    t0 = truth.trace0 if truth.trace0 is not None else 0.0
    assert truth.te == pytest.approx(truth.trace * truth.p_m1 + t0 * (1 - truth.p_m1), abs=1e-9)


# -- configuration validation -------------------------------------------------


def test_strata_probs_validation():
    with pytest.raises(InvariantViolation):
        StrataProbs(at=0.5, c=0.5, nt=0.5)
    with pytest.raises(InvariantViolation):
        StrataProbs(at=-0.1, c=0.6, nt=0.5)


def test_dgp_validation():
    with pytest.raises(InvariantViolation):
        _config(n=0)
    with pytest.raises(InvariantViolation):
        _config(noise_sd=-1.0)
    # a nonzero mean in a cell where m = 0 contradicts a reaction-gated outcome
    with pytest.raises(InvariantViolation):
        _config(type3=True)  # nt means default to (1.0, 0.5) here


@pytest.mark.parametrize(
    "kwargs",
    [dict(n=10.5), dict(n=10.0), dict(n=True), dict(seed=1.5), dict(seed=True), dict(n="10")],
    ids=["float n", "integral float n", "bool n", "float seed", "bool seed", "str n"],
)
def test_dgp_refuses_counts_and_seeds_that_are_not_integers(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(InvariantViolation, match=f"{name} must be an integer, got {value!r}"):
        _config(**kwargs)


@pytest.mark.parametrize("noise_sd", [-1.0, float("inf"), float("nan")])
def test_dgp_names_both_rules_of_the_noise_sd(noise_sd):
    with pytest.raises(InvariantViolation, match=f"noise_sd must be finite and nonnegative, got {noise_sd}"):
        _config(noise_sd=noise_sd)


def test_dgp_takes_numpy_integers():
    ds, _ = simulate(_config(n=np.int64(40), seed=np.uint32(3)))
    assert ds.n == 40


# -- simulation ---------------------------------------------------------------


def test_simulate_deterministic_per_seed():
    a, _ = simulate(_config(seed=5, noise_sd=0.5))
    b, _ = simulate(_config(seed=5, noise_sd=0.5))
    c, _ = simulate(_config(seed=6, noise_sd=0.5))
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.d, b.d)
    np.testing.assert_array_equal(a.m, b.m)
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 500_003])
def test_cells_drawn_in_chunks_are_one_choice_and_one_integers_call(n):
    probs = (0.2, 0.3, 0.4, 0.1)
    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    cells = _draw_cells(rng, probs, n)
    expect = reference.choice(4, size=n, p=probs) * 2 + reference.integers(0, 2, size=n)
    assert cells.dtype == np.int8
    np.testing.assert_array_equal(cells, expect)
    assert rng.random() == reference.random()  # the generator is left where the two calls leave it


def _one_call_simulate(cfg: DGPConfig) -> tuple[np.ndarray, np.ndarray]:
    """y and the cell codes that ``simulate`` makes, each draw made by one call."""
    rng = np.random.default_rng(cfg.seed)
    cell = rng.choice(4, size=cfg.n, p=cfg.strata.as_tuple()) * 2 + rng.integers(0, 2, size=cfg.n)
    m = np.array([_M_TABLE[s] for s in _STRATA]).ravel()[cell]
    y = cfg.means.table().ravel()[cell]
    if cfg.noise_sd > 0:
        y = y + rng.normal(0.0, cfg.noise_sd, size=cfg.n)
    if cfg.type3:
        y[m == 0] = 0.0
    return y, 3 * (cell % 2) + m


@pytest.mark.parametrize("n", [2, CHUNK, CHUNK + 1, 500_003])
@pytest.mark.parametrize("type3", [False, True])
def test_simulate_draws_in_chunks_the_stream_of_one_call_each(n, type3):
    means = OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0 if type3 else -1.0))
    cfg = _config(n=n, strata=StrataProbs(at=0.2, c=0.3, nt=0.5), means=means, noise_sd=0.5, type3=type3, seed=n)
    y, codes = _one_call_simulate(cfg)
    if not 0 < np.count_nonzero(codes >= 3) < n:
        pytest.skip("the draw holds one arm only")
    ds = simulate(cfg)[0]
    assert ds.y.tobytes() == y.tobytes()
    np.testing.assert_array_equal(ds.cell_codes(), codes)


def test_simulate_noiseless_outcomes_hit_cell_means():
    cfg = _config()
    ds, _ = simulate(cfg)
    tab = {
        (1, 1): {0.0, 1.0, 2.0},   # treated reactors are at or c units
        (1, 0): {0.5},             # treated non-reactors are nt units
        (0, 1): {0.0},             # control reactors are at units
        (0, 0): {0.0, 1.0},        # control non-reactors are c or nt units
    }
    for (d, m), allowed in tab.items():
        cell = ds.y[(ds.d == d) & (ds.m == m)]
        assert set(np.round(cell, 12)) <= allowed


def test_simulate_share_near_truth():
    cfg = _config(n=4000, seed=1)
    ds, truth = simulate(cfg)
    se = np.sqrt(truth.p_m1 * (1 - truth.p_m1) / (ds.d == 1).sum())
    assert abs(estimate_p_m1(ds) - truth.p_m1) < 3 * se


def test_simulate_defiers_follow_the_reaction_table():
    cfg = DGPConfig(
        n=200,
        strata=StrataProbs(at=0.0, c=0.5, nt=0.0, defier=0.5),
        means=OutcomeMeans(at=(0, 0), c=(0, 1), nt=(0, 0), defier=(1, 0)),
        seed=3,
    )
    ds, _ = simulate(cfg)
    # defiers react only under control, so every control reactor is a defier
    assert ((ds.m[ds.d == 0] == 1) | (ds.m[ds.d == 0] == 0)).all()
    assert ds.m[ds.d == 0].sum() > 0


def test_simulate_type3_zeroes_nonreactors_despite_noise():
    cfg = _config(
        means=OutcomeMeans(at=(0.5, 1.5), c=(0.0, 2.0), nt=(0.0, 0.0)),
        type3=True,
        noise_sd=0.8,
        seed=2,
    )
    ds, _ = simulate(cfg)
    assert (ds.y[ds.m == 0] == 0.0).all()
    assert (ds.y[ds.m == 1] != 0.0).any()


# -- brute force --------------------------------------------------------------


def test_brute_force_hand_case():
    low, high = brute_force_trim_extremes([0.0, 1.0, 2.0, 3.0], 2)
    assert low == pytest.approx(0.5)
    assert high == pytest.approx(2.5)


def test_brute_force_full_subset_is_mean():
    low, high = brute_force_trim_extremes([0.0, 1.0, 2.0, 3.0], 4)
    assert low == high == pytest.approx(1.5)


def test_brute_force_guards():
    with pytest.raises(TooLarge):
        brute_force_trim_extremes(list(range(21)), 2)
    with pytest.raises(InvariantViolation):
        brute_force_trim_extremes([1.0, 2.0], 0)
    with pytest.raises(InvariantViolation):
        brute_force_trim_extremes([1.0, 2.0], 3)


# -- dual-route bounds check --------------------------------------------------


def test_dual_route_check_toy(toy):
    res = check_appendix_d(toy)
    assert res
    assert res.ok and not res.degenerate
    assert res.max_abs_err < 1e-12


def test_dual_route_check_random_smoke():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 50:
        ds = make_random_dataset(rng, weighted=checked % 2 == 0)
        if ds is None or float(ds.m[ds.d == 1].sum()) == 0:
            continue
        res = check_appendix_d(ds, tol=1e-10)
        if res.degenerate:
            continue
        checked += 1
        assert res.ok, f"routes disagree by {res.max_abs_err}"


def test_dual_route_check_degenerate_when_everyone_reacts():
    ds, _ = simulate(_config(strata=StrataProbs(at=0.0, c=1.0, nt=0.0), n=50))
    res = check_appendix_d(ds)
    assert res.degenerate and res.ok


def test_dual_route_check_needs_a_reactive_unit():
    ds, _ = simulate(
        DGPConfig(
            n=50,
            strata=StrataProbs(at=0.0, c=0.001, nt=0.999),
            means=OutcomeMeans(at=(0, 0), c=(0, 1), nt=(0, 0)),
            seed=9,
        )
    )
    assert float(ds.m[ds.d == 1].sum()) == 0  # seed 9 draws no treated reactor
    with pytest.raises(NoReactiveTreated):
        check_appendix_d(ds)
