import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import random_channel
from reference import (
    gauss_newton_step,
    least_pair_cost,
    least_scanned_cost,
    mix,
    projected_search,
)

import leakbench as lb
import leakbench.fitting as fitting
from leakbench.fitting import FitNonConvergence, _cost, fit, model_by_name
from leakbench.liouville import ConfigError
from leakbench.noise import RandomStream
from leakbench.cli import FIGURES, figure_config
from leakbench.protocol import (
    DecayDataset,
    SpamSpec,
    decay_parameters,
    exact_expectations,
    run_experiment,
)

MS = np.arange(10, 101, 10)


def synthetic(model_name: str, params: dict, ms=MS, sem=None, seed=None):
    model = model_by_name(model_name)
    x = np.array([params[name] for name in model.param_names])
    ys = model.predict(x, ms.astype(float))
    sems = np.zeros_like(ys) if sem is None else np.full_like(ys, sem)
    if seed is not None:
        ys = np.clip(ys + np.random.default_rng(seed).normal(0.0, sem, size=ys.shape), 0.0, 1.0)
    return DecayDataset.from_arrays(ms, ys, sems, [30] * len(ms))


# ---------------------------------------------------------------------------
# Exact model recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,params",
    [
        ("single-exp", {"amplitude": 1.0, "decay": 0.98}),
        ("single-exp", {"amplitude": 0.87, "decay": 0.931}),
        (
            "double-exp",
            {"amp_plus": 0.55, "amp_minus": 0.40, "decay_plus": 0.999, "decay_minus": 0.95},
        ),
        ("tp-constrained", {"amplitude": 0.52, "offset": 0.47, "decay": 0.992}),
    ],
)
def test_exact_recovery(name, params):
    result = fit(name, synthetic(name, params))
    assert result.converged
    for key, truth in params.items():
        assert abs(result.params[key] - truth) <= 1e-8 * max(abs(truth), 1e-12)


def test_recovery_with_negative_decay():
    # Short lengths: an alternating component dies out by m ~ 10.
    params = {"amplitude": 0.3, "offset": 0.6, "decay": -0.5}
    data = synthetic("tp-constrained", params, ms=np.arange(1, 11))
    result = fit("tp-constrained", data)
    for key, truth in params.items():
        assert abs(result.params[key] - truth) <= 1e-8


@pytest.mark.parametrize(
    "name,truth",
    [
        ("single-exp", [0.9, 0.97]),
        ("tp-constrained", [0.5, 0.45, 0.985]),
        ("double-exp", [0.55, 0.4, 0.998, 0.95]),
    ],
)
def test_fit_cost_is_no_larger_than_a_brute_force_scan(name, truth):
    # The fitted optimum is at least as good as any grid point of a slow scan.
    model = model_by_name(name)
    for seed in range(2):
        params = dict(zip(model.param_names, truth))
        data = synthetic(name, params, sem=0.004, seed=seed)
        ms, ys, w = data.ms, data.means, 1.0 / data.sems**2
        result = fit(name, data)
        x = np.array([result.params[key] for key in model.param_names])
        rounding = 64 * np.finfo(float).eps * np.sum(w * ys * ys)
        assert _cost(model, x, ms, ys, w) <= least_scanned_cost(model, ms, ys, w) + rounding


@pytest.mark.parametrize("first", [10, 11])
def test_uniform_parity_fits_a_nonnegative_decay_on_the_same_curve(first):
    # With every m - 1 odd (first = 10) or every one even (first = 11),
    # (a, decay) and (+-a, -decay) draw the same curve; the fit takes decay >= 0.
    ms = np.arange(first, first + 91, 10)
    data = synthetic("tp-constrained", {"amplitude": 0.3, "offset": 0.5, "decay": -0.97}, ms=ms)
    result = fit("tp-constrained", data)
    assert abs(result.params["decay"] - 0.97) < 1e-8
    sign = (-1.0) ** (first - 1)
    assert abs(result.params["amplitude"] - 0.3 * sign) < 1e-8
    assert np.max(np.abs(result.residuals)) < 1e-12


def pinned_datasets():
    """(figure, seed, run) of every reproduce run pinned in perfbench/reference.json."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    for workload, figure in (("fig1-sweep", "fig1"), ("fig2-coherent", "fig2")):
        for seed, outputs in pinned[workload].items():
            yield figure, seed, outputs["reproduce"]


def test_refit_of_every_pinned_dataset_matches_its_fitted_decay():
    # Every (m, mean, sem) pinned in perfbench/reference.json refits to its
    # fitted_decay within that file's tolerance (1e-9, as perfbench/run.py checks),
    # and its decay is identified.
    for figure, seed, run in pinned_datasets():
        data = DecayDataset.from_arrays(run["m"], run["mean"], run["sem"], run["n"])
        result = fit(FIGURES[figure]["model"], data)
        assert abs(result.params["decay"] - run["fitted_decay"]) <= 1e-9, (figure, seed)
        assert "weakly-identified" not in result.flags, (figure, seed)


def test_a_decay_that_the_curve_cannot_identify_is_flagged():
    # fig2 at sigma_gamma = 0.02 and seed 3, whose exact decay is 0.99870: the means
    # are nearly a straight line, and the tp-constrained fit runs out along the ray
    # decay -> 1 to 0.9999995 +- 1.7e-8, amplitude 867 and offset -866, where the
    # weighted normal matrix is singular (inverse condition number 4.7e-21).
    noise = {"id": "shelving", "params": {"phi": 0.01, "sigma_gamma": 0.02}}
    result = fit("tp-constrained", run_experiment(replace(figure_config("fig2"), seed=3, noise=noise)))
    assert abs(result.params["decay"] - 0.9999995) < 1e-7
    assert result.flags == ["weakly-identified"] and not result.degenerate


#: The sem of the double-exp generator's means.
GENERATED_SEM = 0.005


def generated(seed: int) -> np.ndarray:
    """Means at MS of the double-exp generator: two amplitudes in [0.05, 0.9] and two
    decays in [0.85, 1], plus normal noise of sd GENERATED_SEM, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    amps, decays = rng.uniform(0.05, 0.9, 2), np.sort(rng.uniform(0.85, 1.0, 2))[::-1]
    return amps @ decays[:, None] ** (MS - 1) + rng.normal(0.0, GENERATED_SEM, MS.size)


@pytest.mark.parametrize("seed", [43, 246, 353])
def test_double_exp_fit_ends_at_or_below_its_own_pair_scan(seed):
    # Seeds where the refinement of decay_plus once walked uphill from the grid's
    # best pair: to costs 4.153 (43) and 6.239 (353) above their scans' 4.081 and 6.185.
    ys, sems = generated(seed), np.full(MS.size, GENERATED_SEM)
    result = fit("double-exp", DecayDataset.from_arrays(MS, ys, sems))
    cost = _cost(model_by_name("double-exp"), list(result.params.values()), MS, ys, sems**-2)
    grid = np.linspace(0.0, 1.0, fitting._GRID_POINTS)[::2]  # the fit's own pair grid
    assert cost <= least_pair_cost(MS, ys, sems**-2, grid)


EPS = np.finfo(float).eps


def assert_search_matches_the_lstsq_search(model, ms, ys, w):
    """The search with closed-form steps against the reference, which takes each step by lstsq.

    At every point where the reference refines its last decay, the closed-form
    step is the lstsq step within 1e-9 of it plus their rounding, eps k(J)
    sum_i |j_i y_i| over |(1 - P) j|^2: the residual is formed to eps |y| and
    solved through the weighted free Jacobian J of condition k(J), whose
    decay column j leaves the amplitude columns' span by (1 - P) j.  Below 1e-8
    the steps are that rounding: on single-exp data the lstsq step itself is
    up to 3e-6 from the step in exact arithmetic.  The searches end at decays
    1e-12 apart, or, for a double exponential, both where the fit flags its
    decays as not told apart and their costs agree to 1e-6: in that flat valley
    a change of the data by 1e-16 moves the reference's own end as far.
    """
    visits, sw, nd = [], np.sqrt(w), model.n_amplitudes
    reference = projected_search(model, ms, ys, w, visits=visits)[0]
    for x, head in visits:
        k, e = len(head), ms - 1
        free = [*range(nd), *range(nd + k, model.n_params)]
        lstsq = gauss_newton_step(model, x, ms, ys, w, free)
        slope = e * np.power(x[nd + k], np.maximum(e - 1, 0))
        closed = fitting._projected_step(model.basis(x[nd:], ms), slope, k, ys, w)[1]
        if closed != lstsq:
            jac = sw[:, None] * model.jacobian(x, ms)[:, free]
            j, amplitude_cols = jac[:, nd], jac[:, :nd]
            off = j - amplitude_cols @ np.linalg.lstsq(amplitude_cols, j, rcond=None)[0]
            rounding = EPS * np.linalg.cond(jac) * (np.abs(j) @ np.abs(sw * ys))
            assert abs(closed - lstsq) * (off @ off) <= 1e-9 * abs(lstsq) * (off @ off) + rounding
    x = fitting._search(model, ms, ys, w)[0]
    if np.max(np.abs(x[nd:] - reference[nd:])) > 1e-12:
        for end in (x, reference):
            jac = model.jacobian(end, ms)
            assert is_degenerate(model, end, jac.T @ (w[:, None] * jac))
        assert abs(_cost(model, x, ms, ys, w) - _cost(model, reference, ms, ys, w)) <= 1e-6


def test_closed_form_steps_match_lstsq_steps_on_every_pinned_dataset():
    for figure, _, run in pinned_datasets():
        ms, ys, sems = (np.array(run[key]) for key in ("m", "mean", "sem"))
        model = model_by_name(FIGURES[figure]["model"])
        assert_search_matches_the_lstsq_search(model, ms, ys, sems**-2.0)


#: Generator seeds per model: a double-exp seed takes about 0.15 s here, so one in 12.
GENERATED_SEEDS = {
    "single-exp": range(180),
    "tp-constrained": range(180),
    "double-exp": range(0, 180, 12),
}


@pytest.mark.parametrize("name", GENERATED_SEEDS)
def test_closed_form_steps_match_lstsq_steps_on_generated_data(name):
    for seed in GENERATED_SEEDS[name]:
        ys, w = generated(seed), np.full(MS.size, GENERATED_SEM**-2.0)
        assert_search_matches_the_lstsq_search(model_by_name(name), MS, ys, w)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["single-exp", "double-exp", "tp-constrained"])
def test_jacobian_matches_finite_differences(name):
    model = model_by_name(name)
    rng = np.random.default_rng(31)
    ms = MS.astype(float)
    for _ in range(10):
        x = rng.uniform(0.2, 0.9, size=model.n_params)
        analytic = model.jacobian(x, ms)
        numeric = np.empty_like(analytic)
        h = 1e-6
        for j in range(model.n_params):
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            numeric[:, j] = (model.predict(up, ms) - model.predict(down, ms)) / (2 * h)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.abs(analytic - numeric) / np.maximum(scale, 1.0)
        assert np.max(rel) < 1e-6


def test_jacobian_finite_at_m_equal_one():
    model = model_by_name("single-exp")
    jac = model.jacobian(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.all(np.isfinite(jac))


def test_flat_data_reports_offset_only_with_flag():
    flat = DecayDataset.from_arrays(MS, np.full(len(MS), 0.73))
    for name in ("double-exp", "tp-constrained"):
        result = fit(name, flat)
        assert result.degenerate
        assert "flat-data" in result.flags
        assert result.r_squared is None
        key = "amp_plus" if name == "double-exp" else "offset"
        assert abs(result.params[key] - 0.73) < 1e-12


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


def test_goodness_perfect_fit():
    data = synthetic("single-exp", {"amplitude": 1.0, "decay": 0.98})
    result = fit("single-exp", data)
    assert abs(result.r_squared - 1.0) < 1e-12


def test_goodness_chi2_calibrated_on_consistent_noise():
    rng = np.random.default_rng(5)
    values = []
    for rep in range(60):
        ys = 0.9 * 0.97 ** (MS - 1)
        sem = np.full_like(ys, 0.004)
        noisy = np.clip(ys + rng.normal(0.0, sem), 0.0, 1.0)
        result = fit("single-exp", DecayDataset.from_arrays(MS, noisy, sem, [30] * len(MS)))
        values.append(result.chi2_per_dof)
    dof = len(MS) - 2
    assert abs(np.mean(values) - 1.0) < 2.0 / np.sqrt(dof)


def test_wrong_model_scores_materially_lower():
    data = synthetic(
        "double-exp",
        {"amp_plus": 0.5, "amp_minus": 0.5, "decay_plus": 0.999, "decay_minus": 0.9},
    )
    r_single = fit("single-exp", data)
    r_double = fit("double-exp", data)
    assert r_double.r_squared > 0.999
    assert r_single.r_squared < r_double.r_squared - 0.05


# ---------------------------------------------------------------------------
# Degeneracy, canonical order, convergence failure
# ---------------------------------------------------------------------------


def test_double_exp_canonical_ordering():
    data = synthetic(
        "double-exp",
        {"amp_plus": 0.3, "amp_minus": 0.7, "decay_plus": 0.92, "decay_minus": 0.999},
    )
    result = fit("double-exp", data)
    assert result.params["decay_plus"] >= result.params["decay_minus"]
    assert abs(result.params["decay_plus"] - 0.999) < 1e-7
    assert abs(result.params["amp_plus"] - 0.7) < 1e-7


def test_equal_decay_data_converges_and_is_flagged():
    # Exactly degenerate generating decays: the fitted curve must match, and
    # the unidentifiable direction must be flagged (either equal decays or a
    # vanishing component, depending on which valley branch the fit lands in).
    data = synthetic(
        "double-exp",
        {"amp_plus": 0.5, "amp_minus": 0.5, "decay_plus": 0.95, "decay_minus": 0.95},
    )
    result = fit("double-exp", data)
    assert result.converged
    model = model_by_name("double-exp")
    x = np.array([result.params[n] for n in model.param_names])
    assert np.max(np.abs(model.predict(x, MS.astype(float)) - data.means)) < 1e-10
    assert result.degenerate or "vanishing-component" in result.flags


def normal_matrix(model, x, ms=MS, w=None):
    """The weighted normal matrix J' W J of ``model`` at ``x``, unit weights by default."""
    jac = model.jacobian(np.asarray(x, dtype=float), ms)
    return jac.T @ ((np.ones(len(ms)) if w is None else w)[:, None] * jac)


def is_degenerate(model, x, normal) -> bool:
    """Whether the fit flags the decays ``x`` as degenerate, given its normal matrix."""
    return fitting._is_degenerate(model, x, fitting._pseudo_inverse(normal)[1])


def test_is_degenerate_threshold():
    model = model_by_name("double-exp")
    for x, degenerate in (([0.5, 0.5, 0.95, 0.95 + 5e-7], True), ([0.5, 0.5, 0.95, 0.9], False)):
        assert is_degenerate(model, np.array(x), normal_matrix(model, x)) is degenerate


def test_degenerate_limit_is_flagged_wherever_the_refinement_stops():
    # On seed 246 the best curve is the limit a l^(m-1) + b (m-1) l^(m-2) of two
    # equal decays: the fit ends with decays about 1e-6 apart and amplitudes near
    # +-500, the reference search of lstsq steps near +-3000 (weighted Jacobian
    # conditioned 1e17 and 2e20).  Both ends are flagged.
    w = np.full(MS.size, GENERATED_SEM**-2.0)
    sems = np.full(MS.size, GENERATED_SEM)
    model = model_by_name("double-exp")
    reference = projected_search(model, MS, generated(246), w)[0]
    assert is_degenerate(model, reference, normal_matrix(model, reference, w=w))
    for seed, degenerate in ((246, True), (1, False), (2, False), (3, False)):
        data = DecayDataset.from_arrays(MS, generated(seed), sems)
        result = fit("double-exp", data)
        assert result.degenerate is degenerate
        assert ("degenerate-decays" in result.flags) is degenerate
        for name in ("single-exp", "tp-constrained"):
            assert not fit(name, data).degenerate
    for figure in FIGURES:
        result = fit(FIGURES[figure]["model"], run_experiment(figure_config(figure)))
        assert not result.degenerate and result.flags == []


def test_nonconvergence_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(9)
    ys = 0.5 * 0.992 ** (MS - 1) + 0.47
    sem = np.full_like(ys, 0.003)
    noisy = np.clip(ys + rng.normal(0.0, sem), 0.0, 1.0)
    with pytest.raises(FitNonConvergence) as err:
        fit("tp-constrained", DecayDataset.from_arrays(MS, noisy, sem))
    assert "params" in err.value.diagnostics


def test_insufficient_data_and_range_validation():
    with pytest.raises(ValueError):
        fit("single-exp", DecayDataset.from_arrays([10, 20], [0.9, 0.8]))
    with pytest.raises(ValueError):
        fit("single-exp", DecayDataset.from_arrays([10, 20, 30], [0.9, 1.2, 0.7]))
    with pytest.raises(ValueError):
        model_by_name("triple-exp")


def test_models_are_exponential_sums_with_amplitudes_then_decays():
    ms = np.arange(1, 41, dtype=float)
    cases = {
        "single-exp": ([0.9, 0.97], lambda a, l: a * l ** (ms - 1)),
        "tp-constrained": ([0.4, 0.5, 0.97], lambda a, b, l: a * l ** (ms - 1) + b),
        "double-exp": (
            [0.6, 0.3, 0.99, -0.8],
            lambda a, b, l, k: a * l ** (ms - 1) + b * k ** (ms - 1),
        ),
    }
    for name, (x, curve) in cases.items():
        model = model_by_name(name)
        assert np.allclose(model.predict(np.array(x), ms), curve(*x), rtol=1e-14, atol=0)


def test_malformed_points_are_rejected_naming_their_length():
    # The dataset refuses such a point when it is made, naming its row and key, so no
    # model's fit can be handed one.
    ms = np.arange(10, 101, 10)
    ys, sems = 0.97 * 0.985 ** (ms - 1), np.full(ms.size, 0.001)
    for means, errors, lengths, message in (
        (np.where(ms == 30, np.nan, ys), sems, ms, r"^bad dataset\[2\]\.mean: .*, got NaN$"),
        (ys, np.where(ms == 70, -0.01, sems), ms, r"^bad dataset\[6\]\.sem: .*, got -0.01$"),
        (ys, np.where(ms == 80, np.inf, sems), ms, r"^bad dataset\[7\]\.sem: .*, got Infinity$"),
        (ys, sems, np.where(ms == 90, -5, ms), r"^bad dataset\[8\]\.m: .*, got -5$"),
        (ys, sems, np.where(ms == 10, 0, ms), r"^bad dataset\[0\]\.m: .*, got 0$"),
    ):
        with pytest.raises(ConfigError, match=message):
            DecayDataset.from_arrays(lengths, means, errors)


def test_the_longest_int64_length_fits_without_a_cast(tmp_path, capsys):
    # decay^(m-1) is 0 at m = 2^63 - 1 for every decay below 1, so a row there
    # with mean 0 leaves the fit of the other rows; as a float it would read 2^63.
    ms = np.arange(5, 100, 7)  # both parities of m - 1, so the decay's sign is identified
    data = synthetic("single-exp", {"amplitude": 0.97, "decay": 0.985}, ms, sem=0.001, seed=4)
    longest = 2**63 - 1
    rows = data.rows()
    path = tmp_path / "decay.json"
    rows.append({"m": longest, "mean": 0.0, "sem": 0.001, "n": 30})
    path.write_text(json.dumps({"dataset": rows}))
    loaded = DecayDataset.from_json(str(path))
    assert loaded.ms.dtype == np.int64 and loaded.ms[-1] == longest
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both, alone = fit("single-exp", loaded), fit("single-exp", data)
        assert lb.cli.main(["fit", str(path), "--model", "single-exp"]) == 0
    for name in ("amplitude", "decay"):
        assert both.params[name] == pytest.approx(alone.params[name], rel=1e-12)
    assert f"decay = {alone.params['decay']:.6f}" in capsys.readouterr().out


def test_too_few_distinct_lengths_are_rejected():
    # A repeated length counts once; a NaN length is refused when the dataset is made.
    ones = np.ones(4)
    data = DecayDataset(np.array([10, 20, 20, 10]), 0.9 * ones, 0.01 * ones, 30 * ones.astype(int))
    with pytest.raises(ValueError, match="single-exp needs at least 3 distinct lengths"):
        fit("single-exp", data)
    with pytest.raises(ConfigError, match=r"^bad dataset\[1\]\.m: .*, got NaN$"):
        DecayDataset(np.array([10, np.nan, np.nan, 20]), 0.9 * ones, 0.01 * ones, 30 * ones)


# ---------------------------------------------------------------------------
# Physics identities on fitted parameters
# ---------------------------------------------------------------------------


def _shelving_dataset(seed: int, sem: float):
    """Noisy synthetic data from a known gate-independent qutrit channel."""
    gs = lb.shelving_gateset()
    unitary_part = lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(seed))
    absorber = lb.Channel(
        gs.space, [np.sqrt(0.985) * np.eye(3), np.sqrt(0.015) * np.diag([1.0, 1.0, 0.0])]
    )
    channel = mix([unitary_part, absorber], [0.8, 0.2])
    params = decay_parameters(gs, channel)
    ys = params["amp_plus"] * params["decay_plus"] ** (MS - 1)
    ys += params["amp_minus"] * params["decay_minus"] ** (MS - 1)
    rng = np.random.default_rng(seed + 1)
    noisy = np.clip(ys + rng.normal(0.0, sem, size=ys.shape), 0.0, 1.0)
    data = DecayDataset.from_arrays(MS, noisy, np.full_like(ys, sem), [200] * len(MS))
    return channel, data


def test_fitted_sum_matches_channel_coherent_survival():
    channel, data = _shelving_dataset(seed=41, sem=0.002)
    result = fit("double-exp", data)
    fitted_sum = result.params["decay_plus"] + result.params["decay_minus"]
    expected = np.trace(lb.transfer_matrix(channel))
    spread = result.stderr["decay_plus"] + result.stderr["decay_minus"]
    assert abs(fitted_sum - expected) <= 3.0 * spread
    assert abs(result.derived()["coherent_survival"] - fitted_sum) < 1e-15


#: Lengths that see both decays of the physical double-exp run: the fast one by
#: m ~ 30, the slow one over the whole range.  At m = 1 every sequence of
#: gate-independent noise has the same probability, so its sem is rounding noise
#: and the fit falls back to unit weights.
PHYSICAL_MS = (2, 3, 5, 8, 12, 17, 25, 35, 50, 70, 100)


def _physical_double_exp_run(n_sequences: int, ms=PHYSICAL_MS):
    """(channel, exact means, simulated dataset) of gate-independent, non-trace-preserving
    Kraus noise on the qutrit (2, 1), run by the engine through ``run_experiment``."""
    gs = lb.shelving_gateset()
    rng = np.random.default_rng(12)
    identity = lb.Channel(gs.space, [np.eye(gs.space.d)])
    channel = mix([identity, random_channel(gs.space, rng, scale=0.9)], [0.95, 0.05])
    na = lb.NoiseAssignment.uniform(channel, len(gs))
    cfg = lb.ExperimentConfig(gateset="shelving", m_list=ms, n_sequences=n_sequences, seed=13)
    components = (gs, na, SpamSpec.ideal(gs.space), RandomStream(cfg.seed))
    dataset = run_experiment(cfg, components=components)
    return channel, exact_expectations(ms, gs, na), dataset


def test_double_exp_fit_finds_the_two_decays_of_a_physical_channel():
    channel, exact, dataset = _physical_double_exp_run(n_sequences=100)
    truth = decay_parameters(lb.shelving_gateset(), channel)
    assert 0.0 < truth["decay_minus"] < truth["decay_plus"] < 0.9999  # two decays, neither 1
    on_exact = fit("double-exp", DecayDataset.from_arrays(PHYSICAL_MS, exact))
    sampled = fit("double-exp", dataset)
    for key in ("decay_plus", "decay_minus"):
        assert abs(on_exact.params[key] - truth[key]) < 1e-6, key
        assert abs(sampled.params[key] - truth[key]) <= 3.0 * sampled.stderr[key], key


def test_a_sem_at_the_rounding_level_of_its_mean_gives_unit_weights():
    # Weighted by 1/sem^2, the m = 1 point (sem about 1e-17) would pin every model
    # to itself: double-exp ended at decays (-0.996, -1.0), the others at -0.998.
    channel, _, dataset = _physical_double_exp_run(n_sequences=100, ms=(1, *PHYSICAL_MS))
    assert 0.0 < dataset.sems[0] < 64 * np.finfo(float).eps * dataset.means[0]
    truth = decay_parameters(lb.shelving_gateset(), channel)
    result = fit("double-exp", dataset)
    assert not result.weighted
    for key in ("decay_plus", "decay_minus"):
        assert abs(result.params[key] - truth[key]) <= 3.0 * result.stderr[key], key
    for model in ("single-exp", "tp-constrained"):
        assert fit(model, dataset).params["decay"] > 0.9, model


def test_tp_channel_gives_unit_eigenvalue_unconstrained():
    gs = lb.shelving_gateset()
    channel = lb.sample_coherent_noise(lb.ShelvingParams(), RandomStream(43))
    params = decay_parameters(gs, channel)
    assert abs(params["decay_plus"] - 1.0) < 1e-10
    ys = params["amp_plus"] * params["decay_plus"] ** (MS - 1)
    ys += params["amp_minus"] * params["decay_minus"] ** (MS - 1)
    rng = np.random.default_rng(44)
    sem = 0.002
    noisy = np.clip(ys + rng.normal(0.0, sem, size=ys.shape), 0.0, 1.0)
    result = fit("double-exp", DecayDataset.from_arrays(MS, noisy, np.full_like(ys, sem)))
    assert abs(result.params["decay_plus"] - 1.0) <= 3.0 * max(result.stderr["decay_plus"], 1e-4)


def test_derived_quantities_recomputed_from_params():
    data = synthetic("tp-constrained", {"amplitude": 0.5, "offset": 0.47, "decay": 0.992})
    result = fit("tp-constrained", data)
    derived = result.derived()
    assert abs(derived["decay_eigenvalue"] - result.params["decay"]) < 1e-15
    assert abs(derived["coherent_survival"] - (1.0 + result.params["decay"])) < 1e-15
    doc = result.to_dict()
    assert doc["derived"] == derived
    assert doc["model"] == "tp-constrained"


def test_unweighted_flag_changes_result():
    rng = np.random.default_rng(51)
    ys = 0.9 * 0.97 ** (MS - 1)
    sems = np.linspace(0.001, 0.02, len(MS))
    noisy = np.clip(ys + rng.normal(0.0, sems), 0.0, 1.0)
    data = DecayDataset.from_arrays(MS, noisy, sems)
    weighted = fit("single-exp", data, weighted=True)
    unweighted = fit("single-exp", data, weighted=False)
    assert weighted.weighted and not unweighted.weighted
    assert weighted.params["decay"] != unweighted.params["decay"]


@pytest.mark.parametrize("figure, seed", [("fig1", 7), ("fig2", 1)])
def test_refit_of_data_perturbed_by_1e_16_moves_the_decay_below_1e_12(figure, seed):
    # The damped iteration alone stopped 5.5e-10 (fig1) and 3.5e-9 (fig2) apart.
    data = run_experiment(figure_config(figure, seed))
    model = FIGURES[figure]["model"]
    decay = fit(model, data).params["decay"]
    for k in range(4):
        signs = np.random.default_rng(k).choice([-1.0, 1.0], len(data.means))
        means = data.means + 1e-16 * signs
        perturbed = DecayDataset.from_arrays(data.ms, means, data.sems, data.counts)
        assert abs(fit(model, perturbed).params["decay"] - decay) < 1e-12
