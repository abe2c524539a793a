import json
from pathlib import Path

import numpy as np
import pytest
from reference import least_scanned_cost

import leakbench as lb
import leakbench.fitting as fitting
from leakbench.fitting import FitNonConvergence, _cost, fit, model_by_name
from leakbench.liouville import mix
from leakbench.noise import RandomStream
from leakbench.cli import FIGURES, figure_config
from leakbench.protocol import DecayDataset, decay_parameters, run_experiment

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


def test_refit_of_every_pinned_dataset_matches_its_fitted_decay():
    # Every (m, mean, sem) pinned in perfbench/reference.json refits to its
    # fitted_decay within that file's tolerance (1e-9, as perfbench/run.py checks).
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    for workload, figure in (("fig1-sweep", "fig1"), ("fig2-coherent", "fig2")):
        for seed, outputs in pinned[workload].items():
            run = outputs["reproduce"]
            data = DecayDataset.from_arrays(run["m"], run["mean"], run["sem"], run["n"])
            decay = fit(FIGURES[figure]["model"], data).params["decay"]
            assert abs(decay - run["fitted_decay"]) <= 1e-9, (workload, seed)


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


def test_is_degenerate_threshold():
    model = model_by_name("double-exp")
    assert fitting._is_degenerate(model, np.array([0.5, 0.5, 0.95, 0.95 + 5e-7]))
    assert not fitting._is_degenerate(model, np.array([0.5, 0.5, 0.95, 0.9]))


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
    ms = np.arange(10, 101, 10)
    ys, sems = 0.97 * 0.985 ** (ms - 1), np.full(ms.size, 0.001)
    for means, errors, lengths, message in (
        (np.where(ms == 30, np.nan, ys), sems, ms, r"means .* got nan at m = 30$"),
        (ys, np.where(ms == 70, -0.01, sems), ms, r"sems .* got -0.01 at m = 70$"),
        (ys, np.where(ms == 80, np.inf, sems), ms, r"sems .* got inf at m = 80$"),
        (ys, sems, np.where(ms == 90, -5, ms), r"lengths .* at m = -5$"),
        (ys, sems, np.where(ms == 10, 0, ms), r"lengths must be >= 1, got 0.0 at m = 0$"),
    ):
        for name in fitting.MODELS:
            with pytest.raises(ValueError, match=message):
                fit(name, DecayDataset.from_arrays(lengths, means, errors), weighted=False)


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
