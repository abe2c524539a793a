"""Nonlinear least-squares fitting of survival decay curves.

Three models are supported: a single exponential amplitude * decay^(m-1), a
double exponential for leakage-subspace experiments, and the trace-
preserving specialization amplitude * decay^(m-1) + offset.  Fits use damped
least squares with analytic Jacobians, sem-derived weights by default, and
report covariance-based standard errors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

#: Two decay constants closer than this are reported as degenerate.
DEGENERACY_TOL = 1e-6

_MAX_ITERATIONS = 200
_STEP_TOL = 1e-10
_POLISH_STEPS = 8


class FitNonConvergence(RuntimeError):
    """Raised when the damped least-squares loop hits the iteration cap."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def _int_powers(base: float, exponents: np.ndarray) -> np.ndarray:
    # Integer exponents keep negative decay parameters well defined.
    return np.power(base, exponents.astype(int))


def _power_derivative(base: float, exponents: np.ndarray) -> np.ndarray:
    """d/d(base) of base^e for integer e >= 0."""
    e = exponents.astype(int)
    return np.where(e == 0, 0.0, e * np.power(base, np.maximum(e - 1, 0)))


class DecayModel:
    """The named curve sum_k a_k decay_k^(m-1), with analytic predictions and Jacobians.

    Parameters are the amplitudes, then the decays (clamped to [-1, 1]).
    Amplitude k multiplies decay k; an amplitude with no decay of its own is
    a constant term.
    """

    def __init__(self, kind: str, amplitudes, decays):
        self.kind = kind
        self.param_names = tuple(amplitudes) + tuple(decays)
        self.n_params = len(self.param_names)
        self.n_amplitudes = len(amplitudes)
        self.decay_params = tuple(range(self.n_amplitudes, self.n_params))

    def clamp(self, params: np.ndarray) -> np.ndarray:
        out = np.array(params, dtype=float)
        for i in self.decay_params:
            out[i] = min(max(out[i], -1.0), 1.0)
        return out

    def _amplitude_terms(self, params, ms: np.ndarray) -> list:
        """The curve's derivative by each amplitude: decay_k^(m-1), or 1 for the constant."""
        powers = [_int_powers(params[i], ms - 1) for i in self.decay_params]
        return powers + [np.ones_like(ms, dtype=float)] * (self.n_amplitudes - len(powers))

    def predict(self, params: np.ndarray, ms: np.ndarray) -> np.ndarray:
        terms = [a * t for a, t in zip(params, self._amplitude_terms(params, ms))]
        return sum(terms[1:], terms[0])

    def jacobian(self, params: np.ndarray, ms: np.ndarray) -> np.ndarray:
        by_decay = [
            params[k] * _power_derivative(params[i], ms - 1)
            for k, i in enumerate(self.decay_params)
        ]
        return np.column_stack(self._amplitude_terms(params, ms) + by_decay)


MODELS = {
    "single-exp": DecayModel("single-exp", ("amplitude",), ("decay",)),
    "double-exp": DecayModel(
        "double-exp", ("amp_plus", "amp_minus"), ("decay_plus", "decay_minus")
    ),
    "tp-constrained": DecayModel("tp-constrained", ("amplitude", "offset"), ("decay",)),
}


def model_by_name(name: str) -> DecayModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODELS)}"
        ) from None


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _log_linear(ms: np.ndarray, ys: np.ndarray):
    """Regress ln(y) on (m - 1); returns (exp(intercept), exp(slope))."""
    x = ms - 1.0
    slope, intercept = np.polyfit(x, np.log(ys), 1)
    return float(np.exp(intercept)), float(np.exp(slope))


def init_single_exp(data):
    """(amplitude, decay) from a log-linear regression on the positive means."""
    ms, ys = data.ms, data.means
    mask = ys > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive means to initialize")
    amp, decay = _log_linear(ms[mask], ys[mask])
    return amp, min(decay, 1.0)


def init_double_exp(data):
    """(amp_plus, amp_minus, decay_plus, decay_minus) starting point.

    Uses a near-trace-preserving prior decay_plus = 1, the mean at the
    largest m as the asymptote estimate, and a log-linear fit of the excess
    above the asymptote for the decaying term.
    """
    if len(np.unique(data.ms)) < 5:
        raise ValueError("double-exponential initialization needs >= 5 lengths")
    amp, offset, decay = _asymptote_init(data)
    return offset, amp, 1.0, decay


def _asymptote_init(data):
    """(amplitude, offset, decay) with the offset read off the largest m.

    Excess values below 5% of the largest are dropped from the log-linear
    step: subtracting the asymptote estimate distorts the tail.
    """
    ms, ys = data.ms, data.means
    offset = float(ys[np.argmax(ms)])
    excess = ys - offset
    mask = excess > max(0.05 * excess.max(), 1e-12)
    if mask.sum() >= 2:
        amp, decay = _log_linear(ms[mask], excess[mask])
        decay = min(decay, 1.0)
    else:
        # Flat curve: the decaying term is unidentifiable from the data.
        amp, decay = 0.0, 0.0
    return amp, offset, decay


def _initial_params(model: DecayModel, data) -> np.ndarray:
    if model.kind == "single-exp":
        return np.array(init_single_exp(data))
    if model.kind == "double-exp":
        return np.array(init_double_exp(data))
    return np.array(_asymptote_init(data))


# ---------------------------------------------------------------------------
# Fit driver
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Converged parameters, their standard errors and goodness of fit."""

    model: str
    params: dict
    stderr: dict
    r_squared: float | None
    chi2_per_dof: float | None
    residuals: np.ndarray
    converged: bool
    n_iterations: int
    degenerate: bool = False
    weighted: bool = True
    flags: list = field(default_factory=list)

    def derived(self) -> dict:
        """Survival quantities recomputed from the fitted parameters."""
        p = self.params
        if self.model == "single-exp":
            return {"incoherent_survival": p["decay"]}
        if self.model == "double-exp":
            total = p["decay_plus"] + p["decay_minus"]
            return {"coherent_survival": total, "decay_eigenvalue": p["decay_minus"]}
        return {
            "coherent_survival": 1.0 + p["decay"],
            "decay_eigenvalue": p["decay"],
        }

    def to_dict(self) -> dict:
        return {**asdict(self), "derived": self.derived(), "residuals": self.residuals.tolist()}


def _weights(data, weighted: bool) -> np.ndarray:
    sems = data.sems
    if weighted and np.all(sems > 0):
        return 1.0 / sems ** 2
    return np.ones_like(sems)


def _cost(model, params, ms, ys, w) -> float:
    r = ys - model.predict(params, ms)
    return float(np.sum(w * r * r))


def _damped_step(model, x, normal, grad, mu):
    """A damped step clamped to the box, re-solved on the free coordinates.

    When the raw step drives a decay parameter past a bound, that coordinate
    is pinned at the bound and the normal equations are re-solved for the
    rest; plain clipping leaves a crippled step that creeps along the bound.
    """
    damping = np.diag(np.maximum(np.diag(normal), 1e-14))
    step = np.linalg.solve(normal + mu * damping, grad)
    candidate = model.clamp(x + step)
    pinned = [
        i for i in model.decay_params if abs(candidate[i] - (x[i] + step[i])) > 0
    ]
    if not pinned:
        return candidate
    free = [i for i in range(len(x)) if i not in pinned]
    if not free:
        return candidate
    delta_pinned = candidate[pinned] - x[pinned]
    rhs = grad[free] - normal[np.ix_(free, pinned)] @ delta_pinned
    sub = normal[np.ix_(free, free)] + mu * damping[np.ix_(free, free)]
    refined = candidate.copy()
    refined[free] = x[free] + np.linalg.solve(sub, rhs)
    return model.clamp(refined)


def _lm_minimize(model: DecayModel, x0, ms, ys, w):
    """Damped least squares, polished by Gauss-Newton steps on the free parameters.

    The damped iteration stops once a step no longer lowers the cost at
    working precision, up to about sqrt(eps) times the parameter errors short
    of the optimum.  Undamped steps (a parameter pushed past its bound is
    pinned there) follow while each is at most half the one before and does
    not raise the cost by more than its rounding, so the fit depends on the
    data alone and not on the path of the iteration.
    """
    x, cost, converged, n_iter = _lm_iterate(model, x0, ms, ys, w)
    size, eps = np.inf, np.finfo(float).eps
    for _ in range(_POLISH_STEPS if converged else 0):
        jac, resid = model.jacobian(x, ms), ys - model.predict(x, ms)
        try:
            candidate = _damped_step(model, x, jac.T @ (w[:, None] * jac), jac.T @ (w * resid), 0.0)
        except np.linalg.LinAlgError:
            break
        candidate_cost = _cost(model, candidate, ms, ys, w)
        step, rounding = np.max(np.abs(candidate - x)), 8 * eps * np.sum(w * np.abs(resid * ys))
        if not (step <= size / 2 and candidate_cost <= cost + rounding):
            break
        x, cost, size = candidate, candidate_cost, step
        if size <= 4 * eps * np.max(np.abs(x)):
            break
    return x, cost, converged, n_iter


def _lm_iterate(model: DecayModel, x0, ms, ys, w):
    """Damped least squares with multiplicative damping on the normal matrix."""
    x = model.clamp(np.asarray(x0, dtype=float))
    cost = _cost(model, x, ms, ys, w)
    mu = 1e-3
    for iteration in range(1, _MAX_ITERATIONS + 1):
        jac = model.jacobian(x, ms)
        resid = ys - model.predict(x, ms)
        normal = jac.T @ (w[:, None] * jac)
        grad = jac.T @ (w * resid)
        if np.max(np.abs(grad)) < 1e-16:
            return x, cost, True, iteration
        accepted = False
        for _ in range(60):
            try:
                candidate = _damped_step(model, x, normal, grad, mu)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            candidate_cost = _cost(model, candidate, ms, ys, w)
            # Strict decrease: accepting equal-cost steps lets the iteration
            # wander gauge valleys (degenerate decays) without terminating.
            if candidate_cost < cost:
                rel_step = float(
                    np.max(np.abs(candidate - x) / np.maximum(np.abs(x), 1e-12))
                )
                x, cost = candidate, candidate_cost
                mu = max(mu / 10.0, 1e-14)
                accepted = True
                if rel_step < _STEP_TOL:
                    return x, cost, True, iteration
                break
            mu *= 10.0
            if mu > 1e15:
                break
        if not accepted:
            # Damping saturated: no descent direction at working precision.
            return x, cost, True, iteration
    return x, cost, False, _MAX_ITERATIONS


def fit(model, data, weighted: bool = True) -> FitResult:
    """Fit a decay model to a dataset of (m, mean, sem) points.

    Minimizes the sem-weighted sum of squared residuals (unit weights if any
    sem is zero or ``weighted`` is false).  Standard errors come from the
    inverse weighted normal matrix at the optimum, scaled by the residual
    variance; r^2 is computed on unweighted residuals.  A length below 1 (where
    the Jacobian's power rule fails), a mean outside [0, 1] (NaN included) or
    a negative or non-finite sem is a ValueError naming the first such point's m.
    """
    if isinstance(model, str):
        model = model_by_name(model)
    ms, ys = data.ms, data.means
    if len(np.unique(ms)) < model.n_params + 1:
        raise ValueError(
            f"{model.kind} needs at least {model.n_params + 1} distinct lengths"
        )
    sems = data.sems
    for values, bad, what in (
        (ms, ms < 1, "lengths must be >= 1"),
        (ys, ~((ys >= -1e-9) & (ys <= 1.0 + 1e-9)), "means must lie in [0, 1]"),
        (sems, ~(np.isfinite(sems) & (sems >= 0)), "sems must be finite and >= 0"),
    ):
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(f"{what}, got {float(values[i])!r} at m = {ms[i]:g}")
    w = _weights(data, weighted)
    used_weights = bool(weighted and np.all(data.sems > 0))

    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if model.kind != "single-exp" and ss_tot < 1e-24:
        # Flat curve: only the offset is identifiable.
        return _flat_result(model, data, used_weights)

    x0 = _initial_params(model, data)
    x, cost, converged, n_iter = _lm_minimize(model, x0, ms, ys, w)
    if not converged:
        raise FitNonConvergence(
            f"{model.kind} fit did not converge in {_MAX_ITERATIONS} iterations",
            diagnostics={
                "model": model.kind,
                "params": dict(zip(model.param_names, x.tolist())),
                "cost": cost,
                "n_iterations": n_iter,
            },
        )
    x = _canonicalize(model, x)

    resid = ys - model.predict(x, ms)
    jac = model.jacobian(x, ms)
    dof = len(ms) - model.n_params
    resid_var = cost / dof if dof > 0 else 0.0
    cov = np.linalg.pinv(jac.T @ (w[:, None] * jac)) * resid_var
    stderr = np.sqrt(np.maximum(np.diag(cov), 0.0))

    ss_res = float(np.sum(resid ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 1e-24 else None
    flags = [] if r_squared is not None else ["r-squared-undefined"]
    degenerate = _is_degenerate(model, x)
    if degenerate:
        flags.append("degenerate-decays")
    if model.kind == "double-exp":
        amps = np.abs(x[:2])
        # A vanishing component leaves its decay parameter unidentifiable.
        if amps.min() < 1e-9 * max(amps.max(), 1e-30):
            flags.append("vanishing-component")
    return FitResult(
        model=model.kind,
        params=dict(zip(model.param_names, x.tolist())),
        stderr=dict(zip(model.param_names, stderr.tolist())),
        r_squared=r_squared,
        chi2_per_dof=cost / dof if dof > 0 else None,
        residuals=resid,
        converged=True,
        n_iterations=n_iter,
        degenerate=degenerate,
        weighted=used_weights,
        flags=flags,
    )


def _canonicalize(model: DecayModel, x: np.ndarray) -> np.ndarray:
    if model.kind == "double-exp" and x[3] > x[2]:
        x = x[[1, 0, 3, 2]]
    return x


def _is_degenerate(model: DecayModel, x: np.ndarray) -> bool:
    if model.kind == "double-exp":
        return bool(abs(x[2] - x[3]) < DEGENERACY_TOL)
    return False


def _flat_result(model: DecayModel, data, used_weights: bool) -> FitResult:
    ys = data.means
    offset = float(ys.mean())
    if model.kind == "double-exp":
        params = {"amp_plus": offset, "amp_minus": 0.0, "decay_plus": 1.0, "decay_minus": 0.0}
    else:
        params = {"amplitude": 0.0, "offset": offset, "decay": 0.0}
    resid = ys - offset
    return FitResult(
        model=model.kind,
        params=params,
        stderr={name: 0.0 for name in model.param_names},
        r_squared=None,
        chi2_per_dof=None,
        residuals=resid,
        converged=True,
        n_iterations=0,
        degenerate=True,
        weighted=used_weights,
        flags=["flat-data", "r-squared-undefined"],
    )
