"""Weighted least-squares fitting of survival decay curves by variable projection.

Three models are supported: a single exponential amplitude * decay^(m-1), a
double exponential for leakage-subspace experiments, and the trace-
preserving specialization amplitude * decay^(m-1) + offset.  Each is linear
in its amplitudes once its decays are fixed, so the fit is a search over the
decays alone, with the amplitudes solved from their weighted normal
equations inside it (variable projection; Golub and Pereyra, SIAM J. Numer.
Anal. 10, 413 (1973)).  The projected cost is scanned on a grid of decays in
[-1, 1], in pairs decay_plus >= decay_minus for the double exponential.
Gauss-Newton steps on the projected problem then refine the grid's best
point inside its bracketing grid cell; the second decay of a pair is fitted
afresh for each value of the first.  When every m - 1 has the same parity,
(a, decay) and (+-a, -decay) draw the same curve, and the search covers
decays in [0, 1] only.  Weights are 1/sem^2 by default, and standard errors
come from the weighted normal matrix of all parameters at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Two decay constants closer than this are reported as degenerate.
DEGENERACY_TOL = 1e-6

_MAX_ITERATIONS = 200

#: Points of the decay grid; a scan over two decays takes every second one.
_GRID_POINTS = 1001


class FitNonConvergence(RuntimeError):
    """Raised when the Gauss-Newton refinement hits the iteration cap."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class DecayModel:
    """The named curve sum_k a_k decay_k^(m-1), with analytic predictions and Jacobians.

    Parameters are the amplitudes, then the decays.  Amplitude k multiplies
    decay k; an amplitude with no decay of its own is a constant term.
    """

    def __init__(self, kind: str, amplitudes, decays):
        self.kind = kind
        self.param_names = tuple(amplitudes) + tuple(decays)
        self.n_params = len(self.param_names)
        self.n_amplitudes = len(amplitudes)
        self.decay_params = tuple(range(self.n_amplitudes, self.n_params))

    def basis(self, decays: np.ndarray, ms: np.ndarray) -> np.ndarray:
        """The curve's derivatives by its amplitudes, (..., len(ms), n_amplitudes).

        Column k is decay_k^(m-1), or 1 for the constant; ``decays`` may stack
        several decay vectors on its leading axes.  Integer exponents keep
        negative decays well defined.
        """
        decays = np.asarray(decays, dtype=float)
        cols = np.ones(decays.shape[:-1] + (len(ms), self.n_amplitudes))
        cols[..., : decays.shape[-1]] = np.power(decays[..., None, :], ms[:, None] - 1)
        return cols

    def predict(self, params: np.ndarray, ms: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        terms = self.basis(params[self.n_amplitudes:], ms) * params[: self.n_amplitudes]
        return terms.sum(axis=-1)

    def jacobian(self, params: np.ndarray, ms: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        e = ms - 1  # d/dx x^e = e x^(e-1), and 0 at e = 0
        by_decay = [params[k] * (e * np.power(params[i], np.maximum(e - 1, 0)))
                    for k, i in enumerate(self.decay_params)]
        return np.column_stack([self.basis(params[self.n_amplitudes:], ms)] + by_decay)


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
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODELS)}") from None


# ---------------------------------------------------------------------------
# Variable projection
# ---------------------------------------------------------------------------


def _amplitudes(d, q, b) -> list:
    """Solutions of weighted normal equations in k <= 2 amplitudes, one array per amplitude.

    ``d`` and ``b`` hold, per amplitude, the diagonal entries of the normal
    matrices and their right sides, and ``q`` is the off-diagonal entry when
    k = 2; all broadcast together.  The equations are solved in closed form.
    Where they are singular, because a column vanishes (a decay of 0 at
    lengths above 1) or the two are parallel, the larger column alone carries
    the fit.
    """
    lone = [np.where(dk > 0, bk / np.where(dk > 0, dk, 1.0), 0.0) for dk, bk in zip(d, b)]
    if len(d) == 1:
        return lone
    (d0, d1), (b0, b1) = d, b
    det = d0 * d1 - q * q
    solvable, first = det > 1e-12 * d0 * d1, d0 >= d1
    det = np.where(solvable, det, 1.0)
    return [
        np.where(solvable, (d1 * b0 - q * b1) / det, np.where(first, lone[0], 0.0)),
        np.where(solvable, (d0 * b1 - q * b0) / det, np.where(first, 0.0, lone[1])),
    ]


def _projected_step(cols, slope, k, ys, w):
    """(amps, step): the best amplitudes a on the columns B = ``cols`` and the Gauss-Newton
    step in the decay of column k, whose derivative is ``slope``: with the residual r
    and j = a_k slope, (j'r - c'G^-1 B'r) / (j'j - c'G^-1 c), c = B'j and G = B'B solved
    as in :func:`_amplitudes`.  A j within rounding of B's span gives step 0.
    """
    weighted = cols * w[:, None]
    gram = weighted.T @ cols
    d, q = gram.diagonal(), gram[0, -1]
    amps = np.array(_amplitudes(d, q, ys @ weighted))
    jr = np.column_stack([amps[k] * slope, ys - cols @ amps])  # j and r
    proj = weighted.T @ jr  # c and B'r
    jj = (w * jr[:, 0]) @ jr
    den, num = jj - proj[:, 0] @ np.array(_amplitudes(d, q, proj))
    return amps, num / den if den > 64 * np.finfo(float).eps * jj[0] else 0.0


def _scan(model: DecayModel, head, grid, ms, ys, w) -> int:
    """Index in ``grid`` of the first free decay at the least projected cost, where the
    best amplitudes a, from G a = b, maximize a . b.

    Two free decays are scanned in pairs decay_plus >= decay_minus, whose
    normal equations are read off one Gram matrix of the grid's columns.
    """
    if len(model.decay_params) - len(head) == 1:
        cols = model.basis(np.column_stack([np.tile(head, (grid.size, 1)), grid]), ms)
        weighted = cols * w[:, None]
        gram, b = np.swapaxes(weighted, -1, -2) @ cols, (ys @ weighted).T
        d, q = np.diagonal(gram, axis1=-2, axis2=-1).T, gram[:, 0, -1]
        return int(np.argmax(sum(a * bk for a, bk in zip(_amplitudes(d, q, b), b))))
    cols = np.power(grid[:, None], ms - 1)
    gram, rhs = (cols * w) @ cols.T, (cols * w) @ ys
    d, b = np.diag(gram), (rhs[:, None], rhs[None, :])
    explained = sum(a * bk for a, bk in zip(_amplitudes((d[:, None], d[None, :]), gram, b), b))
    explained[np.triu_indices(grid.size, 1)] = -np.inf
    return int(np.argmax(explained)) // grid.size


def _search(model: DecayModel, ms, ys, w, head=()):
    """(params, converged, steps) of the weighted least-squares fit with the decays ``head`` held.

    The first free decay starts at the grid's best value (see :func:`_scan`;
    two free decays use every second grid point) and is refined by
    Gauss-Newton steps inside the grid cell around it, with the decay after
    it, if any, fitted afresh at each point.  Each step points to the side of
    its point where the minimum lies, so the cell shrinks to a bracket of it;
    a step that leaves the bracket, or is not under half the step before it,
    is replaced by the bracket's midpoint.  With a decay after it, a point
    whose refit costs more than the best one so far, beyond rounding, is not
    taken: it ends the bracket on its side, and the next point lies halfway
    back to the best.  The refinement has converged when a step or the
    bracket is a few units of rounding.  ``steps`` counts every step.
    """
    last = len(head) + 1 == len(model.decay_params)
    # Sign rule: with one parity of m - 1, a negative decay repeats a positive one.
    e = ms - 1
    lower = 0.0 if (e % 2).min() == (e % 2).max() else -1.0
    grid = np.linspace(lower, 1.0, _GRID_POINTS)[:: 1 if last else 2]
    at = _scan(model, head, grid, ms, ys, w)
    decay, lo, hi = grid[at], grid[max(at - 1, 0)], grid[min(at + 1, grid.size - 1)]
    k, cols = len(head), model.basis(np.append(head, decay), ms) if last else None
    sw, eps, size, steps = np.sqrt(w), np.finfo(float).eps, np.inf, 0
    best, uphill = None, 64 * eps * float(w @ (ys * ys))
    for _ in range(_MAX_ITERATIONS):
        steps += 1
        if last:
            cols[:, k] = np.power(decay, e)
            amps, step = _projected_step(cols, e * np.power(decay, np.maximum(e - 1, 0)), k, ys, w)
            x = np.concatenate([amps, head, [decay]])
        else:
            x, converged, inner = _search(model, ms, ys, w, (*head, decay))
            steps += inner
            if not converged:
                break
            cost = _cost(model, x, ms, ys, w)
            if best is not None and cost > best[0] + uphill:
                _, x, best_decay = best
                lo, hi = (lo, decay) if decay > best_decay else (decay, hi)
                decay, size = (decay + best_decay) / 2, abs(decay - best_decay) / 2
                if size <= 4 * eps:
                    return x, True, steps
                continue
            best = cost, x, decay
            # The cost's gradient in the amplitudes and the later decay is 0 at x, so
            # this step's part in the decay is the Gauss-Newton step of the projected problem.
            jac, resid = sw[:, None] * model.jacobian(x, ms), sw * (ys - model.predict(x, ms))
            step = np.linalg.lstsq(jac, resid, rcond=None)[0][model.n_amplitudes]
        lo, hi = (decay, hi) if step > 0 else (lo, decay)
        if abs(step) <= 4 * eps or hi - lo <= 4 * eps:
            return x, True, steps
        if lo < decay + step < hi and abs(step) < size / 2:
            decay, size = decay + step, abs(step)
        else:
            decay, size = (lo + hi) / 2, (hi - lo) / 2
    return x, False, steps


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
        return {"coherent_survival": 1.0 + p["decay"], "decay_eigenvalue": p["decay"]}

    def to_dict(self) -> dict:
        return {**vars(self), "derived": self.derived(), "residuals": self.residuals.tolist()}


def _cost(model, params, ms, ys, w) -> float:
    r = ys - model.predict(params, ms)
    return float(np.sum(w * r * r))


def fit(model, data, weighted: bool = True) -> FitResult:
    """Fit a decay model to a dataset of (m, mean, sem) points.

    Minimizes the sem-weighted sum of squared residuals (unit weights if any
    sem is zero or ``weighted`` is false).  A sem of at most 64 eps |mean|, the
    rounding noise of sequences that all give the same mean, counts as zero.
    Standard errors come from the inverse weighted normal matrix at the optimum, scaled
    by the residual variance, and a singular one is flagged "weakly-identified"; r^2 is
    computed on unweighted residuals.  ``n_iterations`` counts the Gauss-Newton steps
    that refine the grid's best decays.  ``data`` is a
    :class:`~leakbench.protocol.DecayDataset`, which checked its points when it was
    made (a reader refuses a malformed file there, as a ConfigError naming
    ``dataset[i].<key>``), so the fit checks only that the model has more distinct
    lengths than parameters: fewer is a ValueError.
    """
    if isinstance(model, str):
        model = model_by_name(model)
    ms, ys, sems = data.ms, data.means, data.sems
    if len(set(ms.tolist())) < model.n_params + 1:  # np.unique would import numpy.ma (~20 ms)
        raise ValueError(f"{model.kind} needs at least {model.n_params + 1} distinct lengths")
    used_weights = bool(weighted and np.all(sems > 64 * np.finfo(float).eps * np.abs(ys)))
    w = 1.0 / sems**2 if used_weights else np.ones_like(sems)

    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if model.kind != "single-exp" and ss_tot < 1e-24:
        # Flat curve: only the offset is identifiable.
        return _flat_result(model, data, used_weights)

    x, converged, n_iter = _search(model, ms, ys, w)
    cost = _cost(model, x, ms, ys, w)
    if not converged:
        diagnostics = {"model": model.kind, "params": dict(zip(model.param_names, x.tolist())),
                       "cost": cost, "n_iterations": n_iter}
        raise FitNonConvergence(
            f"{model.kind} fit did not converge in {_MAX_ITERATIONS} iterations", diagnostics
        )
    if model.kind == "double-exp" and x[3] > x[2]:
        x = x[[1, 0, 3, 2]]  # the canonical order: decay_plus >= decay_minus

    resid = ys - model.predict(x, ms)
    jac = model.jacobian(x, ms)
    dof = len(ms) - model.n_params
    resid_var = cost / dof if dof > 0 else 0.0
    inverse, singular = _pseudo_inverse(jac.T @ (w[:, None] * jac))
    stderr = np.sqrt(np.maximum(np.diag(inverse * resid_var), 0.0))

    ss_res = float(np.sum(resid ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 1e-24 else None
    flags = [] if r_squared is not None else ["r-squared-undefined"]
    degenerate = _is_degenerate(model, x, singular)
    if degenerate:
        flags.append("degenerate-decays")
    if singular:
        flags.append("weakly-identified")
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


def _pseudo_inverse(normal: np.ndarray):
    """(``np.linalg.pinv(normal)``, singular): the inverse as pinv forms it, from one SVD that
    also tells whether pinv's cutoff 1e-15 drops a singular value, in which case the data
    leave a direction of the parameters, the decay's among them, unidentified."""
    u, s, vt = np.linalg.svd(normal, full_matrices=False)
    kept = s > 1e-15 * s[0]
    inverse = vt.T @ (np.divide(1.0, s, where=kept, out=np.zeros_like(s))[:, None] * u.T)
    return inverse, not kept.all()


def _is_degenerate(model: DecayModel, x: np.ndarray, singular: bool) -> bool:
    """Whether a double exponential's decays are closer than :data:`DEGENERACY_TOL`, or its
    normal matrix is ``singular`` (:func:`_pseudo_inverse`), as all along the equal-decay limit."""
    return model.kind == "double-exp" and bool(abs(x[2] - x[3]) < DEGENERACY_TOL or singular)


def _flat_result(model: DecayModel, data, used_weights: bool) -> FitResult:
    offset = float(data.means.mean())
    values = [offset, 0.0, 1.0, 0.0] if model.kind == "double-exp" else [0.0, offset, 0.0]
    return FitResult(
        model=model.kind,
        params=dict(zip(model.param_names, values)),
        stderr={name: 0.0 for name in model.param_names},
        r_squared=None,
        chi2_per_dof=None,
        residuals=data.means - offset,
        converged=True,
        n_iterations=0,
        degenerate=True,
        weighted=used_weights,
        flags=["flat-data", "r-squared-undefined"],
    )
