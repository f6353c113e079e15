"""Pose-shape estimation by damped nonlinear least squares, many instances
at a time.

The optimization state is initialized from the measurement hypotheses
(yaw and log-extent guesses, 2D box, optional crop depth) and polished
with Levenberg-Marquardt on the stacked weighted residuals.  Energy is
monotone over accepted steps by construction; rejected trial steps only
raise the damping.

One solve takes any number of instances as stacked arrays, all at one rung
of the ablation ladder and so at one row layout: one residual/Jacobian
evaluation of every start, then per iteration one batched linear solve over
the instances still iterating and one evaluation of their trial points.
Damping, acceptance, stop reason and iteration count are kept per instance,
with the normal equations J^T J and J^T r of its current point in place of
the Jacobian.  No quantity is reduced across instances, so each result is
bit-identical whether the instance is solved alone or among any others.
Every rung is solved from the initialization: refine_ladder computes the
starts of a list of instances once and makes one such solve per rung, and
`refine`/`refine_ablation` are the one-instance case.

The stopping tolerances and initial damping are the usual textbook
constants (Madsen, Nielsen & Tingleff, Methods for Non-Linear Least
Squares Problems, 2004); only the iteration cap is an option.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (
    ABLATION_VARIANTS,
    EnergyConfig,
    Measurement,
    MeasurementBlock,
    Variables,
    ablation_config,
    block_energy,
    block_residuals,
    rowdot,
)
# Unused here; kept importable as vehicle3d.refine.<name>, the names
# external profilers wrap.
from .energy import stacked_residuals, total_energy  # noqa: F401
from .geometry import wrap_angle
from .shape import MorphableModel

_FTOL = 1e-8  # relative energy decrease, against max(E, 1)
_XTOL = 1e-10  # relative step size
_DAMPING_INIT = 1e-3
_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12


class InitializationError(ValueError):
    """The measurement does not pin down a usable starting point."""


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 50

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RefineResult:
    vars: Variables
    converged: bool
    iterations: int
    final_energy: float
    breakdown: dict
    reason: str
    energy_path: np.ndarray  # accepted energies, starting at the initial one


def initialize(meas: Measurement, model: MorphableModel) -> Variables:
    """Starting point from hypotheses: the translation is back-projected
    through the 2D box center, at the measured depth when available and
    otherwise at the ground-plane intersection of that ray."""
    cam = meas.cam
    direction = np.array(
        [
            (meas.box2d.tx - cam.cx) / cam.fx,
            (meas.box2d.ty - cam.cy) / cam.fy,
            1.0,
        ]
    )
    if meas.depth_zb is not None:
        T = direction * meas.depth_zb
    else:
        slope = float(meas.ground.N @ direction)
        if abs(slope) < 1e-12:
            raise InitializationError(
                "box-center ray is parallel to the ground plane and no depth is available"
            )
        s = 1.0 / slope
        if s <= 0:
            raise InitializationError(
                "box-center ray meets the ground plane behind the camera"
            )
        T = direction * s
    return Variables(
        theta=meas.theta0,
        T=T,
        sigma=meas.sigma0.copy(),
        alpha=np.zeros(model.n_basis),
    )


def _usable(res) -> np.ndarray:
    """Instances whose points are all in front of the camera and whose
    residuals and Jacobian are finite."""
    return ~res.behind & np.isfinite(res.r).all(axis=1) & np.isfinite(res.JT).all(axis=(1, 2))


def _damped_steps(H, g, lam):
    """Solutions of (H + lam I) dx = -g for a stack of systems, and a mask
    of those that were solvable.  A singular system only fails its own
    instance: when the batched solve raises, each system is retried alone."""
    A = H + lam[:, None, None] * np.eye(H.shape[-1])
    try:
        return np.linalg.solve(A, -g[:, :, None])[:, :, 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    dx, solved = np.zeros(g.shape), np.ones(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            dx[i] = np.linalg.solve(A[i], -g[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return dx, solved


def _start(meas: Measurement, model: MorphableModel):
    try:
        return initialize(meas, model)
    except InitializationError as exc:
        return exc


def _normal_equations(JT, r):
    """H = J^T J and g = J^T r of a (B, D, m) J^T stack and its (B, m)
    residuals.  Each instance's J^T is one contiguous (D, m) block, the
    layout a one-instance J^T has: the memory layout decides how the BLAS
    products round, so they round alike at any B."""
    return JT @ JT.transpose(0, 2, 1), (JT @ r[:, :, None])[:, :, 0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def refine_batch(
    measurements,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
    initial=None,
) -> list:
    """Levenberg-Marquardt minimization of the energy terms enabled at
    cfg.variant for any number of instances, all of them in one batch.  A
    rung without terms (v1) returns each start, converged after 0
    iterations with reason "initialization only".

    Trial steps solve the damped normal equations; an instance's damping
    is multiplied by 10 when its trial fails to decrease its energy and
    halved on acceptance.  `initial`, when given, holds one start per
    measurement; an InitializationError in place of a start is passed
    through.

    One block_residuals call evaluates every start; each iteration then
    solves one damped step for every instance still iterating and evaluates
    the trial points in one block_residuals call.  Per instance the state
    is its point, the normal equations H = J^T J and g = J^T r built once
    at each accepted point (a rejected step re-solves from them), its
    unweighted residual rows, energy, damping and counters; no Jacobian
    outlives the evaluation that produced it.

    Entry i of the result is instance i's RefineResult, or the
    InitializationError that stopped it: a start that cannot be computed,
    a landmark count the model does not have, or a start that projects
    behind the camera or evaluates to non-finite residuals.  Failures are
    returned, not raised, so the other instances are unaffected; numpy's
    overflow and invalid-value warnings are silenced here as in the kernel,
    since an energy or step norm that overflows is read as inf.
    """
    cfg, opts = cfg or EnergyConfig(), opts or SolverOptions()
    out = [_start(m, model) for m in measurements] if initial is None else list(initial)
    for i, meas in enumerate(measurements):
        if isinstance(out[i], Variables) and meas.K != model.K:
            out[i] = InitializationError(f"measurement has {meas.K} landmarks, the model {model.K}")
    live = [i for i, start in enumerate(out) if isinstance(start, Variables)]
    if not live:
        return out
    # per-instance state, indexed by position in `live`
    block = MeasurementBlock.stack([measurements[i] for i in live])
    x = np.array([out[i].to_vector() for i in live])
    B, D = x.shape
    res = block_residuals(x, block, model, cfg)
    usable, behind = _usable(res), res.behind
    unweighted, energy = res.unweighted, rowdot(res.r)
    no_rows = unweighted.shape[1] == 0  # every start stops where it is
    converged = np.full(B, no_rows)
    reasons = np.full(B, "initialization only" if no_rows else "max_iterations", dtype=object)
    lam = np.full(B, _DAMPING_INIT)
    iterations = np.zeros(B, dtype=int)
    paths = [[e] for e in energy.tolist()]
    active = np.flatnonzero(usable & ~converged)
    H, g = np.empty((B, D, D)), np.empty((B, D))
    H[active], g[active] = _normal_equations(res.JT[active], res.r[active])
    del res

    while active.size:
        iterations[active] += 1
        dx, solved = _damped_steps(H[active], g[active], lam[active])
        # a singular system skips its trial and only raises its damping
        lam[active[~solved]] = np.minimum(lam[active[~solved]] * 10.0, _DAMPING_MAX)
        tried, dx = active[solved], dx[solved]
        if tried.size:
            x_trial = x[tried]
            small_step = np.sqrt(rowdot(dx)) <= _XTOL * (np.sqrt(rowdot(x_trial)) + _XTOL)
            x_trial += dx
            res = block_residuals(x_trial, block.take(tried), model, cfg)
            trial_energy = rowdot(res.r)
            accept = _usable(res) & (trial_energy < energy[tried])
            ftol_stop = accept & (energy[tried] - trial_energy
                                  <= _FTOL * np.maximum(trial_energy, 1.0))
            up, down = tried[accept], tried[~accept]
            x[up], unweighted[up], energy[up] = (
                x_trial[accept], res.unweighted[accept], trial_energy[accept])
            for i, e in zip(up.tolist(), trial_energy[accept].tolist()):
                paths[i].append(e)
            lam[up] = np.maximum(lam[up] * 0.5, _DAMPING_MIN)
            lam[down] = np.minimum(lam[down] * 10.0, _DAMPING_MAX)
            # an accepted or rejected step below the resolvable size ends the solve
            xtol_stop = small_step & ~ftol_stop
            reasons[tried[ftol_stop]], reasons[tried[xtol_stop]] = "ftol", "xtol"
            converged[tried[ftol_stop | xtol_stop]] = True
            # normal equations at each accepted point an instance goes on from
            go_on = accept & ~converged[tried] & (iterations[tried] < opts.max_iterations)
            H[tried[go_on]], g[tried[go_on]] = _normal_equations(res.JT[go_on], res.r[go_on])
            del res
        active = active[~converged[active] & (iterations[active] < opts.max_iterations)]

    total, parts = block_energy(unweighted, cfg, model.K, D - 7)
    for b, i in enumerate(live):
        if not usable[b]:
            out[i] = InitializationError(
                "initial point projects behind the camera" if behind[b] else
                "initial point has non-finite residuals (NaN or inf in the measurement or start)")
            continue
        out[i] = RefineResult(
            vars=Variables(theta=wrap_angle(x[b, 0]), T=x[b, 1:4], sigma=x[b, 4:7],
                           alpha=x[b, 7:]),
            converged=bool(converged[b]),
            iterations=int(iterations[b]),
            final_energy=float(total[b]),
            breakdown={name: float(value[b]) for name, value in parts.items()
                       if name != "md" or block.has_depth[b]},
            reason=reasons[b],
            energy_path=np.asarray(paths[b]),
        )
    return out


def refine(
    meas: Measurement,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
) -> RefineResult:
    """refine_batch for one instance; a failure raises InitializationError."""
    outcome = refine_batch([meas], model, cfg, opts)[0]
    if isinstance(outcome, InitializationError):
        raise outcome
    return outcome


def refine_ladder(
    measurements,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
    variants=None,
) -> dict:
    """Rungs of the term-ablation ladder for a list of instances, each at
    cfg's weights: {variant: list of per-instance outcomes as in
    refine_batch}, for `variants` (by default every rung v1..cfg.variant).

    Every rung is one refine_batch call from the same starts, initialized
    once per instance, so each equals
    refine(meas, model, ablation_config(variant, cfg), opts) bit for bit.
    """
    cfg, measurements = cfg or EnergyConfig(), list(measurements)
    if variants is None:
        variants = ABLATION_VARIANTS[: ABLATION_VARIANTS.index(cfg.variant) + 1]
    starts = [_start(m, model) for m in measurements]
    return {v: refine_batch(measurements, model, ablation_config(v, cfg), opts, starts)
            for v in variants}


def refine_ablation(meas: Measurement, model: MorphableModel, variant: str) -> RefineResult:
    """One rung of the term-ablation ladder for one instance, at the default
    weights and solver options; v1 skips optimization."""
    return refine(meas, model, ablation_config(variant))
