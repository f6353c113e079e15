"""Pose-shape estimation by damped nonlinear least squares, a block of
instances at a time.

The optimization state is initialized from the measurement hypotheses
(yaw and log-extent guesses, 2D box, optional crop depth) and polished
with Levenberg-Marquardt on the stacked weighted residuals.  Energy is
monotone over accepted steps by construction; rejected trial steps only
raise the damping.

One solve handles B instances as stacked arrays: one residual/Jacobian
evaluation and one batched linear solve per iteration, with damping,
acceptance, stop reason and iteration count kept per instance.  An
instance leaves the active set when it stops, and no quantity is reduced
across instances, so each result is bit-identical whether the instance is
solved alone or in any block.  `refine` and `refine_ablation` are the B=1
case of this code.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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

_BLOCK_SLICES = {
    "theta": slice(0, 1),
    "T": slice(1, 4),
    "sigma": slice(4, 7),
    "alpha": slice(7, None),
}

_DAMPING_MIN = 1e-12
_DAMPING_MAX = 1e12


class InitializationError(ValueError):
    """The measurement does not pin down a usable starting point."""


@dataclass(frozen=True)
class SolverOptions:
    max_iterations: int = 50
    ftol: float = 1e-8  # relative energy decrease, against max(E, 1)
    xtol: float = 1e-10  # relative step size
    damping_init: float = 1e-3
    freeze: tuple = ()  # any of "theta", "T", "sigma", "alpha"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.ftol > 0 and self.xtol > 0 and self.damping_init > 0):
            raise ValueError("tolerances and damping must be positive")
        unknown = set(self.freeze) - set(_BLOCK_SLICES)
        if unknown:
            raise ValueError(f"unknown freeze blocks {sorted(unknown)}")


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


def _free_indices(dim: int, freeze) -> np.ndarray:
    mask = np.ones(dim, dtype=bool)
    for name in freeze:
        mask[_BLOCK_SLICES[name]] = False
    return np.flatnonzero(mask)


def _usable(res) -> np.ndarray:
    """Instances whose points are all in front of the camera and whose
    residuals and Jacobian are finite."""
    return ~res.behind & np.isfinite(res.r).all(axis=1) & np.isfinite(res.J).all(axis=(1, 2))


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


def _initialization_result(start: Variables) -> RefineResult:
    """The v1 rung: the starting point itself, with no energy terms enabled."""
    return RefineResult(
        vars=replace(start, theta=wrap_angle(start.theta)),
        converged=True, iterations=0, final_energy=0.0, breakdown={},
        reason="initialization only", energy_path=np.asarray([0.0]),
    )


def refine_batch(
    measurements,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
    initial=None,
) -> list:
    """Levenberg-Marquardt minimization of the enabled energy terms for a
    block of instances at once.

    Trial steps solve the damped normal equations; an instance's damping
    is multiplied by 10 when its trial fails to decrease its energy and
    halved on acceptance.  Frozen blocks keep their initial values.
    `initial`, when given, holds one start per measurement; an
    InitializationError in place of a start is passed through.

    Entry i of the result is instance i's RefineResult, or the
    InitializationError that stopped it: a start that cannot be computed,
    a landmark count the model does not have, or a start that projects
    behind the camera or evaluates to non-finite residuals.  Failures are
    returned, not raised, so the rest of the block is unaffected.
    """
    cfg, opts = cfg or EnergyConfig(), opts or SolverOptions()
    out = [_start(m, model) for m in measurements] if initial is None else list(initial)
    for i, meas in enumerate(measurements):
        if isinstance(out[i], Variables) and meas.K != model.K:
            out[i] = InitializationError(f"measurement has {meas.K} landmarks, the model {model.K}")
    live = [i for i, start in enumerate(out) if isinstance(start, Variables)]
    if not live:
        return out
    block = MeasurementBlock.stack([measurements[i] for i in live])
    x = np.array([out[i].to_vector() for i in live])
    B, D = x.shape
    free = _free_indices(D, opts.freeze)

    res = block_residuals(x, block, model, cfg)
    usable = _usable(res)
    r, J, unweighted = res.r, res.J, res.unweighted
    energy = rowdot(r)
    paths = [[e] for e in energy.tolist()]
    lam = np.full(B, opts.damping_init)
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    reasons = np.full(B, "max_iterations", dtype=object)
    # the depth row carries nothing for an instance without a measured depth
    rows = r.shape[1] - (~block.has_depth & cfg.enable_md)
    idle = (rows == 0) | (free.size == 0)
    converged[idle], reasons[idle] = True, "nothing to optimize"
    active = np.flatnonzero(usable & ~idle)

    while active.size:
        iterations[active] += 1
        # J^T of the free columns, one copy with each instance's columns
        # contiguous: the memory layout a one-instance J[:, free] has, so
        # the BLAS products below round the same way at any B
        JfT = J.transpose(0, 2, 1)[active[:, None], free]
        dx, solved = _damped_steps(JfT @ JfT.transpose(0, 2, 1),
                                   (JfT @ r[active][:, :, None])[:, :, 0], lam[active])
        del JfT  # release before the trial evaluation allocates its own
        # a singular system skips its trial and only raises its damping
        lam[active[~solved]] = np.minimum(lam[active[~solved]] * 10.0, _DAMPING_MAX)
        tried, dx = active[solved], dx[solved]
        x_trial = x[tried]
        small_step = np.sqrt(rowdot(dx)) <= opts.xtol * (
            np.sqrt(rowdot(x_trial[:, free])) + opts.xtol)
        x_trial[:, free] += dx
        trial = block_residuals(x_trial, block.take(tried), model, cfg)
        trial_energy = rowdot(trial.r)
        accept = _usable(trial) & (trial_energy < energy[tried])
        ftol_stop = accept & (energy[tried] - trial_energy
                              <= opts.ftol * np.maximum(trial_energy, 1.0))
        up, down = tried[accept], tried[~accept]
        x[up], r[up], J[up], unweighted[up], energy[up] = (
            x_trial[accept], trial.r[accept], trial.J[accept], trial.unweighted[accept],
            trial_energy[accept])
        for i, e in zip(up.tolist(), trial_energy[accept].tolist()):
            paths[i].append(e)
        lam[up] = np.maximum(lam[up] * 0.5, _DAMPING_MIN)
        lam[down] = np.minimum(lam[down] * 10.0, _DAMPING_MAX)
        # an accepted or rejected step below the resolvable size ends the solve
        xtol_stop = small_step & ~ftol_stop
        reasons[tried[ftol_stop]], reasons[tried[xtol_stop]] = "ftol", "xtol"
        converged[tried[ftol_stop | xtol_stop]] = True
        stop = iterations[active] >= opts.max_iterations
        stop[solved] |= ftol_stop | xtol_stop
        active = active[~stop]

    total, parts = block_energy(unweighted, cfg, model.K, D - 7)
    for b, i in enumerate(live):
        if not usable[b]:
            out[i] = InitializationError(
                "initial point projects behind the camera" if res.behind[b] else
                "initial point has non-finite residuals (NaN or inf in the measurement or start)")
            continue
        out[i] = RefineResult(
            vars=replace(Variables.from_vector(x[b], D - 7), theta=wrap_angle(x[b, 0])),
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
    initial: Variables | None = None,
) -> RefineResult:
    """refine_batch for one instance; a failure raises InitializationError."""
    starts = None if initial is None else [initial]
    return _first_or_raise(refine_batch([meas], model, cfg, opts, starts))


def refine_ladder(
    measurements,
    model: MorphableModel,
    top: str = "v4",
    opts: SolverOptions | None = None,
    base: EnergyConfig | None = None,
) -> dict:
    """Every rung v1..top of the term-ablation ladder in one pass over a block.

    v1 is the initialization; v2 is solved from it and each rung above
    warm-starts from the rung below (a coarse-to-fine schedule: box+ground
    first, then landmarks+shape, then measured depth), so each added term
    polishes rather than re-solves from scratch.  Returns {variant: list
    of per-instance outcomes} as in refine_batch; an instance that fails
    on one rung carries that error up every rung above.
    """
    ablation_config(top)  # rejects an unknown variant
    starts = [_start(m, model) for m in measurements]
    rungs = {"v1": [s if isinstance(s, InitializationError) else _initialization_result(s)
                    for s in starts]}
    for variant in ABLATION_VARIANTS[1: ABLATION_VARIANTS.index(top) + 1]:
        rungs[variant] = refine_batch(measurements, model, ablation_config(variant, base),
                                      opts, starts)
        starts = [o.vars if isinstance(o, RefineResult) else o for o in rungs[variant]]
    return rungs


def refine_ablation(
    meas: Measurement,
    model: MorphableModel,
    variant: str,
    opts: SolverOptions | None = None,
    base: EnergyConfig | None = None,
    initial: Variables | None = None,
) -> RefineResult:
    """One rung of the term-ablation ladder for one instance (refine_ladder
    with B=1); v1 skips optimization.  Passing `initial` starts the
    requested rung there directly instead of climbing the rungs below."""
    if initial is None:
        return _first_or_raise(refine_ladder([meas], model, variant, opts, base)[variant])
    if variant == "v1":
        return _initialization_result(initial)
    return refine(meas, model, ablation_config(variant, base), opts, initial)


def _first_or_raise(outcomes) -> RefineResult:
    if isinstance(outcomes[0], InitializationError):
        raise outcomes[0]
    return outcomes[0]
