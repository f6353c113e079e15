"""Pose-shape estimation by damped nonlinear least squares, many instances
at a time.

The optimization state is initialized from the measurement hypotheses
(yaw and log-extent guesses, 2D box, optional crop depth) and polished
with Levenberg-Marquardt on the stacked weighted residuals.  Energy is
monotone over accepted steps by construction; rejected trial steps only
raise the damping.

One solve takes any number of instances as stacked arrays, each at its
own rung of the ablation ladder: one residual/Jacobian evaluation of every
start per rung, then per iteration one batched linear solve over the
instances still iterating and one evaluation of their trial points per
rung, at that rung's row layout.  Damping, acceptance, stop reason and
iteration count are kept per instance, with the normal equations J^T J and
J^T r of its current point in place of the Jacobian.  No quantity is
reduced across instances, so each result is bit-identical whether the
instance is solved alone or among any others, of any rung.  Every rung is
solved from the initialization: refine_ladder solves several rungs of a
list of instances in one such solve, and `refine`/`refine_ablation` are the
one-instance case.

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
    term_rows,
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


def _normal_equations(J, r):
    """H = J^T J and g = J^T r of a (B, m, D) Jacobian stack and its (B, m)
    residuals.  J^T is one C-contiguous copy, each instance's columns
    contiguous: the memory layout decides how the BLAS products round, and
    this is the layout a one-instance J^T has, at any B."""
    JT = np.ascontiguousarray(J.transpose(0, 2, 1))
    return JT @ JT.transpose(0, 2, 1), (JT @ r[:, :, None])[:, :, 0]


def refine_batch(
    measurements,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
    initial=None,
    variants=None,
) -> list:
    """Levenberg-Marquardt minimization of the enabled energy terms for any
    number of instances, all of them in one batch.  `variants`, when given,
    holds one ablation rung per measurement, each solved at cfg's weights;
    otherwise every instance is solved at cfg.variant.  A rung without terms
    (v1) returns each start, converged after 0 iterations with reason
    "initialization only".

    Trial steps solve the damped normal equations; an instance's damping
    is multiplied by 10 when its trial fails to decrease its energy and
    halved on acceptance.  `initial`, when given, holds one start per
    measurement; an InitializationError in place of a start is passed
    through.

    Each rung's instances are evaluated together, at that rung's row
    layout: one block_residuals call per rung evaluates every start; each
    iteration then solves one damped step for every instance still
    iterating, whatever its rung, and evaluates the trial points in one
    block_residuals call per rung, whose acceptance and normal equations
    are settled before the next rung is evaluated.  Per instance the state
    is its point, the normal equations H = J^T J and g = J^T r built once
    at each accepted point (a rejected step re-solves from them), its
    unweighted residual rows, energy, damping and counters; no Jacobian
    outlives the evaluation that produced it.

    Entry i of the result is instance i's RefineResult, or the
    InitializationError that stopped it: a start that cannot be computed,
    a landmark count the model does not have, or a start that projects
    behind the camera or evaluates to non-finite residuals.  Failures are
    returned, not raised, so the other instances are unaffected.
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
    names = [cfg.variant if variants is None else variants[i] for i in live]
    rungs = list(dict.fromkeys(names))  # in order of first appearance
    rung = np.array([rungs.index(name) for name in names])
    configs = [ablation_config(name, cfg) for name in rungs]
    # each instance's unweighted rows in its rung's layout, zero-padded to the widest
    widths = [sum(rows.stop - rows.start for *_, rows in term_rows(c, model.K, D - 7))
              for c in configs]
    unweighted = np.zeros((B, max(widths)))
    energy, usable = np.empty(B), np.empty(B, dtype=bool)
    failed = {}  # b -> the InitializationError of an unusable start
    H, g = np.empty((B, D, D)), np.empty((B, D))
    lam = np.full(B, _DAMPING_INIT)
    iterations = np.zeros(B, dtype=int)
    converged = np.zeros(B, dtype=bool)
    reasons = np.full(B, "max_iterations", dtype=object)
    for k, (c, m) in enumerate(zip(configs, widths)):
        members = np.flatnonzero(rung == k)
        res = block_residuals(x[members], block.take(members), model, c)
        ok = _usable(res)
        failed.update({
            b: InitializationError(
                "initial point projects behind the camera" if behind else
                "initial point has non-finite residuals (NaN or inf in the measurement or start)")
            for b, behind in zip(members[~ok].tolist(), res.behind[~ok].tolist())})
        usable[members], unweighted[members, :m], energy[members] = ok, res.unweighted, rowdot(res.r)
        if m == 0:  # no rows: every start stops where it is
            converged[members], reasons[members] = True, "initialization only"
        go = ok & ~converged[members]
        H[members[go]], g[members[go]] = _normal_equations(res.J[go], res.r[go])
        del res  # so no two rungs' Jacobian stacks are alive at once
    paths = [[e] for e in energy.tolist()]
    active = np.flatnonzero(usable & ~converged)

    while active.size:
        iterations[active] += 1
        dx, solved = _damped_steps(H[active], g[active], lam[active])
        # a singular system skips its trial and only raises its damping
        lam[active[~solved]] = np.minimum(lam[active[~solved]] * 10.0, _DAMPING_MAX)
        tried, dx = active[solved], dx[solved]
        x_trial = x[tried]
        small_step = np.sqrt(rowdot(dx)) <= _XTOL * (np.sqrt(rowdot(x_trial)) + _XTOL)
        x_trial += dx
        for k, (c, m) in enumerate(zip(configs, widths)):
            sel = np.flatnonzero(rung[tried] == k)
            if not sel.size:
                continue
            idx, trial = tried[sel], x_trial[sel]
            res = block_residuals(trial, block.take(idx), model, c)
            trial_energy = rowdot(res.r)
            accept = _usable(res) & (trial_energy < energy[idx])
            ftol_stop = accept & (energy[idx] - trial_energy
                                  <= _FTOL * np.maximum(trial_energy, 1.0))
            up, down = idx[accept], idx[~accept]
            x[up], unweighted[up, :m], energy[up] = (
                trial[accept], res.unweighted[accept], trial_energy[accept])
            for i, e in zip(up.tolist(), trial_energy[accept].tolist()):
                paths[i].append(e)
            lam[up] = np.maximum(lam[up] * 0.5, _DAMPING_MIN)
            lam[down] = np.minimum(lam[down] * 10.0, _DAMPING_MAX)
            # an accepted or rejected step below the resolvable size ends the solve
            xtol_stop = small_step[sel] & ~ftol_stop
            reasons[idx[ftol_stop]], reasons[idx[xtol_stop]] = "ftol", "xtol"
            converged[idx[ftol_stop | xtol_stop]] = True
            # normal equations at each accepted point an instance goes on from
            go_on = accept & ~converged[idx] & (iterations[idx] < opts.max_iterations)
            H[idx[go_on]], g[idx[go_on]] = _normal_equations(res.J[go_on], res.r[go_on])
            del res
        active = active[~converged[active] & (iterations[active] < opts.max_iterations)]

    for k, c in enumerate(configs):
        members = np.flatnonzero(rung == k)
        total, parts = block_energy(unweighted[members, :widths[k]], c, model.K, D - 7)
        for j, b in enumerate(members.tolist()):
            out[live[b]] = failed[b] if b in failed else RefineResult(
                vars=Variables(theta=wrap_angle(x[b, 0]), T=x[b, 1:4], sigma=x[b, 4:7],
                               alpha=x[b, 7:]),
                converged=bool(converged[b]),
                iterations=int(iterations[b]),
                final_energy=float(total[j]),
                breakdown={name: float(value[j]) for name, value in parts.items()
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
    outcome = refine_batch([meas], model, cfg, opts, None if initial is None else [initial])[0]
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

    Every rung is solved from the same initialization, so each equals
    refine(meas, model, ablation_config(variant, cfg), opts) bit for bit.
    All of them are one refine_batch call over (rung x instance).
    """
    cfg, measurements = cfg or EnergyConfig(), list(measurements)
    if variants is None:
        variants = ABLATION_VARIANTS[: ABLATION_VARIANTS.index(cfg.variant) + 1]
    n, starts = len(measurements), [_start(m, model) for m in measurements]
    outcomes = refine_batch(measurements * len(variants), model, cfg, opts,
                            starts * len(variants), [v for v in variants for _ in range(n)])
    return {v: outcomes[k * n:(k + 1) * n] for k, v in enumerate(variants)}


def refine_ablation(meas: Measurement, model: MorphableModel, variant: str) -> RefineResult:
    """One rung of the term-ablation ladder for one instance, at the default
    weights and solver options; v1 skips optimization."""
    return refine(meas, model, ablation_config(variant))
