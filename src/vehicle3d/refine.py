"""Pose-shape estimation by damped nonlinear least squares, many instances
at a time.

The optimization state is initialized from the measurement hypotheses
(yaw and log-extent guesses, 2D box center, optional crop depth) and polished
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
Every rung is solved from the initialization, the starts of the whole
block computed in one array pass: refine_ladder makes one such solve per
rung.  Instances come as one MeasurementBlock, as the parser and the
generator build them, and leave as one SolveBlock; `refine`, `refine_ablation`
and `initialize` take a one-row block, and only `refine` makes a RefineResult.

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
from .scene_io import poses_to_labels
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


@dataclass(frozen=True, eq=False)
class SolveBlock:
    """refine_batch's per-instance outcomes as columns; a row with an error holds no solution."""
    x: np.ndarray  # (B, D) solutions, the yaw wrapped as Variables.theta reads it
    error: np.ndarray  # (B,) object: None, or the message of the failure that stopped the row
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int
    reason: np.ndarray  # (B,) object: why each solve stopped
    energy: np.ndarray  # (B,) final energy
    terms: dict  # {name: (B,)} final energy per term in term_rows order; md NaN without a depth
    path: np.ndarray  # (B, 1 + max iterations) accepted energies from the start's, NaN-padded

    def detections(self, block: MeasurementBlock) -> tuple:
        """(records, error): poses_to_labels over the rows whose error is None, by the block's
        cams, scored 1 / (1 + energy); error (B,) is None, the solve's, or "refined " + the label's."""
        ok = np.equal(self.error, None)
        records, label_error = poses_to_labels(self.x[ok, 0], self.x[ok, 1:4], self.x[ok, 4:7],
                                               block.cam[ok], 1.0 / (1.0 + self.energy[ok]))
        error = self.error.copy()
        error[ok] = [None if message is None else "refined " + message for message in label_error]
        return records, error


def _starts(block: MeasurementBlock, n_basis: int):
    """Starting points (B, 7 + n_basis) of a block from its hypotheses, and
    each row's failure message or None.  The translation is back-projected
    through the 2D box center, at the measured depth when available and
    otherwise at the ground-plane intersection of that ray; a row with no
    such intersection is NaN.  Only rows that need the intersection divide."""
    fx, fy, cx, cy = block.cam.T
    B = len(fx)
    tx, ty = 0.5 * (block.box[:, :2] + block.box[:, 2:]).T  # the 2D box center
    direction = np.stack([(tx - cx) / fx, (ty - cy) / fy, np.ones(B)], axis=1)
    slope = (block.ground[:, None, :] @ direction[:, :, None])[:, 0, 0]
    parallel = ~block.has_depth & (np.abs(slope) < 1e-12)
    s = np.divide(1.0, slope, out=np.full(B, np.nan), where=~block.has_depth & ~parallel)
    away = s <= 0  # NaN wherever the depth is measured or the ray is parallel
    failures = np.full(B, None, dtype=object)
    failures[parallel] = "box-center ray is parallel to the ground plane and no depth is available"
    failures[away] = "box-center ray meets the ground plane behind the camera"
    x = np.zeros((B, 7 + n_basis))
    x[:, 0], x[:, 4:7] = block.theta0, block.sigma0
    x[:, 1:4] = direction * np.where(block.has_depth, block.depth, s)[:, None]
    x[parallel | away] = np.nan
    return x, failures


def initialize(meas: MeasurementBlock, model: MorphableModel) -> Variables:
    """_starts for a one-row block; a start it cannot compute raises
    InitializationError with that row's message."""
    x, failures = _starts(meas.one_row("initialize"), model.n_basis)
    if failures[0] is not None:
        raise InitializationError(failures[0])
    return Variables(theta=float(x[0, 0]), T=x[0, 1:4], sigma=x[0, 4:7], alpha=x[0, 7:])


def _usable(res, energy) -> np.ndarray:
    """Instances whose points are all in front of the camera and whose
    residuals, Jacobian and energy are finite: finite residuals can still
    square to an infinite energy."""
    return (~res.behind & np.isfinite(res.r).all(axis=1) & np.isfinite(res.JT).all(axis=(1, 2))
            & np.isfinite(energy))


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


def _normal_equations(JT, r):
    """H = J^T J and g = J^T r of a (B, D, m) J^T stack and its (B, m)
    residuals.  Each instance's J^T is one contiguous (D, m) block, the
    layout a one-instance J^T has: the memory layout decides how the BLAS
    products round, so they round alike at any B."""
    return JT @ JT.transpose(0, 2, 1), (JT @ r[:, :, None])[:, :, 0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def refine_batch(
    block: MeasurementBlock,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
) -> SolveBlock:
    """Levenberg-Marquardt minimization of the energy terms enabled at
    cfg.variant for the instances of a block, all of them in one batch.  A
    rung without terms (v1) returns each start, converged after 0
    iterations with reason "initialization only".

    Trial steps solve the damped normal equations; an instance's damping
    is multiplied by 10 when its trial fails to decrease its energy and
    halved on acceptance.

    _starts computes the block's starts in one array pass.  One
    block_residuals call evaluates every start, a failed one as a NaN row;
    each iteration then solves one damped step for every instance still
    iterating and evaluates the trial points, with those instances'
    sub-block, in one block_residuals call.  Per instance the state is its
    point, the normal equations H = J^T J and g = J^T r built once at each
    accepted point (a rejected step re-solves from them), its unweighted
    residual rows, energy, damping and counters; no Jacobian outlives the
    evaluation that produced it.

    Row i of the returned SolveBlock is instance i's outcome.  Its error
    is None, or the message of the failure that stopped it: a start that
    cannot be computed, a landmark count the model does not have (one check
    per block), or a start that projects behind the camera or evaluates to
    non-finite residuals or to an energy that overflows.  Failures are
    recorded, not raised, so the other instances are unaffected; numpy's
    overflow and invalid-value warnings are silenced here as in the kernel,
    since an energy or step norm that overflows is read as inf.
    """
    cfg, opts = cfg or EnergyConfig(), opts or SolverOptions()
    x, failures = _starts(block, model.n_basis)
    B, D = x.shape
    if block.K != model.K or not B:  # the kernel evaluates neither
        nan, error = np.full(B, np.nan), f"measurement has {block.K} landmarks, the model {model.K}"
        return SolveBlock(x, np.full(B, error, dtype=object), np.zeros(B, bool), np.zeros(B, int),
                          np.full(B, None), nan,
                          {name: nan for name, _, _ in term_rows(cfg, model.K, D - 7)}, nan[:, None])
    res = block_residuals(x, block, model, cfg)
    unweighted, energy = res.unweighted, rowdot(res.r)
    # a rung without rows (v1) passes a start's NaN row as usable
    usable, behind = _usable(res, energy) & np.equal(failures, None), res.behind
    overflows = np.isfinite(res.r).all(axis=1) & ~np.isfinite(energy)
    no_rows = unweighted.shape[1] == 0  # every start stops where it is
    converged = np.full(B, no_rows)
    reasons = np.full(B, "initialization only" if no_rows else "max_iterations", dtype=object)
    lam = np.full(B, _DAMPING_INIT)
    iterations, accepted = np.zeros(B, dtype=int), np.zeros(B, dtype=int)
    steps = [(np.arange(B), accepted.copy(), energy.copy())]  # (rows, path column, energies)
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
            size = x_trial.copy()
            size[:, 0] = wrap_angle(size[:, 0])  # |x| with the yaw wrapped
            small_step = np.sqrt(rowdot(dx)) <= _XTOL * (np.sqrt(rowdot(size)) + _XTOL)
            x_trial += dx
            res = block_residuals(x_trial, block[tried], model, cfg)
            trial_energy = rowdot(res.r)
            accept = _usable(res, trial_energy) & (trial_energy < energy[tried])
            ftol_stop = accept & (energy[tried] - trial_energy
                                  <= _FTOL * np.maximum(trial_energy, 1.0))
            up, down = tried[accept], tried[~accept]
            x[up], unweighted[up], energy[up] = (
                x_trial[accept], res.unweighted[accept], trial_energy[accept])
            accepted[up] += 1
            steps.append((up, accepted[up], trial_energy[accept]))
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
    if "md" in parts:
        parts["md"] = np.where(block.has_depth, parts["md"], np.nan)
    error = np.full(B, None)  # each unusable row's failure, set in reverse precedence
    error[~usable] = "initial point has non-finite residuals (NaN or inf in the measurement or start)"
    error[~usable & overflows] = ("initial point's energy overflows: its residuals are finite, "
                                  "but their squares sum to inf")
    error[~usable & behind] = "initial point projects behind the camera"
    error = np.where(np.equal(failures, None), error, failures)
    path = np.full((B, 1 + iterations.max()), np.nan)
    rows, columns, energies = (np.concatenate(column) for column in zip(*steps))
    path[rows, columns] = energies
    x[:, 0] = wrap_angle(x[:, 0])
    return SolveBlock(x, error, converged, iterations, reasons, total, parts, path)


def refine(
    meas: MeasurementBlock,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
) -> RefineResult:
    """refine_batch's one-row case as a RefineResult; a failure raises InitializationError."""
    s = refine_batch(meas.one_row("refine"), model, cfg, opts)
    if s.error[0] is not None:
        raise InitializationError(s.error[0])
    return RefineResult(
        vars=Variables(theta=float(s.x[0, 0]), T=s.x[0, 1:4], sigma=s.x[0, 4:7], alpha=s.x[0, 7:]),
        converged=bool(s.converged[0]), iterations=int(s.iterations[0]),
        final_energy=float(s.energy[0]), reason=s.reason[0],
        energy_path=s.path[0, ~np.isnan(s.path[0])],
        breakdown={name: float(v[0]) for name, v in s.terms.items() if not np.isnan(v[0])})


def refine_ladder(
    block: MeasurementBlock,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
    variants=None,
) -> dict:
    """Rungs of the term-ablation ladder for the instances of a block, each
    at cfg's weights: {variant: SolveBlock}, for `variants` (by default
    every rung v1..cfg.variant).

    Every rung is one refine_batch call, whose starts are the same array
    pass over the same block, so row i of each rung equals
    refine(block[i], model, ablation_config(variant, cfg), opts) bit for bit.
    """
    cfg = cfg or EnergyConfig()
    if variants is None:
        variants = ABLATION_VARIANTS[: ABLATION_VARIANTS.index(cfg.variant) + 1]
    return {v: refine_batch(block, model, ablation_config(v, cfg), opts) for v in variants}


def refine_ablation(meas: MeasurementBlock, model: MorphableModel, variant: str) -> RefineResult:
    """One rung of the term-ablation ladder for a one-row block, at the
    default weights and solver options; v1 skips optimization."""
    return refine(meas.one_row("refine_ablation"), model, ablation_config(variant))
