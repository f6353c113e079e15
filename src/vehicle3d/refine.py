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
generator build them, of the model's landmark count (the kernel raises on
another), and leave as one SolveBlock; `refine`, `refine_ablation` and
`initialize` take a one-row block, and only `refine` makes a RefineResult.

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
    KernelPlan,
    MeasurementBlock,
    Variables,
    ablation_config,
    block_energy,
    rowdot,
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
    """refine_batch's per-instance outcomes as columns.  A solved row (error None) carries
    every term of its rung, md 0.0 without a depth.  A failed row holds no solution and
    carries no numbers: energy, terms and path NaN, converged False, iterations 0, reason None."""
    x: np.ndarray  # (B, D) solutions, the yaw wrapped as Variables.theta reads it
    error: np.ndarray  # (B,) object: None, or the message of the failure that stopped the row
    converged: np.ndarray  # (B,) bool
    iterations: np.ndarray  # (B,) int
    reason: np.ndarray  # (B,) object: why each solve stopped
    energy: np.ndarray  # (B,) final energy
    terms: dict  # {name: (B,)} final energy per term in term_rows order; md 0 without a depth
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
    residuals, Jacobian and energy (their sum of squares) are finite.  A
    non-finite residual squares to a non-finite energy, so the energy's
    check covers the residuals; finite residuals can still square to an
    infinite energy."""
    return ~res.behind & np.isfinite(res.JT).all(axis=(1, 2)) & np.isfinite(energy)


def _damped_steps(H, g, lam):
    """Solutions of (H + lam I) dx = -g for a stack of systems, and a mask
    of those that were solvable.  A singular system only fails its own
    instance: when the batched solve raises, each system is retried alone."""
    A = lam[:, None, None] * np.eye(H.shape[-1])
    A += H
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
    is multiplied by 10 when its trial fails to decrease its energy, or its
    system is singular, and halved on acceptance.

    _starts computes the block's starts in one array pass, and one
    KernelPlan serves the whole solve: its measure reads the block once,
    and one evaluation takes every start, a failed one as a NaN row.  Each
    iteration then solves one damped step for every instance still
    iterating and evaluates the trial points of all of them, in one
    evaluation; a singular system's trial is its own point, never
    accepted.  The iterating instances keep their state in compact arrays
    of their own rows, gathered again only when one of them stops: point,
    the normal equations H = J^T J and g = J^T r built at each accepted
    point (a rejected step re-solves from them), unweighted residual rows,
    energy, damping, accepted-step count and measured rows.  Every
    instance of the loop has made the same number of iterations.  No
    Jacobian outlives the evaluation that produced it.

    Row i of the returned SolveBlock is instance i's outcome.  Its error
    is None, or the message of the failure that stopped it: a start that
    cannot be computed, or one that projects behind the camera or evaluates
    to non-finite residuals or to an energy that overflows.  A failed row
    carries no numbers, at any rung (see SolveBlock).  Failures are
    recorded, not raised, so the other instances are unaffected; a block of
    another landmark count than the model's raises KernelPlan.measure's
    ValueError.  numpy's overflow and invalid-value warnings are silenced
    here as in the kernel, since an energy or step norm that overflows is
    read as inf.
    """
    cfg, opts = cfg or EnergyConfig(), opts or SolverOptions()
    x, failures = _starts(block, model.n_basis)
    B, D = x.shape
    plan = KernelPlan(cfg, model, D)
    measured = plan.measure(block)
    res = plan.evaluate(x, measured)
    energy = rowdot(res.r)
    # a rung without rows (v1) passes a start's NaN row as usable
    usable, behind = _usable(res, energy) & np.equal(failures, None), res.behind
    overflows = np.isfinite(res.r).all(axis=1) & ~np.isfinite(energy)
    no_rows = plan.m == 0  # every start stops where it is
    converged = np.full(B, no_rows)
    reasons = np.full(B, "initialization only" if no_rows else "max_iterations", dtype=object)
    iterations = np.zeros(B, dtype=int)
    # (rows, path column, energies, kept) of the start and of every trial
    steps = [(np.arange(B), np.zeros(B, dtype=int), energy.copy(), np.ones(B, dtype=bool))]
    unweighted = res.unweighted.copy()  # the plan's next evaluation overwrites res
    # the compact state of the instances still iterating, index i in the block
    i = np.flatnonzero(usable & ~converged)
    xi, Ei, Ui, live = x[i], energy[i], unweighted[i], measured.take(i)
    H, g = (equations[i] for equations in _normal_equations(res.JT, res.r))
    lam, accepted = np.full(i.size, _DAMPING_INIT), np.zeros(i.size, dtype=int)
    k = 0
    del res

    while i.size:
        k += 1
        dx, solved = _damped_steps(H, g, lam)
        size = xi.copy()
        size[:, 0] = wrap_angle(size[:, 0])  # |x| with the yaw wrapped
        small_step = solved & (np.sqrt(rowdot(dx)) <= _XTOL * (np.sqrt(rowdot(size)) + _XTOL))
        x_trial = xi + dx
        res = plan.evaluate(x_trial, live)
        trial = rowdot(res.r)
        accept = solved & _usable(res, trial) & (trial < Ei)
        ftol_stop = accept & (Ei - trial <= _FTOL * np.maximum(trial, 1.0))
        accepted = accepted + accept  # a new array: steps keeps each iteration's
        steps.append((i, accepted, trial, accept))
        lam = np.where(accept, np.maximum(lam * 0.5, _DAMPING_MIN),
                       np.minimum(lam * 10.0, _DAMPING_MAX))
        xi, Ei = np.where(accept[:, None], x_trial, xi), np.where(accept, trial, Ei)
        Ui = np.where(accept[:, None], res.unweighted, Ui)
        # an accepted or rejected step below the resolvable size ends the solve
        stop = ftol_stop | small_step | (k >= opts.max_iterations)
        go_on = accept & ~stop
        if go_on.any():  # normal equations at each accepted point an instance goes on from
            H_new, g_new = _normal_equations(res.JT, res.r)
            np.copyto(H, H_new, where=go_on[:, None, None])
            np.copyto(g, g_new, where=go_on[:, None])
        del res
        if stop.any():
            done = i[stop]
            x[done], energy[done], unweighted[done] = xi[stop], Ei[stop], Ui[stop]
            iterations[done] = k
            converged[done] = (ftol_stop | small_step)[stop]
            reasons[done] = np.where(ftol_stop, "ftol",
                                     np.where(small_step, "xtol", "max_iterations"))[stop]
            keep = np.flatnonzero(~stop)
            i, xi, Ei, Ui, H, g, lam, accepted = (
                a[keep] for a in (i, xi, Ei, Ui, H, g, lam, accepted))
            live = live.take(keep)

    error = np.full(B, None)  # each unusable row's failure, set in reverse precedence
    error[~usable] = "initial point has non-finite residuals (NaN or inf in the measurement or start)"
    error[~usable & overflows] = ("initial point's energy overflows: its residuals are finite, "
                                  "but their squares sum to inf")
    error[~usable & behind] = "initial point projects behind the camera"
    error = np.where(np.equal(failures, None), error, failures)
    path = np.full((B, 1 + iterations.max(initial=0)), np.nan)
    rows, columns, energies, kept = (np.concatenate(column) for column in zip(*steps))
    path[rows[kept], columns[kept]] = energies[kept]
    # a failed row, exactly an unusable one, carries no numbers
    total, parts = block_energy(unweighted, cfg, model.K, D - 7)
    terms = {name: np.where(usable, value, np.nan) for name, value in parts.items()}
    path[~usable], reasons[~usable] = np.nan, None
    x[:, 0] = wrap_angle(x[:, 0])
    return SolveBlock(x, error, converged & usable, iterations, reasons,
                      np.where(usable, total, np.nan), terms, path)


def refine(
    meas: MeasurementBlock,
    model: MorphableModel,
    cfg: EnergyConfig | None = None,
    opts: SolverOptions | None = None,
) -> RefineResult:
    """refine_batch's one-row case as a RefineResult; a failed row raises InitializationError."""
    s = refine_batch(meas.one_row("refine"), model, cfg, opts)
    if s.error[0] is not None:
        raise InitializationError(s.error[0])
    return RefineResult(
        vars=Variables(theta=float(s.x[0, 0]), T=s.x[0, 1:4], sigma=s.x[0, 4:7], alpha=s.x[0, 7:]),
        converged=bool(s.converged[0]), iterations=int(s.iterations[0]),
        final_energy=float(s.energy[0]), reason=s.reason[0],
        energy_path=s.path[0, ~np.isnan(s.path[0])],
        breakdown={name: float(v[0]) for name, v in s.terms.items()})


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
