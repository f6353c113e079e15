"""The batched solver against independent one-instance references
(tests/oracles.py): every row of refine_ladder is the textbook
Levenberg-Marquardt solve of its instance, bit for bit, and the kernel's
residual rows are the plain-geometry residuals."""
from dataclasses import replace

import numpy as np
import pytest

from vehicle3d.energy import (
    ABLATION_VARIANTS,
    MeasurementBlock,
    Variables,
    ablation_config,
    stacked_residuals,
)
from vehicle3d.refine import initialize, refine_batch, refine_ladder
from vehicle3d.scene_io import CAR_MODEL, STANDARD_NOISE, SceneParams, generate_scene

from tests.oracles import geometry_residuals, reference_solve


def _with_failing_starts(block: MeasurementBlock) -> MeasurementBlock:
    """block with one instance of each failure kind in its first rows:
    rows 0 and 1 have no depth and a box-center ray parallel to the ground
    or meeting it behind the camera, row 2 a crop depth in front of the
    lens, row 3 an inverted box, row 4 log extents that overflow, row 5 a
    visible landmark whose squared residual overflows, row 6 no depth."""
    box, uv, visible = block.box.copy(), block.uv.copy(), block.visible.copy()
    depth, has_depth, sigma0 = block.depth.copy(), block.has_depth.copy(), block.sigma0.copy()
    depth[[0, 1, 6]], has_depth[[0, 1, 6]] = 0.0, False
    box[0, [1, 3]] = block.cam[0, 3] + [-10.0, 10.0]  # its center on the principal row
    box[1, [1, 3]] = block.cam[1, 3] - [110.0, 90.0]  # above the horizon
    depth[2] = 0.01
    box[3, 2] = box[3, 0] - 5.0
    sigma0[4] = 800.0
    uv[5, 0], visible[5, 0] = 1e200, True
    return replace(block, box=box, uv=uv, visible=visible, depth=depth, has_depth=has_depth,
                   sigma0=sigma0)


@pytest.fixture(scope="module")
def seed7_block():
    """The pooled 50 frames of `synth --seed 7`, failing starts first."""
    frames = [generate_scene(SceneParams(), STANDARD_NOISE, [7, index])[1] for index in range(50)]
    return _with_failing_starts(MeasurementBlock.concat(frames))


@pytest.fixture(scope="module")
def seed7_rungs(seed7_block):
    return refine_ladder(seed7_block, CAR_MODEL, variants=ABLATION_VARIANTS)


def _assert_rows_are_the_reference(solve, block, cfg, rows):
    """Each of rows of the SolveBlock equals reference_solve of its
    instance: a failure's message and no numbers, or every column bit for
    bit."""
    for i in rows:
        ref = reference_solve(block[i], CAR_MODEL, cfg)
        assert solve.error[i] == ref["error"], i
        if ref["error"] is not None:
            assert (solve.converged[i], solve.iterations[i], solve.reason[i]) == (False, 0, None)
            assert np.isnan(solve.energy[i]) and np.isnan(solve.path[i]).all()
            continue
        assert solve.x[i].tobytes() == ref["x"].tobytes(), i
        assert ((bool(solve.converged[i]), int(solve.iterations[i]), solve.reason[i])
                == (ref["converged"], ref["iterations"], ref["reason"])), i
        assert solve.energy[i].tobytes() == np.float64(ref["energy"]).tobytes(), i
        assert {name: float(value[i]) for name, value in solve.terms.items()} == ref["terms"], i
        path = solve.path[i]
        assert path[~np.isnan(path)].tobytes() == ref["path"].tobytes(), i


@pytest.mark.parametrize("variant", ABLATION_VARIANTS)
def test_every_ladder_row_is_the_reference_solve(seed7_block, seed7_rungs, variant):
    solve = seed7_rungs[variant]
    if variant != "v1":  # v1 stops at every computable start
        assert [solve.error[i] is None for i in range(7)] == [False] * 5 + [variant == "v2", True]
    _assert_rows_are_the_reference(solve, seed7_block, ablation_config(variant), range(len(seed7_block)))


def test_a_singular_system_is_rejected_as_the_reference_rejects_it(seed7_block, monkeypatch):
    """One instance's third damped system is made singular (np.linalg.solve
    raises on it, alone or in a stack): refine_batch retries the stack's
    systems one by one and counts that step as rejected, as the reference
    does, and that instance's solve changes course."""
    block, cfg = seed7_block[7:27], ablation_config("v4")
    solve = np.linalg.solve
    systems = []

    def recording(A, b):
        systems.append(np.array(A))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    for i in range(len(block)):  # the first instance of 4 or more iterations
        systems.clear()
        if reference_solve(block[i], CAR_MODEL, cfg)["iterations"] >= 4:
            break
    singular = systems[2].tobytes()
    normal = refine_batch(block, CAR_MODEL, cfg)

    def failing(A, b):
        if any(a.tobytes() == singular for a in np.reshape(A, (-1, *np.shape(A)[-2:]))):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    stalled = refine_batch(block, CAR_MODEL, cfg)
    assert stalled.x[i].tobytes() != normal.x[i].tobytes()
    _assert_rows_are_the_reference(stalled, block, cfg, range(len(block)))


@pytest.mark.parametrize("variant", ["v2", "v3", "v4"])
def test_residual_rows_are_the_plain_geometry_residuals(seed7_block, variant):
    """stacked_residuals equals geometry_residuals to 1e-12 of the largest
    row, at two random points near each computable start."""
    rng, cfg = np.random.default_rng(41), ablation_config(variant)
    scale = np.array([0.05, 0.3, 0.05, 0.3, 0.05, 0.05, 0.05, 0.5, 0.5])
    for i in range(7, len(seed7_block)):
        start = initialize(seed7_block[i], CAR_MODEL).to_vector()
        for x in start + scale * rng.standard_normal((2, start.size)):
            vars = Variables(theta=x[0], T=x[1:4], sigma=x[4:7], alpha=x[7:])
            want = geometry_residuals(vars, seed7_block[i], CAR_MODEL, cfg)
            got = stacked_residuals(vars, seed7_block[i], CAR_MODEL, cfg)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (i, variant)
