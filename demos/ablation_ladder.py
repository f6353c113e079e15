"""Run the four-variant term ablation on a small benchmark.

v1 keeps the initialization, v2 optimizes box + ground-plane consistency,
v3 adds landmarks and the shape prior, v4 adds measured depth.  Every
rung is solved from the same initialization: refine_ladder solves each
rung of a frame's measurement block in one batch, whose starts come from
one array pass over the block's hypotheses, and returns each rung's
outcomes as the columns of one SolveBlock; poses_to_labels converts the
rows without an error as one stack, seen by the block's camera rows, and
a solved box it cannot label counts as a missed detection.
Expect each metric to improve down the ladder; small per-seed wobble on
the last link is normal at this sample size.
"""
from vehicle3d import (
    ABLATION_VARIANTS,
    CAR_MODEL,
    STANDARD_NOISE,
    SceneParams,
    alp,
    ap_3d,
    ap_bev,
    generate_scene,
    poses_to_labels,
    refine_ladder,
)

params = SceneParams(n_instances=5)
frames = 100

per_variant = {v: [] for v in ABLATION_VARIANTS}
for index in range(frames):
    _, measurements, labels = generate_scene(params, STANDARD_NOISE, [777, index])
    gts = tuple(labels)
    rungs = refine_ladder(measurements, CAR_MODEL)
    for variant, solve in rungs.items():
        ok = [error is None for error in solve.error]  # a failed instance has no solution
        x = solve.x[ok]
        dets, _ = poses_to_labels(  # the labels of the poses that have one
            x[:, 0], x[:, 1:4], x[:, 4:7], measurements.cam[ok],
            (1.0 / (1.0 + solve.energy[ok])).tolist(),
        )
        per_variant[variant].append((tuple(dets), gts))

print(f"{frames} frames x {params.n_instances} instances, moderate difficulty\n")
header = f"{'':8}" + "".join(f"{v:>8}" for v in ABLATION_VARIANTS)
print(header)
for name, fn in (
    ("ALP@1m", lambda fr: alp(fr, 1.0, "moderate")),
    ("3D@.25", lambda fr: ap_3d(fr, 0.25, "moderate")),
    ("BEV@.5", lambda fr: ap_bev(fr, 0.5, "moderate")),
):
    row = [fn(per_variant[v]) for v in ABLATION_VARIANTS]
    print(f"{name:8}" + "".join(f"{x:8.1f}" for x in row))
