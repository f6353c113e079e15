"""Generate a small synthetic dataset and look at what comes out.

Each frame carries ground-truth label records (KITTI text layout) and a
per-instance measurement bundle: noisy 2D box, landmark pixels with a
visibility mask, yaw/size hypotheses, and a crop-depth estimate.
"""
import numpy as np

from vehicle3d import (
    STANDARD_NOISE,
    SceneParams,
    difficulty_bucket,
    emit_labels,
    generate_scene,
)

params = SceneParams(n_instances=4)
frames = 8

buckets = {"easy": 0, "moderate": 0, "hard": 0, None: 0}
depths = []
visible_fractions = []

for index in range(frames):
    scene, measurements, labels = generate_scene(params, STANDARD_NOISE, [2026, index])
    for record, meas in zip(labels, measurements):
        buckets[difficulty_bucket(record)] += 1
        depths.append(record.location[2])
        visible_fractions.append(meas.visible.mean())
    if index == 0:
        print("frame 0 ground-truth labels:")
        print(emit_labels(labels))

print(f"{frames} frames x {params.n_instances} instances")
print("difficulty counts:", {k: v for k, v in buckets.items() if v})
print(f"depth range: {min(depths):.1f} .. {max(depths):.1f} m")
print(f"mean visible landmark fraction: {np.mean(visible_fractions):.2f}")
