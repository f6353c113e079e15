"""README.md's self-contained Python examples run as written, in process."""
import re
from dataclasses import replace
from pathlib import Path

import vehicle3d

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.S)


def _run_examples() -> dict:
    """The namespace after the Quickstart, the energy example, which reads
    the Quickstart's frame, and the learn_em example."""
    assert len(BLOCKS) == 3 and "learn_em(observations" in BLOCKS[2]
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_the_readme_examples_run(capsys):
    namespace = _run_examples()
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["ALP @ 1 m", "AP 3D @ 0.25"]
    assert len(namespace["detections"]) == 4
    assert list(namespace["parts"]) == ["2d3d", "lp", "md", "gp", "s"]
    assert namespace["observations"].uv.shape == (40, 14, 2)
    assert namespace["result"].model.basis.shape == (2, 42)


def test_the_quickstart_labels_only_the_solved_instances(monkeypatch, capsys):
    """A start behind the camera fails its own instance: the Quickstart
    labels the other three and scores them."""
    generate = vehicle3d.generate_scene

    def one_start_behind(*args, **kwargs):
        scene, measurements, labels = generate(*args, **kwargs)
        depth = measurements.depth.copy()
        depth[1] = 0.01
        return scene, replace(measurements, depth=depth), labels

    monkeypatch.setattr(vehicle3d, "generate_scene", one_start_behind)
    namespace = _run_examples()
    assert namespace["solve"].error.tolist() == [
        None, "initial point projects behind the camera", None, None]
    assert len(namespace["detections"]) == 3
    assert len(capsys.readouterr().out.splitlines()) == 2
