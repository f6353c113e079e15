"""The package's export table."""
import vehicle3d


def test_export_table_resolves():
    namespace = {}
    exec("from vehicle3d import *", namespace)
    assert len(vehicle3d.__all__) == len(set(vehicle3d.__all__))
    assert set(vehicle3d.__all__) <= set(namespace)


def test_trace_patch_points_resolve():
    """Every name the benchmark's tracer wraps (perfbench/tracing.py's
    PATCHES) still exists where the tracer looks it up."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module_name, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_every_config_field_is_a_command_line_option():
    """Each field of the option-backed config dataclasses is set by some
    command's option: no knob exists for tests alone."""
    from dataclasses import fields

    from vehicle3d import cli

    set_by_options = {opt.field for command in cli._COMMANDS.values()
                      for opt in command.options if opt.field is not None}
    unset = [f"{config}.{field.name}"
             for config, cls in (("energy", vehicle3d.EnergyConfig),
                                 ("solver", vehicle3d.SolverOptions),
                                 ("learn", vehicle3d.LearnOptions),
                                 ("noise", vehicle3d.NoiseSpec),
                                 ("scene", vehicle3d.SceneParams))
             for field in fields(cls) if f"{config}.{field.name}" not in set_by_options]
    # acceptance criterion 2 draws noise-free shapes with alpha_sigma = 0
    assert unset == ["scene.alpha_sigma"]
