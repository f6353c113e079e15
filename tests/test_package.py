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
