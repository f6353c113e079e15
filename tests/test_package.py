"""The package's export table."""
import vehicle3d


def test_export_table_resolves():
    namespace = {}
    exec("from vehicle3d import *", namespace)
    assert len(vehicle3d.__all__) == len(set(vehicle3d.__all__))
    assert set(vehicle3d.__all__) <= set(namespace)
