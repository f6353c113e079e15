"""The package's export table."""
import ast
import importlib
import importlib.util
import math
import re
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

import vehicle3d
from vehicle3d import cli
from vehicle3d.scene_io import format_config, parse_config_text


def test_export_table_resolves():
    namespace = {}
    exec("from vehicle3d import *", namespace)
    assert len(vehicle3d.__all__) == len(set(vehicle3d.__all__))
    assert set(vehicle3d.__all__) <= set(namespace)


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file as the benchmark runs it and
    registered, since a dataclass looks its module up by name."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace_patches() -> tuple:
    """perfbench/tracing.py's PATCHES: (module, attribute, span name) of
    every name the benchmark's tracer wraps."""
    return _perfbench_module("tracing").PATCHES


def test_trace_patch_points_resolve():
    """Every name the benchmark's tracer wraps still exists where the
    tracer looks it up."""
    patches = _trace_patches()
    assert patches
    for module_name, attr, _ in patches:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_fit_diag_failures_are_what_the_benchmark_counts(tmp_path, capsys):
    """The benchmark reconciles fit's output as predictions + failures =
    instances, its failures counted as `iN.error` keys in diag/*.cfg: on a
    dataset with one failing instance, that count is the failures fit
    reports and the reconciliation finds no problem."""
    workloads = _perfbench_module("workloads")
    data, out = tmp_path / "data", tmp_path / "fit"
    assert cli.main(["synth", "--out", str(data), "--seed", "7", "--frames", "2"]) == 0
    frame = data / "meas" / "000000.cfg"
    mapping = parse_config_text(frame.read_text())
    mapping["i1.depth"] = "0.01"  # a start behind the camera
    frame.write_text(format_config(mapping))
    capsys.readouterr()
    assert cli.main(["fit", "--data", str(data), "--out", str(out)]) == 1
    reported = int(re.match(r"fit complete: (\d+) instance failure", capsys.readouterr().out)[1])
    assert reported == workloads.error_count(out) == 1
    assert workloads.score_output(workloads.WORKLOADS["fit"], out, data)[1] == []


def test_unused_imports_are_trace_patch_points():
    """Every name a package module imports (the package's own export table
    aside) is used in that module or is one the tracer wraps there, so no
    import stays for nothing once its last use or the trace's wrap goes."""
    patched = {(module, attr) for module, attr, _ in _trace_patches()}
    checked = []
    for path in sorted(Path(vehicle3d.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = f"vehicle3d.{path.stem}"
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used or (module, name) in patched, (module, name)
                    checked.append((module, name))
    assert ("vehicle3d.cli", "refine_ablation") in checked  # a trace patch point
    assert len(checked) > 50  # the check reads the imports it is about


def test_option_configs_are_frozen():
    """cli._CONFIGS holds module-level defaults shared by every run: each is
    a frozen dataclass, so no run can change one in place for the next."""
    from vehicle3d import cli

    for name, config in cli._CONFIGS.items():
        assert is_dataclass(config) and type(config).__dataclass_params__.frozen, name


def test_every_config_field_is_a_command_line_option():
    """Each field of the option-backed config dataclasses is set by some
    command's option: no knob exists for tests alone."""
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


def test_every_float_config_field_rejects_nan():
    """A NaN or an infinity in a float field of an option-backed config
    dataclass fails that dataclass's own check, naming the field, before
    any run starts: NaN passes every `value < 0` range check, and inf every
    `value >= 0` one."""
    from vehicle3d import cli

    checked = []
    for config in cli._CONFIGS.values():
        for field in fields(config):
            if isinstance(getattr(config, field.name), float):
                for value in (math.nan, math.inf):
                    with pytest.raises(ValueError, match=field.name):
                        replace(config, **{field.name: value})
                checked.append(field.name)
    assert len(checked) == 12  # lambda1-4, tol, six noise scales, alpha_sigma


def _package_names(trees) -> tuple:
    """The names the package modules in trees define, (path, name,
    definition node), from top-level functions, classes and assignments and
    the methods of classes; and the names they reference, (path, line,
    name), from Name and Attribute nodes and `from ... import` aliases."""
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(path, item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path, t.id, node) for t in targets if isinstance(t, ast.Name)]
    references = [(path, node.lineno, name) for path, tree in trees.items()
                  for node in ast.walk(tree)
                  for name in ([node.id] if isinstance(node, ast.Name) else
                               [node.attr] if isinstance(node, ast.Attribute) else
                               [alias.name for alias in node.names]
                               if isinstance(node, ast.ImportFrom) else [])]
    return defined, references


def _referenced_outside(name, path, node, references) -> bool:
    return any(ref == name and not (where == path and node.lineno <= line <= node.end_lineno)
               for where, line, ref in references)


def test_every_private_name_has_a_caller():
    """Every top-level `_name` of a package module (function, class or
    constant) and every `_method` of a class is referenced in the package
    outside its own definition, so no private helper outlives its last
    caller."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(Path(vehicle3d.__file__).parent.glob("*.py"))}
    defined, references = _package_names(trees)
    private = [(path, name, node) for path, name, node in defined
               if name.startswith("_") and not name.startswith("__")]
    assert len(private) > 30  # the check reads the names it is about
    for path, name, node in private:
        assert _referenced_outside(name, path, node, references), f"{path.name}: {name}"


def test_every_public_name_has_a_caller():
    """Every public top-level name of a package module (function, class or
    constant) and every public method or property of a class has a caller
    outside the tests: a reference in the package outside its own
    definition, re-exports in __init__.py aside; or a whole word in a code
    span or block of README.md, in a demo, in the acceptance suite or in
    the benchmark.  So no export outlives its last user."""
    package = Path(vehicle3d.__file__).parent
    root = package.parents[1]
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    defined, references = _package_names(trees)
    code = re.findall(r"```.*?```|`[^`]*`", (root / "README.md").read_text(), flags=re.S)
    users = [*sorted((root / "demos").glob("*.py")), root / "tests" / "test_acceptance.py",
             *sorted((root / "perfbench").glob("*.py"))]
    outside = "\n".join([*code, *(path.read_text() for path in users)])
    public = [(path, name, node) for path, name, node in defined if not name.startswith("_")]
    assert len(public) > 100  # the check reads the names it is about
    for path, name, node in public:
        assert (_referenced_outside(name, path, node, references)
                or re.search(rf"\b{name}\b", outside)), f"{path.name}: {name}"


def test_readme_module_references_resolve():
    """Every backticked `module.name` in README.md whose module is one of
    the package's names an attribute of that module, so a refactor that
    deletes a documented name fails here instead of leaving stale docs."""
    package = Path(vehicle3d.__file__).parent
    modules = "|".join(path.stem for path in sorted(package.glob("*.py"))
                       if not path.stem.startswith("__"))
    readme = (package.parents[1] / "README.md").read_text()
    refs = re.findall(rf"`(?:vehicle3d\.)?({modules})\.([A-Za-z_][\w.]*)`", readme)
    assert len(refs) >= 10  # the check reads the references it is about
    for module, name in refs:
        target = importlib.import_module(f"vehicle3d.{module}")
        for part in name.split("."):
            assert hasattr(target, part), f"{module}.{name}"
            target = getattr(target, part)


def _error_isinstance_calls(root: Path) -> tuple:
    """(number of isinstance calls read, [(where, line)] of those whose
    class, or one of whose classes, is a name ending in Error) in the
    package modules, the demos and README.md's Python blocks under root."""
    paths = [*sorted((root / "src" / "vehicle3d").glob("*.py")), *sorted((root / "demos").glob("*.py"))]
    sources = {path.name: path.read_text() for path in paths}
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    sources.update((f"README.md block {i}", block) for i, block in enumerate(blocks))
    calls, found = 0, []
    for where, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            calls += 1
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            names = [getattr(cls, "id", getattr(cls, "attr", "")) for cls in classes]
            found += [(where, node.lineno) for name in names if name.endswith("Error")]
    return calls, found


def test_no_exception_is_handled_as_a_value():
    """No `isinstance(value, <name ending in Error>)` in the package, the
    demos or README's code: a failure is raised, or kept as the message
    of an error column, never returned as an exception object for a
    caller to split out again."""
    calls, found = _error_isinstance_calls(Path(vehicle3d.__file__).resolve().parents[2])
    assert calls > 5  # the check reads the calls it is about
    assert found == []
