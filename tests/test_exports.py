"""Every exported name resolves, so a moved function leaves no stale export."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polysl2


def test_all_names_resolve():
    names = ["polysl2"] + [
        f"polysl2.{info.name}" for info in pkgutil.iter_modules(polysl2.__path__)
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), name
        gone = [attr for attr in exported if not hasattr(module, attr)]
        if gone:
            missing[name] = gone
    assert not missing


def test_package_exports_the_union_of_module_apis():
    modules = ("algebra", "dynamics", "reference", "solver", "three_boson", "variational")
    union = set()
    for name in modules:
        module = importlib.import_module(f"polysl2.{name}")
        union.update(module.__all__)
        for attr in module.__all__:
            assert getattr(polysl2, attr) is getattr(module, attr)
    assert set(polysl2.__all__) == union


def test_no_module_imports_a_private_name_from_a_sibling():
    # what one module needs of another is public, in that module's __all__
    private = []
    for path in sorted(Path(polysl2.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "polysl2":
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private


SRC = str(Path(polysl2.__file__).resolve().parents[1])


def _fresh(script, *args):
    """stdout of script run in a new interpreter that imports this polysl2."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SPECTRUM_RUN = (
    "from polysl2 import cli\n"
    "args = ['spectrum', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
    "assert cli.main(args) == 0\n"
)


@pytest.mark.parametrize(
    "code",
    ["import polysl2", "import polysl2.cli", "from polysl2 import cli", SPECTRUM_RUN],
    ids=["package", "cli", "from-package-cli", "spectrum-run"],
)
def test_spectrum_path_never_loads_dynamics_or_reference(code, tmp_path):
    # a command imports only the modules it runs: the package, the CLI and a
    # spectrum run leave dynamics and reference unloaded
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "three_boson",
                "three_boson": {"omega1": 1.0, "omega2": 1.0, "omega3": 2.0, "g": 1.0},
                "blocks": {"ncut": 2},
            }
        )
    )
    script = (
        f"import json, sys\n{code}\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('polysl2.')]))\n"
    )
    loaded = json.loads(_fresh(script, str(cfg), str(tmp_path)).splitlines()[-1])
    assert "polysl2.dynamics" not in loaded and "polysl2.reference" not in loaded
    assert (tmp_path / "spectrum.csv").exists() == (code is SPECTRUM_RUN)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from polysl2 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(polysl2.__all__)


def test_dir_lists_every_export():
    assert set(polysl2.__all__) <= set(dir(polysl2))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polysl2.no_such_name
    assert not hasattr(polysl2, "no_such_name")


def test_readme_quick_start_runs_in_a_fresh_interpreter():
    readme = (Path(SRC).parent / "README.md").read_text()
    section = readme.split("## Library quick start")[1].split("\n## ")[0]
    snippets = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(snippets) == 2
    for snippet in snippets:
        _fresh(snippet)
