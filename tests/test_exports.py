"""Every exported name resolves, so a moved function leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

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
