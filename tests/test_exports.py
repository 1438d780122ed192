"""Every exported name resolves, so a moved function leaves no stale export."""

import importlib
import pkgutil

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
