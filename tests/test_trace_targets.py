"""The benchmark tracer's targets resolve in bohreq, and uninstalling restores them.

`perfbench/tracer.py` wraps bohreq functions by name, so renaming or deleting
one of them would only show in traced benchmark runs; this test makes it a
suite failure instead.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bohreq

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every bohreq module namespace and the class namespaces the targets name."""
    modules = [bohreq] + [
        importlib.import_module(f"bohreq.{info.name}")
        for info in pkgutil.iter_modules(bohreq.__path__)
        if info.name != "__main__"
    ]
    classes = [cls for m in modules for cls in vars(m).values() if isinstance(cls, type)]
    return modules + classes


def test_every_target_is_wrapped_and_then_restored():
    tracer = _load_tracer()
    spaces = _namespaces()
    before = [dict(vars(space)) for space in spaces]
    t = tracer.Tracer()
    t.install()
    try:
        for module_name, attr in tracer.TARGETS:
            owner = importlib.import_module(f"bohreq.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), f"{module_name}.{attr} is not traced"
    finally:
        t.uninstall()
    for space, saved in zip(spaces, before):
        now = vars(space)
        changed = [key for key, value in saved.items() if now.get(key) is not value]
        assert not changed, f"{space.__name__}: {changed} not restored"
