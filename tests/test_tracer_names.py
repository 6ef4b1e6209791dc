"""Every span name the benchmark tracer reports on still names a fockcorr
entry point.

``perfbench/tracer.py`` wraps each layer's public functions and methods
from outside the package and reads its metrics off fixed span names such as
``correlators.eps_inner_sum``.  A renamed or moved function would leave
such a metric at zero without any error, so this test reads the name
tables of ``tracer.py`` (without importing or changing it) and resolves
each name the way the tracer finds its entry points: ``layer.function`` is
a function defined in ``fockcorr.<layer>``, and ``layer.Class.method`` is a
method in that class's own namespace.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
TABLES = ("INCLUSIVE", "CALL_METRICS", "ARG_HOOKS", "RESULT_HOOKS", "ERROR_HOOKS")


def _span_names():
    """(table, span name) for every name in the tracer's name tables."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in TABLES:
                found[target.id] = node.value
    assert set(found) == set(TABLES), "a name table is missing from tracer.py"
    out = []
    for table, value in found.items():
        if isinstance(value, ast.Dict):
            names = [k.value for k in value.keys]
            if table == "CALL_METRICS":
                names = [n for v in value.values for n in ast.literal_eval(v)]
        else:
            names = ast.literal_eval(value)
        out += [(table, name) for name in names]
    return out


def _unresolved(name):
    """Why ``name`` names no entry point the tracer would wrap, or None."""
    layer, attr, *method = name.split(".")
    module = importlib.import_module(f"fockcorr.{layer}")
    obj = vars(module).get(attr)
    if obj is None:
        return f"fockcorr.{layer} has no {attr}"
    if getattr(obj, "__module__", None) != module.__name__:
        return f"{attr} is not defined in fockcorr.{layer}"
    if not method:
        return None if callable(obj) else f"{attr} is not callable"
    if len(method) != 1 or not isinstance(obj, type) or method[0] not in vars(obj):
        return f"{layer}.{attr} does not define {'.'.join(method)}"
    return None


def test_every_traced_name_resolves():
    names = _span_names()
    assert len(names) > 20
    bad = [f"{table}: {name}: {why}" for table, name in names
           if (why := _unresolved(name)) is not None]
    assert bad == []
