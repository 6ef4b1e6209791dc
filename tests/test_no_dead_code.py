"""Every public function, class and method of the package has a user.

A definition in ``src/fockcorr`` counts as used when some module under
``src/``, ``tests/``, ``scripts/`` or ``perfbench/`` names it outside its
own body: as a name, an attribute, an import or a string constant (the
last covers ``getattr`` and monkeypatching by name).  A name that occurs
anywhere counts for every definition of that name, so the check can miss
dead code but does not flag live code.  Leaving ``tests/`` out, every
definition still has a user but those of one table (``TEST_ONLY``): code
that only tests use lives under ``tests/``.

A few names and string constants are also kept inside the modules that
own them (``CONFINED``).
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(node):
    """Counter of the names ``node`` refers to."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def parsed(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unreferenced(scanned=SCANNED):
    """The public definitions of the package that no module under the
    ``scanned`` directories names outside their own bodies."""
    used = Counter()
    for _, tree in parsed(scanned):
        used += references(tree)
    dead = []
    for path, tree in parsed(["src/fockcorr"]):
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                if used[node.name] - references(node)[node.name] <= 0:
                    dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return dead


def test_every_public_definition_is_referenced():
    assert unreferenced() == []


# the public definitions whose only users are tests, each with the reason it
# stays in the package
TEST_ONLY = {
    "fundamental_weight_label": "the one reader of label.det, kept until it is "
                                "settled whether the det partners separate",
    "enumerate_states": "the oracle's per-state definition, which its tests sum",
    "eigenvalue": "the oracle's per-state definition, which its tests sum",
    "frobenius": "acceptance criterion 8 checks the Frobenius round trip",
    "osp_to_sym": "acceptance criterion 8 checks the odd-strict-partition bijection",
    "run_all": "the suite entry point that perfbench/README.md names",
}


def test_no_public_definition_serves_only_the_tests():
    # a definition only tests use belongs with the tests, unless TEST_ONLY
    # says why it stays; an entry that gains a user, or is gone, is stale
    test_only = {entry.rsplit(" ", 1)[1]
                 for entry in unreferenced(("src", "scripts", "perfbench"))}
    assert test_only == set(TEST_ONLY)


# the modules of the package that may name each of these: the exact
# rational-function coefficient stays inside its rings, theta (1/Theta
# included) inside the correlator builders, rho inside the Weyl groups and
# the characters that read it, and the Howe duality table (a label set's
# group family and multiplicity) inside the identities, and each sector's
# vacuum inside the correlator builders (the oracle derives its vacuum
# energies from its modes, an independent route).  A quoted key is a
# string constant: the Fock sectors are spelled once, as qseries.NS and
# qseries.RAMOND, and in no other way
CONFINED = {
    "RationalFunction": {"laurent.py", "qseries.py"},
    "theta_at": {"correlators.py"},
    "inv_theta_at": {"correlators.py"},
    "theta_k": {"correlators.py"},
    "rho": {"weyl.py", "characters.py"},
    "DUALITY": {"identities.py"},
    "VACUUM": {"correlators.py"},
    "'ns'": {"qseries.py"},
    "'r'": {"qseries.py"},
    "'NS'": set(),
    "'R'": set(),
    "'int'": set(),
    "'half'": set(),
}


def test_exact_forms_stay_in_their_modules():
    stray = {}
    for path, tree in parsed(["src/fockcorr"]):
        named = references(tree)
        named.update(node.name for node in ast.walk(tree) if isinstance(node, DEFS))
        named.update(repr(node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
        for name, allowed in CONFINED.items():
            if named[name] and path.name not in allowed:
                stray.setdefault(name, []).append(path.name)
    assert stray == {}


def package_imports(module):
    """The package modules that ``module`` imports, directly or through
    other package modules (``from .x import ...`` and ``from . import x``)."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((ROOT / "src" / "fockcorr" / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo += [node.module] if node.module else [a.name for a in node.names]
    return seen - {module}


def test_the_oracle_imports_no_closed_form_module():
    # the oracle is the independent route every closed formula is checked
    # against, so neither it nor what it imports may reach the closed forms;
    # the Fock sums enumerate the oracle's states by their own code, so
    # neither of the two reaches the other
    closed = {"correlators", "weyl", "characters"}
    for module, other in (("fock_oracle", "fock_sums"), ("fock_sums", "fock_oracle")):
        reached = package_imports(module)
        assert "qseries" in reached
        assert reached.isdisjoint(closed | {other})
    assert {"correlators", "weyl", "fock_sums"} <= package_imports("identities")
