"""Public surface that nothing needs goes: every public function, class and
method a moelab module defines is referenced by name in the library, its CLI
or the benchmark harness (``perfbench/``, without its tests), or is listed in
``TEST_FACING`` with the reason it stays.  A name only tests call fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "moelab").glob("*.py") if p.name != "__init__.py")
USERS = MODULES + sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

TEST_FACING = {
    "model.expert_log_density_matrix": "perfbench/tracer.py reads its span by name until benchmark v2",
    "model.log_joint": "the documented (k, n[, m]) joint; EM's scoring and Hellinger's gathered form are "
                       "pinned against it",
    "em.gating_surrogate": "acceptance criterion 9 checks the gating surrogate's gradients",
    "em.gating_gradients": "acceptance criterion 9 checks them against central differences",
    "metrics.two_gaussian_hellinger": "acceptance criterion 9's closed-form Hellinger reference",
    "metrics.assign_voronoi": "acceptance criteria 3 and 6 read the Voronoi cells",
    "experiments.rescore_rows": "acceptance criteria 2 and 5 rescore sweep rows",
    "experiments.sweep_config_to_text": "the sweep config parser's round-trip property",
}


def public_definitions():
    """'module.name' and 'module.Class.method' of every public definition."""
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    yield from (f"{path.stem}.{node.name}.{sub.name}" for sub in node.body
                                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))


def referenced_names():
    """Every identifier read as a name or an attribute in ``USERS``."""
    names = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_user():
    used = referenced_names()
    unused = [name for name in public_definitions() if name.rpartition(".")[2] not in used]
    assert sorted(set(unused) - set(TEST_FACING)) == []


def test_test_facing_list_is_current():
    # every listed name still exists and still has no user; one that gained a
    # user leaves the list
    used = referenced_names()
    assert set(TEST_FACING) <= set(public_definitions())
    assert [name for name in TEST_FACING if name.rpartition(".")[2] in used] == []
