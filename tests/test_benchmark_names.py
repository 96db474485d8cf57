"""The benchmark in perfbench/ reaches moelab by name: its workloads call
``ml.<layer>.<name>``, the sweep workloads time their rows by the span names
in ``SweepWorkload.hooks``, and ``tracer.layer_metrics`` reads its per-layer
figures from span names.  A renamed function makes a workload fail at run
time or, for a span name, silently reads as 0; these tests fail instead.
The perfbench files are only read here, never changed."""

import ast
import inspect
import sys
from pathlib import Path

import moelab  # noqa: F401  (imports every layer, as perfbench/run.py does)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def layer_metric_spans() -> set:
    """The span names ``layer_metrics`` reads: its "<layer>.<name>" strings
    that are not keys of the metrics dict it returns."""
    tree = ast.parse(inspect.getsource(tracer.layer_metrics))
    keys = {id(k) for node in ast.walk(tree) if isinstance(node, ast.Dict) for k in node.keys}
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys
        and node.value.split(".")[0] in tracer.LAYERS
    }


def workload_names() -> set:
    """(layer, name) of every ``<layer>.<name>`` the workloads look up, where
    the layer is reached as ``ml.<layer>``, ``self.ml.<layer>`` or a local
    alias of one of those."""
    tree = ast.parse(Path(workloads.__file__).read_text())

    def layer_of(node):
        if isinstance(node, ast.Attribute) and node.attr in tracer.LAYERS:
            root = node.value
            if isinstance(root, ast.Name) and root.id == "ml":
                return node.attr
            if isinstance(root, ast.Attribute) and root.attr == "ml" and isinstance(root.value, ast.Name):
                return node.attr
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        return None

    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            layer = layer_of(node.value)
            if layer is not None:
                aliases[node.targets[0].id] = layer
    return {(layer_of(node.value), node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and layer_of(node.value) is not None}


def test_traced_span_names_are_public_functions():
    spans = layer_metric_spans() | set(workloads.SweepWorkload.hooks) | {workloads.SweepWorkload.row_start}
    assert {"em.fit", "metrics.loss_d2", "polysys.residual", "experiments.run_sweep"} <= spans
    public = tracer.public_functions()
    assert sorted(spans - set(public)) == []


def test_called_names_exist_in_their_layers():
    names = workload_names()
    assert {("experiments", "run_sweep"), ("metrics", "loss_d1"), ("polysys", "search_nontrivial"),
            ("partition", "positive_mass_subsets"), ("model", "true_measure")} <= names
    public = tracer.public_functions()
    missing = []
    for layer, name in sorted(names):
        obj = getattr(sys.modules[f"moelab.{layer}"], name, None)
        if not (inspect.isclass(obj) or f"{layer}.{name}" in public):
            missing.append(f"{layer}.{name}")
    assert missing == []
