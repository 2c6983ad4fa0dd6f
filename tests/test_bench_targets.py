"""Every function the benchmark tracer (bench/spans.py) wraps by name exists
in the package, so a rename fails here instead of silently dropping the
per-layer metrics that need it.  spans.py is parsed, not imported."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _assigned_literals(path, names):
    """The literal values assigned at module level to names in path."""
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    return values


def test_every_wrap_target_resolves_in_the_package():
    # the tracer looks each attribute up in the owner's own namespace: the
    # module, or for "Class.method" the class
    lists = _assigned_literals(SPANS, {"SPAN_TARGETS", "COUNT_TARGETS"})
    targets = [entry[:2] for name in ("SPAN_TARGETS", "COUNT_TARGETS")
               for entry in lists[name]]
    assert len(targets) > 20
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(f"selffield.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = vars(owner).get(owner_name)
        if not callable(vars(owner).get(method) if owner is not None else None):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
