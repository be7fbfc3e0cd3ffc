"""The benchmark drives tomoflow by name: keep those names resolvable.

``perfbench/worker.py`` calls the library as ``tf.X`` and
``perfbench/tracer.py`` times the ``(module, function)`` pairs in
``TRACED``. Both files are only read here, never imported.
"""

import ast
import importlib
import re
from pathlib import Path

import tomoflow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_worker_names_are_exported():
    names = set(re.findall(r"\btf\.([A-Za-z_]\w*)", (PERFBENCH / "worker.py").read_text()))
    assert names, "no tf.X calls found in the worker"
    assert sorted(n for n in names if n not in tomoflow.__all__) == []


def test_traced_pairs_resolve_to_callables():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    assert traced
    missing = [
        f"{mod}.{fn}" for mod, fn in traced
        if not callable(getattr(importlib.import_module(f"tomoflow.{mod}"), fn, None))
    ]
    assert missing == []
