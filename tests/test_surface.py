"""The benchmark, the README and the installed ``tomoflow`` command drive
tomoflow by name: keep those names resolvable, and keep the calls per
objective evaluation that the benchmark pins. Every name a tomoflow
module or a ``tools/`` script imports is used, and ``import tomoflow``
loads no scipy subpackage that the package does not use.

``perfbench/worker.py`` and the README call the library as ``tf.X``,
``perfbench/tracer.py`` times the ``(module, function)`` pairs in
``TRACED`` and ``perfbench/test_perfbench.py`` pins their calls per
evaluation in ``EXPECTED_PER_EVAL``. These files are only read here,
never imported.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tomoflow
from conftest import gaussian_blob

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(tomoflow.__file__).resolve().parent
TOOLS = Path(__file__).resolve().parents[1] / "tools"
# tomoflow modules by file name, tools scripts as tools/NAME
MODULES = {p.name: p for p in SRC.glob("*.py")} | {f"tools/{p.name}": p for p in TOOLS.glob("*.py")}


def perfbench_constant(filename, name):
    """The literal assigned to ``name`` at the top level of a perfbench file."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    )


def test_worker_names_are_exported():
    """Every ``tf.X`` in the worker and in the README's code blocks is in
    ``tomoflow.__all__``."""
    code_blocks = re.findall(r"^```\w*\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    readme_code = "".join(code_blocks)
    for source in ((PERFBENCH / "worker.py").read_text(), readme_code):
        names = set(re.findall(r"\btf\.([A-Za-z_]\w*)", source))
        assert names, "no tf.X calls found"
        assert sorted(n for n in names if n not in tomoflow.__all__) == []


def test_console_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"tomoflow": "tomoflow.cli:main"}
    module, _, name = scripts["tomoflow"].partition(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_traced_pairs_resolve_to_callables():
    traced = perfbench_constant("tracer.py", "TRACED")
    assert traced
    missing = [
        f"{mod}.{fn}" for mod, fn in traced
        if not callable(getattr(importlib.import_module(f"tomoflow.{mod}"), fn, None))
    ]
    assert missing == []


def count_calls(monkeypatch, keys):
    """Count the calls of each ``module.function`` in keys, wrapping it under
    every name bound to it in every loaded tomoflow module, as the tracer does."""
    counts = dict.fromkeys(keys, 0)
    for key in keys:
        mod_name, fn_name = key.split(".")
        original = getattr(importlib.import_module(f"tomoflow.{mod_name}"), fn_name)

        def counted(*args, _key=key, _fn=original, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        loaded = [m for name, m in list(sys.modules.items())
                  if name == "tomoflow" or name.startswith("tomoflow.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("action", list(tomoflow.GroupAction))
def test_calls_per_evaluation_match_the_benchmark_pins(action, monkeypatch):
    expected = perfbench_constant("test_perfbench.py", "EXPECTED_PER_EVAL")
    grid = tomoflow.Grid2D(16, 16)
    geom = tomoflow.make_parallel_geometry(grid, 4, 24)
    template = gaussian_blob(grid, cx=-2.0, width=3.0)
    data = tomoflow.ray_transform(gaussian_blob(grid, cx=2.0, width=3.0), geom)
    cfg = tomoflow.RegistrationConfig(gamma=1e-7, sigma=2.0, alpha=0.02, n_steps=20, max_iters=2,
                                      action=action)
    counts = count_calls(monkeypatch, list(expected))
    tomoflow.register(template, data, geom, cfg)
    evals = counts["objective.evaluate_objective"]
    assert evals == cfg.max_iters + 1
    assert {key: n / evals for key, n in counts.items()} == expected


def unused_imports(source):
    """Names a module imports but never loads. Names in string annotations
    and ``__all__`` entries count as used."""
    tree = ast.parse(source)
    quoted = [
        ast.parse(node.value, mode="eval")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier()
    ]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for root in [tree, *quoted] for node in ast.walk(root) if isinstance(node, ast.Name)}
    used |= {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nimport e.f\nd()\n") == ["b", "e", "os"]
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from .x import Y\ndef f(a: 'Y'): pass\n") == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text()) == []


def test_import_loads_no_unused_scipy_subpackage():
    """``import tomoflow`` in a fresh process loads only the scipy
    subpackages it uses; scipy.signal alone would pull in the rest."""
    unused = ["scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate", "scipy.linalg", "scipy.ndimage",
              "scipy.fft", "scipy.special"]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tomoflow; "
        f"print(sorted(m for m in {unused!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent)], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
