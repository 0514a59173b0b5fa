"""Package hygiene: modules reach each other through public names only."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import spreadmi
import spreadmi.optimality

PACKAGE = pathlib.Path(spreadmi.__file__).parent


def private_imports(path):
    """``(line, name)`` of every underscore name that ``path`` imports from
    the package, relatively or by its absolute name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "spreadmi")
            for alias in node.names if alias.name.startswith("_")]


def test_all_lists_exactly_the_public_names():
    """A name removed from a module but left in ``__all__`` fails here, and
    so does a public import that ``__all__`` does not list."""
    public = [name for name, value in vars(spreadmi).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(spreadmi.__all__) == sorted(public)


def test_no_module_imports_a_private_name_of_a_sibling():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := private_imports(path))}
    assert found == {}


TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    """``(module, attribute)`` of each entry of the benchmark tracer's
    ``TARGETS``, read from its source without importing it."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


@pytest.mark.skipif(not TRACER.exists(), reason="no benchmark tree next to src/")
def test_benchmark_tracer_targets_resolve():
    """The benchmark wraps these module attributes and reads the solve
    cache's statistics; a rename would break its traced runs."""
    targets = tracer_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert callable(spreadmi.optimality._mi_solution.cache_info)


@pytest.mark.skipif(not TRACER.exists(), reason="no benchmark tree next to src/")
def test_benchmark_traced_child_runs_simulate(tmp_path):
    """A traced benchmark repetition of a small ``simulate`` exits cleanly
    and records one Monte Carlo span per matrix, whose attribute the
    tracer reads from the call's arguments and result."""
    src = PACKAGE.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER.parent / "child.py"), str(result), str(src),
         "1", "--", "simulate", "--K", "4", "--L", "2", "--prior", "binary",
         "--sigma2-grid", "0.5:1:3", "--n-samples", "1000", "--seed", "1",
         "--out", "sim.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["exit_code"] == 0
    attrs = [attr for name, _, _, _, attr in run["spans"]
             if name == "montecarlo.exact_mutual_information"]
    assert attrs == [[4, 2, 2, 1000]] * 2
