"""The benchmark's tracer wraps qkcalc names from outside the package
(`perfbench/tracer.py`).  A refactor that removes or renames a wrapped name
must fail here instead of silently zeroing the benchmark's layer records."""

import ast
import glob
import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUN = """
import json, sys
from tracer import Tracer
from qkcalc import cli

tracer = Tracer()
tracer.install()
code = cli.main(sys.argv[1:])
print(json.dumps(tracer.summary()))
sys.exit(code)
"""


def _traced(*argv: str) -> dict:
    """Layer totals of one traced qkcalc command in a fresh process."""
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _traced_table(cache_dir, backend: str) -> dict:
    return _traced("table", "Gr(2,4)", "--backend=" + backend, f"--cache-dir={cache_dir}")


def test_tracer_installs_and_sees_a_modp_build(tmp_path):
    layers = _traced_table(tmp_path, "mod-p")
    assert layers["qkring.full_table.calls"] == 1
    assert layers.get("qkring.full_table.failed", 0) == 0
    # the mod-p solve runs in numpy, not through the scalar field
    assert layers["gamma.modp.mul.calls"] == 0


def test_tracer_sees_an_exact_build_without_group_ring_division(tmp_path):
    # the exact table is interpolated from the mod-p solve: no Montante
    # elimination, so no exact division through qkring
    layers = _traced_table(tmp_path, "exact")
    assert layers["qkring.full_table.calls"] == 1
    assert layers.get("qkring.full_table.failed", 0) == 0
    assert layers.get("gamma.exact_divide.calls", 0) == 0


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_tracer_sees_a_warm_product(tmp_path, backend):
    # a warm query reads its table from the cache; exact coefficients decode
    # through GammaElement.from_json_obj, so an alias of it bound at import
    # time would read 0 here
    _traced_table(tmp_path, backend)
    layers = _traced("product", "Gr(2,4)", "1", "1", "--backend=" + backend, f"--cache-dir={tmp_path}")
    assert layers["qkring.load_table.hits"] == 1
    # the tracer recomputes the cache path to size the file it read
    (path,) = glob.glob(os.path.join(tmp_path, "qk-*.json"))
    assert layers["qkring.load_table.bytes"] == os.path.getsize(path)
    assert layers.get("qkring.full_table.calls", 0) == 0
    if backend == "exact":
        assert layers["gamma.from_json.calls"] > 0


def test_benchmark_imports_from_qkcalc_resolve():
    # every `from qkcalc... import name` under perfbench/, also those inside
    # functions that run only in some modes (selfcheck's make_field, say)
    missing = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qkcalc":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module(f"{node.module}.{alias.name}")
                        except ImportError:
                            missing.append((os.path.basename(path), node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "qkcalc":
                        importlib.import_module(alias.name)
    assert missing == []
