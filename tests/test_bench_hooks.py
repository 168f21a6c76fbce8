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

from qkcalc.poset import build_cominuscule
from qkcalc.qkring import full_table

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


def test_warm_exact_product_decodes_one_column(tmp_path):
    # an exact query decodes only the product it prints, mats[v][:, :, u]:
    # of its (D+1) k coefficients, not M_v's (D+1) k^2 or the table, only the
    # nonzero ones go through from_json_obj; a zero is the table's shared zero
    _traced_table(tmp_path, "exact")
    layers = _traced("product", "Gr(2,4)", "1", "2,1", "--backend=exact", f"--cache-dir={tmp_path}")
    assert layers["qkring.load_table.hits"] == 1
    poset = build_cominuscule("Gr(2,4)")
    mats = full_table(poset).mats
    D, k = 4, 6  # Gr(2,4): qmax = d_max + 2 = 4, six classes
    assert mats.shape == (k, D + 1, k, k)
    u, v = poset.index_of(poset.parse_shape("1")), poset.index_of(poset.parse_shape("2,1"))
    printed = sum(not x.is_zero() for x in mats[v, :, :, u].flat)
    assert 0 < layers["gamma.from_json.calls"] == printed < sum(not x.is_zero() for x in mats[v].flat)


def test_tracer_sees_the_probe(tmp_path):
    # the per-layer evidence for the probe's cost is this one span
    layers = _traced("verify", "Q(4)", "--suite=probe", f"--cache-dir={tmp_path}")
    assert layers["cohomology.conjecture_probe.calls"] == 1


def test_tracer_sees_backend_agreement(tmp_path):
    # one span for all four mod-p tables of an exact table suite
    layers = _traced("verify", "Q(4)", "--suite=table", "--backend=exact", f"--cache-dir={tmp_path}")
    assert layers["qkring.modp_tables.calls"] == 1


def test_tracer_sees_the_modp_table_checks(tmp_path):
    # the per-layer evidence for modp-build's verify_s is these two spans
    layers = _traced("verify", "Gr(2,4)", "--suite=table", "--backend=mod-p", f"--cache-dir={tmp_path}")
    assert layers["qkring.verify_ms_equations.calls"] == 1
    assert layers["qkring.verify_associativity.calls"] == 1


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
