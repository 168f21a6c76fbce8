import hashlib
import json
import os
import shlex
import subprocess
import sys
from itertools import accumulate

import numpy as np
import pytest

from qkcalc import cli, qkring, store
from qkcalc.chevalley import sgamma_star
from qkcalc.gamma import QPolynomial
from qkcalc.poset import build_cominuscule


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _exact_file(head: dict, cols: list) -> bytes:
    """An exact cache file of a header and the JSON of its columns M_v."""
    lines = [json.dumps(col).encode() + b"\n" for col in cols]
    head = dict(head, columns=list(accumulate(map(len, lines), initial=0)))
    return json.dumps(head).encode() + b"\n" + b"".join(lines)


def test_describe_text(capsys):
    code, out, _ = run(capsys, "describe", "Gr(2,4)")
    assert code == 0
    assert "Gr(2,4)" in out and "6" in out


def test_describe_json(capsys):
    code, out, _ = run(capsys, "describe", "LG(3,6)", "--format=json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classes"] == 8
    assert obj["d_max"] == 3
    assert obj["fano_index"] == 4
    assert "3,2,1" in obj["shapes"]


def test_chevalley_latex(capsys):
    code, out, _ = run(capsys, "chevalley", "Gr(3,7)", "4,3,1", "--format=latex")
    assert code == 0
    assert "\\mathcal O" in out and "\\varepsilon_{7}" in out
    assert "\\star" in out
    # eight terms in the divisor product
    assert out.count("{\\mathcal O}^{(") >= 16


def _python(code: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter on this checkout's package; a hang
    fails as subprocess.TimeoutExpired instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qkring.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def test_exceptional_latex_names_simple_roots():
    # E6 and E7 weights have no epsilon coordinates: simple-root symbols
    for space, root in (("E6", "\\alpha_{6}"), ("E7", "\\alpha_{7}")):
        proc = _python(
            "from qkcalc.cli import main; raise SystemExit(main())",
            "chevalley", space, "[0]", "--format=latex",
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert root in proc.stdout


FORMAT_SWEEP = """
import contextlib, io, json
from qkcalc import cli

failed = []
for space in ("Gr(2,4)", "LG(3,6)", "OG(4,8)", "Q(5)", "Q(6)", "E6", "E7"):
    for argv in (["describe", space], ["chevalley", space, "[0]"], ["dual", space, "[0]"], ["nbhd", space, "[0]", "1"]):
        for fmt in ("text", "latex", "json"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--format=" + fmt])
            if code:
                failed.append([*argv, fmt, code])
print(json.dumps(failed))
"""


def test_every_family_renders_in_every_format():
    # one space per family; takes well under a second unless a renderer hangs
    proc = _python(FORMAT_SWEEP, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


NUMPY_FREE = """
import contextlib, io, json, sys

seen = []

def loaded(label):
    seen.append([label, "numpy" in sys.modules, "qkcalc.qkring" in sys.modules])

import qkcalc
loaded("import qkcalc")
from qkcalc import cli
loaded("import qkcalc.cli")
warm = f"--cache-dir={sys.argv[1]}"
commands = [
    ["describe", "E6"], ["dual", "Gr(2,4)", "1"], ["nbhd", "Gr(2,4)", "1", "1"], ["chevalley", "Gr(2,4)", "1"],
    ["product", "Gr(2,4)", "1", "2,1", "--backend=exact", warm],
    ["product", "Gr(2,4)", "1", "2,1", "--backend=exact", "--format=json", warm],
    ["product", "Gr(2,4)", "1", "2,1", "--backend=exact", "--format=latex", warm],
    ["product", "Gr(2,4)", "1", "2,1", "--backend=mod-p", warm],
    ["product", "Gr(2,4)", "1", "2,1", "--backend=mod-p", "--format=json", warm],
    ["product", "Gr(2,4)", "1", "1", warm],
    ["table", "P1", f"--cache-dir={sys.argv[2]}"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv):
            raise SystemExit(f"{argv} failed")
    loaded(" ".join(argv[:2] + argv[4:5]))
print(json.dumps(seen))
"""


def test_cache_answers_and_poset_commands_load_no_numpy(capsys, tmp_path):
    # neither numpy nor the solver loads until a command needs a table that
    # the cache does not hold
    for backend in ("exact", "mod-p"):
        assert run(capsys, "table", "Gr(2,4)", f"--backend={backend}", f"--cache-dir={tmp_path / 'warm'}")[0] == 0
    proc = _python(NUMPY_FREE, str(tmp_path / "warm"), str(tmp_path / "cold"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 13 and seen[-1] == ["table P1", True, True]
    assert [s for s in seen[:-1] if s[1] or s[2]] == []


def test_product_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "product",
        "LG(2,4)",
        "1",
        "1",
        "--format=json",
        f"--cache-dir={tmp_path}",
    )
    assert code == 0
    obj = json.loads(out)
    poset = build_cominuscule("LG(2,4)")
    got = {mask: QPolynomial.from_json_obj(p) for mask, p in obj["product"]}
    u = poset.parse_shape("1")
    want = sgamma_star(poset, u.mask)
    D = max(p.degree() for p in want.values())
    assert {m: p.truncate(D) for m, p in got.items()} == want


def test_byte_identical_reruns(capsys, tmp_path):
    args = ("chevalley", "LG(3,6)", "2,1", "--format=json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(capsys, "table", "P1")
    assert code == 0
    files = list(tmp_path.glob("qk-*.json"))
    assert len(files) == 1
    # second run hits the cache and prints the same summary
    code2, out2, _ = run(capsys, "table", "P1")
    assert code2 == 0 and out2 == out


def test_verify_lg_oracle_exit_zero(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "LG(3,6)", "--suite=lg-oracle", f"--cache-dir={tmp_path}"
    )
    assert code == 0
    assert "lg-oracle" in out and "pass" in out


LG_ORACLE_ON = """
import sys
from qkcalc.cli import main
code = main(["verify", sys.argv[1], "--suite=lg-oracle", "--cache-dir=" + sys.argv[2]])
print(code, "qkcalc.oracles" in sys.modules)
"""


@pytest.mark.parametrize("space, shown", [("P1", "Gr(1,2)"), ("Gr(2,4)", "Gr(2,4)")])
def test_verify_lg_oracle_on_another_space_is_a_usage_error(tmp_path, space, shown):
    # exit 2, not the exit 1 of a failed check, and refused before the
    # oracles module is imported
    proc = _python(LG_ORACLE_ON, space, str(tmp_path), timeout=60)
    assert proc.stdout.split() == ["2", "False"]
    assert proc.stderr == f"error: NotLG: {shown} is not a Lagrangian Grassmannian\n"



NO_MASKED_ARRAYS = """
import contextlib, io, sys
from qkcalc import cli
if "numpy.ma" in sys.modules:
    print("loaded on import")
    raise SystemExit
for space in ("P1", "Q(3)"):
    for argv in (["table", space], ["verify", space, "--suite=all"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--cache-dir", sys.argv[1]]) == 0
print("numpy.ma" in sys.modules)
"""


def test_verify_paths_never_import_masked_arrays(tmp_path):
    # numpy 2.x imports numpy.ma lazily, at a cost of about 10 ms per process;
    # numpy 1.x loads it with numpy itself
    proc = _python(NO_MASKED_ARRAYS, str(tmp_path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "loaded on import":
        pytest.skip("this numpy loads numpy.ma on import")
    assert proc.stdout.strip() == "False"

def test_verify_detects_corrupt_table(capsys, tmp_path):
    code, _, _ = run(capsys, "table", "Q(3)", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    head, lines = path.read_bytes().split(b"\n", 1)
    cols = [json.loads(line) for line in lines.splitlines()]
    # flip the first nonzero coefficient found in the stored matrices
    def corrupt(node):
        if isinstance(node, dict) and "terms" in node and node["terms"]:
            node["terms"][0][1] += 1
            return True
        if isinstance(node, list):
            return any(corrupt(x) for x in node)
        return False

    assert corrupt(cols)
    path.write_bytes(_exact_file(json.loads(head), cols))
    code, out, _ = run(
        capsys, "verify", "Q(3)", "--suite=table", f"--cache-dir={tmp_path}"
    )
    assert code == 1
    assert "fail" in out


def test_dual_and_nbhd(capsys):
    code, out, _ = run(capsys, "dual", "Gr(2,4)", "2,1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "nbhd", "Gr(2,4)", "1", "1")
    assert code == 0 and out.strip() == "2,2"
    code, out, _ = run(capsys, "nbhd", "Gr(2,4)", "2,2", "--", "-1")
    assert code == 0 and out.strip() == "1"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "describe", "Gr(9,2)")[0] == 2
    assert run(capsys, "chevalley", "Gr(2,4)", "5,5")[0] == 2
    assert run(capsys, "frobnicate", "Gr(2,4)")[0] == 2
    assert run(capsys)[0] == 2


def test_version_flag(capsys):
    code = cli.main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert "qkcalc" in out


def test_small_qmax_retries(capsys, tmp_path):
    code, out, _ = run(
        capsys, "product", "P1", "1", "1", "--qmax=2", f"--cache-dir={tmp_path}"
    )
    assert code == 0
    assert "q O^(0)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "P1", "1", "1", "--qmax=1"),
        ("product", "P1", "1", "1", "--qmax=-3"),
        ("table", "P1", "--qmax=0"),
    ],
)
def test_qmax_below_two_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    builds = count_builds(monkeypatch)
    code, out, err = run(capsys, *argv, f"--cache-dir={tmp_path}")
    assert code == 2
    assert "truncation must be at least 2" in err
    assert out == "" and builds == [] and not list(tmp_path.iterdir())


def count_builds(monkeypatch):
    """Record the truncation of every table build the CLI starts."""
    seen = []
    build = cli.full_table

    def counted(poset, D=None, backend="exact"):
        seen.append(D)
        return build(poset, D=D, backend=backend)

    monkeypatch.setattr(cli, "full_table", counted)
    return seen


@pytest.mark.parametrize("space", ["P1", "Gr(2,4)", "Q(5)"])
def test_table_builds_once_at_degree_bound(capsys, tmp_path, monkeypatch, space):
    builds = count_builds(monkeypatch)
    code, out, _ = run(capsys, "table", space, f"--cache-dir={tmp_path}")
    qmax = build_cominuscule(space).d_max + 2
    assert code == 0
    assert builds == [qmax]
    assert f"qmax={qmax}," in out


def test_fallback_rung_is_served_from_cache(capsys, tmp_path, monkeypatch):
    builds = count_builds(monkeypatch)
    argv = ("product", "P1", "1", "1", "--qmax=2", f"--cache-dir={tmp_path}")
    code, first, _ = run(capsys, *argv)
    # q-degree 1 reaches layer D-1 at D=2, so the build starts from D=4
    assert code == 0 and builds == [4]
    code, second, err = run(capsys, *argv)
    assert code == 0 and builds == [4]
    assert second == first and err == ""


def test_output_does_not_depend_on_other_cached_truncations(capsys, tmp_path):
    # the truncation follows from the space and --qmax alone, so a table
    # cached at another truncation answers no query
    cache = f"--cache-dir={tmp_path}"
    assert run(capsys, "table", "Gr(2,4)", "--qmax=8", cache)[0] == 0
    code, out, err = run(capsys, "table", "Gr(2,4)", cache)
    assert code == 0 and "qmax=4," in out and err == ""
    argv = ("product", "Gr(2,4)", "1", "1", "--backend=mod-p")
    clean = run(capsys, *argv, f"--cache-dir={tmp_path / 'clean'}")
    assert run(capsys, "table", "Gr(2,4)", "--backend=mod-p", "--qmax=8", cache)[0] == 0
    assert run(capsys, *argv, cache) == clean


# points of the exact interpolation grid, the product of table_degrees + 1
REFUSED_GRIDS = {
    "E7": 51593338720,
    "Gr(4,8)": 5817825,
    "OG(6,12)": 3902976,
    "LG(5,10)": 691600,
    "Q(17)": 198359290368,
    "E6": 17751825,
    "Gr(3,7)": 163800,
    "Gr(3,6)": 7840,
    "LG(4,8)": 11616,
    "OG(5,10)": 45045,
    "Gr(1,8)": 40320,
}


@pytest.mark.parametrize("space", list(REFUSED_GRIDS))
def test_exact_build_is_refused_before_any_solve(capsys, tmp_path, monkeypatch, space):
    # the grid is known before any work, so a refusal builds no solver and
    # states the grid's real size
    def refuse(*args):
        raise AssertionError("a solve started before the refusal")

    monkeypatch.setattr(qkring, "_ModPSolver", refuse)
    code, out, err = run(capsys, "table", space, "--backend=exact", f"--cache-dir={tmp_path}")
    assert code == 1 and out == ""
    assert f"needs a grid of {REFUSED_GRIDS[space]} points; use the mod-p backend" in err


def test_truncated_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch):
    code, _, _ = run(capsys, "table", "P1", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    good = path.read_text()
    path.write_text(good[: len(good) // 2])
    builds = count_builds(monkeypatch)
    code, out, err = run(capsys, "product", "P1", "1", "1", f"--cache-dir={tmp_path}")
    assert code == 0 and "q O^(0)" in out
    assert err.count("\n") == 1 and "warning" in err and path.name in err
    assert builds == [3]
    assert path.read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _read_only_product(capsys, tmp_path, monkeypatch, *argv):
    ro = tmp_path / "ro"
    ro.mkdir()
    ro.chmod(0o555)
    if os.geteuid() == 0:
        # root ignores mode bits: fail the write the way the kernel would
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(ro))

        monkeypatch.setattr(store.tempfile, "mkstemp", denied)
    code, out, err = run(capsys, "product", *argv, f"--cache-dir={ro}")
    assert code == 0
    assert "warning" in err and "not cached" in err
    assert list(ro.iterdir()) == []
    return out


def test_read_only_cache_dir_still_answers(capsys, tmp_path, monkeypatch):
    out = _read_only_product(capsys, tmp_path, monkeypatch, "P1", "1", "1")
    assert "q O^(0)" in out


@pytest.mark.parametrize("damage", ["no-masks", "directory"])
def test_malformed_cache_file_is_a_warned_miss(capsys, tmp_path, monkeypatch, damage):
    # a decodable header without a field, or no file at all, is rebuilt
    code, _, _ = run(capsys, "table", "P1", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    if damage == "no-masks":
        head, payload = path.read_bytes().split(b"\n", 1)
        obj = json.loads(head)
        del obj["masks"]
        path.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    else:
        path.unlink()
        path.mkdir()
    builds = count_builds(monkeypatch)
    code, out, err = run(capsys, "product", "P1", "1", "1", f"--cache-dir={tmp_path}")
    assert code == 0 and "q O^(0)" in out
    assert "ignoring unreadable cache file" in err and builds == [3]
    code, again, _ = run(capsys, "product", "P1", "1", "1", f"--cache-dir={tmp_path}")
    assert code == 0 and again == out


# mod-p output of `product Gr(2,6) 1 2`, recorded when mod-p tables were still
# nested lists of Python ints: an int64 array must print the same digits
GR26_ASSIGNMENT = [318664915, 1510685161, 1301240610, 385068716, 635342210]
GR26_BACKEND = {"kind": "mod-p", "rank": 5, "p": 2147483647, "assignment": GR26_ASSIGNMENT}
GR26_PRODUCT = [
    [3, [1748361873, 0, 0, 0, 0]],
    [7, [399121775, 0, 0, 0, 0]],
    [19, [399121775, 0, 0, 0, 0]],
    [23, [1748361872, 0, 0, 0, 0]],
]
GR26_TEXT = (
    f"# mod-p table {GR26_BACKEND}\n"
    "O^(2): [1748361873, 0, 0, 0, 0]\n"
    "O^(3): [399121775, 0, 0, 0, 0]\n"
    "O^(2,1): [399121775, 0, 0, 0, 0]\n"
    "O^(3,1): [1748361872, 0, 0, 0, 0]\n"
)
GR26_TABLE_JSON_SHA256 = "1a4359f1024e22a2b983a76ab0136bacd50b69d7c21b745d480685dff443e9a7"


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_modp_product_output_is_pinned(capsys, tmp_path, fmt):
    code, out, err = run(capsys, "product", "Gr(2,6)", "1", "2", "--backend=mod-p", f"--format={fmt}", f"--cache-dir={tmp_path}")
    assert code == 0 and err == ""
    if fmt == "json":
        want = {"backend": GR26_BACKEND, "product": GR26_PRODUCT, "space": "Gr(2,6)", "u": "1", "v": "2"}
        assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    else:
        assert out == GR26_TEXT


def test_modp_table_json_is_pinned(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "Gr(2,6)", "--backend=mod-p", "--format=json", f"--cache-dir={tmp_path}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GR26_TABLE_JSON_SHA256


# sha256 of `verify <space> --suite=probe --format=json`, recorded from the
# probe's (2k^3, k^3) elimination, which the commutant reduction replaced
PROBE_JSON_SHA256 = {
    "P1": "878162306a3ee34a661be31a4009cf86bb8850a7fda9856a8574cb2c50d57f0d",
    "LG(2,4)": "e9526059ea203ccf85ec3496acc3bf1d9d9dc918da72393aeb7f5c5505df661a",
    "Q(3)": "85dd68ac8789ff4c179eff768f740fc5004e7afe0bfe1a929c6e394e95787956",
    "Gr(2,4)": "bbf30a66d0eacdd6b3bd89546b5c2820200a877ff819d2ff43b427ff0fbea29c",
    "Q(4)": "b852c0e416afc333ae6baece36821b0fcdc20ab9e5c9aa8b411744e777ac9904",
    "Q(5)": "00d8697036e2dfe09ebf9e344ab91af60cfb47e44c1af692fff23e284964ca96",
    "LG(3,6)": "331599e1cb4976cd854032c9d7068700f63a796b889216400e96b3c5eae4558f",
    "Gr(2,5)": "240ff5703ea0579152b248f463a8a49bf2c06de155f73b91e7130d858d87c540",
    "Q(6)": "ec43b728dd459d5a87c2ee43159c7de9b21f5a0060f57e36b4460d002cb3fcbe",
    "OG(4,8)": "b2fc4cbf07f521bab7334b97f25ae6f379c27afc28e90545c46934f9e093608e",
}


@pytest.mark.parametrize("space", list(PROBE_JSON_SHA256))
def test_probe_output_is_pinned(capsys, tmp_path, space):
    code, out, _ = run(capsys, "verify", space, "--suite=probe", "--format=json", f"--cache-dir={tmp_path}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_JSON_SHA256[space]


# sha256 of `verify <space> [flags] --suite=table --backend=mod-p
# --format=json`.  The first three were recorded from the layer-by-layer
# products over F_p[q], which the checks' pointwise products at q = 0, ...,
# 2D replaced; the rest, and the --qmax=9 digest below, from those
# pointwise products, which evaluation at the table's own degree replaced
# (Gr(1,8) 7 -> 3 points, Gr(2,4) at --qmax=9 19 -> 5)
MODP_TABLE_VERIFY_SHA256 = {
    "Gr(2,6)": "fe6ca722186ad670a36f55172fa0f42d7287ae2fae8f6d044d32f0ee4e06cc6d",
    "OG(5,10)": "4e8cb5c09089d3c689a1261815e6c08fb222962e552c59f45e3fb2254e3f3915",
    "LG(4,8)": "ec6c7c199404d82659f1b287080e398ccbb8d2f2f3ea7dd69702bf1515660461",
    "Gr(1,8)": "e58214cb7d0e2123026edf8efeb16c26e60f58fe3f8b5b57926831551d5c1ddd",
    "Gr(3,6)": "d5d6ead49ecb3cb3748e60a15f789f2217afef45409dd1d63a89bb2fc0e19a50",
    "E6": "5ebfe29bd6c27b9c63d1132640eb8a0bb56fd62fa74a187bd7f33951ca1556d0",
}
# the same with --qmax=9: D = 9, but the table's top layer is d_max = 2
GR24_QMAX9_TABLE_VERIFY_SHA256 = "a4244d83e623a47fdae8ef5ecfe7db9a91b0d5b54619f899e5d189b13372d140"


def _modp_table_verify_sha256(capsys, tmp_path, *flags) -> str:
    argv = ("verify", *flags, "--suite=table", "--backend=mod-p", "--format=json", f"--cache-dir={tmp_path}")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("space", list(MODP_TABLE_VERIFY_SHA256))
def test_modp_table_verify_output_is_pinned(capsys, tmp_path, space):
    assert _modp_table_verify_sha256(capsys, tmp_path, space) == MODP_TABLE_VERIFY_SHA256[space]


def test_modp_table_verify_output_past_the_default_qmax_is_pinned(capsys, tmp_path):
    assert _modp_table_verify_sha256(capsys, tmp_path, "Gr(2,4)", "--qmax=9") == GR24_QMAX9_TABLE_VERIFY_SHA256


# sha256 of `verify <space> --suite=all --format=json` on exact tables,
# recorded from the dict kernel that the exact checks' term-array joins
# replaced
EXACT_VERIFY_ALL_SHA256 = {
    "Q(5)": "6299c28bdc4ce83fb87981c5b1db0d83b4815685f2fd42899871d2839a06de54",
    "LG(2,4)": "8dcf58bffe10ba56abc754c5a9b1c2da7aed71e4a511d35b095155c462998c0d",
}


@pytest.mark.parametrize("space", list(EXACT_VERIFY_ALL_SHA256))
def test_exact_verify_all_output_is_pinned(capsys, tmp_path, space):
    code, out, _ = run(capsys, "verify", space, "--suite=all", "--format=json", f"--cache-dir={tmp_path}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_VERIFY_ALL_SHA256[space]


PROBE_E7 = """
import resource
from qkcalc.cli import main

# a broken size guard fails here with MemoryError, not by exhausting the host
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
raise SystemExit(main())
"""


def test_probe_out_of_reach_exits_one_with_the_size(tmp_path):
    proc = _python(PROBE_E7, "verify", "E7", "--suite=probe", f"--cache-dir={tmp_path}", timeout=60)
    assert proc.returncode == 1
    assert "CohomologyError" in proc.stderr and "175616 x 3136 system" in proc.stderr


# sha256 of `product Gr(2,4) 2,2 2,2`: q, q^2, a constant term and a
# coefficient 2 take every branch of the coefficient renderer
GR24_PRODUCT_SHA256 = {
    "text": "7e6d4ff028508a3d1a680f38155e1b66cb03c4ad81b6c8535dbfc873a48537eb",
    "latex": "e3365f89089f1f78cab12954f66c23e99e27b015048d669246df82eb7b0c7ba2",
}


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_exact_product_output_is_pinned(capsys, tmp_path, fmt):
    code, out, err = run(capsys, "product", "Gr(2,4)", "2,2", "2,2", f"--format={fmt}", f"--cache-dir={tmp_path}")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GR24_PRODUCT_SHA256[fmt]


# sha256 of the `product` outputs of every (u, v) of a space, in basis order
# for u and then v, recorded at commit c5f6f76, before exact cache files
# were read by column (Q(5) at commit 0a05190, before a query decoded only
# its product and weights were rendered from an integer epsilon basis)
ALL_PRODUCTS_SHA256 = {
    ("LG(2,4)", "exact"): {
        "text": "5b7015108ffc5a77ebb347b9c0609eefe9deac68ec27581e4d32cf1b0f1ef2a0",
        "json": "847d8748a84e715f26f791d0a59be489563d50ccce7202d61234c0a3534bfb3b",
        "latex": "8bc0b516eab97109f512faad8b88886a868907f644daeae7f7effaffb9d09bd2",
    },
    ("LG(2,4)", "mod-p"): {
        "text": "b940b29f312dddc1ef96125720e8461803ef77754e17828a8b96a37eac96db1a",
        "json": "325e8d8492511324feaf5631230a953cb7fc199a5525224ea937732b57dbbc5c",
        "latex": "b940b29f312dddc1ef96125720e8461803ef77754e17828a8b96a37eac96db1a",
    },
    ("Gr(2,4)", "exact"): {
        "text": "a7e2d25a918fd93204a2ea1b8495ece82a9100900c3aade87b73c5048dfc8d3b",
        "json": "2ba77dffd4c0b8b99abdea9edd181aed10658898e617d49c9f85d7f206bed4a3",
        "latex": "bdb7c26f38f5c32779274a4c11ebde38bf7d791fa421be78a8349e628811ba97",
    },
    ("Gr(2,4)", "mod-p"): {
        "text": "995d12828e42f79490c55a830b3e50147a1358f44af9eb7f468fe7afd00c39a7",
        "json": "9b6e8061bdb02ccb8c11fbf612a7aeb209077618b91d04acc63bcfdd1b2e4fbe",
        "latex": "995d12828e42f79490c55a830b3e50147a1358f44af9eb7f468fe7afd00c39a7",
    },
    ("Q(4)", "exact"): {
        "text": "65f66d3a90b7e55bde589090e6b18e47bf0235d8b447de6f4bc4ba7e14e3744c",
        "json": "911b72593564823be9994c0cbad40d089e262ac3bbf7faa9eb7aad0733c8d181",
        "latex": "3432c3b187b7ec288ba17a68c1e4aa1857e5a159258aa2abca85e17d149bfc21",
    },
    ("Q(4)", "mod-p"): {
        "text": "965ee1bbbf5da36259272fe5bcb738ad500fc47fb7848889b9fad49c2c2945e1",
        "json": "87ec897c6534d521f42577ed33658ba96f44db84f9dee0358f3da1ed85fe1416",
        "latex": "965ee1bbbf5da36259272fe5bcb738ad500fc47fb7848889b9fad49c2c2945e1",
    },
    ("Q(5)", "exact"): {
        "text": "f4433e94ee78e74b9dc414e9ca42bc3fa0f7f8710afd868e9c198ffdb02d5eeb",
        "json": "798608d601ef84e304761ffbfaf923dd650681874df19c183b71149f36c17d96",
        "latex": "856aa4c69902f1857c498304507860320e01d5ca1f9bbe63e853fc0c5b29de81",
    },
}


@pytest.mark.parametrize("space, backend", sorted(ALL_PRODUCTS_SHA256))
def test_every_product_output_is_pinned(capsys, tmp_path, space, backend):
    # the first query builds the table, every later one reads one column
    poset = build_cominuscule(space)
    names = [poset.format_shape(s) for s in poset.shapes()]
    for fmt, want in ALL_PRODUCTS_SHA256[space, backend].items():
        digest = hashlib.sha256()
        for u in names:
            for v in names:
                code, out, err = run(capsys, "product", space, u, v, f"--backend={backend}", f"--format={fmt}", f"--cache-dir={tmp_path}")
                assert code == 0 and err == ""
                digest.update(out.encode())
        assert digest.hexdigest() == want, fmt


# sha256 of the `chevalley` outputs of every shape of a space, in basis
# order, recorded at commit 0a05190: one space per family with epsilon
# coordinates (A, B, C, D), and E6, whose weights are in simple roots
CHEVALLEY_SHA256 = {
    ("Gr(2,4)", "text"): "b7ea9b6d8164a03a7b282525418b299b96b7683d103915d3cc57628fecce5650",
    ("Gr(2,4)", "latex"): "4122172bdb726a8462356ef4768c8e77e017ee9da689a9fa8a6bcc62251cd996",
    ("Q(5)", "text"): "ac0b45d0d02bf7654240968afa4bb8b6cac52af5f179ee605bc4170c3d95b67a",
    ("Q(5)", "latex"): "df00aa842651f2007bacf4308ce536a534bceb415f867a1df1199abdd184fb56",
    ("LG(2,4)", "text"): "965164743ccb1e32ec30f0f0e38ca102b72bfe1052e8261c09448337b04cd36b",
    ("LG(2,4)", "latex"): "94af481309fc097878ade03a38f30e025b5c4ed67accb973467592572b286fe9",
    ("Q(4)", "text"): "1a6dec172bd5453269c082e83bc0611c26933b162c48f8df9d0235447c5eb0eb",
    ("Q(4)", "latex"): "5aaab925675a889bd122ad215e66357a25c00ba60d7d1c72729600386b20f52d",
    ("E6", "latex"): "c0b05dacc06ef80822cb5a92e33d3f7f08042e48128840482ca93fa2ed9f0894",
}


@pytest.mark.parametrize("space, fmt", sorted(CHEVALLEY_SHA256))
def test_every_chevalley_output_is_pinned(capsys, space, fmt):
    poset = build_cominuscule(space)
    digest = hashlib.sha256()
    for u in poset.shapes():
        code, out, err = run(capsys, "chevalley", space, poset.format_shape(u), f"--format={fmt}")
        assert code == 0 and err == ""
        digest.update(out.encode())
    assert digest.hexdigest() == CHEVALLEY_SHA256[space, fmt]


# damages that leave an exact file's header decodable
EXACT_DAMAGES = ["cut-last-column", "columns-short", "columns-not-increasing", "columns-past-eof", "column-shape", "malformed-entry"]


@pytest.mark.parametrize("damage", EXACT_DAMAGES)
def test_damaged_exact_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch, damage):
    code, _, _ = run(capsys, "table", "Gr(2,4)", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    good = path.read_bytes()
    head, lines = good.split(b"\n", 1)
    head = json.loads(head)
    cols = [json.loads(line) for line in lines.splitlines()]
    ends = head["columns"]
    if damage == "cut-last-column":
        path.write_bytes(good[: len(good) - (ends[-1] - ends[-2]) // 2])
    elif damage == "column-shape":
        # the queried column, O^(2,2), loses its top layer
        path.write_bytes(_exact_file(head, cols[:-1] + [cols[-1][:-1]]))
    elif damage == "malformed-entry":
        # one coefficient of the queried product, O^(2,2) * O^(2,2), is no integer
        cols[-1][1][0][-1] = {"rank": 3, "terms": [[[0, 0, 0], "one"]]}
        path.write_bytes(_exact_file(head, cols))
    else:
        if damage == "columns-short":
            ends = ends[:-1]
        elif damage == "columns-not-increasing":
            ends = [ends[0], ends[2], ends[1], *ends[3:]]
        else:
            ends = [*ends[:-1], ends[-1] + 1]
        path.write_bytes(json.dumps(dict(head, columns=ends)).encode() + b"\n" + lines)
    builds = count_builds(monkeypatch)
    code, out, err = run(capsys, "product", "Gr(2,4)", "2,2", "2,2", f"--cache-dir={tmp_path}")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GR24_PRODUCT_SHA256["text"]
    assert err.count("\n") == 1 and "ignoring unreadable cache file" in err and path.name in err
    assert builds == [qkring.default_truncation(build_cominuscule("Gr(2,4)"))]
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_ktchev2_is_exact_under_the_modp_backend(capsys, tmp_path):
    # the oracle compares both sides exactly whatever --backend says
    code, out, _ = run(capsys, "verify", "LG(3,6)", "--suite=ktchev2", "--backend=mod-p", "--format=json", f"--cache-dir={tmp_path}")
    assert code == 0
    rep = json.loads(out.splitlines()[1])
    assert rep["check"] == "ktchev2" and rep["status"] == "pass"
    assert rep["backend"] == "exact"
    assert rep["pairs"] == 8 * 8


# mod-p tables are cached as a JSON header line and the raw int64 array


def _modp_cache(capsys, tmp_path) -> tuple:
    code, _, _ = run(capsys, "table", "Gr(2,6)", "--backend=mod-p", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    return path, path.read_bytes()


def _v1_file(good: bytes) -> bytes:
    # the previous format: the whole table as one JSON object, nested lists
    head, payload = good.split(b"\n", 1)
    obj = json.loads(head)
    shape = obj.pop("shape")
    obj["mats"] = np.frombuffer(payload, dtype="<i8").reshape(shape).tolist()
    return json.dumps(obj).encode()


def _residue_file(good: bytes, residue: int) -> bytes:
    # every column's first residue, the one a product read of that column
    # decodes or not, replaced
    head, payload = good.split(b"\n", 1)
    mats = np.frombuffer(payload, dtype="<i8").reshape(json.loads(head)["shape"]).copy()
    mats[:, 0, 0, 0] = residue
    return head + b"\n" + mats.tobytes()


@pytest.mark.parametrize("damage", ["header-cut", "payload-cut", "v1-file", "residue-p+1", "residue-1"])
def test_damaged_modp_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch, damage):
    path, good = _modp_cache(capsys, tmp_path)
    if damage == "header-cut":
        path.write_bytes(good[: good.index(b"\n") // 2])
    elif damage == "payload-cut":
        path.write_bytes(good[:-1])
    elif damage == "v1-file":
        path.write_bytes(_v1_file(good))
    else:
        p = json.loads(good.split(b"\n", 1)[0])["backend"]["p"]
        path.write_bytes(_residue_file(good, p + 1 if damage == "residue-p+1" else -1))
    builds = count_builds(monkeypatch)
    code, out, err = run(capsys, "product", "Gr(2,6)", "1", "2", "--backend=mod-p", f"--cache-dir={tmp_path}")
    assert code == 0 and out == GR26_TEXT
    assert err.count("\n") == 1 and "warning" in err and path.name in err
    assert builds == [qkring.default_truncation(build_cominuscule("Gr(2,6)"))]
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_read_only_cache_dir_answers_modp(capsys, tmp_path, monkeypatch):
    out = _read_only_product(capsys, tmp_path, monkeypatch, "Gr(2,6)", "1", "2", "--backend=mod-p")
    assert out == GR26_TEXT


@pytest.mark.parametrize("space", ["Gr(2,6)", "OG(5,10)", "LG(4,8)"])
def test_warm_modp_output_matches_cold(capsys, tmp_path, space):
    commands = [
        ("product", space, "1", "1", "--format=text"),
        ("product", space, "1", "1", "--format=json"),
        ("table", space, "--format=json"),
    ]
    for i, argv in enumerate(commands):
        cache = f"--cache-dir={tmp_path / str(i)}"
        cold = run(capsys, *argv, "--backend=mod-p", cache)
        warm = run(capsys, *argv, "--backend=mod-p", cache)
        assert cold[0] == 0 and warm == cold


def test_loaded_modp_table_is_the_read_only_array(capsys, tmp_path, monkeypatch):
    poset = build_cominuscule("Gr(2,6)")
    D = qkring.default_truncation(poset)
    path, good = _modp_cache(capsys, tmp_path)
    table = qkring.load_table("Gr(2,6)", D, qkring.make_field(poset, "mod-p"), str(tmp_path))
    k = len(poset.shape_masks)
    assert table.mats.dtype == np.int64 and table.mats.shape == (k, D + 1, k, k)
    assert not table.mats.flags.writeable
    builds = count_builds(monkeypatch)
    argv = ("verify", "Gr(2,6)", "--suite=table", "--backend=mod-p", f"--cache-dir={tmp_path}")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.count("[  pass]") == 2 and builds == []
    # the checks read the payload: one changed residue fails them
    head, payload = good.split(b"\n", 1)
    mats = np.frombuffer(payload, dtype="<i8").copy()
    mats[np.flatnonzero(mats)[7]] += 1
    path.write_bytes(head + b"\n" + mats.tobytes())
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "fail" in out and builds == []


@pytest.mark.parametrize("space", ["Gr(3,6)", "LG(4,8)", "Gr(1,8)", "E6"])
def test_default_backend_falls_back_to_modp(capsys, tmp_path, monkeypatch, space):
    # the exact grid is out of reach: mod-p, with one line on stderr saying so
    cache = f"--cache-dir={tmp_path}"
    code, out, err = run(capsys, "table", space, cache)
    assert code == 0 and "backend=mod-p" in out
    assert len(err.splitlines()) == 1 and "building mod-p" in err
    assert run(capsys, "table", space, "--backend=mod-p", cache) == (0, out, "")

    # a warm query reads the mod-p file without building
    def refuse(*args):
        raise AssertionError("a warm query started a build")

    monkeypatch.setattr(qkring, "_ModPSolver", refuse)
    monkeypatch.setattr(cli, "full_table", refuse)
    assert run(capsys, "table", space, cache) == (0, out, "")
    poset = build_cominuscule(space)
    u = poset.format_shape(poset.shapes()[1])
    code, _, err = run(capsys, "product", space, u, u, cache)
    assert code == 0 and err == ""


def test_default_fallback_refuses_after_one_probe_rung(capsys, tmp_path, monkeypatch):
    # P^7's degrees are 1, ..., 7, so its grid has 8! points, out of reach:
    # the only solver built is the mod-p point's
    built = []
    solver = qkring._ModPSolver
    monkeypatch.setattr(qkring, "_ModPSolver", lambda *args: built.append(solver(*args)) or built[-1])
    code, out, err = run(capsys, "table", "Gr(1,8)", f"--cache-dir={tmp_path}")
    assert code == 0 and "backend=mod-p" in out and "a grid of 40320 points" in err
    assert [len(s.L) for s in built] == [1]


def test_default_backend_reads_the_exact_file_first(capsys, tmp_path, monkeypatch):
    cache = f"--cache-dir={tmp_path}"
    assert run(capsys, "table", "Q(3)", "--backend=mod-p", cache)[0] == 0
    code, exact, _ = run(capsys, "table", "Q(3)", "--backend=exact", cache)
    builds = count_builds(monkeypatch)
    assert run(capsys, "table", "Q(3)", cache) == (0, exact, "") and builds == []


def test_explicit_modp_file_does_not_answer_a_default_query(capsys, tmp_path):
    # the default rule answers exact where the exact grid is in reach
    cache = f"--cache-dir={tmp_path}"
    code, out, _ = run(capsys, "table", "Q(3)", "--backend=mod-p", cache)
    assert code == 0 and "backend=mod-p" in out
    code, out, err = run(capsys, "table", "Q(3)", cache)
    assert code == 0 and "backend=exact" in out and err == ""
    code, out, err = run(capsys, "product", "Q(3)", "1", "1", "--format=json", cache)
    assert code == 0 and json.loads(out)["backend"]["kind"] == "exact" and err == ""


def test_default_query_reads_only_its_backends_file(capsys, tmp_path, monkeypatch):
    # the backend is chosen before any work: exact on Q(3), whose mod-p file
    # is never opened, and mod-p on E6, whose explicit mod-p file answers
    # without a build
    cache = f"--cache-dir={tmp_path}"
    for space in ("Q(3)", "E6"):
        assert run(capsys, "table", space, "--backend=mod-p", cache)[0] == 0
    read = []
    load = cli.load_table
    monkeypatch.setattr(cli, "load_table", lambda *args, **kw: read.append(args[2]["kind"]) or load(*args, **kw))
    builds = count_builds(monkeypatch)
    for argv in (("table", "Q(3)"), ("product", "Q(3)", "1", "1"), ("product", "Q(3)", "1", "1", "--format=json")):
        code, out, err = run(capsys, *argv, cache)
        assert code == 0 and "mod-p" not in out and err == ""
    D = qkring.default_truncation(build_cominuscule("Q(3)"))
    assert read == ["exact"] * 3 and builds == [D]
    read.clear()
    code, out, err = run(capsys, "table", "E6", cache)
    assert code == 0 and "backend=mod-p" in out and err == ""
    assert read == ["mod-p"] and builds == [D]


def test_default_and_explicit_modp_builds_write_one_file(capsys, tmp_path):
    # past the exact grid the default rule builds the file --backend=mod-p
    # builds, byte for byte: its header does not say which query built it
    argv = ("table", "Gr(1,8)", "--format=json")
    code, out, _ = run(capsys, *argv, f"--cache-dir={tmp_path / 'default'}")
    assert code == 0 and json.loads(out)["backend"]["kind"] == "mod-p"
    assert run(capsys, *argv, "--backend=mod-p", f"--cache-dir={tmp_path / 'explicit'}") == (0, out, "")
    (path,) = (tmp_path / "default").glob("qk-*.json")
    assert (tmp_path / "explicit" / path.name).read_bytes() == path.read_bytes()
    head, payload = path.read_bytes().split(b"\n", 1)
    assert json.loads(head)["flags"] == {"stabilized": True}
    # a file an older default rule marked with its fallback flag still
    # answers both rules, and prints as it did then
    marked = dict(json.loads(head), flags={"exact_out_of_reach": True, "stabilized": True})
    path.write_bytes(json.dumps(marked).encode() + b"\n" + payload)
    for backend in ((), ("--backend=mod-p",)):
        assert run(capsys, *argv, *backend, f"--cache-dir={tmp_path / 'default'}") == (0, out, "")
    assert path.read_bytes() == json.dumps(marked).encode() + b"\n" + payload


def test_default_rule_leaves_a_damaged_modp_file_unread(capsys, tmp_path):
    # on a space the exact backend reaches the default rule never opens the
    # mod-p file: no warning, and the damaged file stays as it is
    cache = f"--cache-dir={tmp_path}"
    assert run(capsys, "table", "Q(3)", "--backend=mod-p", cache)[0] == 0
    (path,) = tmp_path.glob("qk-*.json")
    path.write_bytes(path.read_bytes()[:100])
    code, out, err = run(capsys, "table", "Q(3)", cache)
    assert code == 0 and "backend=exact" in out
    assert err == ""
    assert path.stat().st_size == 100


def test_default_rule_warns_about_a_damaged_marked_file(capsys, tmp_path):
    # a damaged file of the default rule's mod-p fallback is warned about and rebuilt
    cache = f"--cache-dir={tmp_path}"
    code, out, _ = run(capsys, "table", "Gr(1,8)", cache)
    assert code == 0 and "backend=mod-p" in out
    (path,) = tmp_path.glob("qk-*.json")
    good = path.read_bytes()
    path.write_bytes(good[:-1])
    code, again, err = run(capsys, "table", "Gr(1,8)", cache)
    assert code == 0 and again == out
    assert err.startswith(f"warning: ignoring unreadable cache file {path}\n")
    assert "building mod-p" in err
    assert path.read_bytes() == good


def test_verify_decodes_the_table_once(capsys, tmp_path, monkeypatch):
    cache = f"--cache-dir={tmp_path}"
    assert run(capsys, "table", "Q(4)", cache)[0] == 0
    decoded = []
    decode = qkring.MultTable.from_json_obj
    monkeypatch.setattr(qkring.MultTable, "from_json_obj", staticmethod(lambda obj: decoded.append(1) or decode(obj)))
    code, out, _ = run(capsys, "verify", "Q(4)", "--suite=all", cache)
    # the table and positivity suites share it
    assert code == 0 and "positivity-signs" in out and "ms-equations" in out
    assert len(decoded) == 1


def test_exact_cache_file_does_not_depend_on_hash_seed(tmp_path):
    src = os.path.dirname(os.path.dirname(qkring.__file__))
    files = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cache = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "qkcalc.cli", "table", "Q(4)", "--backend=exact", f"--cache-dir={cache}"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (path,) = cache.glob("qk-*.json")
        files.append((path.name, path.read_bytes()))
    assert files[0] == files[1]


def test_output_does_not_depend_on_hash_seed(tmp_path):
    # the packed checks keep int-keyed dicts: their order must not reach the output
    src = os.path.dirname(os.path.dirname(qkring.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cache = f"--cache-dir={tmp_path / hash_seed}"
        for argv in (["table", "Q(4)", "--format", "json"], ["verify", "Q(4)", "--suite=all", "--format", "json"]):
            proc = subprocess.run(
                [sys.executable, "-m", "qkcalc.cli", *argv, cache],
                env=env, capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
    assert outputs[:2] == outputs[2:]


def _readme_examples() -> list:
    """(arguments, printed lines) of every `$ qkcalc ...` line in the code
    blocks of README.md; the printed lines run to the next `$` line or to
    the end of the block."""
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    examples, current = [], None
    with open(readme, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("```"):
                current = None
            elif line.startswith("$ qkcalc "):
                current = (line[len("$ qkcalc "):], [])
                examples.append(current)
            elif current is not None:
                current[1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, printed", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example(capsys, tmp_path, monkeypatch, command, printed):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, out, _ = run(capsys, *shlex.split(command, comments=True))
    assert code == 0 and out.splitlines() == printed
