import hashlib
import json
import os

import numpy as np
import pytest

from qkcalc import cli, qkring
from qkcalc.chevalley import sgamma_star
from qkcalc.gamma import QPolynomial
from qkcalc.poset import build_cominuscule


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_detects_corrupt_table(capsys, tmp_path):
    code, _, _ = run(capsys, "table", "Q(3)", f"--cache-dir={tmp_path}")
    assert code == 0
    (path,) = tmp_path.glob("qk-*.json")
    obj = json.loads(path.read_text())
    # flip the first nonzero coefficient found in the stored matrices
    def corrupt(node):
        if isinstance(node, dict) and "terms" in node and node["terms"]:
            node["terms"][0][1] += 1
            return True
        if isinstance(node, list):
            return any(corrupt(x) for x in node)
        return False

    assert corrupt(obj["mats"])
    path.write_text(json.dumps(obj))
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
    # q-degree 1 reaches layer D-1 at D=2, so the certificate fails once
    assert code == 0 and builds == [2, 4]
    code, second, err = run(capsys, *argv)
    assert code == 0 and builds == [2, 4]
    assert second == first and err == ""


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

        monkeypatch.setattr(qkring.tempfile, "mkstemp", denied)
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
        obj = json.loads(path.read_text())
        del obj["masks"]
        path.write_text(json.dumps(obj))
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


@pytest.mark.parametrize("damage", ["header-cut", "payload-cut", "v1-file"])
def test_damaged_modp_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch, damage):
    path, good = _modp_cache(capsys, tmp_path)
    if damage == "header-cut":
        path.write_bytes(good[: good.index(b"\n") // 2])
    elif damage == "payload-cut":
        path.write_bytes(good[:-1])
    else:
        path.write_bytes(_v1_file(good))
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
