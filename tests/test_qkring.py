import copy
import os
import subprocess
import sys

import pytest

import qkcalc

from qkcalc.chevalley import j_class, sgamma_mask, sgamma_star
from qkcalc.gamma import GammaElement, QPolynomial
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import (
    TruncationTooSmall,
    full_table,
    load_table,
    make_field,
    modp_tables,
    save_table,
    specialize,
    tables_agree,
    verify_associativity,
    verify_ms_equations,
    verify_positivity_signs,
)


@pytest.fixture(scope="module")
def gr24_table():
    return full_table(build_cominuscule("Gr(2,4)"))


def test_p1_reconstruction_by_hand():
    poset = build_cominuscule("P1")
    rank = poset.rs.rank
    table = full_table(poset)
    js = j_class(poset, poset.full_mask)
    one = GammaElement.from_int(rank, 1)
    z = GammaElement.zero(rank)
    # O^s * O^s = (1 - J_s) O^s + J_s q O^empty
    assert table.entry(1, 1, 1) == QPolynomial(rank, [one - js])
    assert table.entry(1, 1, 0) == QPolynomial(rank, [z, js])
    # identity row
    assert table.entry(0, 1, 1) == QPolynomial(rank, [one])
    assert table.entry(0, 1, 0).is_zero()
    assert table.flags.get("stabilized") is True


def test_truncation_certificate_fails_when_too_tight():
    poset = build_cominuscule("P1")
    with pytest.raises(TruncationTooSmall):
        full_table(poset, D=2)


def test_divisor_column_matches_chevalley(gr24_table):
    table = gr24_table
    poset = table.poset
    si = poset.shape_index[sgamma_mask(poset)]
    for vi, vm in enumerate(poset.shape_masks):
        want = sgamma_star(poset, vm)
        got = {}
        for wi, wm in enumerate(poset.shape_masks):
            p = table.entry(si, vi, wi)
            if not p.is_zero():
                got[wm] = p.truncate(table.D)
        want = {m: p.truncate(table.D) for m, p in want.items()}
        assert got == want


def test_identity_row_emerges(gr24_table):
    table = gr24_table
    k = table.k
    for v in range(k):
        for w in range(k):
            p = table.entry(0, v, w)
            if v == w:
                assert p == QPolynomial(table.poset.rs.rank, [GammaElement.from_int(table.poset.rs.rank, 1)])
            else:
                assert p.is_zero()


def test_commutativity(gr24_table):
    table = gr24_table
    k = table.k
    for u in range(k):
        for v in range(u):
            for w in range(k):
                assert table.entry(u, v, w) == table.entry(v, u, w)


def test_cache_roundtrip(tmp_path, gr24_table):
    table = gr24_table
    path = save_table(table, str(tmp_path))
    back = load_table(table.space, table.D, table.backend, str(tmp_path))
    assert back is not None
    assert back.space == table.space and back.D == table.D
    assert back.mats == table.mats
    # wrong D or backend must miss
    assert load_table(table.space, table.D + 1, table.backend, str(tmp_path)) is None
    assert load_table(table.space, table.D, {"kind": "exact", "rank": 99}, str(tmp_path)) is None
    assert load_table("LG(2,4)", table.D, table.backend, str(tmp_path)) is None


def test_cache_rejects_basis_mismatch(tmp_path, gr24_table):
    import json
    import os

    table = gr24_table
    path = save_table(table, str(tmp_path))
    with open(path) as fh:
        obj = json.load(fh)
    obj["masks"] = list(reversed(obj["masks"]))
    with open(path, "w") as fh:
        json.dump(obj, fh)
    from qkcalc.qkring import QKRingError

    with pytest.raises(QKRingError):
        load_table(table.space, table.D, table.backend, str(tmp_path))


def test_q0_specialization_is_classical(gr24_table):
    table = gr24_table
    q0 = specialize(table, "q0")
    k = table.k
    for u in range(k):
        for v in range(k):
            for w in range(k):
                p = q0.entry(u, v, w)
                assert p.degree() <= 0
                assert p.coeff(0) == table.entry(u, v, w).coeff(0)


def test_nonequivariant_p1_is_quantum_projective_line():
    poset = build_cominuscule("P1")
    table = specialize(full_table(poset), "nonequivariant")
    # O^s * O^s = q, nothing else
    assert table.entry(1, 1, 0) == (0, 1, 0, 0)
    assert table.entry(1, 1, 1) == (0, 0, 0, 0)


def test_nonequivariant_gr24_divisor_square():
    # classical K Pieri: O^1 . O^1 = O^2 + O^11 - O^21, no quantum correction
    poset = build_cominuscule("Gr(2,4)")
    table = specialize(full_table(poset), "nonequivariant")
    idx = {poset.format_shape(s): i for i, s in enumerate(poset.shapes())}
    i1 = idx["1"]
    expected = {"2": 1, "1,1": 1, "2,1": -1}
    for name, i in idx.items():
        want = expected.get(name, 0)
        got = table.entry(i1, i1, i)
        assert got[0] == want, name
        assert not any(got[1:]), name


def test_backend_agreement(gr24_table):
    poset = gr24_table.poset
    for m in modp_tables(poset, D=gr24_table.D):
        assert tables_agree(gr24_table, m)


def test_tampered_table_fails_ms_equations(gr24_table):
    table = copy.deepcopy(gr24_table)
    rank = table.poset.rs.rank
    # corrupt one classical constant
    g = table.mats[3][0][2][1]
    table.mats[3][0][2][1] = g + GammaElement.from_int(rank, 1)
    rep = verify_ms_equations(table)
    assert rep["status"] == "fail"
    assert rep["failure_count"] > 0


def test_tampered_table_fails_associativity(gr24_table):
    table = copy.deepcopy(gr24_table)
    rank = table.poset.rs.rank
    g = table.mats[2][1][4][3]
    table.mats[2][1][4][3] = g + GammaElement.from_int(rank, 1)
    rep = verify_associativity(table)
    assert rep["status"] == "fail"


def test_verify_reports_pass(gr24_table):
    assert verify_ms_equations(gr24_table)["status"] == "pass"
    assert verify_associativity(gr24_table)["status"] == "pass"
    assert verify_positivity_signs(gr24_table)["status"] == "pass"


def test_modp_field_roundtrip():
    poset = build_cominuscule("LG(2,4)")
    fld = make_field(poset, "mod-p", seed=3)
    d = fld.descriptor()
    assert d["kind"] == "mod-p"
    table = full_table(poset, backend=fld)
    assert table.backend == d
    assert not table.is_exact
    # identity row survives in the evaluated table
    for v in range(table.k):
        for w in range(table.k):
            t = table.entry(0, v, w)
            assert t == tuple((1 if (v == w and i == 0) else 0) for i in range(len(t)))


def test_modp_tables_are_independent():
    poset = build_cominuscule("Q(3)")
    import json

    ts = modp_tables(poset)
    assert len(ts) == 4  # two primes, two assignments each
    descs = {json.dumps(t.backend, sort_keys=True) for t in ts}
    assert len(descs) == 4


def test_montante_adjugate_on_random_laurent_matrices():
    import random

    rng = random.Random(11)
    from qkcalc.qkring import _gident, _gmul, _montante

    rank = 2
    for n in (1, 2, 3, 4):
        A = []
        for _ in range(n):
            row = []
            for _ in range(n):
                g = GammaElement.zero(rank)
                for _ in range(rng.randrange(1, 4)):
                    e = (rng.randrange(-2, 3), rng.randrange(-2, 3))
                    g = g + GammaElement.monomial(e) * GammaElement.from_int(rank, rng.randrange(-3, 4))
                row.append(g)
            A.append(row)
        adj, det = _montante(rank, A)
        if det.is_zero():
            continue
        want = [[x * det for x in row] for row in _gident(rank, n)]
        assert _gmul(adj, A, rank) == want
        assert _gmul(A, adj, rank) == want


def test_exact_solver_adjugate_identity():
    from qkcalc.qkring import _ExactSolver, _gident, _gmul, divisor_matrix

    for space in ("Gr(2,4)", "Q(4)"):
        poset = build_cominuscule(space)
        s = _ExactSolver(poset, divisor_matrix(poset), poset.d_max + 2)
        want = [[x * s.det0 for x in row] for row in _gident(s.rank, s.k)]
        assert _gmul(s.adj0, s.K[0], s.rank) == want


def test_load_table_treats_undecodable_file_as_miss(tmp_path, gr24_table):
    table = gr24_table
    path = save_table(table, str(tmp_path))
    with open(path) as fh:
        text = fh.read()
    for broken in (text[: len(text) // 2], "", "\xff\xfe", "[1, 2]"):
        with open(path, "w", encoding="latin-1") as fh:
            fh.write(broken)
        assert load_table(table.space, table.D, table.backend, str(tmp_path)) is None


def test_save_table_leaves_no_temp_file(tmp_path, gr24_table):
    # a stale temp file of another writer is neither reused nor removed
    table = gr24_table
    stray = tmp_path / "stray.tmp"
    stray.write_text("another writer")
    path = save_table(table, str(tmp_path))
    save_table(table, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([os.path.basename(path), "stray.tmp"])
    assert stray.read_text() == "another writer"
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


IDENTITY_ROW_SCRIPT = """
import copy
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import QKRingError, _check_identity_row, full_table

assert False, "asserts must be stripped under -O"
table = full_table(build_cominuscule("P1"))
bad = copy.deepcopy(table)
bad.mats[1][0][0][0] = bad.mats[0][0][0][0]
try:
    _check_identity_row(bad)
except QKRingError as exc:
    print("raised:", exc)
"""


def test_identity_row_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(qkcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", IDENTITY_ROW_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised: identity row broken"
