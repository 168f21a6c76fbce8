import copy
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkcalc

from qkcalc import qkring
from qkcalc.chevalley import j_class, sgamma_mask, sgamma_star
from qkcalc.gamma import DEFAULT_PRIMES, GammaElement, GammaError, QPolynomial, ZeroAssignment
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import (
    DivisorOperator,
    SingularKrylov,
    TruncationTooSmall,
    _inverse_mod,
    _matmul_mod,
    _ModPSolver,
    _row_reduce_mod,
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
    assert (back.mats == table.mats).all()
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


@pytest.mark.parametrize("space, at", [("P1", (1, 0, 1, 1)), ("Gr(2,4)", (3, 0, 2, 1))], ids=["P1", "Gr(2,4)"])
def test_q0_specialization_passes_ms_equations(space, at):
    # D = 0: the table is checked against the classical divisor L_0 alone
    table = specialize(full_table(build_cominuscule(space)), "q0")
    assert verify_ms_equations(table)["status"] == "pass"
    table = copy.deepcopy(table)
    _bump(table, at)
    rep = verify_ms_equations(table)
    assert rep["status"] == "fail" and rep["failure_count"] > 0


def test_tampered_table_fails_associativity(gr24_table):
    table = copy.deepcopy(gr24_table)
    rank = table.poset.rs.rank
    g = table.mats[2][1][4][3]
    table.mats[2][1][4][3] = g + GammaElement.from_int(rank, 1)
    rep = verify_associativity(table)
    assert rep["status"] == "fail"


def _bump(table, at):
    one = GammaElement.from_int(table.poset.rs.rank, 1) if table.is_exact else 1
    x = table.mats[at] + one
    table.mats[at] = x if table.is_exact else x % table.backend["p"]


@pytest.mark.parametrize(
    "check, at",
    [(verify_ms_equations, (3, 0, 2, 1)), (verify_associativity, (2, 1, 4, 3))],
    ids=["ms-equations", "associativity"],
)
def test_tampered_modp_table_fails_checks(check, at):
    # the same corruptions as above, in a residue table
    table = full_table(build_cominuscule("Gr(2,4)"), backend="mod-p")
    assert check(table)["status"] == "pass"
    _bump(table, at)
    rep = check(table)
    assert rep["status"] == "fail"
    assert rep["failure_count"] > 0


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_swapped_operators_fail_the_vprime_sum(backend):
    # each M_v still commutes with L, so only the third Molev-Sagan sum sees it
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    table.mats[[1, 2]] = table.mats[[2, 1]]
    assert verify_ms_equations(table)["status"] == "fail"


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_symmetric_corruption_fails_the_commutators(backend):
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    _bump(table, (2, 1, 4, 3))
    _bump(table, (3, 1, 4, 2))
    rep = verify_associativity(table)
    assert rep["status"] == "fail"
    assert {f[0] for f in rep["failures"]} == {"commutator"}


def test_verify_reports_pass(gr24_table):
    assert verify_ms_equations(gr24_table)["status"] == "pass"
    assert verify_associativity(gr24_table)["status"] == "pass"
    assert verify_positivity_signs(gr24_table)["status"] == "pass"


def test_modp_field_roundtrip():
    poset = build_cominuscule("LG(2,4)")
    d = make_field(poset, "mod-p", seed=3)
    assert d["kind"] == "mod-p"
    table = full_table(poset, backend=d)
    assert table.backend == d
    assert not table.is_exact
    # identity row survives in the evaluated table
    for v in range(table.k):
        for w in range(table.k):
            t = table.entry(0, v, w)
            assert t == tuple((1 if (v == w and i == 0) else 0) for i in range(len(t)))


@pytest.mark.parametrize("check", [verify_ms_equations, verify_associativity], ids=["ms-equations", "associativity"])
def test_checks_refuse_a_table_without_a_divisor_ring(check):
    # a nonequivariant table is neither exact nor mod-p
    table = specialize(full_table(build_cominuscule("P1")), "nonequivariant")
    with pytest.raises(qkring.QKRingError, match="nonequivariant"):
        check(table)


def test_modp_descriptors_are_checked():
    poset = build_cominuscule("Gr(2,4)")
    p = DEFAULT_PRIMES[0]
    with pytest.raises(ZeroAssignment):
        full_table(poset, backend={"kind": "mod-p", "p": p, "assignment": [2, p, 3]})
    with pytest.raises(GammaError, match="length"):
        make_field(poset, {"kind": "mod-p", "p": p, "assignment": [2, 3]})
    with pytest.raises(ValueError):
        make_field(poset, {"kind": "nonequivariant"})
    # a resolved backend resolves to itself, keys in cache-file order
    d = make_field(poset, "mod-p", seed=5)
    assert list(d) == ["kind", "rank", "p", "assignment"]
    assert make_field(poset, d) == d
    assert make_field(poset, "exact") == {"kind": "exact", "rank": poset.rs.rank}


def test_modp_tables_are_independent():
    poset = build_cominuscule("Q(3)")
    import json

    ts = modp_tables(poset)
    assert len(ts) == 4  # two primes, two assignments each
    descs = {json.dumps(t.backend, sort_keys=True) for t in ts}
    assert len(descs) == 4


def test_load_table_treats_undecodable_file_as_miss(tmp_path, gr24_table):
    table = gr24_table
    path = save_table(table, str(tmp_path))
    with open(path) as fh:
        text = fh.read()
    for broken in (text[: len(text) // 2], "", "\xff\xfe", "[1, 2]"):
        with open(path, "w", encoding="latin-1") as fh:
            fh.write(broken)
        assert load_table(table.space, table.D, table.backend, str(tmp_path)) is None


def _rewrite_header(path, **fields):
    with open(path, "rb") as fh:
        head, sep, payload = fh.read().partition(b"\n")
    obj = json.loads(head)
    for name, value in fields.items():
        if value is None:
            del obj[name]
        else:
            obj[name] = value
    with open(path, "wb") as fh:
        fh.write(json.dumps(obj).encode() + sep + payload)


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_load_table_treats_malformed_file_as_miss(tmp_path, backend):
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    args = (table.space, table.D, table.backend, str(tmp_path))
    k = table.k
    damages = [{"masks": None}, {"masks": 7}, {"flags": 7}]
    if table.is_exact:
        damages += [{"mats": None}, {"mats": 7}, {"mats": [[[]]]}]
    else:
        damages += [{"shape": None}, {"shape": 7}, {"shape": "x"}, {"shape": [k, table.D + 1, k, -k]}]
        # the payload read as an array of another shape
        damages += [{"shape": [k, table.D + 1, k * k]}, {"shape": [k, table.D, k, k]}]
    for damage in damages:
        _rewrite_header(save_table(table, str(tmp_path)), **damage)
        assert load_table(*args) is None, damage
    if not table.is_exact:
        path = save_table(table, str(tmp_path))
        with open(path, "rb") as fh:
            good = fh.read()
        for broken in (good[:-1], good + b"\0", good[:-8]):
            with open(path, "wb") as fh:
                fh.write(broken)
            assert load_table(*args) is None
    path = save_table(table, str(tmp_path))
    os.unlink(path)
    os.mkdir(path)
    assert load_table(*args) is None


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
from qkcalc import qkring
from qkcalc.gamma import GammaElement
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

# a corrupted interpolant fails the exact certificate on both attempts
interpolate = qkring._interpolated_columns
def corrupted(*args):
    for M in interpolate(*args):
        M[0][1][1] = M[0][1][1] + GammaElement.from_int(M[0][1][1].rank, 1)
        yield M
qkring._interpolated_columns = corrupted
try:
    full_table(build_cominuscule("Gr(2,4)"))
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
    assert proc.stdout.splitlines() == [
        "raised: identity row broken",
        "raised: interpolated table failed its exact certificate",
    ]


# sha256(json.dumps(table.to_json_obj(), sort_keys=True))[:16] of the default
# mod-p table; recorded from the pure-Python solve, which the numpy solve must
# reproduce residue for residue
PINNED_MODP_TABLES = {
    "Gr(2,6)": "2e5433b68502517a",
    "OG(5,10)": "69244dc0c2a2a3e7",
    "LG(4,8)": "5de6fb12c3178a8c",
    "Gr(3,6)": "bbd1635b7b5c33ae",
    "E6": "bd59c3070f2f84d8",
}

# the same digest of the default exact table; recorded from the group-ring
# (Montante) solve, which interpolation must reproduce term for term
PINNED_EXACT_TABLES = {
    "P1": "cf7581b7f2ec3ce0",
    "LG(2,4)": "adc7d113fa5016af",
    "Q(3)": "aa68cb954421f93e",
    "Gr(2,4)": "b4d69860d8d5d928",
    "Q(4)": "7d3e6c3b7fe3e082",
    "Q(5)": "78a2e860a593d184",
    "Q(6)": "d9ec84b41c2a9544",
}


def _digest(table) -> str:
    return hashlib.sha256(json.dumps(table.to_json_obj(), sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "space, backend, digest",
    [pytest.param(s, "mod-p", h, id=s) for s, h in sorted(PINNED_MODP_TABLES.items())]
    + [pytest.param(s, "exact", h, id=f"exact-{s}") for s, h in sorted(PINNED_EXACT_TABLES.items())],
)
def test_modp_table_residues_are_pinned(space, backend, digest):
    table = full_table(build_cominuscule(space), backend=backend)
    assert _digest(table) == digest
    if backend == "exact":
        assert table.backend == {"kind": "exact", "rank": table.poset.rs.rank}


@pytest.mark.parametrize("space", ["LG(3,6)", "Gr(2,5)"])
def test_exact_build_of_larger_spaces(space):
    # out of reach of the group-ring solve (over 590 s each)
    poset = build_cominuscule(space)
    start = time.perf_counter()
    table = full_table(poset)
    assert time.perf_counter() - start < 10
    assert verify_ms_equations(table)["status"] == "pass"
    assert tables_agree(table, modp_tables(poset, D=table.D, primes=1, assignments=1)[0])


def test_exact_build_redraws_after_a_failed_certificate(monkeypatch):
    # a degree box one short on one axis interpolates the wrong polynomials;
    # the certificate rejects them and the doubled box gives the true table
    outcomes = []
    certified = qkring._certified
    monkeypatch.setattr(qkring, "_degree_probe", lambda *args: [3, 4, 3])
    monkeypatch.setattr(qkring, "_certified", lambda t: outcomes.append(certified(t)) or outcomes[-1])
    table = full_table(build_cominuscule("Gr(2,4)"))
    assert outcomes == [False, True]
    assert _digest(table) == PINNED_EXACT_TABLES["Gr(2,4)"]


def test_exact_build_refuses_a_grid_out_of_reach(monkeypatch):
    # 8e6 nodes would take gigabytes; the build stops before allocating them
    monkeypatch.setattr(qkring, "_degree_probe", lambda *args: [200, 200, 200])
    with pytest.raises(qkring.QKRingError, match="mod-p backend"):
        full_table(build_cominuscule("Gr(2,4)"))


def test_degree_probe_stops_at_the_grid_guard(monkeypatch):
    # once the degrees found so far put the grid out of reach, the probe
    # refuses without probing the remaining variables
    lines = []
    solver = qkring._ModPSolver

    def recording(dv, D, p, nodes):
        lines.append(nodes)
        return solver(dv, D, p, nodes)

    monkeypatch.setattr(qkring, "_GRID_ENTRIES", 1)
    monkeypatch.setattr(qkring, "_ModPSolver", recording)
    with pytest.raises(qkring.QKRingError, match="mod-p backend"):
        full_table(build_cominuscule("Gr(2,4)"))
    # every probe line varied x_1 alone
    assert lines and all(not np.ptp(nodes[:, 1:], axis=0).any() for nodes in lines)


def test_exact_build_redraws_a_singular_node(monkeypatch):
    # two J_u may coincide at a random node; the nodes are redrawn
    interpolate = qkring._interpolated_columns
    calls = []

    def singular_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise SingularKrylov("Krylov matrix is singular mod q")
        return interpolate(*args)

    monkeypatch.setattr(qkring, "_interpolated_columns", singular_once)
    table = full_table(build_cominuscule("Gr(2,4)"))
    assert len(calls) == 2
    assert _digest(table) == PINNED_EXACT_TABLES["Gr(2,4)"]


P0 = DEFAULT_PRIMES[0]


def _rank_reference(rows: list, p: int) -> int:
    """Textbook Gaussian elimination over F_p on lists of ints."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _product_mod(A: list, B: list, p: int) -> list:
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


# zero-heavy entries and low inner dimensions make rank deficiency common
residues = st.one_of(st.just(0), st.just(1), st.just(P0 - 1), st.integers(0, P0 - 1))


@st.composite
def matrices_mod_p(draw, square=False):
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    r = draw(st.integers(1, 6))
    B = draw(st.lists(st.lists(residues, min_size=r, max_size=r), min_size=n, max_size=n))
    C = draw(st.lists(st.lists(residues, min_size=m, max_size=m), min_size=r, max_size=r))
    return B, C


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p())
def test_matmul_mod_and_rank_match_reference(BC):
    B, C = BC
    A = _product_mod(B, C, P0)
    got = _matmul_mod(np.array(B, dtype=np.int64), np.array(C, dtype=np.int64), P0)
    assert got.tolist() == A
    R, rank = _row_reduce_mod(np.array(A, dtype=np.int64), P0)
    assert rank == _rank_reference(A, P0)
    assert not R[rank:].any()


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p(square=True))
def test_inverse_mod_or_singular(BC):
    A = np.array(_product_mod(*BC, P0), dtype=np.int64)
    n = len(A)
    if _rank_reference(A.tolist(), P0) == n:
        inv = _inverse_mod(A, P0)
        assert np.array_equal(_matmul_mod(inv, A, P0), np.eye(n, dtype=np.int64))
        # each matrix of a stack pivots on its own rows
        both = _inverse_mod(np.stack([A, A[::-1]]), P0)
        assert np.array_equal(both[0], inv) and np.array_equal(both[1], inv[:, ::-1])
    else:
        with pytest.raises(SingularKrylov):
            _inverse_mod(A, P0)
        with pytest.raises(SingularKrylov):
            _inverse_mod(np.stack([np.eye(n, dtype=np.int64), A]), P0)


# layered matrices over the group ring of rank 1, with zero entries and zero layers
monomials = st.dictionaries(st.tuples(st.integers(-2, 2)), st.integers(-3, 3), max_size=2)


@st.composite
def layered_matrices(draw):
    k, m, n = (draw(st.integers(1, 3)) for _ in range(3))

    def layers(rows, cols):
        count = draw(st.integers(1, 4))
        nonzero = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        return [
            [[GammaElement(1, draw(monomials) if nz else {}) for _ in range(cols)] for _ in range(rows)]
            for nz in nonzero
        ]

    return layers(k, m), layers(m, n)


def _as_array(nested):
    flat = [g for layer in nested for row in layer for g in row]
    return qkring._object_array(flat, (len(nested), len(nested[0]), len(nested[0][0])))


@settings(max_examples=100, deadline=None)
@given(layered_matrices())
def test_layered_product_matches_reference(AB):
    A, B = AB
    zero = GammaElement.zero(1)
    want = [
        [
            [
                sum((A[a][i][t] * B[d - a][t][j] for a in range(len(A)) if 0 <= d - a < len(B) for t in range(len(B[0]))), zero)
                for j in range(len(B[0][0]))
            ]
            for i in range(len(A[0]))
        ]
        for d in range(len(A) + len(B) - 1)
    ]
    got = qkring._lay_mul(_as_array(A), _as_array(B), lambda X, Y: qkring._group_ring_matmul(X, Y, zero))
    assert got.tolist() == want
    # the same product of the residues, at one nonzero x = e^{-alpha}
    node = np.array([[12345]])
    residues = [qkring._eval_array(_as_array(X), P0, node)[0] for X in (A, B)]
    got = qkring._lay_mul(*residues, lambda X, Y: _matmul_mod(X, Y, P0))
    assert np.array_equal(got, qkring._eval_array(_as_array(want), P0, node)[0])


def test_modp_solver_rejects_singular_krylov_matrix():
    # with L = 0 every Krylov column past the first vanishes
    poset = build_cominuscule("Gr(2,4)")
    zero = GammaElement.zero(poset.rs.rank)
    k = len(poset.shape_masks)
    flat = DivisorOperator(poset, [[zero] * k for _ in range(k)], [[zero] * k for _ in range(k)])
    d = make_field(poset, "mod-p")
    with pytest.raises(SingularKrylov):
        _ModPSolver(flat, 4, d["p"], np.array([d["assignment"]]))
