import copy
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qkcalc

from qkcalc import qkring
from qkcalc.chevalley import j_class, sgamma_mask, sgamma_star
from qkcalc.gamma import DEFAULT_PRIMES, GammaElement, GammaError, QPolynomial, ZeroAssignment
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import (
    SingularKrylov,
    TruncationTooSmall,
    _e1_cyclic,
    _inverse_mod,
    _matmul_mod,
    _solve,
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
from qkcalc.store import table_json_obj


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
    # the divisor array is that column, L[d, w, u] = mats[s_gamma, d, w, u]
    L = qkring.divisor_matrix(poset)
    assert (table.mats[si, :2] == L).all() and not table.mats[si, 2:].astype(bool).any()
    assert not L.flags.writeable and qkring.divisor_matrix(poset) is L


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
    from qkcalc.qkring import QKRingError

    table = gr24_table
    path = save_table(table, str(tmp_path))
    _rewrite_header(path, masks=list(reversed(table.masks)))
    with pytest.raises(QKRingError):
        load_table(table.space, table.D, table.backend, str(tmp_path))
    with pytest.raises(QKRingError):
        load_table(table.space, table.D, table.backend, str(tmp_path), product=(0, 0))


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


@pytest.mark.parametrize(
    "change",
    [lambda e, c: {(e[0], e[1], e[2] - 1): c}, lambda e, c: {e: c + 1}],
    ids=["exponent", "coefficient"],
)
def test_packed_checks_see_one_changed_term(gr24_table, change):
    # N^w_{u,v} with u = v is its own transpose, so only the products of
    # packed entries can see the change: the Molev-Sagan sums and [M_u, M_w]
    table = copy.deepcopy(gr24_table)
    at = (1, 0, 2, 1)
    ((e, c),) = table.mats[at].terms.items()
    table.mats[at] = GammaElement(3, change(e, c))
    rep = verify_ms_equations(table)
    assert rep["status"] == "fail" and rep["failure_count"] > 0
    rep = verify_associativity(table)
    assert rep["status"] == "fail"
    assert rep["failure_count"] > 0 and {f[0] for f in rep["failures"]} == {"commutator"}


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



def _sign_expand_reference(g: GammaElement, sign: int):
    """The per-term expansion of g in y_i = e^{-alpha_i} - 1: every term over
    its whole exponent box, in Python ints; (passes, y-coefficients)."""
    poly = {}
    for e, c in g.terms.items():
        if any(x > 0 for x in e):
            return False, None
        ms = tuple(-x for x in e)
        for js in itertools.product(*(range(m + 1) for m in ms)):
            w = c
            for m, j in zip(ms, js):
                w *= math.comb(m, j)
            poly[js] = poly.get(js, 0) + w
    return all(sign * c >= 0 for c in poly.values()), poly


def _positivity_reference(table) -> dict:
    """The positivity report entry by entry, in the loop order (v, d, w, u)."""
    lengths = [bin(m).count("1") for m in table.masks]
    failures, checked = [], 0
    for v, layers in enumerate(table.mats.tolist()):
        for d, mat in enumerate(layers):
            for w, row in enumerate(mat):
                for u, g in enumerate(row):
                    if g.is_zero():
                        continue
                    checked += 1
                    s = lengths[u] + lengths[v] + lengths[w] + d * table.poset.fano_index
                    if not _sign_expand_reference(g, -1 if s % 2 else 1)[0]:
                        failures.append((u, v, w, d))
    rep = qkring._report("positivity-signs", table, failures, {"checked": checked})
    rep["note"] = "conjectural sign condition, report only"
    return rep


@functools.lru_cache(maxsize=None)
def _exact(space: str):
    return full_table(build_cominuscule(space))


def _nonzero(table) -> list:
    return [i for i, g in enumerate(table.mats.flat) if not g.is_zero()]


def _positivity_mutant(space: str, change: str):
    """A copy of the exact table of `space` with one kind of damage."""
    table = _exact(space)
    mats, rank = table.mats.copy(), table.poset.rs.rank
    rng = random.Random(f"{space}:{change}")
    nonzero = _nonzero(table)
    if change == "flip":
        at = rng.choice(nonzero)
        mats.flat[at] = -mats.flat[at]
    elif change == "flip-past-the-cap":
        for at in rng.sample(nonzero, 30):
            mats.flat[at] = -mats.flat[at]
    elif change == "positive-exponent":
        at = rng.choice(nonzero)
        mats.flat[at] = mats.flat[at] + GammaElement(rank, {(1,) + (0,) * (rank - 1): 1})
    elif change == "huge-coefficient":
        # a coefficient of the entry's own sign near 2^61 on the table's term
        # of highest degree: the entry still passes, but its y-coefficients
        # pass 2^63
        at, e = max(((i, e) for i in nonzero for e in mats.flat[i].terms), key=lambda term: -sum(term[1]))
        g = mats.flat[at]
        _, poly = _sign_expand_reference(g, 1)
        sign = 1 if max(poly.values()) > 0 else -1
        mats.flat[at] = GammaElement(rank, {**g.terms, e: g.terms[e] + sign * (2**61 + 1)})
        assert max(abs(c) for c in _sign_expand_reference(mats.flat[at], sign)[1].values()) >= 2**63
    return replace(table, mats=mats)


EXACT_BUILD_SPACES = ("P1", "LG(2,4)", "Q(3)", "Gr(2,4)", "Q(4)", "Q(5)")
POSITIVITY_MUTATIONS = ("flip", "positive-exponent", "flip-past-the-cap", "huge-coefficient")


@pytest.mark.parametrize("entries", [None, 1], ids=["default-blocks", "one-entry-blocks"])
@pytest.mark.parametrize(
    "space, change",
    [(s, None) for s in EXACT_BUILD_SPACES] + [(s, c) for s in ("Q(5)", "Gr(2,4)") for c in POSITIVITY_MUTATIONS],
)
def test_positivity_report_matches_the_per_term_expansion(monkeypatch, space, change, entries):
    table = _exact(space) if change is None else _positivity_mutant(space, change)
    if entries is not None:
        monkeypatch.setattr(qkring, "_BLOCK_ENTRIES", entries)
    want = _positivity_reference(table)
    assert verify_positivity_signs(table) == want
    assert want["checked"] == len(_nonzero(table))
    if change in (None, "huge-coefficient"):
        assert want["status"] == "pass"
    elif change == "flip-past-the-cap":
        assert want["failure_count"] > 20 and len(want["failures"]) == 20
    else:
        assert want["failure_count"] == 1

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


def _exact_lines(path) -> tuple:
    """Header and column lines of an exact cache file."""
    with open(path, "rb") as fh:
        return json.loads(fh.readline()), fh.read().splitlines(keepends=True)


def _write_exact(path, head: dict, lines: list) -> None:
    # the header's offsets follow the lines, so only their content is damaged
    head["columns"] = list(accumulate(map(len, lines), initial=0))
    with open(path, "wb") as fh:
        fh.write(json.dumps(head).encode() + b"\n" + b"".join(lines))


def _misses(args, columns) -> bool:
    """A full read and the product reads of every u with v in `columns` all miss."""
    us = range(len(build_cominuscule(args[0]).shape_masks))
    return load_table(*args) is None and all(load_table(*args, product=(u, v)) is None for v in columns for u in us)


@pytest.mark.parametrize("residue", ["p+1", "-1"])
def test_load_table_treats_a_residue_outside_the_field_as_miss(tmp_path, residue):
    # the column read is range-checked: a full read and every product read
    # of the damaged column miss, and the other columns still answer
    table = full_table(build_cominuscule("Gr(2,4)"), backend="mod-p")
    args, k, p = (table.space, table.D, table.backend, str(tmp_path)), table.k, table.backend["p"]
    assert table.mats[1, 0, 1, 0] == 1
    mats = table.mats.copy()
    mats[1, 0, 1, 0] = p + 1 if residue == "p+1" else -1
    save_table(replace(table, mats=mats), str(tmp_path))
    assert _misses(args, [1])
    assert all((load_table(*args, product=(u, v)) == table.mats[v][:, :, u]).all() for v in (0, 2) for u in range(k))


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_load_table_treats_malformed_file_as_miss(tmp_path, backend):
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    args = (table.space, table.D, table.backend, str(tmp_path))
    k = table.k
    damages = [{"masks": None}, {"masks": 7}, {"flags": 7}]
    if table.is_exact:
        head, lines = _exact_lines(save_table(table, str(tmp_path)))
        ends = head["columns"]
        assert len(lines) == k and ends == list(accumulate(map(len, lines), initial=0))
        damages += [{"columns": None}, {"columns": 7}, {"columns": "x"}]
        # of the wrong length, not increasing, or past the end of the file
        damages += [{"columns": ends[:-1]}, {"columns": ends + [ends[-1]]}, {"columns": [0] + ends}]
        damages += [{"columns": ends[:1] + ends[2:3] + ends[1:2] + ends[3:]}, {"columns": ends[:1] + ends[1:2] * 2 + ends[3:]}]
        damages += [{"columns": ends[:-1] + [ends[-1] + 1]}, {"columns": [x + 1 for x in ends]}]
    else:
        damages += [{"shape": None}, {"shape": 7}, {"shape": "x"}, {"shape": [k, table.D + 1, k, -k]}]
        # the payload read as an array of another shape
        damages += [{"shape": [k, table.D + 1, k * k]}, {"shape": [k, table.D, k, k]}]
    for damage in damages:
        _rewrite_header(save_table(table, str(tmp_path)), **damage)
        assert _misses(args, range(k)), damage
    path = save_table(table, str(tmp_path))
    with open(path, "rb") as fh:
        good = fh.read()
    # cut inside the last column, or grown past it
    for broken in (good[:-1], good + b"\0", good[:-8]):
        with open(path, "wb") as fh:
            fh.write(broken)
        assert _misses(args, range(k))
    if table.is_exact:
        # a column line of the wrong shape misses on a full read and on its own,
        # ragged rows with the right count of entries included
        head, lines = _exact_lines(save_table(table, str(tmp_path)))
        col = json.loads(lines[2])
        ragged = [[mat[0] + mat[1][-1:], mat[1][:-1], *mat[2:]] for mat in col]
        for wrong in (col[:-1], [mat[:-1] for mat in col], [[row[:-1] for row in mat] for mat in col], ragged, [[[]]], 7):
            _write_exact(path, head, lines[:2] + [json.dumps(wrong).encode() + b"\n"] + lines[3:])
            assert _misses(args, [2]), wrong
            assert all((load_table(*args, product=(u, 3)) == table.mats[3][:, :, u]).all() for u in range(k))
    path = save_table(table, str(tmp_path))
    os.unlink(path)
    os.mkdir(path)
    assert _misses(args, range(k))


def test_product_read_decodes_only_its_product(tmp_path, gr24_table):
    # a malformed entry misses the full read and the product it belongs to;
    # the other products of its column do not decode it.  In the unit's seed
    # (u = 0) it misses every product of its column, which all check the seed
    table = gr24_table
    args = (table.space, table.D, table.backend, str(tmp_path))
    path = save_table(table, str(tmp_path))
    head, lines = _exact_lines(path)
    for bad in (1, 0):
        col = json.loads(lines[2])
        col[1][4][bad] = {"rank": 3, "terms": [[[0, 0, 0], "one"]]}
        _write_exact(path, head, lines[:2] + [json.dumps(col).encode() + b"\n"] + lines[3:])
        assert load_table(*args) is None and load_table(*args, product=(bad, 2)) is None
        answered = [u for u in range(table.k) if load_table(*args, product=(u, 2)) is not None]
        assert answered == ([u for u in range(table.k) if u != bad] if bad else [])
        assert all((load_table(*args, product=(u, 2)) == table.mats[2][:, :, u]).all() for u in answered)


@pytest.mark.parametrize("space", ["Gr(2,4)", "Q(4)", "Q(5)"])
@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_column_read_is_the_table_column(tmp_path, space, backend):
    # a product read is the slice mats[v][:, :, u] of the full read
    table = full_table(build_cominuscule(space), backend=backend)
    save_table(table, str(tmp_path))
    args = (table.space, table.D, table.backend, str(tmp_path))
    full = load_table(*args)
    assert (full.mats == table.mats).all()
    k = table.k
    for v in range(k):
        for u in range(k):
            c = load_table(*args, product=(u, v))
            assert len(c) == table.D + 1 and all(len(row) == k for row in c)
            assert all(type(x) is (GammaElement if table.is_exact else int) for row in c for x in row)
            assert c == full.mats[v][:, :, u].tolist()
    for product in ((-1, 0), (k, 0), (0, -1), (0, k)):
        with pytest.raises(IndexError):
            load_table(*args, product=product)


def test_load_table_reads_a_file_with_the_old_fallback_flag(tmp_path):
    # older default rules marked their mod-p fallback "exact_out_of_reach":
    # such a file answers full and product reads, without the mark
    table = full_table(build_cominuscule("Gr(2,4)"), backend="mod-p")
    args = (table.space, table.D, table.backend, str(tmp_path))
    _rewrite_header(save_table(table, str(tmp_path)), flags={"exact_out_of_reach": True, "stabilized": True})
    full = load_table(*args)
    assert full.flags == {"stabilized": True} and (full.mats == table.mats).all()
    assert load_table(*args, product=(2, 1)) == table.mats[1][:, :, 2].tolist()


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
    mats = interpolate(*args)
    for M in mats:
        M[0][1][1] = M[0][1][1] + GammaElement.from_int(M[0][1][1].rank, 1)
    return mats
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


# sha256(json.dumps(table_json_obj(table), sort_keys=True))[:16] of the default
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
    return hashlib.sha256(json.dumps(table_json_obj(table), sort_keys=True).encode()).hexdigest()[:16]


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


@pytest.mark.parametrize("space", ["Gr(2,4)", "Q(5)"])
def test_modp_tables_match_one_solve_per_point(space):
    # one batched solve per prime gives each point's table as full_table does
    poset = build_cominuscule(space)
    tables = modp_tables(poset)
    rank = poset.rs.rank
    assert [(t.backend["p"], tuple(t.backend["assignment"])) for t in tables] == [
        (p, asg) for p in DEFAULT_PRIMES[:2] for asg in qkring.default_assignments(rank, p, 2, 0)
    ]
    for t in tables:
        one = full_table(poset, t.D, t.backend)
        assert one.backend == t.backend and one.flags == t.flags
        assert np.array_equal(one.mats, t.mats)


@pytest.mark.parametrize("space", ["LG(3,6)", "Gr(2,5)"])
def test_exact_build_of_larger_spaces(space):
    # out of reach of the group-ring solve (over 590 s each)
    poset = build_cominuscule(space)
    start = time.perf_counter()
    table = full_table(poset)
    assert time.perf_counter() - start < 10
    assert verify_ms_equations(table)["status"] == "pass"
    assert tables_agree(table, modp_tables(poset, D=table.D)[0])


def test_exact_build_redraws_after_a_failed_certificate(monkeypatch):
    # a degree box one short on one axis interpolates the wrong polynomials;
    # the certificate, verify_ms_equations, rejects them and the doubled box
    # gives the true table
    outcomes = []
    verify = qkring.verify_ms_equations
    poset = build_cominuscule("Gr(2,4)")
    monkeypatch.setattr(poset, "table_degrees", (2, 3, 2))

    def recorded(t):
        rep = verify(t)
        outcomes.append(rep["status"] == "pass")
        return rep

    monkeypatch.setattr(qkring, "verify_ms_equations", recorded)
    table = full_table(poset)
    assert outcomes == [False, True]
    assert _digest(table) == PINNED_EXACT_TABLES["Gr(2,4)"]


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
@pytest.mark.parametrize("scale", [0, 2], ids=["zeroed", "doubled"])
def test_ms_equations_fail_a_scaled_table(backend, scale):
    # the Molev-Sagan sums are linear in the table, so a zeroed or doubled
    # table passes them; the unit's seed O^1 * O^v = O^v fails it at (0, v, v)
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    assert verify_ms_equations(table)["status"] == "pass"
    if table.is_exact:
        mats = _object_array_of(lambda g: g + g if scale else g - g, table.mats)
    else:
        mats = table.mats * scale % table.backend["p"]
    rep = verify_ms_equations(replace(table, mats=mats))
    assert rep["status"] == "fail"
    assert rep["failures"] == [(0, v, v) for v in range(table.k)]


def test_exact_build_refuses_a_grid_out_of_reach(monkeypatch):
    # 8e6 nodes would take gigabytes; the build stops before allocating them
    poset = build_cominuscule("Gr(2,4)")
    monkeypatch.setattr(poset, "table_degrees", (199, 199, 199))
    solves = _recording_solves(monkeypatch)
    with pytest.raises(qkring.GridOutOfReach, match="a grid of 8000000 points; use the mod-p backend"):
        full_table(poset)
    assert solves == []


def _recording_solves(monkeypatch) -> list:
    """(D, p, points) of every _solve call from now on, in order."""
    seen = []
    solve = qkring._solve
    monkeypatch.setattr(qkring, "_solve", lambda L, D, p: seen.append((D, p, len(L))) or solve(L, D, p))
    return seen


# digests of exact tables past the benchmark's spaces, recorded from the
# column-blocked solve that the point blocks replaced
LARGER_EXACT_TABLES = {"Gr(2,5)": "543239b4e8d0f04f", "LG(3,6)": "1111ab0c181cad66", "OG(4,8)": "d07126d50412fa50"}


@pytest.mark.parametrize("one_point", [False, True], ids=["default-blocks", "one-point-blocks"])
@pytest.mark.parametrize("space", [*EXACT_BUILD_SPACES, "Gr(2,5)", "LG(3,6)", "Q(6)", "OG(4,8)"])
def test_exact_build_solves_the_grid_in_blocks_of_points(monkeypatch, space, one_point):
    # the grid of table_degrees + 1 nodes per variable is solved in blocks of
    # points, every column at once: each block holds at most _BLOCK_ENTRIES
    # entries, or is one point
    poset = build_cominuscule(space)
    k = len(poset.shape_masks)
    if one_point:
        monkeypatch.setattr(qkring, "_BLOCK_ENTRIES", 1)
    solves = _recording_solves(monkeypatch)
    assert _digest(full_table(poset)) == {**PINNED_EXACT_TABLES, **LARGER_EXACT_TABLES}[space]
    assert sum(n for _, _, n in solves) == math.prod(d + 1 for d in poset.table_degrees)
    assert all(n == 1 or n * (D + 1) * k**3 <= qkring._BLOCK_ENTRIES for D, _, n in solves)
    # every block but the last is as large as the bound allows
    assert all((n + 1) * (D + 1) * k**3 > qkring._BLOCK_ENTRIES for D, _, n in solves[:-1])


def test_exact_build_redraws_after_a_missed_live_entry(monkeypatch):
    # an entry zero on the first block of points but not on the second: the
    # nodes are redrawn on the same box, and the second draw builds the table
    poset = build_cominuscule("Q(5)")
    k = len(poset.shape_masks)
    monkeypatch.setattr(qkring, "_BLOCK_ENTRIES", 100 * 3 * k**3)
    solve, interpolate = qkring._solve, qkring._interpolated_columns
    blocks, draws, dead = [], [], []

    def planted(L, D, p):
        M = solve(L, D, p)
        blocks.append(len(L))
        if len(blocks) == 1:
            dead.extend(np.argwhere(~M.any(axis=0))[0])
        elif len(blocks) == 2:
            M[(-1, *dead)] = 1
        return M

    monkeypatch.setattr(qkring, "_solve", planted)
    monkeypatch.setattr(qkring, "_interpolated_columns", lambda *args: draws.append(list(args[2])) or interpolate(*args))
    assert _digest(full_table(poset)) == PINNED_EXACT_TABLES["Q(5)"]
    # one redraw, on the same box; the first draw stops at its second block
    assert draws == [[6, 6, 6]] * 2 and blocks == [100, 100, 100, 100, 16]


def test_exact_build_names_a_missed_live_entry_on_both_draws(monkeypatch):
    def missed(*args):
        raise qkring.LiveSetMissed("planted")

    monkeypatch.setattr(qkring, "_interpolated_columns", missed)
    with pytest.raises(qkring.QKRingError, match="missed a live entry in its first block of points on its last draw"):
        full_table(build_cominuscule("Q(5)"))


@pytest.mark.parametrize("double", [False, True], ids=["default-D", "doubled-D"])
@pytest.mark.parametrize("space", ["Gr(2,4)", "Q(5)"])
def test_exact_solves_stop_at_d_max(monkeypatch, space, double):
    # every solve of an exact build stops at q^{d_max}, whatever D; the table
    # keeps D + 1 layers, the ones above d_max zero, and the same digest
    poset = build_cominuscule(space)
    default = qkring.default_truncation(poset)
    D = 2 * default if double else default
    solves = _recording_solves(monkeypatch)
    table = full_table(poset, D=D)
    assert {S for S, _, _ in solves} == {min(D, poset.d_max)}
    assert table.D == D and table.mats.shape == (table.k, D + 1, table.k, table.k)
    assert all(g.is_zero() for g in table.mats[:, poset.d_max + 1:].flat)
    if double:
        assert np.array_equal(table.mats[:, :default + 1], full_table(poset).mats)
    else:
        assert _digest(table) == PINNED_EXACT_TABLES[space]


@pytest.mark.parametrize("space", ["Gr(2,4)", "Q(5)"])
def test_exact_truncation_one_above_d_max_is_too_small(space):
    # the certificate needs layers D - 1 and D to vanish, and q^{d_max} occurs
    poset = build_cominuscule(space)
    with pytest.raises(TruncationTooSmall, match=f"q\\^{poset.d_max} with truncation {poset.d_max + 1}"):
        full_table(poset, D=poset.d_max + 1, backend="exact")


@pytest.mark.parametrize("space, builds", [
    ("E6", False), ("Gr(3,7)", False), ("Gr(3,6)", False), ("LG(4,8)", False), ("OG(5,10)", False),
    ("Gr(1,8)", False), ("OG(4,8)", True), ("LG(3,6)", True),
])
def test_exact_refusals_stay_where_they_are(space, builds):
    # the grid guard counts D + 1 layers, as before the solves stopped at d_max
    poset = build_cominuscule(space)
    if builds:
        assert full_table(poset).flags == {"stabilized": True}
    else:
        with pytest.raises(qkring.GridOutOfReach, match="mod-p backend"):
            full_table(poset)


# sha256 of the exact cache file that save_table writes, recorded at the
# parent of the batched probe
PINNED_EXACT_CACHE_FILES = {
    "Gr(2,4)": "815d654bbf17861d57a9c70ccbb38214be7dfc04eefdb4b56a850109660e9194",
    "Q(5)": "35aed345e376e4c5fce4d7c5054a2416764d610f0962e385021f467f8525512f",
}


@pytest.mark.parametrize("space", sorted(PINNED_EXACT_CACHE_FILES))
def test_exact_cache_file_bytes_are_pinned(tmp_path, space):
    path = save_table(full_table(build_cominuscule(space)), str(tmp_path))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == PINNED_EXACT_CACHE_FILES[space]


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
    # the second draw keeps the box: only a failed certificate doubles it
    assert len(calls) == 2 and calls[1][2] == calls[0][2] == [3, 5, 3]
    assert _digest(table) == PINNED_EXACT_TABLES["Gr(2,4)"]


def test_exact_build_names_a_singular_node_on_both_draws(monkeypatch):
    # two singular draws are reported as such, not as a failed certificate
    def singular(*args):
        raise SingularKrylov("Krylov matrix is singular mod q")

    monkeypatch.setattr(qkring, "_interpolated_columns", singular)
    with pytest.raises(qkring.QKRingError) as err:
        full_table(build_cominuscule("Gr(2,4)"))
    assert type(err.value) is qkring.QKRingError
    assert "singular Krylov node" in str(err.value) and "certificate" not in str(err.value)


def test_failed_certificate_with_a_doubled_grid_out_of_reach_names_both(monkeypatch):
    # Q(7)'s box one short on x_1 fails its certificate, and the doubled
    # 14 x 16 x 16 x 16 box is past the guard: the error names the failed
    # certificate, not a refused grid alone
    poset = build_cominuscule("Q(7)")
    monkeypatch.setattr(poset, "table_degrees", (6, 7, 7, 7))
    solves = _recording_solves(monkeypatch)
    with pytest.raises(qkring.QKRingError) as err:
        full_table(poset, D=5)
    assert type(err.value) is qkring.QKRingError
    assert "failed its exact certificate" in str(err.value) and "a grid of 57344 points" in str(err.value)
    # the first box was solved, the doubled one was not
    assert sum(n for _, _, n in solves) == 7 * 8**3


@pytest.mark.parametrize("space", EXACT_BUILD_SPACES + ("Q(6)",))
def test_table_degrees_are_the_largest_exponents(space):
    # the closed form is reached: the table's largest degree in each x_i
    exps = qkring._terms(_exact(space).mats)[1]
    assert tuple((-exps).max(axis=0).tolist()) == build_cominuscule(space).table_degrees


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


@st.composite
def krylov_operators(draw):
    """Square M: a product of two drawn factors, or a scalar or a diagonal M,
    for which e_1 is an eigenvector and so cyclic only when k = 1."""
    kind = draw(st.sampled_from(["product", "scalar", "diagonal"]))
    if kind == "product":
        return _product_mod(*draw(matrices_mod_p(square=True)), P0)
    k = draw(st.integers(1, 6))
    values = [draw(residues)] * k if kind == "scalar" else [draw(residues) for _ in range(k)]
    return [[values[i] if i == j else 0 for j in range(k)] for i in range(k)]


@settings(max_examples=150, deadline=None)
@given(matrices_mod_p(), krylov_operators())
def test_matmul_mod_and_rank_match_reference(BC, M):
    B, C = BC
    A = _product_mod(B, C, P0)
    got = _matmul_mod(np.array(B, dtype=np.int64), np.array(C, dtype=np.int64), P0)
    assert got.tolist() == A
    # the rows of K are e_1, M e_1, ..., M^{k-1} e_1
    k = len(M)
    K = [[1] + [0] * (k - 1)]
    for _ in range(1, k):
        K.append([row[0] for row in _product_mod(M, [[x] for x in K[-1]], P0)])
    assert _e1_cyclic(np.array(M, dtype=np.int64), P0) == (_rank_reference(K, P0) == k)


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


# layered matrices over the group ring of rank 2, with zero entries and zero
# layers; the exponents often sit at both ends of the box [-2, 2]^2
monomials = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-3, 3), max_size=2)


@st.composite
def layered_matrices(draw):
    k, m, n = (draw(st.integers(1, 3)) for _ in range(3))

    def layers(rows, cols):
        count = draw(st.integers(1, 4))
        nonzero = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        return [
            [[GammaElement(2, draw(monomials) if nz else {}) for _ in range(cols)] for _ in range(rows)]
            for nz in nonzero
        ]

    return layers(k, m), layers(m, n)


def _as_array(nested):
    flat = [g for layer in nested for row in layer for g in row]
    return qkring._object_array(flat, (len(nested), len(nested[0]), len(nested[0][0])))


# ---------------------------------------------------------------------------
# The dict kernel the exact checks ran on before their term-array joins, kept
# as the reference: every entry a dict {packed key: Python-int coefficient},
# multiplied term pair by term pair


def _packing(rank: int, arrays):
    """Packer of layered group-ring arrays (..., layers, k, m) into arrays
    (..., 1, k, m) of dicts {key: coefficient}, the coefficients Python ints.

    The key of q^d e^lam is sum_i lam_i B_i + d B_rank, a Kronecker index over
    a box [lo, hi] that holds 0 and every exponent in arrays: B_0 = 1 and
    B_{i+1} = B_i * (2(hi_i - lo_i) + 1).  The exponents of two products of
    two entries differ by less than that width in each variable, so the key
    stays injective on them, and the key of a product is the sum of its
    factors'.  q comes last, so its degree needs no width.
    """
    exps = np.array([e for G in arrays for g in G.flat for e in g.terms], dtype=np.int64).reshape(-1, rank)
    strides = [1]
    for lo, hi in zip(exps.min(axis=0, initial=0).tolist(), exps.max(axis=0, initial=0).tolist()):
        strides.append(strides[-1] * (2 * (hi - lo) + 1))
    qstride = strides.pop()

    def pack(G: np.ndarray) -> np.ndarray:
        G = np.moveaxis(G, -3, -1)
        flat = [
            {sum(map(operator.mul, e, strides)) + d * qstride: c for d, g in enumerate(layers) for e, c in g.terms.items()}
            for layers in G.reshape(-1, G.shape[-1]).tolist()
        ]
        return qkring._object_array(flat, G.shape[:-1])[..., None, :, :]

    return pack


def _packed_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for object arrays of packed entries, skipping zero entries; the
    coefficients are Python ints and zero terms are dropped, so equal
    products are equal dicts."""
    n = B.shape[1]
    rows = [[(j, y.items()) for j, y in enumerate(brow) if y] for brow in B.tolist()]
    out = []
    for arow in A.tolist():
        acc = {}
        for x, brow in zip(arow, rows):
            if x:
                x = x.items()
                for j, y in brow:
                    a = acc.get(j)
                    if a is None:
                        a = acc[j] = {}
                    for e1, c1 in x:
                        for e2, c2 in y:
                            e = e1 + e2
                            a[e] = a.get(e, 0) + c1 * c2
        row = [{} for _ in range(n)]
        for j, a in acc.items():
            row[j] = {e: c for e, c in a.items() if c}
        out += row
    return qkring._object_array(out, (A.shape[0], n))


def _dict_ring(table):
    """The exact ring of the dict kernel, for the same check bodies."""
    layers = qkring.divisor_matrix(table.poset)[: table.D + 1]
    pack = _packing(table.poset.rs.rank, (table.mats, layers))
    return qkring._Ring(pack(table.mats), pack(layers), lambda A, B: _packed_matmul(A[0], B[0])[None])


def _reference_seed(table) -> np.ndarray:
    """broken[v, w]: N^w_{1,v} is not the unit's product, entry by entry."""
    k, one = table.k, GammaElement.from_int(table.poset.rs.rank, 1) if table.is_exact else 1
    zero = one - one
    broken = np.zeros((k, k), dtype=bool)
    for v, d, w in itertools.product(range(k), range(table.D + 1), range(k)):
        broken[v, w] |= table.mats[v, d, w, 0] != (one if (d, w) == (0, v) else zero)
    return broken


def _dict_reports(monkeypatch, table) -> list:
    with monkeypatch.context() as m:
        m.setattr(qkring, "verify_ring", _dict_ring)
        m.setattr(qkring, "_seed_breaks", _reference_seed)
        return [verify_ms_equations(table), verify_associativity(table)]


def _packed_product(A, B, *more):
    """The dict kernel's product of the layered matrices A and B, and the
    packed form of each of more, all packed over the box of A and B; q is in
    the keys, so each is a single layer."""
    arrays = [_as_array(A), _as_array(B)]
    pack = _packing(2, arrays)
    return [_packed_matmul(*(pack(X)[0] for X in arrays))[None]] + [pack(_as_array(X)) for X in more]


def _term_product(A, B) -> list:
    """The term-array product of the layered matrices A and B of rank 2,
    its keys decoded over the box of A and B: layers [d][i][j] of
    GammaElements.  No two of its terms share an entry and a key."""
    arrays = [_as_array(A), _as_array(B)]
    got = qkring._term_matmul(*qkring._term_arrays(2, arrays))
    exps = np.array([e for X in arrays for g in X.flat for e in g.terms]).reshape(-1, 2)
    lo = exps.min(axis=0, initial=0).tolist()
    radix = (2 * (exps.max(axis=0, initial=0) - lo) + 1).tolist()
    n, r = got.shape[1:]
    out = [[[{} for _ in range(r)] for _ in range(n)] for _ in range(len(A) + len(B) - 1)]
    for code, c in zip(got.code.tolist(), got.coef.tolist()):
        at, key = divmod(code, got.span)
        d, rest = divmod(key, radix[0] * radix[1])
        # a product's exponents are its key's digits above 2 lo
        e = (rest % radix[0] + 2 * lo[0], rest // radix[0] + 2 * lo[1])
        i, j = divmod(at, r)
        assert e not in out[d][i][j] and c
        out[d][i][j][e] = c
    return [[[GammaElement(2, t) for t in row] for row in layer] for layer in out]


@settings(max_examples=100, deadline=None)
@given(layered_matrices())
def test_layered_product_matches_reference(AB):
    A, B = AB
    zero = GammaElement.zero(2)
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
    # the term-array join, and the dict kernel it replaced
    assert _term_product(A, B) == want
    got, packed_want = _packed_product(A, B, want)
    assert got.shape == packed_want.shape == (1, len(A[0]), len(B[0][0]))
    assert got.tolist() == packed_want.tolist()
    # the same product of the residues, at one point with nonzero x_1, x_2:
    # the layer convolution, and pointwise at as many values of q as layers
    node = np.array([[12345, 678]])
    residues = [qkring._eval_array(_as_array(X), P0, node)[0] for X in (A, B)]
    product = qkring._eval_array(_as_array(want), P0, node)[0]
    assert np.array_equal(_lay_mul(*residues, lambda X, Y: _matmul_mod(X, Y, P0)), product)
    n = len(product)
    got = _matmul_mod(*(qkring._values(X, 0, n, P0) for X in residues), P0)
    assert np.array_equal(got, qkring._values(product, 0, n, P0))


def test_packed_keys_keep_the_ends_of_the_box_apart():
    # exponents at both ends of the box [-2, 2]^2.  Widths of hi - lo + 1 = 5
    # would give e^(4,-4) and e^(-1,-3) one key, and the product would cancel
    # to 0; the widths 2(hi - lo) + 1 = 9 keep them apart.
    def g(*e, c=1):
        return GammaElement(2, {e: c})

    A = [[[g(2, -2), g(-1, -2), g(-2, 2)]]]
    B = [[[g(2, -2)], [g(0, -1, c=-1)], [GammaElement.zero(2)]]]
    want = GammaElement(2, {(4, -4): 1, (-1, -3): -1})
    assert _term_product(A, B) == [[[want]]]
    got, packed = _packed_product(A, B, [[[want]]])
    assert got.tolist() == packed.tolist()
    assert len(got[0, 0, 0]) == 2


@st.composite
def term_arrays(draw):
    """Two term arrays of shapes (J, n, m) and (J, m, r) with keys below 3,
    terms in any order and (entry, key) pairs repeated or cancelling, and
    their dense forms D[..., key]."""
    J, n, m, r = (draw(st.integers(1, 3)) for _ in range(4))
    out = []
    for shape in ((J, n, m), (J, m, r)):
        terms = draw(st.lists(st.tuples(st.integers(0, math.prod(shape) - 1), st.integers(0, 2), st.integers(-3, 3)), max_size=12))
        at, key, coef = (np.array(x, dtype=np.int64).reshape(-1) for x in zip(*terms)) if terms else [np.zeros(0, dtype=np.int64)] * 3
        dense = np.zeros((math.prod(shape), 3), dtype=np.int64)
        np.add.at(dense, (at, key), coef)
        out.append((qkring._TermArray(shape, at * 6 + key, coef, 6), dense.reshape(*shape, 3)))
    return out


def _densify(T, keys: int):
    dense = np.zeros((math.prod(T.shape), keys), dtype=np.int64)
    np.add.at(dense, np.divmod(T.code, T.span), T.coef)
    return dense.reshape(*T.shape, keys)


@settings(max_examples=200, deadline=None)
@given(term_arrays(), st.integers(1, 3), st.booleans())
def test_term_arrays_act_like_their_dense_forms(pair, row, small_blocks):
    (A, DA), (B, DB) = pair
    # slices and indices of the first axis, reshapes and transposes
    for i in range(len(A)):
        assert np.array_equal(_densify(A[i], 3), DA[i])
        assert np.array_equal(_densify(A[i:], 3), DA[i:])
    J, n, m = A.shape
    assert np.array_equal(_densify(A.reshape(-1, n * m), 3), DA.reshape(-1, n * m, 3))
    for axes in itertools.permutations(range(3)):
        assert np.array_equal(_densify(A.transpose(*axes), 3), DA.transpose(*axes, 3))
    # the product convolves the keys; blocks of one pair split every join
    want = np.zeros((J, n, B.shape[2], 5), dtype=np.int64)
    for k1, k2 in itertools.product(range(3), repeat=2):
        want[..., k1 + k2] += DA[..., k1] @ DB[..., k2]
    entries = 1 if small_blocks else qkring._BLOCK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qkring, "_BLOCK_ENTRIES", entries)
        got = qkring._term_matmul(A, B)
    assert np.array_equal(_densify(got, 5), want)
    # != marks the entries whose polynomials differ
    other = qkring._TermArray(A.shape, A.code[::row], A.coef[::row], A.span)
    assert np.array_equal(A != other, (DA != _densify(other, 3)).any(axis=-1))


def _check_mutant(space: str, change: str, seed: int):
    """A copy of the exact table of `space` with one kind of damage: one
    coefficient raised by 1, one entry moved to another q-layer, or two
    different entries of one column M_v swapped."""
    table = _exact(space)
    mats, rank = table.mats.copy(), table.poset.rs.rank
    rng = random.Random(f"{space}:{change}:{seed}")
    at = rng.choice(_nonzero(table))
    if change == "coefficient":
        g = mats.flat[at]
        e = rng.choice(sorted(g.terms))
        mats.flat[at] = GammaElement(rank, {**g.terms, e: g.terms[e] + 1})
    elif change == "q-layer":
        v, d, w, u = np.unravel_index(at, mats.shape)
        to = rng.choice([x for x in range(table.D + 1) if x != d])
        mats[v, to, w, u] = mats[v, to, w, u] + mats[v, d, w, u]
        mats[v, d, w, u] = GammaElement.zero(rank)
    elif change == "swap":
        column = mats[at // mats[0].size]
        other = rng.choice([i for i in range(column.size) if column.flat[i] != mats.flat[at]])
        i = at % column.size
        column.flat[i], column.flat[other] = column.flat[other], column.flat[i]
    return replace(table, mats=mats)


CHECK_MUTATIONS = ("coefficient", "q-layer", "swap")


@pytest.mark.parametrize("entries", [None, 64], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("change", CHECK_MUTATIONS)
@pytest.mark.parametrize("space", ["LG(2,4)", "Gr(2,4)", "Q(5)"])
def test_term_checks_report_what_the_dict_kernel_reports(monkeypatch, space, change, seed, entries):
    # the whole reports, failures in their order and failure_count included;
    # small blocks split every join into several
    table = _check_mutant(space, change, seed)
    want = _dict_reports(monkeypatch, table)
    if entries is not None:
        monkeypatch.setattr(qkring, "_BLOCK_ENTRIES", entries)
    assert [verify_ms_equations(table), verify_associativity(table)] == want
    assert "fail" in {r["status"] for r in want}


@pytest.mark.parametrize("space", EXACT_BUILD_SPACES)
def test_term_checks_pass_where_the_dict_kernel_passes(monkeypatch, space):
    table = _exact(space)
    want = _dict_reports(monkeypatch, table)
    assert [verify_ms_equations(table), verify_associativity(table)] == want
    assert {r["status"] for r in want} == {"pass"}
    assert qkring.verify_ring(table).mats.coef.dtype == np.int64


@pytest.mark.parametrize("change", [None, *CHECK_MUTATIONS])
def test_term_checks_past_int64_use_python_ints(monkeypatch, change):
    # every coefficient times 2^40 and one raised by 2^62: the table still
    # commutes with L, but its products pass 2^63, so the term arrays hold
    # Python ints and must report what the dict kernel reports
    table = _exact("Gr(2,4)") if change is None else _check_mutant("Gr(2,4)", change, 0)
    rank = table.poset.rs.rank
    mats = _object_array_of(lambda g: GammaElement(rank, {e: c << 40 for e, c in g.terms.items()}), table.mats)
    at = _nonzero(table)[0]
    ((e, c), *rest) = mats.flat[at].terms.items()
    mats.flat[at] = GammaElement(rank, {e: c + (1 << 62), **dict(rest)})
    table = replace(table, mats=mats)
    assert qkring.verify_ring(table).mats.coef.dtype == object
    want = _dict_reports(monkeypatch, table)
    assert [verify_ms_equations(table), verify_associativity(table)] == want
    assert "fail" in {r["status"] for r in want}


def _object_array_of(f, X):
    return qkring._object_array([f(x) for x in X.flat], X.shape)


def test_backend_agreement_scans_the_exact_table_once(monkeypatch, gr24_table):
    # one scan of the exact terms, one evaluation per prime at both assignments
    modp = modp_tables(gr24_table.poset, D=gr24_table.D)
    scans, evals = [], []
    terms, evaluate = qkring._terms, qkring._eval_array
    monkeypatch.setattr(qkring, "_terms", lambda G: scans.append(G.shape) or terms(G))
    monkeypatch.setattr(qkring, "_eval_array", lambda G, p, nodes, t=None: evals.append(len(nodes)) or evaluate(G, p, nodes, t))
    assert tables_agree(gr24_table, *modp)
    assert scans == [gr24_table.mats.shape] and evals == [2, 2]
    for i in range(len(modp)):
        bad = [replace(m, mats=m.mats.copy()) for m in modp]
        bad[i].mats[1, 0, 1, 0] += 1
        assert not tables_agree(gr24_table, *bad)
    assert all(tables_agree(gr24_table, m) for m in modp)


def _pair_loop_solve(L, D, p, nodes):
    """The layers of K and K^{-1} and of every column M_v at each point, with
    one product per pair of layers: K[j, d] and C[j, d] are layer d of K and
    of K^{-1}, and M[j, v, d, w, u].  The powers of L come from their own
    loop, one product per layer of L: P[i][j, d] is layer d of L^i."""
    n, k = len(nodes), L.shape[-1]
    L0, L1 = qkring._eval_array(L, p, nodes).transpose(1, 0, 2, 3)
    P = [np.zeros((n, D + 1, k, k), dtype=np.int64)]
    P[0][:, 0] = np.eye(k, dtype=np.int64)
    for i in range(1, k):
        Q = _matmul_mod(L0[:, None], P[-1], p)
        Q[:, 1:] += _matmul_mod(L1[:, None], P[-1][:, :-1], p)
        P.append(Q % p)
    # column i of K is L^i e_1, column i of W_v is L^i e_v
    K = np.stack([Pi[..., 0] for Pi in P], axis=-1)
    C = [_inverse_mod(K[:, 0], p)]
    for d in range(1, D + 1):
        S = sum(_matmul_mod(K[:, a], C[d - a], p) for a in range(1, d + 1)) % p
        C.append(-_matmul_mod(C[0], S, p) % p)
    M = np.zeros((n, k, D + 1, k, k), dtype=np.int64)
    for v in range(k):
        W = np.stack([Pi[..., v] for Pi in P], axis=-1)
        for a in range(D + 1):
            for b in range(D + 1 - a):
                M[:, v, a + b] += _matmul_mod(W[:, a], C[b], p)
    return K, np.stack(C, axis=1), M % p


@st.composite
def divisors_and_points(draw):
    rank, k, n = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 2)] * rank), st.integers(-9, 9), max_size=2)
    L = qkring._object_array([GammaElement(rank, draw(terms)) for _ in range(2 * k * k)], (2, k, k))
    p = draw(st.sampled_from(DEFAULT_PRIMES[:2]))
    nodes = draw(st.lists(st.lists(st.integers(1, p - 1), min_size=rank, max_size=rank), min_size=n, max_size=n))
    return L, draw(st.integers(1, 4)), p, np.array(nodes, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(divisors_and_points())
def test_modp_solver_takes_one_product_per_layer(LDpn):
    # the block products of the lifting and of the columns are the sums over
    # pairs of layers that they replace, on powers of L computed apart
    L, D, p, nodes = LDpn
    try:
        M = _solve(qkring._eval_array(L, p, nodes), D, p)
    except SingularKrylov:
        assume(False)
    K, C, want = _pair_loop_solve(L, D, p, nodes)
    assert np.array_equal(M, want)
    # and the reference's K^{-1} inverts its K mod q^{D+1}
    k = L.shape[-1]
    for d in range(D + 1):
        KC = sum(_matmul_mod(K[:, a], C[:, d - a], p) for a in range(d + 1)) % p
        assert np.array_equal(KC, np.broadcast_to(np.eye(k, dtype=np.int64) * (d == 0), KC.shape))


@settings(max_examples=60, deadline=None)
@given(divisors_and_points())
def test_solving_points_together_equals_solving_each_alone(LDpn):
    L, D, p, nodes = LDpn
    Lj = qkring._eval_array(L, p, nodes)
    try:
        M = _solve(Lj, D, p)
    except SingularKrylov:
        assume(False)
    assert np.array_equal(M, np.concatenate([_solve(Lj[j:j + 1], D, p) for j in range(len(nodes))]))


def _dense_coefficients(M, counts, inverses, p):
    """The terms of every entry of M[j, ...], zero or not, by Python-int
    transforms along each axis of the grid."""
    c = M.reshape(*counts, -1).astype(object)
    for axis, Vinv in enumerate(inverses):
        c = np.moveaxis(np.tensordot(Vinv.astype(object), c, axes=([1], [axis])), 0, axis) % p
    return [
        {tuple(-i for i in at): (x - p if x > p // 2 else x) for at, x in np.ndenumerate(c[..., e]) if x}
        for e in range(c.shape[-1])
    ]


@pytest.mark.parametrize("entries", [qkring._BLOCK_ENTRIES, 12], ids=["one-slice", "slices"])
def test_coefficients_transform_only_live_entries(monkeypatch, entries):
    # a block of zero entries, and one whose entries are nonzero at a single
    # grid point (and a dense one beside them)
    monkeypatch.setattr(qkring, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(7)
    counts = [2, 3]
    inverses = [_inverse_mod(qkring._vandermonde(rng.choice(np.arange(1, 1000), n, replace=False), n, P0), P0) for n in counts]
    zero = np.zeros((6, 2, 3, 3), dtype=np.int64)
    single = np.zeros((6, 2, 3, 3), dtype=np.int64)
    single[4, 0, 1, 2] = 5
    single[0, 1, 2, 0] = P0 - 1
    single[:, 1, 1, 1] = rng.integers(0, P0, 6)
    for M in (zero, single):
        got = qkring._coefficients(M, counts, inverses, P0)
        assert got == _dense_coefficients(M, counts, inverses, P0)
        assert sum(map(bool, got)) == (0 if M is zero else 3)


def test_modp_solver_rejects_singular_krylov_matrix():
    # with L = 0 every Krylov column past the first vanishes
    poset = build_cominuscule("Gr(2,4)")
    zero = GammaElement.zero(poset.rs.rank)
    k = len(poset.shape_masks)
    flat = np.full((2, k, k), zero, dtype=object)
    d = make_field(poset, "mod-p")
    with pytest.raises(SingularKrylov):
        _solve(qkring._eval_array(flat, d["p"], np.array([d["assignment"]])), 4, d["p"])


# ---------------------------------------------------------------------------
# Mod-p checks against the layer convolution they replaced: a product over
# F_p[q] layer by layer, and both checks' reports built from it


def _lay_mul(A, B, matmul):
    """Product of two matrices over ring[q] given by their layers, A (a, k, m)
    and B (b, m, n): layer d is [A_i ...] @ [B_{d-i}; ...] over the i with
    both layers nonzero."""
    nz_a = np.flatnonzero(A.astype(bool).any(axis=(1, 2)))
    nz_b = B.astype(bool).any(axis=(1, 2))
    out = []
    for d in range(len(A) + len(B) - 1):
        i = nz_a[(nz_a <= d) & (nz_a > d - len(B))]
        i = i[nz_b[d - i]]
        out.append(matmul(A[i].transpose(1, 0, 2).reshape(A.shape[1], -1), B[d - i].reshape(-1, B.shape[2])))
    return np.stack(out)


def _reference_reports(table) -> list:
    """verify_ms_equations and verify_associativity of a mod-p table, each
    product a layer convolution."""
    p, k, C = table.backend["p"], table.k, table.mats
    node = np.array([table.backend["assignment"]])
    L = qkring._eval_array(qkring.divisor_matrix(table.poset)[: table.D + 1], p, node)[0]

    def matmul(X, Y):
        return _matmul_mod(X, Y, p)

    rows, cols = qkring._rows, qkring._cols
    left = _lay_mul(rows(C), L, matmul).reshape(-1, k, k, k)
    mid = _lay_mul(L, cols(C), matmul).reshape(-1, k, k, k).transpose(0, 2, 1, 3)
    S = C.transpose(1, 2, 3, 0).reshape(C.shape[1], k * k, k)
    right = _lay_mul(S, L, matmul).reshape(-1, k, k, k).transpose(0, 3, 1, 2)
    bad = ((left != mid) | (mid != right)).any(axis=0).transpose(2, 0, 1)
    bad[0] |= _reference_seed(table)
    ms = qkring._report("ms-equations", table, [tuple(t) for t in np.argwhere(bad).tolist()], {"triples": k**3})
    asym = (C != C.transpose(3, 1, 2, 0)).any(axis=1).transpose(2, 0, 1)
    failures = [("symmetry", u, v, w) for u, v, w in np.argwhere(asym).tolist() if u < v]
    for u in range(k - 1):
        rest = C[u + 1:]
        uw = _lay_mul(C[u], cols(rest), matmul).reshape(-1, k, len(rest), k).transpose(0, 2, 1, 3)
        wu = _lay_mul(rows(rest), C[u], matmul).reshape(-1, len(rest), k, k)
        bad = (uw != wu).any(axis=(0, 2, 3))
        failures += [("commutator", u, w) for w in (u + 1 + np.flatnonzero(bad)).tolist()]
    return [ms, qkring._report("associativity", table, failures, {"pairs": k * (k - 1) // 2})]


def _corruptions(table, seed: int = 0) -> list:
    """Single-entry corruptions (v, w, u, poly): poly[d] is added to layer d
    of N^w_{u,v}.  One at layer 0 and one at the top layer D per drawn
    entry, and one that vanishes at q = 1, ..., D on the identity's column
    M_1: its products with the divisor's q-only entries vanish at every
    q = 0, ..., D and differ only at the higher points."""
    p, k, D = table.backend["p"], table.k, table.D
    rng = random.Random(f"{table.space}:{seed}")
    out = []
    for _ in range(6):
        v, w, u = (rng.randrange(k) for _ in range(3))
        delta = rng.randrange(1, p)
        out.append((v, w, u, [delta] + [0] * D))
        out.append((v, w, u, [0] * D + [delta]))
    # (q - 1)(q - 2)...(q - D), coefficients from the constant term up
    poly = [1]
    for j in range(1, D + 1):
        poly = [(a - j * b) % p for a, b in zip([0] + poly, poly + [0])]
    for w, u in [(1, 0), (k - 1, 1), (rng.randrange(k), rng.randrange(k))]:
        out.append((0, w, u, poly))
    return out


def _top_layer(table) -> int:
    return int(np.flatnonzero(table.mats.any(axis=(0, 2, 3)))[-1])


def _layer_corruptions(table, d: int) -> list:
    """Single-entry corruptions (v, w, u, poly) of layer d alone, in the
    form of _corruptions."""
    p, k = table.backend["p"], table.k
    rng = random.Random(f"{table.space}:{table.D}:{d}")
    out = []
    for _ in range(6):
        poly = [0] * (table.D + 1)
        poly[d] = rng.randrange(1, p)
        out.append((*(rng.randrange(k) for _ in range(3)), poly))
    return out


def _checked_reports(table, corruptions) -> list:
    """Both checks' reports on the table and on each corruption of it,
    each asserted equal to what the layer convolution reports."""
    out = []
    for v, w, u, poly in [(0, 0, 0, [0] * (table.D + 1)), *corruptions]:
        bad = replace(table, mats=table.mats.copy())
        bad.mats[v, :, w, u] = (bad.mats[v, :, w, u] + poly) % table.backend["p"]
        reports = [verify_ms_equations(bad), verify_associativity(bad)]
        assert reports == _reference_reports(bad), (v, w, u, poly)
        out.append(reports)
    return out


@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)"])
def test_pointwise_checks_match_the_layer_convolution(space):
    # values at as many points as a product's q-degree plus one decide it,
    # so both checks report exactly what the layer convolution reports
    table = full_table(build_cominuscule(space), backend="mod-p")
    clean, *corrupted = _checked_reports(table, _corruptions(table))
    assert {r["status"] for r in clean} == {"pass"}
    assert sum(ms["status"] == "fail" for ms, _ in corrupted) >= 10


@pytest.mark.parametrize("D", [None, 9], ids=["default-qmax", "qmax=9"])
@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)"])
def test_checks_take_the_degree_from_the_table(space, D):
    # the checks evaluate at as many points as the table's own top layer e
    # needs, not 2D + 1; a corruption in a layer above e, zero in a
    # certified table, raises e and must still be seen
    table = full_table(build_cominuscule(space), D=D, backend="mod-p")
    e = _top_layer(table)
    assert e <= table.poset.d_max < table.D - 1
    # L is linear in q, so e_L = 1, and both checks' products, of degree
    # e + 1 and 2e, are read at max(2e, e + 1) + 1 points
    ring = qkring.verify_ring(table)
    assert len(ring.mats[0]) == len(ring.L) == max(2 * e, e + 1) + 1
    # layer e + 1 is the first zero layer above the table's degree
    clean, *corrupted = _checked_reports(table, _layer_corruptions(table, e + 1) + _layer_corruptions(table, table.D))
    assert {r["status"] for r in clean} == {"pass"}
    assert all("fail" in {r["status"] for r in reports} for reports in corrupted)


@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)"])
def test_checks_of_the_q0_specialization_match_the_layer_convolution(space):
    # D = 0: the table and L keep layer 0 alone, and each check one point
    table = specialize(full_table(build_cominuscule(space), backend="mod-p"), "q0")
    assert table.D == 0
    assert len(qkring.verify_ring(table).mats[0]) == 1
    clean, *corrupted = _checked_reports(table, _layer_corruptions(table, 0))
    assert {r["status"] for r in clean} == {"pass"}
    assert all("fail" in {r["status"] for r in reports} for reports in corrupted)


# ---------------------------------------------------------------------------
# Associativity through the divisor's commutant, against every pair


def _pairwise_dict_report(table) -> dict:
    """verify_associativity's report from the dict kernel with every pair
    [M_u, M_w] compared, M_u against every later M_w."""
    C, _, matmul = _dict_ring(table)
    k = table.k
    asym = (C != C.transpose(3, 1, 2, 0)).any(axis=1).transpose(2, 0, 1)
    failures = [("symmetry", u, v, w) for u, v, w in np.argwhere(asym).tolist() if u < v]
    for u in range(k - 1):
        rest = C[u + 1:]
        uw = matmul(C[u], qkring._cols(rest)).reshape(-1, k, len(rest), k).transpose(0, 2, 1, 3)
        wu = matmul(qkring._rows(rest), C[u]).reshape(-1, len(rest), k, k)
        bad = (uw != wu).any(axis=(0, 2, 3))
        failures += [("commutator", u, w) for w in (u + 1 + np.flatnonzero(bad)).tolist()]
    return qkring._report("associativity", table, failures, {"pairs": k * (k - 1) // 2})


def _counted_products(monkeypatch) -> list:
    """The products over the ring made from now on: each _term_matmul call,
    and each _matmul_mod call on stacked operands (the Krylov vectors and
    the values in q are not products over the ring)."""
    calls, term_matmul, matmul_mod = [], qkring._term_matmul, qkring._matmul_mod

    def counted_term_matmul(A, B):
        calls.append("term")
        return term_matmul(A, B)

    def counted_matmul_mod(A, B, p):
        if A.ndim > 2 or B.ndim > 2:
            calls.append("mod-p")
        return matmul_mod(A, B, p)

    monkeypatch.setattr(qkring, "_term_matmul", counted_term_matmul)
    monkeypatch.setattr(qkring, "_matmul_mod", counted_matmul_mod)
    return calls


@pytest.mark.parametrize("backend", ["exact", "mod-p"])
def test_a_commuting_divisor_without_a_cyclic_vector_falls_back_to_every_pair(monkeypatch, backend):
    # the identity commutes with every M_w but has no cyclic vector, so with
    # it as M_g only the cyclicity check keeps the commutant argument from
    # passing the symmetric corruption's commutators
    table = full_table(build_cominuscule("Gr(2,4)"), backend=backend)
    k, g = table.k, table.masks.index(sgamma_mask(table.poset))
    assert g not in (2, 3)
    if table.is_exact:
        rank = table.poset.rs.rank
        table.mats[g] = GammaElement.zero(rank)
        table.mats[g, 0, range(k), range(k)] = GammaElement.from_int(rank, 1)
    else:
        table.mats[g] = 0
        table.mats[g, 0] = np.eye(k, dtype=np.int64)
    _bump(table, (2, 1, 4, 3))
    _bump(table, (3, 1, 4, 2))
    C, _, matmul = qkring.verify_ring(table)
    gw = matmul(C[g], qkring._cols(C)).reshape(-1, k, k, k).transpose(0, 2, 1, 3)
    assert not (gw != matmul(qkring._rows(C), C[g]).reshape(-1, k, k, k)).any()
    rep = verify_associativity(table)
    assert rep["status"] == "fail" and "commutator" in {f[0] for f in rep["failures"]}
    want = _dict_reports(monkeypatch, table)[1] if table.is_exact else _reference_reports(table)[1]
    assert rep == want


@pytest.mark.parametrize(
    "space, backend",
    [(s, "exact") for s in (*EXACT_BUILD_SPACES, "Gr(2,5)", "LG(3,6)", "OG(4,8)")]
    + [(s, "mod-p") for s in ("Gr(2,6)", "OG(5,10)", "LG(4,8)", "E6")],
)
def test_a_passing_associativity_check_takes_two_products(monkeypatch, space, backend):
    # [M_g, M_w] for every w at once, one product each way, whatever k
    table = full_table(build_cominuscule(space), backend=backend)
    want = _pairwise_dict_report(table) if table.is_exact else _reference_reports(table)[1]
    with monkeypatch.context() as m:
        calls = _counted_products(m)
        rep = verify_associativity(table)
    assert calls == ["term" if table.is_exact else "mod-p"] * 2
    assert rep == want and rep["status"] == "pass"


# ---------------------------------------------------------------------------
# The float64 kernel against Python-int products

KERNEL_DIMS = [1, 2, 63, 64, 65, 2047, 2048, 2049]
# the exact build's prime, below 2^24
PI = qkring._INTERPOLATION_PRIME


def _kernel_operands(kind: str, p: int, shape_a: tuple, shape_b: tuple, seed: int):
    """int64 residues: all p - 1; uniform; or A with every bit below the
    top one of p set, so that each limb of A is all ones, against B from the
    top of [0, p)."""
    rng = np.random.default_rng(seed)
    if kind == "p-1":
        return np.full(shape_a, p - 1, dtype=np.int64), np.full(shape_b, p - 1, dtype=np.int64)
    if kind == "random":
        return rng.integers(0, p, shape_a), rng.integers(0, p, shape_b)
    full_limbs = (1 << (p.bit_length() - 1)) - 1
    return np.full(shape_a, full_limbs, dtype=np.int64), rng.integers(p - (1 << 20), p, shape_b)


def _int_product(A, B, p: int) -> list:
    """A @ B mod p in Python ints, for matrices or stacks of one axis."""
    if A.ndim == B.ndim == 2:
        return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B.tolist())] for row in A.tolist()]
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A, B = np.broadcast_to(A, batch + A.shape[-2:]), np.broadcast_to(B, batch + B.shape[-2:])
    return [_int_product(a, b, p) for a, b in zip(A, B)]


@pytest.mark.parametrize("kind", ["p-1", "random", "full-limbs"])
@pytest.mark.parametrize("n", KERNEL_DIMS)
@pytest.mark.parametrize("p", DEFAULT_PRIMES)
def test_matmul_mod_is_exact_at_the_limb_bounds(p, n, kind):
    A, B = _kernel_operands(kind, p, (4, n), (n, 3), seed=n)
    assert _matmul_mod(A, B, p).tolist() == _int_product(A, B, p)


@pytest.mark.parametrize("p, n", [(p, n) for p in DEFAULT_PRIMES for n in (64, 65, 2049)] + [(PI, 32), (PI, 33)])
def test_matmul_mod_stacks_broadcast(p, n):
    A, B = _kernel_operands("full-limbs", p, (2, 3, n), (2, n, 2), seed=n)
    want = _int_product(A, B, p)
    assert _matmul_mod(A, B, p).tolist() == want
    # an operand batched on one side only
    assert _matmul_mod(A[0], B, p).tolist() == _int_product(A[0], B, p)
    assert _matmul_mod(A, B[1], p).tolist() == _int_product(A, B[1], p)
    # a vector right operand
    assert _matmul_mod(A, B[0, :, 0], p).tolist() == [[r[0] for r in m] for m in _int_product(A, B[0], p)]


@pytest.mark.parametrize("shapes", [((3, 5), (5, 7)), ((4, 2, 5), (4, 5, 3)), ((2, 5), (6, 5, 3)), ((6, 2, 5), (5, 3))])
def test_matmul_mod_in_blocks_is_the_same_product(monkeypatch, shapes):
    # past _KERNEL_ENTRIES a product runs in blocks of columns or of the stack
    A, B = _kernel_operands("random", P0, *shapes, seed=1)
    monkeypatch.setattr(qkring, "_KERNEL_ENTRIES", 4)
    assert _matmul_mod(A, B, P0).tolist() == _int_product(A, B, P0)


def test_matmul_mod_refuses_an_inner_dimension_past_the_bound():
    # one-bit limbs carry 31-bit residues up to n = 2^21, not one term more
    p = DEFAULT_PRIMES[0]
    n = 1 << 21
    A = np.broadcast_to(np.int64(p - 1), (1, n))
    assert _matmul_mod(A, A.T, p).tolist() == [[n * (p - 1) ** 2 % p]]
    A = np.broadcast_to(np.int64(1), (1, n + 1))
    with pytest.raises(ValueError, match="inner dimension"):
        _matmul_mod(A, A.T, p)


# ---------------------------------------------------------------------------
# The exact build's 24-bit prime


def test_interpolation_prime_is_the_largest_prime_below_2_24():
    assert all(PI % d for d in range(2, math.isqrt(PI) + 1))
    assert PI < 1 << 24 and all(any(q % d == 0 for d in range(2, 4)) for q in range(PI + 1, 1 << 24))
    # one float64 limb up to an inner dimension of 32: 2 * 24 + 5 = 53
    assert 2 * PI.bit_length() + (32 - 1).bit_length() == 53


@pytest.mark.parametrize("kind", ["p-1", "random", "full-limbs"])
@pytest.mark.parametrize("n, limbs", [(32, 1), (33, 2), (1 << 17, 2), ((1 << 17) + 1, 3)])
def test_matmul_mod_is_exact_at_the_interpolation_prime(monkeypatch, n, limbs, kind):
    widths = []
    product = qkring._limb_product
    monkeypatch.setattr(qkring, "_limb_product", lambda A, B, p, w: widths.append(w) or product(A, B, p, w))
    A, B = _kernel_operands(kind, PI, (2, n), (n, 2), seed=n)
    assert _matmul_mod(A, B, PI).tolist() == _int_product(A, B, PI)
    assert [(PI.bit_length() - 1) // w + 1 for w in widths] == [limbs]


def test_exact_builds_interpolate_at_the_interpolation_prime(monkeypatch):
    # the solve of an exact build runs mod the 24-bit prime; backend
    # agreement still checks the table at the 31-bit primes
    seen = _recording_solves(monkeypatch)
    poset = build_cominuscule("Gr(2,4)")
    table = full_table(poset)
    assert _digest(table) == PINNED_EXACT_TABLES["Gr(2,4)"]
    assert [p for _, p, _ in seen] == [PI]
    seen.clear()
    tables = modp_tables(poset, D=table.D)
    assert [t.backend["p"] for t in tables] == [p for p in DEFAULT_PRIMES[:2] for _ in range(2)]
    # one solve per prime, at both of its assignments
    assert [(p, n) for _, p, n in seen] == [(p, 2) for p in DEFAULT_PRIMES[:2]]
    assert tables_agree(table, *tables)


def _one_zero(entries, rank: int) -> bool:
    """Whether every zero among entries is one object, of the given rank."""
    zeros = [x for x in entries if x.is_zero()]
    return len({id(x) for x in zeros}) == 1 and zeros[0] == GammaElement.zero(rank) and zeros[0].rank == rank


def test_exact_table_zero_entries_are_one_object(tmp_path):
    poset = build_cominuscule("Q(4)")
    rank, k = poset.rs.rank, len(poset.shape_masks)
    built = full_table(poset)
    args = (built.space, built.D, built.backend, str(tmp_path))
    save_table(built, str(tmp_path))
    loaded = load_table(*args)
    assert _digest(loaded) == _digest(built)
    assert _one_zero(built.mats.flat, rank) and _one_zero(loaded.mats.flat, rank)
    # the product path decodes through the same rule
    pairs = list(itertools.product(range(k), repeat=2))
    product = [load_table(*args, product=uv) for uv in pairs]
    assert _one_zero([c for col in product for row in col for c in row], rank)
    assert all(np.array_equal(c, built.mats[v][:, :, u]) for c, (u, v) in zip(product, pairs))


def test_load_table_refuses_a_zero_entry_without_rank(tmp_path, gr24_table):
    # a zero entry is read as the shared zero only once its rank is read; the
    # entry lies outside the unit's seed (u = 0), which every product read of
    # its column checks
    table = gr24_table
    args = (table.space, table.D, table.backend, str(tmp_path))
    path = save_table(table, str(tmp_path))
    head, lines = _exact_lines(path)
    col = json.loads(lines[2])
    d, w, u = next((d, w, u) for d, mat in enumerate(col) for w, row in enumerate(mat) for u, x in enumerate(row) if u and not x["terms"])
    assert col[d][w][u] == {"rank": table.poset.rs.rank, "terms": []}
    del col[d][w][u]["rank"]
    lines[2] = json.dumps(col).encode() + b"\n"
    _write_exact(path, head, lines)
    assert load_table(*args) is None and load_table(*args, product=(u, 2)) is None
    # the product reads that do not decode the damaged entry still answer
    others = [(x, v) for v in range(table.k) for x in range(table.k) if (x, v) != (u, 2)]
    assert all(np.array_equal(load_table(*args, product=(x, v)), table.mats[v][:, :, x]) for x, v in others)


@pytest.mark.parametrize("p", [PI, P0])
def test_eval_array_on_a_grid_with_repeated_values(p):
    L = qkring.divisor_matrix(build_cominuscule("Gr(2,4)"))
    grid = list(itertools.product([5, 2, p - 1], [7, 7, 11], [2, 13]))
    nodes = np.array(random.Random(0).sample(grid, len(grid)), dtype=np.int64)
    want = [
        [sum(c * math.prod(pow(x, -e, p) for x, e in zip(node, exp)) for exp, c in g.terms.items()) % p for g in L.flat]
        for node in nodes.tolist()
    ]
    assert qkring._eval_array(L, p, nodes).reshape(len(nodes), -1).tolist() == want
