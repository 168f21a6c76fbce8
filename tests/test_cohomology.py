"""Equivariant cohomology solver: hand values on P^1, structural laws of the
A-classes, and the bridge back to K-theory."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkcalc

from qkcalc import cohomology
from qkcalc.chevalley import kt_chevalley
from qkcalc.cohomology import (
    CohomologyError,
    LambdaFraction,
    _h_matrix,
    _ms_elimination_dimension,
    _ms_solution_dimension,
    _probe_points,
    ch_bridge_check,
    conjecture_probe,
    divisor_generation_check,
    h_chevalley,
    h_diagonal,
    ms_solve_classical,
    ms_solve_classical_kt,
)
from qkcalc.gamma import DEFAULT_PRIMES, ChernPolynomial, GammaFraction
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import _row_reduce_mod, full_table, specialize


def at_ones(poly: ChernPolynomial) -> Fraction:
    return sum(poly.terms.values(), Fraction(0))


def frac_at_ones(x: LambdaFraction) -> Fraction:
    return at_ones(x.num) / at_ones(x.den)


def test_p1_solution_parametrization():
    # X = P^1, W^P = {1, s}, a = C^s_{s,s}: the general solution is
    #   A^s_{1,s}(s) = 1/a, A^s_{1,1}(s) = 1/a^2, A^s_{1,1}(1) = -1/a,
    # the w = 1 row vanishes off the identity, and A^1_{1,1}(1) = 1
    poset = build_cominuscule("P1")
    sol = ms_solve_classical(poset)
    a = sol.diag[1]
    one = LambdaFraction.from_poly(ChernPolynomial.from_fraction(1, 1))
    inv_a = a.inverse()
    assert sol.a_value(0, 1, 1, 1) == inv_a
    assert sol.a_value(1, 0, 1, 1) == inv_a
    assert sol.a_value(0, 0, 1, 1) == inv_a * inv_a
    assert sol.a_value(0, 0, 1, 0) == -inv_a
    assert sol.a_value(0, 0, 0, 0) == one
    for u in range(2):
        for v in range(2):
            if (u, v) != (0, 0):
                assert sol.a_value(u, v, 0, 0).is_zero()
    # the Chevalley solution itself: C^s_{s,s} = a and C^s_{1,1} = 0
    assert sol.value(1, 1, 1) == a
    assert sol.value(0, 0, 1).is_zero()


def test_p1_diagonal_is_linear_and_positive():
    poset = build_cominuscule("P1")
    sol = ms_solve_classical(poset)
    got = sol.diag[1]
    assert frac_at_ones(got) > 0
    assert got.den == ChernPolynomial.from_fraction(1, 1)
    assert got.num.degree() == 1


def test_h_chevalley_cover_coefficients():
    poset = build_cominuscule("Gr(2,4)")
    for mask in poset.shape_masks:
        row = h_chevalley(poset, mask)
        assert row[mask] == h_diagonal(poset, mask)
        for b in poset.addable(poset.shape(mask)):
            cov = row[mask | (1 << b)]
            assert cov == ChernPolynomial.from_fraction(poset.rs.rank, poset.pairing_omega[b])


@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)", "Q(5)"])
def test_diagonal_differences_have_positive_coefficients(space):
    # for u <= w the difference of diagonal Chevalley terms expands with
    # nonnegative integer coefficients in the x variables
    poset = build_cominuscule(space)
    diags = [h_diagonal(poset, m) for m in poset.shape_masks]
    for ui, um in enumerate(poset.shape_masks):
        for wi, wm in enumerate(poset.shape_masks):
            if um & ~wm or um == wm:
                continue
            diff = diags[wi] - diags[ui]
            assert not diff.is_zero()
            for c in diff.terms.values():
                assert c == int(c) and c >= 0


@pytest.mark.parametrize("space", ["Gr(2,4)", "Q(4)"])
def test_a_classes_vanish_above_w_and_are_positive_at_w(space):
    poset = build_cominuscule(space)
    sol = ms_solve_classical(poset)
    masks = poset.shape_masks
    k = len(masks)
    for w in range(k):
        for u in range(k):
            for v in range(k):
                below = not (masks[u] & ~masks[w]) and not (masks[v] & ~masks[w])
                for tau in range(k):
                    aval = sol.a_value(u, v, w, tau)
                    if not below or (masks[tau] & ~masks[w]):
                        assert aval.is_zero()
                if below:
                    top = sol.a_value(u, v, w, w)
                    assert frac_at_ones(top) > 0


def test_identity_row_and_commutativity_emerge():
    poset = build_cominuscule("LG(2,4)")
    sol = ms_solve_classical(poset)
    k = len(poset.shape_masks)
    one = LambdaFraction.from_poly(ChernPolynomial.from_fraction(poset.rs.rank, 1))
    for v in range(k):
        for w in range(k):
            cvw = sol.value(0, v, w)
            if v == w:
                assert cvw == one
            else:
                assert cvw.is_zero()
    for u in range(k):
        for v in range(u):
            for w in range(k):
                assert sol.value(u, v, w) == sol.value(v, u, w)


def test_kt_recursion_matches_chevalley_derived_table():
    # the same recursion run on K_T Chevalley rows must reproduce the
    # classical part of the divisor-generated quantum table
    poset = build_cominuscule("Q(3)")
    sol = ms_solve_classical_kt(poset)
    table = specialize(full_table(poset), "q0")
    k = len(poset.shape_masks)
    for u in range(k):
        for v in range(k):
            for w in range(k):
                got = sol.value(u, v, w)
                want = table.entry(u, v, w).coeff(0)
                assert got == GammaFraction.from_gamma(want)


def test_kt_p1_diagonal():
    from qkcalc.chevalley import j_class
    from qkcalc.gamma import GammaElement

    poset = build_cominuscule("P1")
    sol = ms_solve_classical_kt(poset)
    want = GammaFraction.from_gamma(
        GammaElement.from_int(1, 1) - j_class(poset, poset.full_mask)
    )
    assert sol.diag[1] == want


@pytest.mark.parametrize("space", ["Q(3)", "LG(2,4)"])
def test_ch_bridge(space):
    poset = build_cominuscule(space)
    table = specialize(full_table(poset), "q0")
    sol = ms_solve_classical(poset)
    rep = ch_bridge_check(table, sol)
    assert rep["status"] == "pass", rep


def test_divisor_generation():
    for space in ("Gr(2,4)", "LG(3,6)", "Q(6)"):
        rep = divisor_generation_check(build_cominuscule(space))
        assert rep["status"] == "pass"


def test_conjecture_probe_dimensions():
    rep = conjecture_probe(build_cominuscule("P1"))
    assert rep["dimension"] == 2 and rep["matches_conjecture"] and rep["stable"]
    rep = conjecture_probe(build_cominuscule("Gr(2,4)"))
    assert rep["dimension"] == 6 and rep["matches_conjecture"]


PROBE_SCRIPT = """
import json
from qkcalc.cohomology import conjecture_probe, divisor_generation_check
from qkcalc.poset import build_cominuscule

poset = build_cominuscule("Gr(2,4)")
print(json.dumps([divisor_generation_check(poset, seed=3), conjecture_probe(poset, seed=3)]))
"""


def test_probe_reports_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(qkcalc.__file__))
    reports = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout))
    assert reports[0] == reports[1]
    divgen, probe = reports[0]
    assert len(divgen["assignment"]) == 3
    assert len(probe["assignments"]) == 2


def _reference_dimension(H: np.ndarray, p: int) -> int:
    """k^3 - rank of the probe's original (2k^3, k^3) system in c[u, v, w]:
    rows r1 and r2 of each (u, v, w) say that c[:, v, :] and c[u, :, :]
    commute with H."""
    k = len(H)
    chev = [{w: int(c) for w, c in enumerate(row) if c} for row in H]
    idx = lambda u, v, w: (u * k + v) * k + w
    mat = np.zeros((2 * k**3, k**3), dtype=np.int64)
    for u in range(k):
        for v in range(k):
            for w in range(k):
                r1, r2 = mat[2 * idx(u, v, w)], mat[2 * idx(u, v, w) + 1]
                for up, c in chev[u].items():
                    r1[idx(up, v, w)] += c
                for vp, c in chev[v].items():
                    r2[idx(u, vp, w)] += c
                for wp in range(k):
                    c = chev[wp].get(w)
                    if c:
                        r1[idx(u, v, wp)] -= c
                        r2[idx(u, v, wp)] -= c
    return k**3 - _row_reduce_mod(mat, p)[1]


@st.composite
def divisor_like_matrices(draw, p):
    """Random H and the degenerate ones: scalar, a diagonal with repeated
    values, triangular and Jordan blocks, each conjugated by a permutation
    or left as drawn.  A triangular H draws its diagonal from two values or
    from all of F_p, so that unpermuted ones with distinct diagonal residues,
    which _ms_solution_dimension decides without elimination, are common."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "scalar", "repeated-diagonal", "triangular", "jordan"]))
    entry = st.integers(0, p - 1)
    # two eigenvalues at most, so that repeats are common
    eigen = st.sampled_from([draw(entry), draw(entry)])
    H = np.zeros((k, k), dtype=np.int64)
    if kind == "random":
        H[:] = [[draw(entry) for _ in range(k)] for _ in range(k)]
    elif kind == "scalar":
        H[:] = draw(entry) * np.eye(k, dtype=np.int64)
    elif kind == "repeated-diagonal":
        H[range(k), range(k)] = [draw(eigen) for _ in range(k)]
    elif kind == "triangular":
        diagonal = draw(st.sampled_from([eigen, entry]))
        for i in range(k):
            H[i, i] = draw(diagonal)
            H[i, i + 1:] = [draw(entry) for _ in range(i + 1, k)]
    else:
        start = 0
        while start < k:
            size = draw(st.integers(1, k - start))
            lam = draw(eigen)
            for i in range(start, start + size):
                H[i, i] = lam
                if i + 1 < start + size:
                    H[i, i + 1] = 1
            start += size
    if not draw(st.booleans()):
        return H
    perm = draw(st.permutations(range(k)))
    return H[np.ix_(perm, perm)]


@pytest.mark.parametrize("p", [7, 2**31 - 1], ids=["p=7", "p=2^31-1"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_commutant_reduction_matches_the_full_system(p, data):
    H = data.draw(divisor_like_matrices(p))
    assert _ms_solution_dimension(H, p) == _reference_dimension(H, p)


def test_commutant_reduction_extremes():
    # every tensor commutes with a scalar; distinct diagonal values leave
    # only c[u, u, u], with the elimination as without it
    p = 7
    assert _ms_solution_dimension(3 * np.eye(3, dtype=np.int64), p) == 27
    assert _ms_solution_dimension(np.diag(np.arange(1, 5)), p) == 4
    assert _ms_elimination_dimension(np.diag(np.arange(1, 5)), p) == 4


def test_probe_refuses_a_system_past_its_bound(monkeypatch):
    # Gr(2,4): k = 6 and dim Comm(H) = 6 give a 216 x 36 system.  The bound
    # is on the elimination alone: the probe's own H takes none, so H is
    # taken in reversed order, lower triangular, which only it decides
    poset, p = build_cominuscule("Gr(2,4)"), DEFAULT_PRIMES[0]
    H = _h_matrix(poset, _probe_points(poset, 0)[0], p)[::-1, ::-1]
    monkeypatch.setattr(cohomology, "_PROBE_SYSTEM_ENTRIES", 216 * 36)
    assert _ms_solution_dimension(H, p) == 6
    monkeypatch.setattr(cohomology, "_PROBE_SYSTEM_ENTRIES", 216 * 36 - 1)
    with pytest.raises(CohomologyError, match=r"216 x 36 system \(7776 entries\)"):
        _ms_solution_dimension(H, p)
    assert conjecture_probe(poset)["dimension"] == 6


def test_probe_refuses_an_undecided_e7_size_before_any_allocation():
    # a scalar H of E7's size is triangular with one diagonal value, so it
    # goes to the elimination, which refuses it before its k^2 x k^2 system
    # (3136 x 3136, 79 MB) exists
    tracemalloc.start()
    try:
        with pytest.raises(CohomologyError, match=r"175616 x 3136 system"):
            _ms_solution_dimension(5 * np.eye(56, dtype=np.int64), DEFAULT_PRIMES[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# the probe's spaces up to Gr(2,6), at the probe's own seeded points
SHORTCUT_SPACES = ["P1", "LG(2,4)", "Q(3)", "Gr(2,4)", "Q(4)", "Q(5)", "Gr(2,5)", "LG(3,6)", "OG(4,8)", "Gr(2,6)"]


@pytest.mark.parametrize("space", SHORTCUT_SPACES)
def test_distinct_diagonal_shortcut_matches_the_elimination(monkeypatch, space):
    poset = build_cominuscule(space)
    k, p = len(poset.shape_masks), DEFAULT_PRIMES[0]
    Hs = [_h_matrix(poset, asg, p) for asg in _probe_points(poset, 0)]
    want = [_ms_elimination_dimension(H, p) for H in Hs]
    assert want == [k, k]

    def eliminate(H, p):
        raise AssertionError("the shortcut did not decide this H")

    monkeypatch.setattr(cohomology, "_ms_elimination_dimension", eliminate)
    assert [_ms_solution_dimension(H, p) for H in Hs] == want


def test_a_collided_diagonal_takes_the_elimination(monkeypatch):
    # Gr(2,6)'s H at this point is triangular, but two of its diagonal
    # residues coincide: the solution space is larger than k = 15
    poset, p = build_cominuscule("Gr(2,6)"), DEFAULT_PRIMES[0]
    H = _h_matrix(poset, (2, 3, 4, 5, 6), p)
    assert not np.tril(H, -1).any()
    assert len(set(np.diagonal(H).tolist())) < len(H)
    calls = []

    def eliminate(H, p):
        calls.append(len(H))
        return _ms_elimination_dimension(H, p)

    monkeypatch.setattr(cohomology, "_ms_elimination_dimension", eliminate)
    assert _ms_solution_dimension(H, p) == 21
    assert calls == [15]


def test_probe_bound_counts_the_commutant(monkeypatch):
    # a scalar H passes the first check, which assumes dim Comm(H) = k, and
    # is refused once its commutant turns out to be all k^2 matrices
    monkeypatch.setattr(cohomology, "_PROBE_SYSTEM_ENTRIES", 3**5)
    with pytest.raises(CohomologyError, match=r"27 x 27 system \(729 entries\)"):
        _ms_solution_dimension(5 * np.eye(3, dtype=np.int64), 7)


REACH_SCRIPT = """
from qkcalc.cohomology import conjecture_probe
from qkcalc.poset import build_cominuscule

rep = conjecture_probe(build_cominuscule("Gr(2,6)"))
print(rep["dimension"], rep["matches_conjecture"], rep["stable"])
"""


def test_probe_reaches_gr26():
    # the (2k^3, k^3) system of k = 15 took 182 MB and far longer than this
    src = os.path.dirname(os.path.dirname(qkcalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["15", "True", "True"]
