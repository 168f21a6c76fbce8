"""Equivariant cohomology solver: hand values on P^1, structural laws of the
A-classes, and the bridge back to K-theory."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, islice

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
    DiagonalCollision,
    _distinct_diagonals,
    _h_matrix,
    _ms_solution_dimension,
    _probe_draws,
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
from qkcalc.qkring import full_table, specialize
from test_qkring import _rank_reference


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
    mat = [[0] * k**3 for _ in range(2 * k**3)]
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
    return k**3 - _rank_reference([[x % p for x in row] for row in mat], p)


def _echelon_mod(A: np.ndarray, p: int) -> np.ndarray:
    """The nonzero rows of A's reduced echelon form mod p, for systems past
    _rank_reference's reach; each pivot updates only the rows it hits."""
    m = A % p
    r = 0
    for c in range(m.shape[1]):
        nz = np.flatnonzero(m[r:, c])
        if not len(nz):
            continue
        m[[r, r + nz[0]]] = m[[r + nz[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        # a product of two residues stays below 2^62
        m[hit] = (m[hit] - m[hit, c:c + 1] * m[r] % p) % p
        r += 1
        if r == len(m):
            break
    return m[:r]


def _eliminated_dimension(H: np.ndarray, p: int) -> int:
    """The Molev-Sagan solution dimension of H by elimination through its
    commutant: over a basis B_1..B_m of Comm(H), c[u, v, w] = sum_j
    a[v, j] B_j[u, w] satisfies the first family, and the second is a
    (k^3, k*m) system in a, whose equation (v, u, w) has the coefficient
    H[v, v'] B_j[u, w] - [v = v'] (B_j H)[u, w] on a[j, v']."""
    k = len(H)
    eye = np.eye(k, dtype=np.int64)
    R = _echelon_mod(np.kron(H, eye) - np.kron(eye, H.T), p)
    pivots = (R != 0).argmax(axis=1)
    free = np.setdiff1d(np.arange(k * k), pivots)
    B = np.zeros((len(free), k * k), dtype=np.int64)
    B[np.arange(len(free)), free] = 1
    B[:, pivots] = -R[:, free].T % p
    B = B.reshape(-1, k, k)
    m = len(B)
    BH = (B.astype(object) @ H.astype(object) % p).astype(np.int64)
    S = np.einsum("xy,jab->xabjy", H, B) % p
    for v in range(k):
        S[v, :, :, :, v] -= BH.transpose(1, 2, 0)
    return k * m - len(_echelon_mod(S.reshape(k**3, m * k), p))


@st.composite
def distinct_triangular_matrices(draw, p):
    """Upper triangular H with k pairwise distinct diagonal residues, which
    _ms_solution_dimension decides; the entries above the diagonal are
    zero-heavy."""
    k = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    H = np.zeros((k, k), dtype=np.int64)
    H[range(k), range(k)] = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True))
    for i in range(k):
        H[i, i + 1:] = [draw(entry) for _ in range(i + 1, k)]
    return H


@pytest.mark.parametrize("p", [7, 2**31 - 1], ids=["p=7", "p=2^31-1"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_commutant_reduction_matches_the_full_system(p, data):
    # the reduction of _ms_solution_dimension's proof, to the commutant of a
    # diagonal matrix with distinct entries, against the textbook system
    H = data.draw(distinct_triangular_matrices(p))
    assert _reference_dimension(H, p) == len(H) == _ms_solution_dimension(H, p)


def test_commutant_reduction_extremes():
    # distinct diagonal values leave only c[u, u, u]; every tensor commutes
    # with a scalar, and neither a scalar nor a diagonal that collides mod p
    # nor a lower triangular H is decided
    p = 7
    diagonal, scalar = np.diag(np.arange(1, 5)), 3 * np.eye(3, dtype=np.int64)
    assert _ms_solution_dimension(diagonal, p) == _reference_dimension(diagonal, p) == 4
    assert _ms_solution_dimension(scalar, p) is None
    assert _reference_dimension(scalar, p) == 27
    assert _ms_solution_dimension(np.diag([1, 8]), p) is None
    assert _ms_solution_dimension(np.array([[1, 0], [1, 2]]), p) is None
    assert _reference_dimension(np.array([[1, 0], [1, 2]]), p) == 2


# Gr(2,6)'s H at this point is triangular, but two of its diagonal
# residues coincide
COLLIDED_GR26 = (2, 3, 4, 5, 6)


def test_a_collided_first_draw_is_passed_over(monkeypatch):
    poset = build_cominuscule("Gr(2,6)")
    stream = cohomology._probe_draws
    monkeypatch.setattr(cohomology, "_probe_draws", lambda poset, seed: chain([COLLIDED_GR26], stream(poset, seed)))
    rep = conjecture_probe(poset)
    assert rep["assignments"] == [list(a) for a in islice(stream(poset, 0), 2)]
    assert rep["dimension"] == rep["expected"] == 15


def test_probe_refuses_an_undecided_e7_size_before_any_allocation(monkeypatch):
    # E7's diagonal forms made to coincide: no draw could then be decided,
    # and the probe raises before its first draw, so before any 56 x 56 H
    poset = build_cominuscule("E7")
    monkeypatch.setattr(cohomology, "j_weight", lambda poset, mask: (0,))

    def no_draw(poset, seed):
        raise AssertionError("the probe drew a point")

    monkeypatch.setattr(cohomology, "_probe_draws", no_draw)
    tracemalloc.start()
    try:
        with pytest.raises(DiagonalCollision, match="E7"):
            conjecture_probe(poset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_distinct_diagonals_match_the_pairwise_comparison(monkeypatch):
    # divisor_generation_check's distinct_diagonals, once k^2/2 comparisons
    # of the h_diagonal polynomials, reads the same off the j_weights
    pairwise = lambda diags: all(a != b for i, a in enumerate(diags) for b in diags[i + 1:])
    for space in ("P1", "Gr(2,4)", "LG(3,6)", "Q(6)", "E6"):
        poset = build_cominuscule(space)
        assert _distinct_diagonals(poset) is pairwise([h_diagonal(poset, m) for m in poset.shape_masks]) is True
    poset = build_cominuscule("Gr(2,4)")
    monkeypatch.setattr(cohomology, "j_weight", lambda poset, mask: (0, 0, mask.bit_count()))
    assert pairwise([h_diagonal(poset, m) for m in poset.shape_masks]) is False
    rep = divisor_generation_check(poset)
    assert rep["distinct_diagonals"] is False and rep["status"] == "fail"


# the probe's spaces up to Gr(2,6), at the probe's own seeded points
SHORTCUT_SPACES = ["P1", "LG(2,4)", "Q(3)", "Gr(2,4)", "Q(4)", "Q(5)", "Gr(2,5)", "LG(3,6)", "OG(4,8)", "Gr(2,6)"]


@pytest.mark.parametrize("space", SHORTCUT_SPACES)
def test_distinct_diagonal_shortcut_matches_the_elimination(space):
    # the probe reports the stream's first two draws: both are decided, at
    # the dimension an elimination finds
    poset = build_cominuscule(space)
    k, p = len(poset.shape_masks), DEFAULT_PRIMES[0]
    points = list(islice(_probe_draws(poset, 0), 2))
    assert conjecture_probe(poset)["assignments"] == [list(a) for a in points]
    Hs = [_h_matrix(poset, a, p) for a in points]
    assert [_ms_solution_dimension(H, p) for H in Hs] == [_eliminated_dimension(H, p) for H in Hs] == [k, k]


def test_a_collided_diagonal_is_left_undecided():
    # the collided point's solution space is larger than k = 15, so the
    # probe may not read k off it
    poset, p = build_cominuscule("Gr(2,6)"), DEFAULT_PRIMES[0]
    H = _h_matrix(poset, COLLIDED_GR26, p)
    assert not np.tril(H, -1).any()
    assert len(set(np.diagonal(H).tolist())) < len(H)
    assert _ms_solution_dimension(H, p) is None
    assert _eliminated_dimension(H, p) == 21


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
