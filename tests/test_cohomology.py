"""Equivariant cohomology solver: hand values on P^1, structural laws of the
A-classes, and the bridge back to K-theory."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qkcalc

from qkcalc.chevalley import kt_chevalley
from qkcalc.cohomology import (
    LambdaFraction,
    ch_bridge_check,
    conjecture_probe,
    divisor_generation_check,
    h_chevalley,
    h_diagonal,
    ms_solve_classical,
    ms_solve_classical_kt,
)
from qkcalc.gamma import ChernPolynomial
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import full_table, specialize


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
    fld = sol.field
    a = sol.diag[1]
    one = fld.one
    inv_a = fld.inv(a)
    assert fld.eq(sol.a_value(0, 1, 1, 1), inv_a)
    assert fld.eq(sol.a_value(1, 0, 1, 1), inv_a)
    assert fld.eq(sol.a_value(0, 0, 1, 1), fld.mul(inv_a, inv_a))
    assert fld.eq(sol.a_value(0, 0, 1, 0), fld.neg(inv_a))
    assert fld.eq(sol.a_value(0, 0, 0, 0), one)
    for u in range(2):
        for v in range(2):
            if (u, v) != (0, 0):
                assert fld.is_zero(sol.a_value(u, v, 0, 0))
    # the Chevalley solution itself: C^s_{s,s} = a and C^s_{1,1} = 0
    assert fld.eq(sol.value(1, 1, 1), a)
    assert fld.is_zero(sol.value(0, 0, 1))


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
                        assert sol.field.is_zero(aval)
                if below:
                    top = sol.a_value(u, v, w, w)
                    assert frac_at_ones(top) > 0


def test_identity_row_and_commutativity_emerge():
    poset = build_cominuscule("LG(2,4)")
    sol = ms_solve_classical(poset)
    k = len(poset.shape_masks)
    fld = sol.field
    for v in range(k):
        for w in range(k):
            cvw = sol.value(0, v, w)
            if v == w:
                assert fld.eq(cvw, fld.one)
            else:
                assert fld.is_zero(cvw)
    for u in range(k):
        for v in range(u):
            for w in range(k):
                assert fld.eq(sol.value(u, v, w), sol.value(v, u, w))


def test_modp_solver_agrees_with_exact():
    poset = build_cominuscule("Gr(2,4)")
    exact = ms_solve_classical(poset)
    evaluated = ms_solve_classical(poset, backend="mod-p", seed=11)
    p = evaluated.field.p
    asg = evaluated.field.assignment
    k = len(poset.shape_masks)
    for u in range(k):
        for v in range(k):
            for w in range(k):
                ex = exact.value(u, v, w)
                num = ex.num.evaluate_mod_p(asg, p)
                den = ex.den.evaluate_mod_p(asg, p)
                assert den != 0
                assert evaluated.value(u, v, w) == num * pow(den, p - 2, p) % p


def test_kt_recursion_matches_chevalley_derived_table():
    # the same recursion run on K_T Chevalley rows must reproduce the
    # classical part of the divisor-generated quantum table
    poset = build_cominuscule("Q(3)")
    sol = ms_solve_classical_kt(poset)
    table = specialize(full_table(poset), "q0")
    k = len(poset.shape_masks)
    fld = sol.field
    for u in range(k):
        for v in range(k):
            for w in range(k):
                got = sol.value(u, v, w)
                want = table.entry(u, v, w).coeff(0)
                assert fld.eq(got, fld.from_gamma(want))


def test_kt_p1_diagonal():
    from qkcalc.chevalley import j_class
    from qkcalc.gamma import GammaElement

    poset = build_cominuscule("P1")
    sol = ms_solve_classical_kt(poset)
    fld = sol.field
    want = fld.from_gamma(
        GammaElement.from_int(1, 1) - j_class(poset, poset.full_mask)
    )
    assert fld.eq(sol.diag[1], want)


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
