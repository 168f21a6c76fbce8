import pytest

from qkcalc.chevalley import j_class, kt_chevalley
from qkcalc.gamma import GammaElement
from qkcalc.oracles import (
    NotLG,
    chi_against_Ow,
    euler_pairing_table,
    ktchev2_closed,
    lg_equations,
    lg_oracle_chi,
    nu_weight,
    theta0_coefficients,
    verify_ktchev2,
    verify_lg_oracle,
)
from qkcalc.poset import NotContained, build_cominuscule
from qkcalc.rootsys import eps_to_root


def test_euler_pairing_is_containment():
    poset = build_cominuscule("Gr(2,5)")
    masks = poset.shape_masks
    table = euler_pairing_table(poset)
    for i, mu in enumerate(masks):
        for j, mv in enumerate(masks):
            assert table[i][j] == (1 if mu & ~mv == 0 else 0)


def test_chi_of_structure_sheaf_is_containment():
    poset = build_cominuscule("LG(3,6)")
    one = GammaElement.from_int(poset.rs.rank, 1)
    for um in poset.shape_masks:
        for wm in poset.shape_masks:
            x = chi_against_Ow(poset, {um: one}, poset.shape(wm))
            assert x == (one if um & ~wm == 0 else GammaElement.zero(poset.rs.rank))


def test_theta0_coefficients_reconstruct():
    from qkcalc.chevalley import _theta0_basis

    poset = build_cominuscule("Gr(2,4)")
    rank = poset.rs.rank
    # a haphazard class with a few character coefficients
    xi = {
        poset.shape_masks[1]: GammaElement.monomial(eps_to_root(poset.rs, {1: 1, 2: -1})),
        poset.shape_masks[4]: GammaElement.from_int(rank, -3),
    }
    coeffs = theta0_coefficients(poset, xi)
    rebuilt: dict[int, GammaElement] = {}
    for vi, b in enumerate(coeffs):
        if b.is_zero():
            continue
        for m, sign in _theta0_basis(poset, poset.shape_masks[vi]):
            cur = rebuilt.get(m, GammaElement.zero(rank))
            rebuilt[m] = cur + b * sign
    rebuilt = {m: g for m, g in rebuilt.items() if not g.is_zero()}
    assert rebuilt == xi


@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)", "Q(5)", "LG(3,6)"])
def test_ktchev2_exact(space):
    rep = verify_ktchev2(build_cominuscule(space))
    assert rep["status"] == "pass", rep


def test_ktchev2_closed_values():
    poset = build_cominuscule("Gr(2,4)")
    # diagonal: chi(J.O^u against O_u) = J_u
    for m in poset.shape_masks:
        assert ktchev2_closed(poset, m, m) == j_class(poset, m)
        got = chi_against_Ow(poset, dict(kt_chevalley(poset, m)), poset.shape(m))
        assert got == j_class(poset, m)
    # A-type roots all have the same length, so no skew strip is short and
    # every off-diagonal pairing vanishes
    u = poset.parse_shape("1")
    w = poset.parse_shape("2")
    assert ktchev2_closed(poset, u.mask, w.mask).is_zero()
    assert chi_against_Ow(poset, dict(kt_chevalley(poset, u.mask)), w).is_zero()


def test_ktchev2_one_step_short_strip():
    # on LG the off-diagonal boxes are short; one step gives -J_u [C_{-delta(b)}]
    poset = build_cominuscule("LG(2,4)")
    u = poset.parse_shape("1")
    w = poset.parse_shape("2")
    assert poset.is_short_rook_strip(u, w)
    ds = poset.delta_sum(u, w)
    want = -j_class(poset, u.mask) * GammaElement.monomial(tuple(-c for c in ds))
    assert ktchev2_closed(poset, u.mask, w.mask) == want
    got = chi_against_Ow(poset, dict(kt_chevalley(poset, u.mask)), w)
    assert got == want


def test_ktchev2_closed_vanishes_off_short_strips():
    poset = build_cominuscule("LG(2,4)")
    rank = poset.rs.rank
    empty = poset.empty_shape
    one = poset.parse_shape("1")
    # gamma is a long root, so the one-box strip from the empty shape is not short
    assert ktchev2_closed(poset, empty.mask, one.mask) == GammaElement.zero(rank)
    # and non-containment vanishes too
    assert ktchev2_closed(poset, one.mask, empty.mask) == GammaElement.zero(rank)


def test_lg_oracle_small_spaces():
    for space in ("LG(2,4)", "LG(3,6)"):
        rep = verify_lg_oracle(build_cominuscule(space))
        assert rep["status"] == "pass", rep


def test_lg24_hand_value():
    # u = (1) inside w = (2): one shared horizontal segment, one quadratic;
    # chi = -[C_{-e1-e2}]
    poset = build_cominuscule("LG(2,4)")
    u = poset.parse_shape("1")
    w = poset.parse_shape("2")
    got = lg_oracle_chi(2, u, w)
    want = -GammaElement.monomial(eps_to_root(poset.rs, {1: -1, 2: -1}))
    assert got == want


def test_lg_equation_sets():
    poset = build_cominuscule("LG(3,6)")
    # (2) in (3,1): the long component is dropped, one short component
    # remains and no boundary segments are shared
    eq = lg_equations(3, poset.parse_shape("2"), poset.parse_shape("3,1"))
    assert eq["n"] == 3
    assert eq["linear"] == [] and eq["shared"] == 0
    assert eq["quadratics"] == [(1, 2)]
    assert eq["short_components"] == 1
    # diagonal pair shares every segment: all 2n variables get pinned
    eqd = lg_equations(3, poset.parse_shape("2"), poset.parse_shape("2"))
    assert eqd["shared"] == 3
    assert eqd["quadratics"] == []
    assert all(1 <= t <= 6 for t in eqd["linear"])


def test_projrich_equations():
    # the (5,4,3) in (6,5,3,1) pair of LG(7,14): linear conditions
    # x_5 = x_9 = x_14 and the quadratic block f_{2,4}
    eq = lg_equations(7, (5, 4, 3), (6, 5, 3, 1))
    assert eq["linear"] == [5, 9, 14]
    assert eq["quadratics"] == [(2, 4)]
    # a second pair produces the same equations; the tableau decorations
    # distinguish them but the equation sets coincide
    eq2 = lg_equations(7, (4, 3), (6, 3, 1))
    assert eq2["linear"] == eq["linear"]
    assert eq2["quadratics"] == eq["quadratics"]


def test_nu_additivity_on_short_rook_strips():
    poset = build_cominuscule("LG(3,6)")
    n = 3
    for um in poset.shape_masks:
        for wm in poset.shape_masks:
            if um & ~wm:
                continue
            u, w = poset.shape(um), poset.shape(wm)
            if not poset.is_short_rook_strip(u, w):
                continue
            nu_uw = nu_weight(n, u, w)
            nu_uu = nu_weight(n, u, u)
            nu_ww = nu_weight(n, w, w)
            assert tuple(2 * c for c in nu_uw) == tuple(
                a + b for a, b in zip(nu_uu, nu_ww)
            )


def test_oracle_rejections():
    gr = build_cominuscule("Gr(2,4)")
    with pytest.raises(NotLG):
        lg_oracle_chi(2, gr.parse_shape("1"), gr.parse_shape("2"))
    with pytest.raises(NotContained):
        lg_equations(3, (2, 1), (1,))
