import fractions
import hashlib
from math import comb

import pytest

from qkcalc import cli, qkring
from qkcalc.poset import (
    BuildCheckError,
    CominusculePoset,
    InvalidShape,
    NotContained,
    Shape,
    SpaceSpec,
    UnsupportedSpace,
    build_cominuscule,
    parse_space,
)
from qkcalc.rootsys import _identity, mat_mult, root_to_eps

SPACES = [
    "Gr(2,4)",
    "Gr(2,5)",
    "Gr(3,6)",
    "Gr(3,7)",
    "LG(2,4)",
    "LG(3,6)",
    "OG(5,10)",
    "Q(3)",
    "Q(4)",
    "Q(5)",
    "Q(6)",
    "E6",
    "E7",
]

CLASS_COUNTS = {
    "Gr(2,4)": comb(4, 2),
    "Gr(2,5)": comb(5, 2),
    "Gr(3,6)": comb(6, 3),
    "Gr(3,7)": comb(7, 3),
    "LG(2,4)": 2**2,
    "LG(3,6)": 2**3,
    "OG(5,10)": 2**4,
    "Q(3)": 4,
    "Q(4)": 6,
    "Q(5)": 6,
    "Q(6)": 8,
    "E6": 27,
    "E7": 56,
}

FANO = {
    "Gr(2,4)": 4,
    "Gr(2,5)": 5,
    "Gr(3,6)": 6,
    "Gr(3,7)": 7,
    "LG(2,4)": 3,
    "LG(3,6)": 4,
    "OG(5,10)": 8,
    "Q(3)": 3,
    "Q(4)": 4,
    "Q(5)": 5,
    "Q(6)": 6,
    "E6": 12,
    "E7": 18,
}


@pytest.fixture(scope="module")
def posets():
    return {s: build_cominuscule(s) for s in SPACES}


def test_class_counts(posets):
    for s, n in CLASS_COUNTS.items():
        assert len(posets[s].shape_masks) == n, s


def test_fano_index_table(posets):
    for s, f in FANO.items():
        assert posets[s].fano_index == f, s


# nodes per variable of the exact interpolation grid, one more than the
# table's degree in each x_i, as a line probe through a random point found
# them before the closed form table_degrees replaced it
PROBED_NODES = {
    "P1": [2],
    "Gr(1,4)": [2, 3, 4],
    "Gr(1,6)": [2, 3, 4, 5, 6],
    "Gr(1,7)": [2, 3, 4, 5, 6, 7],
    "Gr(1,8)": [2, 3, 4, 5, 6, 7, 8],
    "LG(2,4)": [4, 4],
    "Q(3)": [4, 4],
    "Gr(2,4)": [3, 5, 3],
    "Q(4)": [5, 3, 3],
    "Q(5)": [6, 6, 6],
    "Gr(2,5)": [3, 5, 7, 4],
    "Gr(3,5)": [4, 7, 5, 3],
    "LG(3,6)": [5, 9, 7],
    "Q(6)": [7, 7, 4, 4],
    "OG(4,8)": [4, 7, 4, 7],
    "Q(7)": [8, 8, 8, 8],
    "Gr(2,6)": [3, 5, 7, 9, 5],
    "Gr(4,6)": [5, 9, 7, 5, 3],
    "Q(8)": [9, 9, 9, 5, 5],
    "Q(9)": [10, 10, 10, 10, 10],
    "Gr(3,6)": [4, 7, 10, 7, 4],
    "LG(4,8)": [6, 11, 16, 11],
    "OG(5,10)": [5, 9, 13, 11, 7],
    "Gr(2,7)": [3, 5, 7, 9, 11, 6],
    "Gr(5,7)": [6, 11, 9, 7, 5, 3],
    "Gr(3,7)": [4, 7, 10, 13, 9, 5],
    "E6": [17, 13, 21, 25, 17, 9],
}


def test_table_degrees_match_the_probed_nodes():
    for s, nodes in PROBED_NODES.items():
        poset = build_cominuscule(s)
        assert [d + 1 for d in poset.table_degrees] == nodes, s
        # fano_index * omega_{gamma*}, where -w0 sends gamma to gamma*
        dual = poset._w0[poset.rs.cominuscule].index(-1)
        assert poset.table_degrees == tuple(poset.fano_index * x for x in poset.rs.fundamental_weight(dual)), s


def test_masks_are_ideals_and_closed_under_lattice_ops(posets):
    for s in ("Gr(2,4)", "LG(3,6)", "Q(4)", "E6"):
        poset = posets[s]
        masks = set(poset.shape_masks)
        for a in masks:
            for b in masks:
                assert a & b in masks
                assert a | b in masks


def test_parse_format_roundtrip(posets):
    for s in SPACES:
        poset = posets[s]
        for u in poset.shapes():
            lit = poset.format_shape(u)
            assert poset.parse_shape(lit) == u


def test_index_list_literals(posets):
    # every shape is also addressable by its explicit box list
    poset = posets["Q(4)"]
    for u in poset.shapes():
        lit = "[" + ",".join(str(i) for i in u.indices()) + "]"
        assert poset.parse_shape(lit) == u


def test_gr37_delta_labels(posets):
    # box with root e_i - e_j carries label e_{i+j-4} - e_{i+j-3}
    poset = posets["Gr(3,7)"]
    for k, alpha in enumerate(poset.boxes):
        eps = root_to_eps(poset.rs, alpha)
        i = eps.index(1) + 1
        j = eps.index(-1) + 1
        assert poset.delta[k] == i + j - 5  # 0-based index of alpha_{i+j-4}


def test_gr37_z_shapes(posets):
    poset = posets["Gr(3,7)"]
    assert poset.format_shape(poset.z_shape(1)) == "4,1,1"
    assert poset.format_shape(poset.z_shape(2)) == "4,4,2"
    assert poset.z_shape(3) == poset.full_shape
    # saturation past d_max
    assert poset.z_shape(9) == poset.full_shape


def test_gr37_curve_nbhd_matches_row_column_rule(posets):
    # w(-1) removes the first row and column, shifting the rest north-west
    poset = posets["Gr(3,7)"]
    cases = {
        "4,3,1": "2",
        "4,4,4": "3,3",
        "2,1": "0",
        "4,1": "0",
    }
    for w, expect in cases.items():
        u = poset.parse_shape(w)
        assert poset.format_shape(poset.curve_nbhd(u, -1)) == expect


def test_nbhd_composition_law(posets):
    for s in ("Gr(2,5)", "LG(3,6)", "Q(5)", "E6"):
        poset = posets[s]
        dm = poset.d_max
        for u in poset.shapes():
            for d in range(0, dm + 1):
                for e in range(0, dm + 1 - d):
                    assert poset.curve_nbhd(poset.curve_nbhd(u, d), e) == poset.curve_nbhd(u, d + e)


def test_negative_nbhd_length(posets):
    # ell(u(-d)) = ell(u join z_d) - ell(z_d)
    for s in ("Gr(3,6)", "LG(3,6)", "Q(6)"):
        poset = posets[s]
        for u in poset.shapes():
            for d in range(0, poset.d_max + 1):
                zd = poset.z_shape(d)
                join = poset.shape(u.mask | zd.mask)
                assert poset.curve_nbhd(u, -d).size == join.size - zd.size


def test_nbhd_dual_compatibility(posets):
    # u(-d) dual = dual(u)(d)
    for s in ("Gr(2,5)", "LG(3,6)", "OG(5,10)", "E7"):
        poset = posets[s]
        for u in poset.shapes():
            for d in range(0, poset.d_max + 1):
                lhs = poset.dual(poset.curve_nbhd(u, -d))
                rhs = poset.curve_nbhd(poset.dual(u), d)
                assert lhs == rhs


def test_dual_is_an_involution_and_de_morgan(posets):
    for s in SPACES:
        poset = posets[s]
        for u in poset.shapes():
            assert poset.dual(poset.dual(u)) == u
        masks = poset.shape_masks
        for a in masks[: min(len(masks), 8)]:
            for b in masks[: min(len(masks), 8)]:
                ua, ub = poset.shape(a), poset.shape(b)
                meet = poset.shape(a & b)
                assert poset.dual(meet).mask == poset.dual(ua).mask | poset.dual(ub).mask


def test_dual_complements_length(posets):
    for s in SPACES:
        poset = posets[s]
        for u in poset.shapes():
            assert u.size + poset.dual(u).size == poset.n_boxes


def test_weyl_action_is_extension_independent(posets):
    # the group element only depends on the ideal, not on which linear
    # extension orders the box reflections
    from qkcalc.rootsys import mat_mult

    for s in ("Gr(2,4)", "LG(3,6)", "Q(4)"):
        poset = posets[s]
        ident = tuple(
            tuple(int(i == j) for j in range(poset.rs.rank)) for i in range(poset.rs.rank)
        )
        for u in poset.shapes():
            want = poset.weyl_matrix(u.mask)
            # reverse order within each level of the grading
            alt = sorted(
                u.indices(),
                key=lambda i: (bin(poset.down_masks[i]).count("1"), -i),
            )
            mat = ident
            for i in alt:
                mat = mat_mult(mat, poset.rs.reflection_matrix(poset.boxes[i]))
            assert mat == want


def test_rook_strips_on_lg(posets):
    poset = posets["LG(3,6)"]
    u = poset.parse_shape("2")
    w1 = poset.parse_shape("3,1")
    assert poset.is_rook_strip(u, w1)
    w2 = poset.parse_shape("3,2")
    assert not poset.is_rook_strip(u, w2)  # two boxes in one column-pair


def test_short_rook_strip_excludes_long_boxes(posets):
    # on LG the diagonal boxes are long roots, so a strip touching the
    # diagonal is never short
    poset = posets["LG(2,4)"]
    empty = poset.empty_shape
    one = poset.parse_shape("1")
    two = poset.parse_shape("2")
    assert poset.is_short_rook_strip(empty, one) is False  # gamma is long
    assert poset.is_short_rook_strip(one, two) is True


def test_delta_sum_counts_labels(posets):
    poset = posets["Gr(2,4)"]
    u = poset.parse_shape("1")
    w = poset.parse_shape("2,1")
    total = poset.delta_sum(u, w)
    assert sum(total) == w.size - u.size
    assert all(c >= 0 for c in total)


def test_not_contained_raised(posets):
    poset = posets["Gr(2,4)"]
    u = poset.parse_shape("2,2")
    w = poset.parse_shape("1")
    with pytest.raises(NotContained):
        poset.skew_boxes(u, w)


def test_invalid_shapes_rejected(posets):
    poset = posets["Gr(2,4)"]
    for bad in ("3", "2,2,1", "1,2"):
        with pytest.raises(InvalidShape):
            poset.parse_shape(bad)


def test_unsupported_spaces_rejected():
    for bad in ("Gr(0,3)", "LG(3,7)", "OG(2,4)", "Q(2)", "E8", "Spin(7)"):
        with pytest.raises(UnsupportedSpace):
            build_cominuscule(bad)


def test_p1_aliases():
    a = build_cominuscule("P1")
    b = build_cominuscule("P(1)")
    c = build_cominuscule("Gr(1,2)")
    assert str(a.space) == str(b.space) == str(c.space) == "Gr(1,2)"


def test_describe_and_render(posets):
    poset = posets["Gr(3,7)"]
    text = poset.describe()
    assert "Gr(3,7)" in text
    assert "35" in text  # class count appears
    art = poset.render_ascii()
    assert art.count("\n") >= 2  # three rows of boxes


def test_addable_boxes(posets):
    poset = posets["Gr(2,4)"]
    u = poset.parse_shape("1")
    add = poset.addable(u)
    # can grow to (2) or (1,1)
    grown = {poset.format_shape(poset.shape(u.mask | 1 << b)) for b in add}
    assert grown == {"2", "1,1"}


# ---------------------------------------------------------------------------
# The from-scratch Weyl matrices the poset built before it extended each
# mask's cached matrix by one reflection, kept as references


def _word(poset, mask: int) -> list[int]:
    return [i for i in range(poset.n_boxes) if mask >> i & 1]


def _reference_weyl_matrix(poset, mask: int) -> tuple:
    mat = _identity(poset.rs.rank)
    for i in _word(poset, mask):
        mat = mat_mult(mat, poset._refl[i])
    return mat


def _reference_weyl_matrix_inv(poset, mask: int) -> tuple:
    mat = _identity(poset.rs.rank)
    for i in reversed(_word(poset, mask)):
        mat = mat_mult(mat, poset._refl[i])
    return mat


@pytest.mark.parametrize("space", ["Gr(3,6)", "LG(4,8)", "OG(5,10)", "Q(7)", "E6"])
def test_weyl_matrices_match_the_from_scratch_products(space):
    poset = build_cominuscule(space)
    ident = _identity(poset.rs.rank)
    for m in poset.shape_masks:
        w, winv = poset.weyl_matrix(m), poset.weyl_matrix_inv(m)
        assert w == _reference_weyl_matrix(poset, m)
        assert winv == _reference_weyl_matrix_inv(poset, m)
        assert mat_mult(w, winv) == ident == mat_mult(winv, w)


@pytest.mark.parametrize("space", ["Gr(2,4)", "LG(2,4)", "Q(5)"])
def test_negativity_shape_rejects_images_that_are_not_signed_roots(space):
    poset = build_cominuscule(space)
    r = poset.rs.rank
    zero = tuple((0,) * r for _ in range(r))
    mixed = tuple(tuple(1 if i == j == 0 else -1 if i == j else 0 for j in range(r)) for i in range(r))
    for mat in (zero, mixed):
        with pytest.raises(BuildCheckError):
            poset.negativity_shape(mat)


# ---------------------------------------------------------------------------
# Space setup: posets, Weyl data, duals, curve neighbourhoods and divisors,
# pinned before the setup went to integer closed forms and cached prefixes


SETUP_SHA256 = {
    "P1": "f05df0d1aa6b4b580654250d79f22bfda2b4f4d53ece25f33b315e6c95198e48",
    "Gr(1,8)": "0756cb283603384d547e1e96133bca62670048ab3cf504b930dfff3c9976540a",
    "Gr(2,4)": "989f42751f459094e3e53b67c0533e42f22fb9f1a10b7070e6cabb751167b25c",
    "Gr(2,6)": "7db2f6f31f3e42d458da92a9984921b4fee1f8a188dcd8e0e08705df4f391f0b",
    "Gr(3,6)": "5271c0e884fbe774017176aca89f4d7ed505605fe1ce034b6f730ef450555e3f",
    "Gr(3,7)": "d0129fa58befabab7f6a1e34aafa28abb73ac97408f29724b06d5c2e25b339a5",
    "LG(2,4)": "e9de569487f0696759a7740463c1ab5eca4c883a52e01e64909b86b6ac594772",
    "LG(3,6)": "c815950e18c209cea596a4e947497208bf9baa5cb970a7da5f6a7007bc0ffe92",
    "LG(4,8)": "e31f07230fdb667447d061ae8ec9c10e9554423f950a433ca499f024dd799d20",
    "OG(4,8)": "24461c34b931d5139029da8c1015a6bf29779488c56a0cca100b30a86e99ecb0",
    "OG(5,10)": "d97a0a8c2a0f92558d392859155ecc38994d51f1c76ae257c38f217dc80bcc59",
    "Q(3)": "427244ff04bc302c06fa1b555df6c00edf844d9e2eb1c2fb2ac48ce7d82a9efc",
    "Q(5)": "f3259dd031c07ec16989e1c28ebbef8b82b96e6870f265704f40e60e23a365d2",
    "Q(8)": "62bd3d06b61a7c56373a4899233378f5a39a90f5fcc61955ad9ef1ddf37c1568",
    "Q(12)": "eee3b8f47eb3ae861813a8b4a968a3886bf24511ce4a1ce9f11eca16cbf8e8c1",
    "E6": "b42632858e991b296a46527200c7ba0581e41c2f8fc0516b2b032a807a7a3e42",
    "E7": "3a77a1cb49010157fdd98446603ebfd2f3f92da2d0e67b74ed1981e71e76b44e",
}


@pytest.mark.parametrize("space", list(SETUP_SHA256))
def test_space_setup_is_pinned(capsys, space):
    """One digest over `describe --format=json`, the box data, w0 and w_P,
    the dual of every shape, u(d) and u(-d) for 0 < d <= d_max, and every
    entry of the divisor matrix."""
    assert cli.main(["describe", space, "--format=json"]) == 0
    parts = [capsys.readouterr().out]
    poset = build_cominuscule(space)
    parts += [repr(x) for x in (poset.boxes, poset.delta, poset.short, poset.pairing_omega, poset.down_masks, poset._w0, poset._wp)]
    for u in poset.shapes():
        parts.append(repr((u.mask, poset.dual(u).mask)))
        for d in range(1, poset.d_max + 1):
            parts.append(repr((u.mask, d, poset.curve_nbhd(u, d).mask, poset.curve_nbhd(u, -d).mask)))
    parts += [str(g) for g in qkring.divisor_matrix(poset).flat]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == SETUP_SHA256[space]


@pytest.mark.parametrize("space", ["Gr(2,6)", "OG(5,10)", "LG(4,8)"])
def test_space_setup_constructs_no_fraction(monkeypatch, space):
    made = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
    assert fractions.Fraction(1, 2) and made == [(1, 2)]  # the counter counts
    made.clear()
    qkring.divisor_matrix(CominusculePoset(parse_space(space)))
    assert made == []


def test_space_spec_and_shape_are_immutable_values():
    # constructor, repr, str, ==, hash and frozen attributes of the two
    # value classes
    spec = SpaceSpec("Gr", 2, 4)
    assert repr(spec) == "SpaceSpec(kind='Gr', a=2, b=4)" and str(spec) == "Gr(2,4)"
    assert repr(SpaceSpec("E6")) == "SpaceSpec(kind='E6', a=0, b=0)" and str(SpaceSpec("E6")) == "E6"
    assert str(SpaceSpec(kind="Q", a=5)) == "Q(5)" and str(SpaceSpec(a=2, b=4, kind="LG")) == "LG(2,4)"
    assert spec == SpaceSpec(kind="Gr", a=2, b=4) == parse_space("Gr(2,4)")
    assert spec != SpaceSpec("Gr", 2, 5) and spec != ("Gr", 2, 4) and spec.__eq__(("Gr", 2, 4)) is NotImplemented
    assert hash(spec) == hash(("Gr", 2, 4)) and len({spec, SpaceSpec("Gr", 2, 4), parse_space("P3")}) == 2
    poset = build_cominuscule("Gr(2,4)")
    u = poset.parse_shape("2,1")
    assert repr(u) == "Shape(Gr(2,4), 2,1)" and str(u) == "2,1"
    assert u == Shape(poset, u.mask) == Shape(poset=poset, mask=u.mask)
    assert u != Shape(CominusculePoset(spec), u.mask) and u != u.mask
    assert hash(u) == hash((id(poset), u.mask))
    for obj, name in ((spec, "a"), (spec, "other"), (u, "mask"), (u, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (spec.a, u.mask) == (2, poset.parse_shape("2,1").mask)
