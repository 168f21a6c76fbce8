import pytest
from fractions import Fraction

from qkcalc.rootsys import (
    NotARoot,
    NotInPoset,
    UnsupportedType,
    build_root_system,
    eps_basis,
    eps_to_root,
    longest_word,
    mat_apply,
    root_to_eps,
    word_matrix,
)

# (family, rank, #positive roots)
COUNTS = [
    ("A", 1, 1),
    ("A", 3, 6),
    ("A", 6, 21),
    ("B", 2, 4),
    ("B", 4, 16),
    ("C", 3, 9),
    ("C", 5, 25),
    ("D", 3, 6),
    ("D", 5, 20),
    ("E", 6, 36),
    ("E", 7, 63),
]


@pytest.mark.parametrize("family,rank,count", COUNTS)
def test_positive_root_counts(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == count


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6)])
def test_reflections_permute_roots(family, rank):
    rs = build_root_system(family, rank)
    allroots = set(rs.positive_roots) | {tuple(-x for x in a) for a in rs.positive_roots}
    for alpha in rs.positive_roots:
        image = {rs.reflect(v, alpha) for v in allroots}
        assert image == allroots


def test_reflection_is_involution():
    rs = build_root_system("C", 4)
    for alpha in rs.positive_roots:
        for v in rs.positive_roots:
            assert rs.reflect(rs.reflect(v, alpha), alpha) == v


# cominuscule marks: gamma has coefficient <= 1 in every positive root
@pytest.mark.parametrize(
    "family,rank,gamma",
    [("A", 6, 3), ("C", 5, 5), ("D", 5, 5), ("B", 3, 1), ("E", 6, 6), ("E", 7, 7)],
)
def test_cominuscule_coefficient_bound(family, rank, gamma):
    rs = build_root_system(family, rank, cominuscule=gamma)
    g = gamma - 1
    assert all(a[g] in (0, 1) for a in rs.positive_roots)


def test_non_cominuscule_root_rejected():
    # alpha_2 of C3 appears with coefficient 2 in the highest root
    with pytest.raises(NotInPoset):
        build_root_system("C", 3, cominuscule=2)


def test_unsupported_family():
    with pytest.raises(UnsupportedType):
        build_root_system("F", 4)
    with pytest.raises(UnsupportedType):
        build_root_system("E", 8)


def test_lengths_b3():
    rs = build_root_system("B", 3)
    long = [a for a in rs.positive_roots if rs.is_long(a)]
    short = [a for a in rs.positive_roots if rs.is_short(a)]
    assert len(long) == 6 and len(short) == 3


def test_pairing_integrality():
    # <beta, alpha^vee> must be an integer for all root pairs
    rs = build_root_system("D", 4)
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            assert isinstance(rs.pairing(b, a), int)


def test_eps_roundtrip_a_and_c():
    for family, rank in (("A", 4), ("C", 4), ("B", 3), ("D", 4)):
        rs = build_root_system(family, rank)
        for a in rs.positive_roots:
            eps = root_to_eps(rs, a)
            back = eps_to_root(rs, {i + 1: c for i, c in enumerate(eps) if c})
            assert back == a


def test_eps_coordinates_are_ints():
    # the epsilon basis has entries 0, +-1 and 2 only, so no Fraction is needed
    for family, rank in (("A", 4), ("B", 3), ("C", 4), ("D", 4)):
        rs = build_root_system(family, rank)
        assert all(type(x) is int for col in eps_basis(rs) for x in col)
        assert all(type(c) is int for a in rs.positive_roots for c in root_to_eps(rs, a))
    assert eps_basis(build_root_system("E", 6)) is None


def test_eps_to_root_rejects_non_lattice():
    rs = build_root_system("A", 3)
    # eps_1 alone is a weight of A3 but not in the root lattice
    with pytest.raises(NotARoot):
        eps_to_root(rs, {1: 1})


def test_longest_word_length():
    rs = build_root_system("A", 3)
    w0 = longest_word(rs)
    assert len(w0) == 6
    m = word_matrix(rs, w0)
    # w0 maps every positive root to a negative one
    for a in rs.positive_roots:
        img = mat_apply(m, a)
        assert all(x <= 0 for x in img)


def test_fundamental_weight_pairing():
    rs = build_root_system("C", 3)
    for i in range(3):
        omega = rs.fundamental_weight(i)
        for j, alpha in enumerate(rs.simple_roots):
            lhs = sum(Fraction(omega[k]) * rs.bilinear[k][j] for k in range(3))
            expected = Fraction(rs.norm2(alpha), 2) if i == j else Fraction(0)
            assert lhs == expected
