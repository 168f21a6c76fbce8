import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qkcalc.rootsys import (
    NotARoot,
    NotInPoset,
    RootSystem,
    UnsupportedType,
    _identity,
    build_root_system,
    eps_basis,
    eps_to_root,
    longest_word,
    mat_apply,
    mat_mult,
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


def test_simple_roots_are_built_once():
    rs = build_root_system("D", 5)
    assert rs.simple_roots is rs.simple_roots
    assert rs.simple_roots == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


# ---------------------------------------------------------------------------
# The rational elimination and the dense word product the setup ran on before
# its integer closed forms and row updates, kept as references


def _reference_eps_to_root(rs: RootSystem, eps: dict[int, int | Fraction]) -> tuple[int, ...]:
    """Convert epsilon-coordinates {1-based index: coefficient} to
    simple-root coordinates; raises NotARoot if not in the root lattice."""
    basis = eps_basis(rs)
    if basis is None:
        raise UnsupportedType("no epsilon coordinates for exceptional types")
    dim = len(basis[0])
    target = [Fraction(0)] * dim
    for idx, coeff in eps.items():
        if not 1 <= idx <= dim:
            raise NotARoot(f"epsilon index {idx} out of range")
        target[idx - 1] += Fraction(coeff)
    # Solve basis * c = target by elimination over the rationals.
    rows = [[Fraction(basis[j][i]) for j in range(rs.rank)] + [target[i]] for i in range(dim)]
    coeffs: list[Fraction] = [Fraction(0)] * rs.rank
    row = 0
    pivots = []
    for col in range(rs.rank):
        piv = next((r for r in range(row, dim) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for r in range(dim):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
    for r in range(row, dim):
        if rows[r][rs.rank] != 0:
            raise NotARoot(f"{dict(eps)} is not in the root lattice")
    for r, col in enumerate(pivots):
        coeffs[col] = rows[r][rs.rank]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise NotARoot(f"{dict(eps)} is not in the root lattice")
        out.append(int(c))
    return tuple(out)


def _reference_word_matrix(rs: RootSystem, word: list[int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the Weyl element with the given word, first letter applied
    first, acting on simple-root coordinates."""
    mat = _identity(rs.rank)
    for i in word:
        refl = rs.reflection_matrix(rs.simple_roots[i])
        mat = mat_mult(refl, mat)
    return mat


CLASSICAL = (
    [("A", n) for n in range(1, 8)]
    + [("B", n) for n in range(2, 5)]
    + [("C", n) for n in range(2, 5)]
    + [("D", n) for n in range(3, 8)]
)
SYSTEMS = {(f, n): build_root_system(f, n) for f, n in CLASSICAL + [("E", 6), ("E", 7)]}


def _outcome(convert, rs, eps):
    try:
        return convert(rs, eps)
    except NotARoot:
        return NotARoot


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_eps_to_root_matches_the_rational_elimination(data):
    """A random point of the root lattice, moved off it half the time, and
    now and then given an index out of range: the closed form agrees with
    the elimination, or both raise NotARoot."""
    rs = SYSTEMS[data.draw(st.sampled_from(CLASSICAL))]
    dim = len(eps_basis(rs)[0])
    small = st.integers(-3, 3)
    coeffs = data.draw(st.lists(small, min_size=rs.rank, max_size=rs.rank))
    eps = root_to_eps(rs, coeffs)
    if data.draw(st.booleans()):
        eps = [e + data.draw(small) for e in eps]
    eps = {i + 1: e for i, e in enumerate(eps) if e}
    if data.draw(st.integers(0, 9)) == 0:
        eps[data.draw(st.sampled_from([-1, 0, dim + 1, dim + 2]))] = data.draw(small)
    got = _outcome(eps_to_root, rs, eps)
    assert got == _outcome(_reference_eps_to_root, rs, eps)
    if got is not NotARoot:
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("family,rank", CLASSICAL)
def test_eps_to_root_inverts_root_to_eps_on_every_root(family, rank):
    rs = SYSTEMS[family, rank]
    for a in rs.positive_roots:
        for v in (a, tuple(-c for c in a)):
            eps = {i + 1: c for i, c in enumerate(root_to_eps(rs, v)) if c}
            assert eps_to_root(rs, eps) == v == _reference_eps_to_root(rs, eps)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_word_matrix_matches_the_dense_product(data):
    rs = SYSTEMS[data.draw(st.sampled_from(sorted(SYSTEMS)))]
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=40))
    assert word_matrix(rs, word) == _reference_word_matrix(rs, word)


@pytest.mark.parametrize("key", sorted(SYSTEMS))
def test_word_matrix_of_the_longest_words(key):
    rs = SYSTEMS[key]
    for subset in (None, tuple(range(1, rs.rank))):
        w = longest_word(rs, subset)
        assert word_matrix(rs, w) == _reference_word_matrix(rs, w)


def test_root_system_value_behaviour():
    # field-wise ==, unhashable, the repr of its public fields and _max_norm,
    # and a norm cache of its own per instance
    rs = build_root_system("A", 2)
    assert repr(rs) == (
        "RootSystem(family='A', rank=2, cartan=((2, -1), (-1, 2)), symmetrizer=(1, 1), "
        "bilinear=((2, -1), (-1, 2)), positive_roots=((0, 1), (1, 0), (1, 1)), cominuscule=None, _max_norm=2)"
    )
    assert rs == build_root_system("A", 2) and rs != build_root_system("A", 2, cominuscule=1)
    assert rs != build_root_system("A", 3) and rs.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(rs)
    one = ((2,),)
    a = RootSystem("A", 1, one, (1,), one, ((1,),))
    b = RootSystem(family="A", rank=1, cartan=one, symmetrizer=(1,), bilinear=one, positive_roots=((1,),))
    assert repr(a) == (
        "RootSystem(family='A', rank=1, cartan=((2,),), symmetrizer=(1,), bilinear=((2,),), "
        "positive_roots=((1,),), cominuscule=None, _max_norm=0)"
    )
    assert a == b and a._root_set == frozenset() and a._norm_cache == {} and a._norm_cache is not b._norm_cache
    assert a.norm2((1,)) == 2 and b._norm_cache == {} and a != b
