"""Root systems of the finite types that carry cominuscule flag varieties.

Roots are stored in simple-root coordinates: a root is a tuple of integers
giving its expansion in the simple basis, with Bourbaki numbering throughout.
The Cartan matrices are hard coded per family and every derived quantity
(positive roots, lengths, reflections, pairings, Weyl-group matrices) is
computed from them with integer arithmetic only.  A word's matrix is built
one simple reflection at a time, each a row update.  Epsilon coordinates of
the classical families convert to simple-root coordinates in closed form:
the coefficients are prefix sums, the last ones halved in types C and D.
Only ``RootSystem.fundamental_weight``, which is rational in general, uses
``Fraction``; it imports ``fractions`` when first called, so that loading
this module loads neither ``fractions`` nor ``decimal``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

RootVector = tuple[int, ...]


class RootSystemError(Exception):
    pass


class UnsupportedType(RootSystemError):
    """Requested (family, rank) is outside the supported list."""


class NotARoot(RootSystemError):
    """A vector expected to be a root of the system is not one."""


class NotInPoset(RootSystemError):
    """A root expected to carry the cominuscule root once does not."""


def _chain_cartan(n: int) -> list[list[int]]:
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        cartan[i][i + 1] = -1
        cartan[i + 1][i] = -1
    return cartan


def _cartan_and_symmetrizer(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix ``a[i][j] = <alpha_j, alpha_i^vee>`` and minimal integer
    symmetrizer ``d`` with ``d[i] * a[i][j]`` symmetric."""
    if family == "A" and rank >= 1:
        return _chain_cartan(rank), [1] * rank
    if family == "B" and rank >= 2:
        cartan = _chain_cartan(rank)
        # alpha_n is the short root: <alpha_{n-1}, alpha_n^vee> = -2.
        cartan[rank - 1][rank - 2] = -2
        return cartan, [2] * (rank - 1) + [1]
    if family == "C" and rank >= 2:
        cartan = _chain_cartan(rank)
        # alpha_n is the long root: <alpha_n, alpha_{n-1}^vee> = -2.
        cartan[rank - 2][rank - 1] = -2
        return cartan, [1] * (rank - 1) + [2]
    if family == "D" and rank >= 3:
        cartan = _chain_cartan(rank - 1)
        for row in cartan:
            row.append(0)
        last = [0] * rank
        last[rank - 1] = 2
        cartan.append(last)
        cartan[rank - 3][rank - 1] = -1
        cartan[rank - 1][rank - 3] = -1
        return cartan, [1] * rank
    if family == "E" and rank in (6, 7):
        cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank == 7:
            edges.append((6, 7))
        for i, j in edges:
            cartan[i - 1][j - 1] = -1
            cartan[j - 1][i - 1] = -1
        return cartan, [1] * rank
    raise UnsupportedType(f"no root system of type {family}{rank}")


class RootSystem:
    """A root system's data; ``==`` compares every field, and it is unhashable."""

    def __init__(
        self,
        family: str,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        symmetrizer: tuple[int, ...],
        bilinear: tuple[tuple[int, ...], ...],  # (alpha_i, alpha_j), scaled
        positive_roots: tuple[RootVector, ...],
        cominuscule: int | None = None,  # 0-based index of gamma, if assigned
        _root_set: frozenset[RootVector] = frozenset(),
        _norm_cache: dict[RootVector, int] | None = None,
        _max_norm: int = 0,
    ):
        self.family = family
        self.rank = rank
        self.cartan = cartan
        self.symmetrizer = symmetrizer
        self.bilinear = bilinear
        self.positive_roots = positive_roots
        self.cominuscule = cominuscule
        self._root_set = _root_set
        self._norm_cache = {} if _norm_cache is None else _norm_cache
        self._max_norm = _max_norm

    def _fields(self) -> tuple:
        return (
            self.family, self.rank, self.cartan, self.symmetrizer, self.bilinear, self.positive_roots,
            self.cominuscule, self._root_set, self._norm_cache, self._max_norm,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable: build_root_system sets cominuscule and _max_norm

    def __repr__(self) -> str:
        return (
            f"RootSystem(family={self.family!r}, rank={self.rank!r}, cartan={self.cartan!r}, "
            f"symmetrizer={self.symmetrizer!r}, bilinear={self.bilinear!r}, "
            f"positive_roots={self.positive_roots!r}, cominuscule={self.cominuscule!r}, "
            f"_max_norm={self._max_norm!r})"
        )

    @cached_property
    def simple_roots(self) -> tuple[RootVector, ...]:
        return _identity(self.rank)

    def is_root(self, v: RootVector) -> bool:
        return v in self._root_set or tuple(-c for c in v) in self._root_set

    def is_positive_root(self, v: RootVector) -> bool:
        return v in self._root_set

    def inner(self, v: RootVector, w: RootVector) -> int:
        """Scaled invariant form (v, w); integer on the root lattice."""
        total = 0
        bil = self.bilinear
        for i, vi in enumerate(v):
            if not vi:
                continue
            row = bil[i]
            for j, wj in enumerate(w):
                if wj:
                    total += vi * wj * row[j]
        return total

    def norm2(self, alpha: RootVector) -> int:
        cached = self._norm_cache.get(alpha)
        if cached is None:
            cached = self.inner(alpha, alpha)
            self._norm_cache[alpha] = cached
        return cached

    def is_long(self, alpha: RootVector) -> bool:
        if not self.is_root(alpha):
            raise NotARoot(f"{alpha} is not a root of {self.family}{self.rank}")
        return self.norm2(alpha) == self._max_norm

    def is_short(self, alpha: RootVector) -> bool:
        return not self.is_long(alpha)

    def pairing(self, v: RootVector, alpha: RootVector) -> int:
        """Coroot pairing <v, alpha^vee> = 2 (v, alpha) / (alpha, alpha)."""
        if not self.is_root(alpha):
            raise NotARoot(f"{alpha} is not a root of {self.family}{self.rank}")
        num = 2 * self.inner(v, alpha)
        den = self.norm2(alpha)
        q, r = divmod(num, den)
        if r:
            raise NotARoot(f"non-integral pairing of {v} against {alpha}")
        return q

    def reflect(self, v: RootVector, alpha: RootVector) -> RootVector:
        """Reflection s_alpha(v) = v - <v, alpha^vee> alpha."""
        c = self.pairing(v, alpha)
        if c == 0:
            return v
        return tuple(vi - c * ai for vi, ai in zip(v, alpha))

    def reflection_matrix(self, alpha: RootVector) -> tuple[tuple[int, ...], ...]:
        """Matrix of s_alpha acting on simple-root coordinates (columns map
        basis vectors)."""
        cols = [self.reflect(e, alpha) for e in self.simple_roots]
        return tuple(tuple(cols[j][i] for j in range(self.rank)) for i in range(self.rank))

    def weight_pairing(self, gamma_index: int, alpha: RootVector) -> int:
        """<omega, alpha^vee> for the fundamental weight omega of the simple
        root with the given 0-based index.  Equals coeff_gamma(alpha) for long
        alpha and twice that for short alpha (gamma is always long here)."""
        d_gamma = self.symmetrizer[gamma_index]
        num = 2 * alpha[gamma_index] * d_gamma
        den = self.norm2(alpha)
        q, r = divmod(num, den)
        if r:
            raise NotARoot(f"non-integral weight pairing against {alpha}")
        return q

    def comin_pairing(self, alpha: RootVector) -> int:
        """(omega_gamma, alpha^vee) for a root alpha containing gamma once:
        1 when alpha is long, 2 when alpha is short."""
        if self.cominuscule is None:
            raise NotInPoset("root system has no cominuscule root assigned")
        if not self.is_positive_root(alpha) or alpha[self.cominuscule] != 1:
            raise NotInPoset(f"{alpha} does not carry the cominuscule root once")
        return self.weight_pairing(self.cominuscule, alpha)

    def fundamental_weight(self, index: int) -> tuple:
        """omega_index in simple-root coordinates, as Fractions (rational in
        general)."""
        from fractions import Fraction

        # Solve cartan x = e_index, since <omega, alpha_i^vee> = sum_j
        # x_j cartan[i][j] must be delta_{i,index}.
        n = self.rank
        mat = [[Fraction(self.cartan[i][j]) for j in range(n)] for i in range(n)]
        rhs = [Fraction(1) if i == index else Fraction(0) for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if mat[r][col] != 0)
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and mat[r][col]:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                    rhs[r] -= f * rhs[col]
        return tuple(rhs)


def _close_positive_roots(cartan: list[list[int]], rank: int) -> list[RootVector]:
    """Enumerate positive roots by height with the root-string rule: for a
    known root beta, beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0
    where p is the depth of the alpha_i-string below beta."""
    simple = []
    for i in range(rank):
        v = [0] * rank
        v[i] = 1
        simple.append(tuple(v))
    known: set[RootVector] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[RootVector] = []
        for beta in frontier:
            for i in range(rank):
                pair = sum(beta[j] * cartan[i][j] for j in range(rank))
                p = 0
                walk = list(beta)
                while True:
                    walk[i] -= 1
                    if tuple(walk) in known:
                        p += 1
                    else:
                        break
                if p - pair > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(known, key=lambda v: (sum(v), v))


def build_root_system(family: str, rank: int, cominuscule: int | None = None) -> RootSystem:
    """Build the root system of the given type.

    ``cominuscule`` is the 1-based Bourbaki index of the cominuscule simple
    root; when given, every positive root is checked to contain it with
    coefficient at most one.

    Supported: A_n (n>=1), B_n (n>=2), C_n (n>=2), D_n (n>=3, where D_3 only
    arises as the even quadric of dimension 4), E_6, E_7.
    """
    if not isinstance(rank, int) or rank < 1:
        raise UnsupportedType(f"invalid rank {rank!r}")
    cartan, sym = _cartan_and_symmetrizer(family, rank)
    bilinear = tuple(
        tuple(sym[i] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    positives = _close_positive_roots(cartan, rank)
    rs = RootSystem(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(sym),
        bilinear=bilinear,
        positive_roots=tuple(positives),
        _root_set=frozenset(positives),
    )
    rs._max_norm = max(rs.norm2(a) for a in positives)
    if cominuscule is not None:
        g = cominuscule - 1
        if not 0 <= g < rank:
            raise UnsupportedType(f"no simple root with index {cominuscule}")
        for alpha in positives:
            if alpha[g] > 1:
                raise NotInPoset(
                    f"alpha_{cominuscule} is not cominuscule in {family}{rank}"
                )
        rs.cominuscule = g
    return rs


def longest_word(rs: RootSystem, subset: tuple[int, ...] | None = None) -> list[int]:
    """Reduced word (0-based simple indices, first letter applied first) for
    the longest element of the Weyl group generated by ``subset``.

    Computed by driving the subset's strictly dominant weight to the
    antidominant chamber in fundamental-weight coordinates.
    """
    n = rs.rank
    active = tuple(range(n)) if subset is None else subset
    p = [1 if i in active else 0 for i in range(n)]
    word: list[int] = []
    while True:
        i = next((i for i in active if p[i] > 0), None)
        if i is None:
            return word
        pi = p[i]
        for j in range(n):
            p[j] -= pi * rs.cartan[j][i]
        word.append(i)


def word_matrix(rs: RootSystem, word: list[int]) -> tuple[tuple[int, ...], ...]:
    """Matrix of the Weyl element with the given word, first letter applied
    first, acting on simple-root coordinates.

    s_i changes only coordinate i, by minus <v, alpha_i^vee> = sum_j
    cartan[i][j] v_j, so applying it after the matrix so far replaces row i
    by row_i - sum_j cartan[i][j] row_j."""
    rows = [list(r) for r in _identity(rs.rank)]
    terms = [[(c, rows[j]) for j, c in enumerate(a) if c] for a in rs.cartan]
    for i in word:
        # in place, since terms holds the row lists themselves
        rows[i][:] = [
            x - sum(c * row[k] for c, row in terms[i]) for k, x in enumerate(rows[i])
        ]
    return tuple(map(tuple, rows))


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mult(a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) for col in bt) for row in a
    )


def mat_apply(mat: tuple[tuple[int, ...], ...], v: RootVector) -> RootVector:
    return tuple(sum(map(mul, row, v)) for row in mat)


# epsilon-coordinate conversion for the classical families; used for I/O only.

def eps_basis(rs: RootSystem) -> tuple[tuple[int, ...], ...] | None:
    """Columns give simple roots in the epsilon basis of the family, or None
    for the exceptional types."""
    return _eps_basis(rs.family, rs.rank)


@lru_cache(maxsize=None)
def _eps_basis(family: str, n: int) -> tuple[tuple[int, ...], ...] | None:
    # alpha_i = e_i - e_{i+1}; B, C and D end on e_n, 2e_n and e_{n-1} + e_n
    if family not in ("A", "B", "C", "D"):
        return None
    dim = n + 1 if family == "A" else n
    cols = [tuple(int(j == i) - int(j == i + 1) for j in range(dim)) for i in range(n)]
    if family != "A":
        last = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}[family]
        cols[-1] = tuple(last.get(j, 0) for j in range(n))
    return tuple(cols)


def root_to_eps(rs: RootSystem, v: RootVector) -> list[int]:
    basis = eps_basis(rs)
    if basis is None:
        raise UnsupportedType("no epsilon coordinates for exceptional types")
    dim = len(basis[0])
    out = [0] * dim
    for coeff, col in zip(v, basis):
        if coeff:
            for i in range(dim):
                out[i] += coeff * col[i]
    return out


def eps_to_root(rs: RootSystem, eps: dict[int, int]) -> RootVector:
    """Convert epsilon-coordinates {1-based index: coefficient} to
    simple-root coordinates; raises NotARoot if not in the root lattice.

    With t the epsilon vector and S_i = t_1 + ... + t_i, the coefficient
    c_i of alpha_i is S_i, except: in type A, S_{n+1} must vanish; in type
    C, c_n = S_n / 2; in type D, c_{n-1} = (S_{n-1} - t_n) / 2 and
    c_n = S_n / 2.  Both halvings are exact when S_n is even.
    """
    basis = eps_basis(rs)
    if basis is None:
        raise UnsupportedType("no epsilon coordinates for exceptional types")
    dim = len(basis[0])
    t = [0] * dim
    for idx, coeff in eps.items():
        if not 1 <= idx <= dim:
            raise NotARoot(f"epsilon index {idx} out of range")
        t[idx - 1] += coeff
    c = list(accumulate(t))
    halve = rs.family in ("C", "D")
    if (c.pop() if rs.family == "A" else halve and c[-1] % 2):
        raise NotARoot(f"{dict(eps)} is not in the root lattice")
    if halve:
        c[-1] //= 2
    if rs.family == "D":
        c[-2] = (c[-2] - t[-1]) // 2
    return tuple(c)
