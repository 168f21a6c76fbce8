"""Cominuscule posets: the combinatorial skeleton of each flag variety.

For a cominuscule simple root gamma, the poset P_X consists of the positive
roots containing gamma with coefficient one, ordered by alpha' <= alpha iff
alpha - alpha' is a nonnegative combination of simple roots.  Its lower order
ideals ("shapes") index the Schubert basis.

The order relation is built twice and cross-checked at build time: once as
the transitive closure of simple-root-difference covers, once by the
coordinate test.  Each space also carries a planar cell layout (the classical
partition/staircase pictures, hard-coded diagrams for E6 and E7) that fixes
the box enumeration order and is validated against computed diagonal labels.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations
from operator import le, sub

from .rootsys import (
    RootSystem,
    RootVector,
    UnsupportedType,
    build_root_system,
    eps_to_root,
    longest_word,
    mat_apply,
    mat_mult,
    root_to_eps,
    word_matrix,
)


class PosetError(Exception):
    pass


class UnsupportedSpace(PosetError):
    pass


# space strings come from user input, so parse failures are parse errors
ParseError = UnsupportedSpace


class InvalidShape(PosetError):
    pass


class NotContained(PosetError):
    pass


class BuildCheckError(PosetError):
    """An internal consistency check failed while building a space."""


# ---------------------------------------------------------------------------
# Space specifications


class _Frozen:
    """Attributes set once, in ``__init__``, through ``object.__setattr__``."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SpaceSpec(_Frozen):
    """A space's family, "Gr", "LG", "OG", "Q", "E6" or "E7", and its numbers."""

    def __init__(self, kind: str, a: int = 0, b: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __repr__(self) -> str:
        return f"SpaceSpec(kind={self.kind!r}, a={self.a!r}, b={self.b!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.a, self.b) == (other.kind, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.kind, self.a, self.b))

    def __str__(self) -> str:
        if self.kind in ("E6", "E7"):
            return self.kind
        if self.kind == "Q":
            return f"Q({self.a})"
        return f"{self.kind}({self.a},{self.b})"


_SPACE_PAREN_RE = re.compile(
    r"^\s*([A-Za-z]+)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$"
)
_SPACE_COMPACT_RE = re.compile(r"^\s*([A-Za-z]+)\s*(\d*)\s*$")


def parse_space(text: str) -> SpaceSpec:
    m = _SPACE_PAREN_RE.match(text)
    if m:
        kind, a, b = m.group(1), int(m.group(2)), m.group(3)
        b = int(b) if b is not None else None
    else:
        m = _SPACE_COMPACT_RE.match(text)
        if not m:
            raise UnsupportedSpace(f"cannot parse space {text!r}")
        kind = m.group(1)
        a = int(m.group(2)) if m.group(2) else None
        b = None
    if kind == "E" and a in (6, 7) and b is None:
        return SpaceSpec(f"E{a}")
    if kind == "P" and a is not None and b is None:
        # Projective space P^k is Gr(1, k+1).
        if a < 1:
            raise UnsupportedSpace("P(k) needs k >= 1")
        return SpaceSpec("Gr", 1, a + 1)
    if kind == "Gr" and a is not None and b is not None:
        if not 1 <= a <= b - 1:
            raise UnsupportedSpace(f"Gr({a},{b}) is out of range")
        return SpaceSpec("Gr", a, b)
    if kind == "LG" and a is not None and b is not None:
        if b != 2 * a or a < 2:
            raise UnsupportedSpace(f"LG({a},{b}) must be LG(n,2n) with n >= 2")
        return SpaceSpec("LG", a, b)
    if kind == "OG" and a is not None and b is not None:
        if b != 2 * a or a < 4:
            raise UnsupportedSpace(f"OG({a},{b}) must be OG(n,2n) with n >= 4")
        return SpaceSpec("OG", a, b)
    if kind == "Q" and a is not None and b is None:
        if a < 3:
            raise UnsupportedSpace("quadrics need dimension >= 3")
        return SpaceSpec("Q", a)
    raise UnsupportedSpace(f"cannot parse space {text!r}")


# ---------------------------------------------------------------------------
# Cell layouts: list of (row, col, root-or-None, expected delta label 1-based)

_E6_LAYOUT_ROWS = [
    (1, 1, [6, 5, 4, 3, 1]),
    (2, 3, [2, 4, 3]),
    (3, 4, [5, 4, 2]),
    (4, 4, [6, 5, 4, 3, 1]),
]

_E7_LAYOUT_ROWS = [
    (1, 1, [7, 6, 5, 4, 3, 1]),
    (2, 4, [2, 4, 3]),
    (3, 5, [5, 4, 2]),
    (4, 5, [6, 5, 4, 3, 1]),
    (5, 5, [7, 6, 5, 4, 3]),
    (6, 8, [2, 4]),
    (7, 9, [5]),
    (8, 9, [6]),
    (9, 9, [7]),
]


def _space_layout(spec: SpaceSpec, rs: RootSystem) -> list[tuple[int, int, RootVector | None, int]]:
    """Cells in row-major order.  Classical families come with explicit roots
    in epsilon coordinates; E6/E7 cells are matched to roots afterwards."""
    cells: list[tuple[int, int, RootVector | None, int]] = []
    if spec.kind == "Gr":
        m, n = spec.a, spec.b
        for r in range(1, m + 1):
            for c in range(1, n - m + 1):
                root = eps_to_root(rs, {m + 1 - r: 1, m + c: -1})
                cells.append((r, c, root, m + c - r))
    elif spec.kind == "LG":
        n = spec.a
        for r in range(1, n + 1):
            for c in range(r, n + 1):
                i, j = n + 1 - c, n + 1 - r
                eps = {i: 2} if i == j else {i: 1, j: 1}
                cells.append((r, c, eps_to_root(rs, eps), n + r - c))
    elif spec.kind == "OG":
        n = spec.a
        for r in range(1, n):
            for c in range(r, n):
                i, j = n - c, n + 1 - r
                root = eps_to_root(rs, {i: 2} if i == j else {i: 1, j: 1})
                if c == r:
                    label = n if r % 2 == 1 else n - 1
                else:
                    label = n - 1 - (c - r)
                cells.append((r, c, root, label))
    elif spec.kind == "Q" and spec.a % 2 == 1:
        n = (spec.a + 1) // 2
        for t in range(1, 2 * n):
            if t < n:
                eps = {1: 1, t + 1: -1}
                label = t
            elif t == n:
                eps = {1: 1}
                label = n
            else:
                eps = {1: 1, 2 * n + 1 - t: 1}
                label = 2 * n - t
            cells.append((1, t, eps_to_root(rs, eps), label))
    elif spec.kind == "Q":
        n = (spec.a + 2) // 2
        for t in range(1, n):
            cells.append((1, t, eps_to_root(rs, {1: 1, t + 1: -1}), t))
        for s in range(1, n):
            if s == 1:
                root, label = eps_to_root(rs, {1: 1, n: 1}), n
            else:
                root, label = eps_to_root(rs, {1: 1, n + 1 - s: 1}), n - s
            cells.append((2, n - 3 + s, root, label))
    else:
        rows = _E6_LAYOUT_ROWS if spec.kind == "E6" else _E7_LAYOUT_ROWS
        for r, start, labels in rows:
            for k, label in enumerate(labels):
                cells.append((r, start + k, None, label))
    return cells


def _space_root_system(spec: SpaceSpec) -> RootSystem:
    if spec.kind == "Gr":
        return build_root_system("A", spec.b - 1, cominuscule=spec.a)
    if spec.kind == "LG":
        return build_root_system("C", spec.a, cominuscule=spec.a)
    if spec.kind == "OG":
        return build_root_system("D", spec.a, cominuscule=spec.a)
    if spec.kind == "Q" and spec.a % 2 == 1:
        return build_root_system("B", (spec.a + 1) // 2, cominuscule=1)
    if spec.kind == "Q":
        return build_root_system("D", (spec.a + 2) // 2, cominuscule=1)
    if spec.kind == "E6":
        return build_root_system("E", 6, cominuscule=6)
    if spec.kind == "E7":
        return build_root_system("E", 7, cominuscule=7)
    raise UnsupportedSpace(str(spec))


# ---------------------------------------------------------------------------
# Shapes


class Shape(_Frozen):
    """Lower order ideal of a cominuscule poset, stored as a bitmask."""

    def __init__(self, poset: "CominusculePoset", mask: int):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "mask", mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return [i for i in range(self.poset.n_boxes) if self.mask >> i & 1]

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __le__(self, other: "Shape") -> bool:
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "Shape") -> bool:
        return self.mask != other.mask and self <= other

    def __or__(self, other: "Shape") -> "Shape":
        return Shape(self.poset, self.mask | other.mask)

    def __and__(self, other: "Shape") -> "Shape":
        return Shape(self.poset, self.mask & other.mask)

    def __str__(self) -> str:
        return self.poset.format_shape(self)

    def __repr__(self) -> str:
        return f"Shape({self.poset.space}, {self.poset.format_shape(self)})"

    def __hash__(self) -> int:
        return hash((id(self.poset), self.mask))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Shape)
            and self.poset is other.poset
            and self.mask == other.mask
        )


class CominusculePoset:
    """All combinatorial data of one cominuscule space."""

    def __init__(self, spec: SpaceSpec):
        self.space = spec
        self.rs = _space_root_system(spec)
        rs = self.rs
        g = rs.cominuscule
        self.gamma_root: RootVector = rs.simple_roots[g]
        roots_px = [a for a in rs.positive_roots if a[g] == 1]

        cells = _space_layout(spec, rs)
        if any(c[2] is None for c in cells):
            ordered = self._match_exceptional_layout(roots_px, cells)
        else:
            by_root = {c[2]: c for c in cells}
            if set(by_root) != set(roots_px) or len(by_root) != len(cells):
                raise BuildCheckError(f"layout of {spec} does not cover P_X")
            ordered = [(r, c, root, lab) for (r, c, root, lab) in cells]
        ordered.sort(key=lambda cell: (cell[0], cell[1]))
        self.cells = [(r, c) for r, c, _, _ in ordered]
        self.boxes: tuple[RootVector, ...] = tuple(root for _, _, root, _ in ordered)
        self._expected_labels = [lab for _, _, _, lab in ordered]
        self.n_boxes = len(self.boxes)
        self.full_mask = (1 << self.n_boxes) - 1

        self._build_order()
        self._build_labels()
        self._build_weyl()
        self._build_shapes()
        self._wmat_cache: dict[int, tuple] = {0: rs.simple_roots}
        self._winv_cache: dict[int, tuple] = {0: rs.simple_roots}
        self._dual_cache: dict[int, int] = {}

        total = tuple(sum(col) for col in zip(*self.boxes))
        self.fano_index = rs.pairing(total, self.gamma_root)
        # the largest exponent of x_i = e^{-alpha_i} over the QK_T table:
        # -w0 of the sum of the boxes, fano_index * omega_{gamma*} in
        # simple-root coordinates.  It matched a line probe's degrees on 27
        # spaces up to E6; the exact build's certificate, not this count,
        # is what makes its tables right.
        self.table_degrees = tuple(-c for c in mat_apply(self._w0, total))

    # -- construction helpers ------------------------------------------------

    def _match_exceptional_layout(self, roots_px, cells):
        """Assign roots to E6/E7 cells by matching cover structure and labels."""
        rs = self.rs
        n = len(roots_px)
        if len(cells) != n:
            raise BuildCheckError("layout size mismatch")
        idx = {a: i for i, a in enumerate(roots_px)}
        simple = set(rs.simple_roots)
        covers = [set() for _ in range(n)]  # covers[i] = boxes covered by i
        for i, a in enumerate(roots_px):
            for j, b in enumerate(roots_px):
                if i != j and tuple(map(sub, a, b)) in simple:
                    covers[i].add(j)
        height = [sum(a) for a in roots_px]
        h0 = min(height)
        # Delta labels computed from the raw poset (order independent).
        le = self._coordinate_le(roots_px)
        labels = []
        for i, a in enumerate(roots_px):
            below = [roots_px[j] for j in range(n) if j != i and le(j, i)]
            labels.append(self._delta_of(a, below) + 1)

        pos = {(r, c): k for k, (r, c, _, _) in enumerate(cells)}
        cell_cov = [
            {pos[p] for p in ((r, c - 1), (r - 1, c)) if p in pos}
            for r, c, _, _ in cells
        ]
        by_level_boxes: dict[int, list[int]] = {}
        for i in range(n):
            by_level_boxes.setdefault(height[i] - h0, []).append(i)
        by_level_cells: dict[int, list[int]] = {}
        for k, (r, c, _, _) in enumerate(cells):
            by_level_cells.setdefault(r + c - 2, []).append(k)
        if sorted(by_level_boxes) != sorted(by_level_cells):
            raise BuildCheckError("layout levels do not match the poset")

        assign: dict[int, int] = {}

        def rec(levels: list[int]) -> bool:
            if not levels:
                return True
            lvl, rest = levels[0], levels[1:]
            bs = by_level_boxes[lvl]
            for perm in permutations(by_level_cells[lvl]):
                ok = True
                for b, k in zip(bs, perm):
                    if labels[b] != cells[k][3]:
                        ok = False
                        break
                    if {assign[x] for x in covers[b]} != cell_cov[k]:
                        ok = False
                        break
                if ok:
                    for b, k in zip(bs, perm):
                        assign[b] = k
                    if rec(rest):
                        return True
                    for b in bs:
                        del assign[b]
            return False

        if not rec(sorted(by_level_boxes)):
            raise BuildCheckError(f"cannot match {self.space} layout to its poset")
        out = []
        for b, k in assign.items():
            r, c, _, lab = cells[k]
            out.append((r, c, roots_px[b], lab))
        return out

    @staticmethod
    def _coordinate_le(roots):
        def le(i: int, j: int) -> bool:
            return all(x <= y for x, y in zip(roots[i], roots[j]))

        return le

    def _delta_of(self, alpha: RootVector, below: list[RootVector]) -> int:
        """Index of the simple root w_lambda(alpha), lambda = boxes below alpha."""
        rs = self.rs
        v = alpha
        for b in sorted(below, key=lambda x: (sum(x), x), reverse=True):
            v = rs.reflect(v, b)
        try:
            return rs.simple_roots.index(v)
        except ValueError:
            raise BuildCheckError(f"delta({alpha}) = {v} is not simple") from None

    def _build_order(self) -> None:
        n = self.n_boxes
        rs = self.rs
        simple = set(rs.simple_roots)
        covers_down = [0] * n
        for i, a in enumerate(self.boxes):
            for j, b in enumerate(self.boxes):
                if i != j and tuple(map(sub, a, b)) in simple:
                    covers_down[i] |= 1 << j
        # Transitive closure of covers, bottom-up in height order.
        order = sorted(range(n), key=lambda i: sum(self.boxes[i]))
        down = [0] * n
        for i in order:
            m = covers_down[i]
            acc = 1 << i
            k = m
            while k:
                j = (k & -k).bit_length() - 1
                acc |= down[j]
                k &= k - 1
            down[i] = acc
        # Independent coordinate test; disagreement is a hard build error.
        for i, a in enumerate(self.boxes):
            for j, b in enumerate(self.boxes):
                closure = bool(down[j] >> i & 1)
                coord = all(map(le, a, b))
                if closure != coord:
                    raise BuildCheckError(
                        f"order mismatch between cover closure and coordinates "
                        f"at {a} vs {b} in {self.space}"
                    )
        self.down_masks = down  # includes the box itself
        self.covers_down = covers_down
        up = [0] * n
        for i in range(n):
            for j in range(n):
                if down[j] >> i & 1:
                    up[i] |= 1 << j
        self.up_masks = up
        # The row-major cell order must be a linear extension.
        for i in range(n):
            if self.down_masks[i] >> (i + 1):
                raise BuildCheckError("cell order is not a linear extension")
        # Layout geometry must agree with the order for the classical layouts.
        if self.space.kind not in ("E6", "E7"):
            for i in range(n):
                for j in range(n):
                    nw = (
                        self.cells[i][0] <= self.cells[j][0]
                        and self.cells[i][1] <= self.cells[j][1]
                    )
                    if nw != bool(self.down_masks[j] >> i & 1):
                        raise BuildCheckError(
                            f"layout geometry disagrees with the order in {self.space}"
                        )

    def _build_labels(self) -> None:
        rs = self.rs
        self.delta: tuple[int, ...] = tuple(
            self._delta_of(
                a,
                [
                    self.boxes[j]
                    for j in range(self.n_boxes)
                    if j != i and self.down_masks[i] >> j & 1
                ],
            )
            for i, a in enumerate(self.boxes)
        )
        for i, lab in enumerate(self._expected_labels):
            if self.delta[i] + 1 != lab:
                raise BuildCheckError(
                    f"delta label at {self.cells[i]} is alpha_{self.delta[i]+1}, "
                    f"layout says alpha_{lab}"
                )
        self.short: tuple[bool, ...] = tuple(
            not rs.is_long(a) for a in self.boxes
        )
        self.pairing_omega: tuple[int, ...] = tuple(
            rs.comin_pairing(a) for a in self.boxes
        )
        chain = [i for i in range(self.n_boxes) if self.delta[i] == rs.cominuscule]
        chain.sort(key=lambda i: sum(self.boxes[i]))
        for a, b in zip(chain, chain[1:]):
            if not self.down_masks[b] >> a & 1:
                raise BuildCheckError("gamma-labeled boxes do not form a chain")
        self.gamma_chain = tuple(chain)
        self.d_max = len(chain)

    def _build_weyl(self) -> None:
        rs = self.rs
        self._refl = [rs.reflection_matrix(a) for a in self.boxes]
        w0_word = longest_word(rs)
        sub = tuple(i for i in range(rs.rank) if i != rs.cominuscule)
        wp_word = longest_word(rs, sub)
        w0 = word_matrix(rs, w0_word)
        wp = word_matrix(rs, wp_word)
        self._w0 = w0
        self._wp = wp

    def _build_shapes(self) -> None:
        n = self.n_boxes
        strict_down = [self.down_masks[i] & ~(1 << i) for i in range(n)]
        seen = {0}
        frontier = [0]
        while frontier:
            new = []
            for m in frontier:
                for j in range(n):
                    bit = 1 << j
                    if m & bit or strict_down[j] & ~m:
                        continue
                    m2 = m | bit
                    if m2 not in seen:
                        seen.add(m2)
                        new.append(m2)
            frontier = new
        masks = sorted(seen, key=lambda m: (m.bit_count(), m))
        self.shape_masks = tuple(masks)
        self.shape_index = {m: i for i, m in enumerate(masks)}
        self.n_shapes = len(masks)

    # -- basic shape API -----------------------------------------------------

    def shape(self, mask: int) -> Shape:
        if mask & ~self.full_mask:
            raise InvalidShape("mask out of range")
        if mask not in self.shape_index:
            raise InvalidShape(f"mask {mask:b} is not a lower order ideal")
        return Shape(self, mask)

    @property
    def empty_shape(self) -> Shape:
        return Shape(self, 0)

    @property
    def full_shape(self) -> Shape:
        return Shape(self, self.full_mask)

    def shapes(self) -> list[Shape]:
        return [Shape(self, m) for m in self.shape_masks]

    def index_of(self, u: Shape) -> int:
        return self.shape_index[u.mask]

    def addable(self, u: Shape) -> list[int]:
        out = []
        for j in range(self.n_boxes):
            bit = 1 << j
            if u.mask & bit:
                continue
            if (self.down_masks[j] & ~bit) & ~u.mask:
                continue
            out.append(j)
        return out

    # -- skew shapes ---------------------------------------------------------

    def skew_boxes(self, u: Shape, w: Shape) -> list[int]:
        if not u <= w:
            raise NotContained(f"{self.format_shape(u)} not below {self.format_shape(w)}")
        m = w.mask & ~u.mask
        return [i for i in range(self.n_boxes) if m >> i & 1]

    def is_rook_strip(self, u: Shape, w: Shape) -> bool:
        boxes = self.skew_boxes(u, w)
        for x in range(len(boxes)):
            for y in range(x + 1, len(boxes)):
                i, j = boxes[x], boxes[y]
                if self.down_masks[j] >> i & 1 or self.down_masks[i] >> j & 1:
                    return False
        return True

    def is_short_rook_strip(self, u: Shape, w: Shape) -> bool:
        return self.is_rook_strip(u, w) and all(
            self.short[i] for i in self.skew_boxes(u, w)
        )

    def delta_sum(self, u: Shape, w: Shape) -> RootVector:
        """Sum of the delta labels over the skew boxes of w/u."""
        total = [0] * self.rs.rank
        for i in self.skew_boxes(u, w):
            total[self.delta[i]] += 1
        return tuple(total)

    # -- Weyl actions ---------------------------------------------------------

    def weyl_matrix(self, mask: int) -> tuple:
        """Product of the reflections in the boxes of mask, in box order:
        the matrix of mask without its last box, times that box's."""
        cached = self._wmat_cache.get(mask)
        if cached is None:
            last = mask.bit_length() - 1
            cached = mat_mult(self.weyl_matrix(mask ^ 1 << last), self._refl[last])
            self._wmat_cache[mask] = cached
        return cached

    def weyl_matrix_inv(self, mask: int) -> tuple:
        """Inverse of weyl_matrix(mask): the reflections in reverse order."""
        cached = self._winv_cache.get(mask)
        if cached is None:
            last = mask.bit_length() - 1
            cached = mat_mult(self._refl[last], self.weyl_matrix_inv(mask ^ 1 << last))
            self._winv_cache[mask] = cached
        return cached

    def negativity_shape(self, mat: tuple) -> Shape:
        """Ideal {alpha in P_X : mat(alpha) < 0}; checks it is an ideal."""
        mask = 0
        for i, a in enumerate(self.boxes):
            img = mat_apply(mat, a)
            lo, hi = min(img), max(img)
            neg = hi <= 0 and lo < 0
            if not (neg or lo >= 0 and hi > 0):
                raise BuildCheckError(f"image {img} of {a} is not a signed root")
            if neg:
                mask |= 1 << i
        if mask not in self.shape_index:
            raise BuildCheckError("negativity set is not a lower order ideal")
        return Shape(self, mask)

    # -- duality and curve neighborhoods --------------------------------------

    def dual(self, u: Shape) -> Shape:
        """Poincare dual shape: the ideal of w0 * w_u * w_P."""
        cached = self._dual_cache.get(u.mask)
        if cached is None:
            mat = mat_mult(mat_mult(self._w0, self.weyl_matrix(u.mask)), self._wp)
            sh = self.negativity_shape(mat)
            if sh.size != self.n_boxes - u.size:
                raise BuildCheckError("dual shape has wrong size")
            self._dual_cache[u.mask] = cached = sh.mask
        return Shape(self, cached)

    def z_shape(self, d: int) -> Shape:
        """Ideal of the curve-neighborhood element z_d of the identity."""
        if d < 0:
            raise InvalidShape("z_d needs d >= 0")
        if d >= self.d_max:
            return self.full_shape
        if d == 0:
            return self.empty_shape
        pivot = self.gamma_chain[d]
        mask = self.full_mask & ~self.up_masks[pivot]
        if mask not in self.shape_index:
            raise BuildCheckError("z_d mask is not an ideal")
        return Shape(self, mask)

    def curve_nbhd(self, u: Shape, d: int) -> Shape:
        """Degree-d curve neighborhood u(d); negative d takes the quotient
        direction u(-|d|) = (u cup z_d) / z_d."""
        if d == 0:
            return u
        step = min(abs(d), self.d_max)
        z = self.z_shape(step)
        if d < 0:
            union = u | z
            mat = mat_mult(self.weyl_matrix(union.mask), self.weyl_matrix_inv(z.mask))
            sh = self.negativity_shape(mat)
            if sh.size != union.size - z.size:
                raise BuildCheckError("curve neighborhood has wrong length")
            return sh
        inter = u & self.dual(z)
        mat = mat_mult(self.weyl_matrix(inter.mask), self.weyl_matrix(z.mask))
        sh = self.negativity_shape(mat)
        if sh.size != inter.size + z.size:
            raise BuildCheckError("curve neighborhood has wrong length")
        return sh

    # -- shape literals --------------------------------------------------------

    def _partition_rows(self) -> list[int] | None:
        """The width of each row of a partition-shaped layout (Gr, LG, OG),
        whose cells are numbered row by row from row 1."""
        if self.space.kind not in ("Gr", "LG", "OG"):
            return None
        rows = [r for r, _ in self.cells]
        return [rows.count(r) for r in range(1, rows[-1] + 1)]

    def parse_shape(self, text: str) -> Shape:
        text = text.strip()
        if text in ("", "0", "-", "()"):
            return self.empty_shape
        if text.startswith("["):
            if not text.endswith("]"):
                raise InvalidShape(f"unterminated index list {text!r}")
            body = text[1:-1].strip()
            idxs = [int(x) for x in body.split(",")] if body else []
            mask = 0
            for i in idxs:
                if not 0 <= i < self.n_boxes:
                    raise InvalidShape(f"box index {i} out of range")
                mask |= 1 << i
            if mask not in self.shape_index:
                raise InvalidShape(f"{text} is not a lower order ideal")
            return Shape(self, mask)
        rows = self._partition_rows()
        if rows is not None:
            try:
                parts = [int(x) for x in text.split(",")]
            except ValueError:
                raise InvalidShape(f"cannot parse partition {text!r}") from None
            while parts and parts[-1] == 0:
                parts.pop()
            strict = self.space.kind in ("LG", "OG")
            if len(parts) > len(rows):
                raise InvalidShape("too many rows")
            mask = 0
            offset = 0
            for r, width in enumerate(rows):
                lam = parts[r] if r < len(parts) else 0
                if lam < 0 or lam > width:
                    raise InvalidShape(f"row {r+1} must have 0..{width} boxes")
                if r + 1 < len(parts):
                    nxt = parts[r + 1]
                    if nxt > lam or (strict and lam and nxt == lam):
                        raise InvalidShape(f"{text!r} is not a valid partition here")
                for c in range(lam):
                    mask |= 1 << (offset + c)
                offset += width
            if mask not in self.shape_index:
                raise InvalidShape(f"{text!r} does not give an ideal")
            return Shape(self, mask)
        if self.space.kind == "Q":
            try:
                k = int(text)
            except ValueError:
                raise InvalidShape(f"cannot parse shape {text!r}") from None
            matches = [m for m in self.shape_masks if m.bit_count() == k]
            if not matches:
                raise InvalidShape(f"no class of codimension {k}")
            if len(matches) > 1:
                raise InvalidShape(
                    f"codimension {k} is ambiguous here; use an explicit [..] list"
                )
            return Shape(self, matches[0])
        raise InvalidShape(f"cannot parse shape {text!r} for {self.space}")

    def format_shape(self, u: Shape) -> str:
        rows = self._partition_rows()
        if rows is not None:
            parts = []
            offset = 0
            for width in rows:
                parts.append(sum(1 for c in range(width) if u.mask >> (offset + c) & 1))
                offset += width
            while parts and parts[-1] == 0:
                parts.pop()
            return ",".join(str(p) for p in parts) if parts else "0"
        if self.space.kind == "Q":
            k = u.size
            matches = [m for m in self.shape_masks if m.bit_count() == k]
            if len(matches) == 1:
                return str(k)
        return "[" + ",".join(str(i) for i in u.indices()) + "]"

    # -- rendering --------------------------------------------------------------

    def render_ascii(self, highlight: Shape | None = None) -> str:
        if highlight is None:
            highlight = self.z_shape(1)
        rmax = max(r for r, _ in self.cells)
        cmax = max(c for _, c in self.cells)
        width = max(len(str(d + 1)) for d in self.delta)
        blank = " " * (width + 2)
        grid = [[blank for _ in range(cmax)] for _ in range(rmax)]
        for i, (r, c) in enumerate(self.cells):
            lab = str(self.delta[i] + 1).rjust(width)
            if i in highlight:
                grid[r - 1][c - 1] = f"[{lab}]"
            else:
                grid[r - 1][c - 1] = f" {lab} "
        return "\n".join("".join(row).rstrip() for row in grid)

    def describe(self) -> str:
        lines = [
            f"space {self.space}: {self.n_boxes} boxes, {self.n_shapes} Schubert classes",
            f"d_max(2 points) = {self.d_max}, Fano index = {self.fano_index}",
            "diagonal labels (z_1 bracketed):",
            self.render_ascii(),
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CominusculePoset({self.space})"


@lru_cache(maxsize=None)
def _build_cached(spec_str: str) -> CominusculePoset:
    return CominusculePoset(parse_space(spec_str))


def build_cominuscule(spec: SpaceSpec | str) -> CominusculePoset:
    """Build (and memoize) the poset of a cominuscule space."""
    if isinstance(spec, str):
        spec = parse_space(spec)
    return _build_cached(str(spec))


def eps_string(poset: CominusculePoset, v: RootVector, fmt: str = "text") -> str:
    """Readable weight: epsilon coordinates for the classical families,
    simple-root coordinates otherwise; ``fmt="latex"`` writes the symbols as
    ``\\varepsilon_{i}`` and ``\\alpha_{i}``."""
    latex = fmt == "latex"
    try:
        coords = root_to_eps(poset.rs, v)
        sym = "\\varepsilon_{%d}" if latex else "e%d"
    except UnsupportedType:
        coords = v
        sym = "\\alpha_{%d}" if latex else "a%d"
    bits = []
    for i, c in enumerate(coords):
        if c:
            bits.append(_term(c, sym % (i + 1), first=not bits))
    return "".join(bits) if bits else "0"


def _term(coeff, sym: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    return f"{sign}{sym}" if mag == 1 else f"{sign}{mag}{sym}"
