"""Independent verification oracles.

Three ways to cross-examine the Chevalley machinery: the Euler pairing
against the theta_0-dual basis, the closed form for chi(J . O^u . O_w),
and a from-scratch complete-intersection computation of the same pairing
on Lagrangian Grassmannians.  The last one never touches the operator
calculus: it expands a product of explicit K-classes on projective space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chevalley import j_class, kt_chevalley
from .gamma import GammaElement
from .poset import CominusculePoset, NotContained, Shape
from .rootsys import build_root_system, eps_to_root


class OracleError(Exception):
    pass


class NotLG(OracleError):
    """The complete-intersection oracle only exists for LG(n,2n)."""


# ---------------------------------------------------------------------------
# theta_0-dual Euler pairing


def euler_pairing_table(poset: CominusculePoset) -> list[list[int]]:
    """P[u][v] = chi(O^u . O_v) = 1 iff u <= v (Richardson varieties are
    rational with rational singularities)."""
    masks = poset.shape_masks
    return [[1 if mu & ~mv == 0 else 0 for mv in masks] for mu in masks]


_THETA0_MATRIX_CACHE: dict[str, list[dict[int, int]]] = {}


def _theta0_matrix(poset: CominusculePoset) -> list[dict[int, int]]:
    """Column u: the expansion of theta_0(O^u) in the Schubert basis."""
    key = str(poset.space)
    cols = _THETA0_MATRIX_CACHE.get(key)
    if cols is None:
        from .chevalley import theta0_op

        index = poset.shape_index
        cols = []
        for mask in poset.shape_masks:
            col = {}
            for m2, g in theta0_op(poset, {mask: GammaElement.from_int(poset.rs.rank, 1)}).items():
                c = g.terms.get((0,) * poset.rs.rank, 0)
                if len(g.terms) != 1 or c not in (1, -1):
                    raise OracleError("theta_0 entries must be +-1")
                if mask & ~m2:
                    raise OracleError("theta_0 is not upper triangular")
                col[index[m2]] = c
            if col[index[mask]] != 1:
                raise OracleError("theta_0 is not unitriangular")
            cols.append(col)
        _THETA0_MATRIX_CACHE[key] = cols
    return cols


def theta0_coefficients(poset: CominusculePoset, xi: dict[int, GammaElement]) -> list[GammaElement]:
    """Solve xi = sum_w b_w theta_0(O^w) over Gamma.

    The change of basis is unitriangular with entries 0, +-1, so back
    substitution in shape order needs no divisions.  b_w = chi(xi . O_w).
    """
    rank = poset.rs.rank
    index = poset.shape_index
    k = len(poset.shape_masks)
    cols = _theta0_matrix(poset)
    resid = [GammaElement.zero(rank)] * k
    for mask, g in xi.items():
        resid[index[mask]] = g
    b = [GammaElement.zero(rank)] * k
    for v in range(k):
        bv = resid[v]
        b[v] = bv
        if bv.is_zero():
            continue
        for wi, sign in cols[v].items():
            if wi != v:
                resid[wi] = resid[wi] - bv * sign
    return b


def chi_against_Ow(poset: CominusculePoset, xi: dict[int, GammaElement], w) -> GammaElement:
    """chi(xi . O_w) via the theta_0-dual basis; w a Shape or mask."""
    wmask = w.mask if isinstance(w, Shape) else w
    return theta0_coefficients(poset, xi)[poset.shape_index[wmask]]


def ktchev2_closed(poset: CominusculePoset, u_mask: int, w_mask: int) -> GammaElement:
    """Closed form for chi(J . O^u . O_w): zero unless w/u is a short rook
    strip, and then (-1)^{l(w/u)} J_u [C_{-delta(w/u)}]."""
    rank = poset.rs.rank
    if u_mask & ~w_mask:
        return GammaElement.zero(rank)
    u, w = Shape(poset, u_mask), Shape(poset, w_mask)
    if not poset.is_short_rook_strip(u, w):
        return GammaElement.zero(rank)
    ds = poset.delta_sum(u, w)
    sign = -1 if (w_mask ^ u_mask).bit_count() % 2 else 1
    return j_class(poset, u_mask) * GammaElement.monomial(
        tuple(-x for x in ds), sign
    )


def verify_ktchev2(poset: CominusculePoset) -> dict:
    """chi(J . O^u . O_w) computed through the dual-basis solve must match
    the closed form on every pair, exactly."""
    masks = poset.shape_masks
    k = len(masks)
    failures = []
    for u in range(k):
        b = theta0_coefficients(poset, dict(kt_chevalley(poset, masks[u])))
        for w in range(k):
            want = ktchev2_closed(poset, masks[u], masks[w])
            got = b[w]
            if got != want:
                failures.append(
                    {"pair": [str(poset.shape(masks[u])), str(poset.shape(masks[w]))],
                     "lhs": repr(got), "rhs": repr(want)}
                )
    return {
        "check": "ktchev2",
        "space": str(poset.space),
        "backend": "exact",
        "pairs": k * k,
        "status": "pass" if not failures else "fail",
        "failures": failures[:20],
        "failure_count": len(failures),
    }


# ---------------------------------------------------------------------------
# Lagrangian Grassmannian complete-intersection oracle
#
# Everything below works with strict partitions lam inside (n, n-1, ..., 1)
# drawn shifted: row i occupies columns i .. i+lam_i-1 of the staircase,
# whose row i spans columns i..n.  Diagonal boxes (i,i) are the long ones.


@dataclass(frozen=True)
class BoundaryPath:
    """South-east boundary of a shape: n steps from the NE staircase corner
    to the diagonal.  segs[k-1] = (direction, y) with y the number of
    vertical steps strictly before step k; (direction, y, k) pins down the
    segment's position in the plane."""

    n: int
    segs: tuple[tuple[str, int], ...]

    @staticmethod
    def of(n: int, parts: tuple[int, ...]) -> "BoundaryPath":
        partset = set(parts)
        segs = []
        y = 0
        for k in range(1, n + 1):
            if n + 1 - k in partset:
                segs.append(("v", y))
                y += 1
            else:
                segs.append(("h", y))
        return BoundaryPath(n, tuple(segs))

    def box_southeast(self, k: int) -> tuple[int, int]:
        """The staircase box immediately SE of step k (1-based)."""
        d, y = self.segs[k - 1]
        if d == "v":
            return (y + 1, y + self.n + 2 - k)
        return (y + 1, self.n - k + 1 + y)


def _parts_of(u) -> tuple[int, ...]:
    if isinstance(u, Shape):
        if u.poset.space.kind != "LG":
            raise NotLG(f"{u.poset.space} is not a Lagrangian Grassmannian")
        return tuple(
            p for p in (
                sum(1 for c in range(w) if u.mask >> (off + c) & 1)
                for off, w in _lg_offsets(u.poset.space.a)
            ) if p
        )
    return tuple(int(p) for p in u if p)


def _lg_offsets(n: int) -> list[tuple[int, int]]:
    out = []
    off = 0
    for r in range(n):
        out.append((off, n - r))
        off += n - r
    return out


def _validate_parts(n: int, parts: tuple[int, ...]) -> None:
    for i, p in enumerate(parts):
        if not 1 <= p <= n - i:
            raise OracleError(f"part {p} out of range in row {i+1}")
        if i and parts[i - 1] <= p:
            raise OracleError("parts must be strictly decreasing")


def _skew_components(n: int, lam: tuple[int, ...], mu: tuple[int, ...]):
    """Connected components of mu/lam as box sets, split by sharing a side."""
    boxes = set()
    for i in range(1, n + 1):
        lo = lam[i - 1] if i <= len(lam) else 0
        hi = mu[i - 1] if i <= len(mu) else 0
        for c in range(i + lo, i + hi):
            boxes.add((i, c))
    comps = []
    left = set(boxes)
    while left:
        stack = [left.pop()]
        comp = {stack[0]}
        while stack:
            r, c = stack.pop()
            for nb in ((r, c - 1), (r, c + 1), (r - 1, c), (r + 1, c)):
                if nb in left:
                    left.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


def lg_equations(n: int, u, w) -> dict:
    """Defining equations of the projected Richardson variety Z^u_w in P(C^2n).

    Returns linear equation indices (x_i = 0) and quadratic ranges (i,j)
    standing for x_i x_{2n+1-i} + ... + x_j x_{2n+1-j} = 0.
    """
    lam, mu = _parts_of(u), _parts_of(w)
    _validate_parts(n, lam)
    _validate_parts(n, mu)
    for i in range(len(lam)):
        if i >= len(mu) or mu[i] < lam[i]:
            raise NotContained(f"{lam} not contained in {mu}")
    pu, pw = BoundaryPath.of(n, lam), BoundaryPath.of(n, mu)
    shared = [k for k in range(1, n + 1) if pu.segs[k - 1] == pw.segs[k - 1]]
    linear = [2 * n + 1 - k if pu.segs[k - 1][0] == "h" else k for k in shared]
    comps = _skew_components(n, lam, mu)
    quads = []
    for comp in comps:
        if any(r == c for r, c in comp):
            continue  # long component: touches the diagonal, no equation
        side = sorted(k for k in range(1, n + 1) if pu.box_southeast(k) in comp)
        if side != list(range(side[0], side[-1] + 1)):
            raise OracleError("NW side of a short component must be a contiguous segment run")
        quads.append((side[0], side[-1]))
    return {
        "n": n,
        "linear": sorted(linear),
        "quadratics": sorted(quads),
        "shared": len(shared),
        "short_components": len(quads),
        # index t standing for the weight -eps_t of the equation x_t = 0
        "shared_weights": [
            (2 * n + 1 - k if pu.segs[k - 1][0] == "h" else k) for k in shared
        ],
    }


def _eps_monomial(n: int, t: int) -> tuple[int, ...]:
    """Weight -eps_t folded into coordinates eps_1..eps_n via
    eps_{2n+1-i} = -eps_i."""
    v = [0] * n
    if t <= n:
        v[t - 1] = -1
    else:
        v[2 * n - t] = 1
    return tuple(v)


def lg_oracle_chi(n: int, u, w) -> GammaElement:
    """chi(J . O^u . O_w) on LG(n,2n) from the complete intersection Z^u_w.

    Expands prod_j (1 - [C_{-eps_j}] h) * prod_shared (1 - [C_mu] h) *
    (1 - h^2)^q in K^T(P(C^2n)) and reads off the h^{2n} coefficient.
    """
    eqs = lg_equations(n, u, w)
    coeffs: list[dict] = [dict() for _ in range(2 * n + 1)]
    coeffs[0] = {(0,) * n: 1}

    def mul_linear(weight: tuple[int, ...]) -> None:
        # multiply by (1 - e^weight h), truncating above h^{2n}
        for d in range(2 * n, 0, -1):
            for e, c in coeffs[d - 1].items():
                e2 = tuple(a + b for a, b in zip(e, weight))
                coeffs[d][e2] = coeffs[d].get(e2, 0) - c

    for j in range(1, n + 1):
        mul_linear(_eps_monomial(n, j))
    for t in eqs["shared_weights"]:
        mul_linear(_eps_monomial(n, t))
    for _ in range(eqs["short_components"]):
        # (1 - h^2): subtract a degree-shifted copy
        for d in range(2 * n, 1, -1):
            for e, c in coeffs[d - 2].items():
                coeffs[d][e] = coeffs[d].get(e, 0) - c

    rank = n
    lead_deg = n + eqs["shared"] + 2 * eqs["short_components"]
    if lead_deg > 2 * n:
        raise OracleError("too many equations for the ambient dimension")
    out = GammaElement.zero(rank)
    for e, c in coeffs[2 * n].items():
        if c:
            out = out + GammaElement.monomial(eps_to_root_cn(n, e), c)
    # cross-check the leading coefficient against its closed form, staying
    # in eps coordinates (nu need not lie in the root lattice here)
    nu = nu_weight(n, u, w)
    sign = -1 if (n + eqs["shared"] + eqs["short_components"]) % 2 else 1
    lead = {e: c for e, c in coeffs[lead_deg].items() if c}
    if lead != {nu: sign}:
        raise OracleError("leading coefficient disagrees with (-1)^{n+l+q} [C_nu]")
    return out


def eps_to_root_cn(n: int, eps: tuple[int, ...]) -> tuple[int, ...]:
    """eps_1..eps_n coordinates to simple-root coordinates in type C_n."""
    return eps_to_root(
        build_root_system("C", n), {i + 1: c for i, c in enumerate(eps) if c}
    )


def nu_weight(n: int, u, w) -> tuple[int, ...]:
    """nu(u,w) = sum of shared linear-equation weights - sum_j eps_j, in
    eps coordinates."""
    eqs = lg_equations(n, u, w)
    v = [-1] * n
    for t in eqs["shared_weights"]:
        m = _eps_monomial(n, t)
        for i in range(n):
            v[i] += m[i]
    return tuple(v)


def verify_lg_oracle(poset: CominusculePoset) -> dict:
    """All pairs u <= w: the complete-intersection chi must equal the
    theta_0-dual pairing of kt_chevalley(u) against O_w."""
    if poset.space.kind != "LG":
        raise NotLG(f"{poset.space} is not a Lagrangian Grassmannian")
    n = poset.space.a
    masks = poset.shape_masks
    k = len(masks)
    failures = []
    checked = 0
    for u in range(k):
        b = theta0_coefficients(poset, dict(kt_chevalley(poset, masks[u])))
        for w in range(k):
            if masks[u] & ~masks[w]:
                continue
            checked += 1
            lhs = lg_oracle_chi(n, poset.shape(masks[u]), poset.shape(masks[w]))
            if lhs != b[w]:
                failures.append(
                    {"pair": [str(poset.shape(masks[u])), str(poset.shape(masks[w]))],
                     "lhs": repr(lhs), "rhs": repr(b[w])}
                )
    return {
        "check": "lg-oracle",
        "space": str(poset.space),
        "pairs": checked,
        "status": "pass" if not failures else "fail",
        "failures": failures[:20],
        "failure_count": len(failures),
    }
