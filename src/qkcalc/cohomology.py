"""Classical equivariant cohomology side of the reconstruction.

Divisor Chevalley constants in H_T(X), the A-coefficient recursion that
solves the Molev-Sagan equations from identity-row seeds, the distinct
diagonal divisor-generation check, a nullspace probe for the uniqueness
conjecture, and the Chern-character bridge tying the q = 0 layer of the
quantum K table to the cohomological constants.

The same recursion engine also runs at K-theory level (scalars in the
fraction field of the group ring, Chevalley row from the divisor matrix),
which gives an independent construction of the classical K_T table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gamma import (
    DEFAULT_PRIMES,
    ChernPolynomial,
    GammaElement,
    GammaFraction,
    PolynomialFraction,
    ch_character,
)
from .poset import CominusculePoset
from .qkring import MultTable, _matmul_mod, _row_reduce_mod, divisor_matrix


class CohomologyError(Exception):
    pass


class DiagonalCollision(CohomologyError):
    """Two diagonal Chevalley restrictions coincide (contradicts the theory)."""


# ---------------------------------------------------------------------------
# Rational functions in the x_beta


def _poly_divide(num: ChernPolynomial, den: ChernPolynomial) -> ChernPolynomial | None:
    """Exact multivariate division using lex leading terms, or None."""
    if num.is_zero():
        return ChernPolynomial.zero(num.rank)
    le, lc = den.leading()
    out: dict[tuple, Fraction] = {}
    rem = num
    while not rem.is_zero():
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, le))
        if any(x < 0 for x in qe):
            return None
        qc = rc / lc
        out[qe] = out.get(qe, 0) + qc
        rem = rem - ChernPolynomial(num.rank, {qe: qc}) * den
    return ChernPolynomial(num.rank, out)


class LambdaFraction(PolynomialFraction):
    """The fraction field of the Chern side.

    Normalization: exact division when it succeeds, else a monic
    denominator.
    """

    __slots__ = ()

    @staticmethod
    def from_poly(p: ChernPolynomial) -> "LambdaFraction":
        return LambdaFraction(p, ChernPolynomial.from_fraction(p.rank, 1), normalize=False)

    @staticmethod
    def _normalize(num: ChernPolynomial, den: ChernPolynomial) -> tuple[ChernPolynomial, ChernPolynomial]:
        if num.is_zero():
            return num, ChernPolynomial.from_fraction(num.rank, 1)
        q = _poly_divide(num, den)
        if q is not None:
            return q, ChernPolynomial.from_fraction(num.rank, 1)
        lc = den.leading()[1]
        if lc != 1:
            inv = Fraction(1) / lc
            return num * inv, den * inv
        return num, den


# ---------------------------------------------------------------------------
# Divisor Chevalley constants in H_T


def h_diagonal(poset: CominusculePoset, mask: int) -> ChernPolynomial:
    """Fixed-point restriction c_T(omega - u.omega) = sum (omega, alpha^v) x_{delta(alpha)}."""
    rank = poset.rs.rank
    coeffs = [0] * rank
    for i in range(poset.n_boxes):
        if mask >> i & 1:
            coeffs[poset.delta[i]] += poset.pairing_omega[i]
    return ChernPolynomial.linear(rank, coeffs)


def h_chevalley(poset: CominusculePoset, mask: int) -> dict[int, ChernPolynomial]:
    """Column of multiplication by the Schubert divisor class in H_T.

    The coefficient on [X^u] itself is the localized divisor restriction;
    a cover u s_alpha picks up (omega_gamma, alpha^v); everything else is 0.
    """
    rank = poset.rs.rank
    out = {mask: h_diagonal(poset, mask)}
    for b in poset.addable(poset.shape(mask)):
        out[mask | (1 << b)] = ChernPolynomial.from_fraction(rank, poset.pairing_omega[b])
    return out


# ---------------------------------------------------------------------------
# The A-coefficient recursion


@dataclass
class MSSolution:
    """Output of the Molev-Sagan recursion on one space.

    table[u][v][w] are field elements (LambdaFraction or GammaFraction) and
    `zero` is that field's zero; avec[w][v][u] is the vector
    (A^w_{u,v}(tau))_tau used to assemble them from the diagonal values.
    """

    poset: CominusculePoset
    zero: object
    diag: list
    table: list
    avec: list

    def value(self, u: int, v: int, w: int):
        return self.table[u][v][w]

    def a_value(self, u: int, v: int, w: int, tau: int):
        vec = self.avec[w][v][u]
        return self.zero if vec is None else vec[tau]


def _ms_recursion(poset: CominusculePoset, chev: list, zero, one) -> MSSolution:
    """Solve the Molev-Sagan equations given the divisor row `chev`.

    chev[u] maps w to the divisor Chevalley constant on O^w in the product
    with O^u (diagonal included), as elements of a field with the given
    zero and one; support must be Bruhat-triangular.  The
    induction follows w ascending, then v and u descending, and zeroes any
    A^w_{u,v} with u or v not below w.
    """
    masks = poset.shape_masks
    k = len(masks)
    diag = [chev[u].get(u, zero) for u in range(k)]
    for u in range(k):
        for w in range(u + 1, k):
            if diag[u] == diag[w]:
                raise DiagonalCollision(f"equal divisor restrictions at {u}, {w}")
    up = [sorted((w, c) for w, c in chev[u].items() if w != u) for u in range(k)]
    down = [[] for _ in range(k)]
    for u in range(k):
        for w, c in up[u]:
            down[w].append((u, c))
    leq = lambda a, b: masks[a] & masks[b] == masks[a]

    avec = [[[None] * k for _ in range(k)] for _ in range(k)]
    for w in range(k):
        for v in range(k - 1, -1, -1):
            for u in range(k - 1, -1, -1):
                if not (leq(u, w) and leq(v, w)):
                    continue
                if u == v == w:
                    vec = [zero] * k
                    vec[w] = one
                elif v != w:
                    inv = (diag[w] - diag[v]).inverse()
                    vec = [zero] * k
                    for vp, c in up[v]:
                        prev = avec[w][vp][u]
                        if prev is not None:
                            for t in range(k):
                                vec[t] = vec[t] + c * prev[t]
                    for wp, c in down[w]:
                        prev = avec[wp][v][u]
                        if prev is not None:
                            for t in range(k):
                                vec[t] = vec[t] - c * prev[t]
                    vec = [inv * x for x in vec]
                else:
                    inv = (diag[w] - diag[u]).inverse()
                    vec = [zero] * k
                    for upx, c in up[u]:
                        prev = avec[w][w][upx]
                        if prev is not None:
                            for t in range(k):
                                vec[t] = vec[t] + c * prev[t]
                    vec = [inv * x for x in vec]
                avec[w][v][u] = vec

    # Diagonal values from the identity-row seed D^w_{1,w} = 1, then the
    # assembly D^w_{u,v} = sum_tau A^w_{u,v}(tau) D^tau_{tau,tau}.
    ddiag = [None] * k
    for w in range(k):
        vec = avec[w][w][0]
        rhs = one
        for t in range(k):
            if t != w and ddiag[t] is not None and not vec[t].is_zero():
                rhs = rhs - vec[t] * ddiag[t]
        ddiag[w] = vec[w].inverse() * rhs
    table = [[[zero] * k for _ in range(k)] for _ in range(k)]
    for w in range(k):
        for v in range(k):
            for u in range(k):
                vec = avec[w][v][u]
                if vec is None:
                    continue
                acc = zero
                for t in range(k):
                    if not vec[t].is_zero():
                        acc = acc + vec[t] * ddiag[t]
                table[u][v][w] = acc
    sol = MSSolution(poset=poset, zero=zero, diag=ddiag, table=table, avec=avec)
    _ms_post_checks(sol, one)
    return sol


def _ms_post_checks(sol: MSSolution, one) -> None:
    # Identity row and commutativity are not imposed anywhere above; they
    # must emerge from the solver.
    k = len(sol.diag)
    for v in range(k):
        for w in range(k):
            if sol.table[0][v][w] != (one if v == w else sol.zero):
                raise CohomologyError("identity row did not emerge")
    for u in range(k):
        for v in range(u + 1, k):
            for w in range(k):
                if sol.table[u][v][w] != sol.table[v][u][w]:
                    raise CohomologyError("commutativity did not emerge")


def ms_solve_classical(poset: CominusculePoset) -> MSSolution:
    """Full H_T structure-constant table from the divisor row alone."""
    rank = poset.rs.rank
    masks = poset.shape_masks
    index = {m: i for i, m in enumerate(masks)}
    chev = [
        {index[wm]: LambdaFraction.from_poly(c) for wm, c in h_chevalley(poset, mask).items()}
        for mask in masks
    ]
    zero = LambdaFraction.from_poly(ChernPolynomial.zero(rank))
    one = LambdaFraction.from_poly(ChernPolynomial.from_fraction(rank, 1))
    return _ms_recursion(poset, chev, zero, one)


def ms_solve_classical_kt(poset: CominusculePoset) -> MSSolution:
    """Same recursion at K-theory level: divisor row N^{w,0}_{s,u} over Gamma_0.

    Independent of the Krylov reconstruction; used as the oracle for the
    q = 0 layer of the quantum table.
    """
    rank = poset.rs.rank
    L0 = divisor_matrix(poset)[0]
    chev = [
        {w: GammaFraction.from_gamma(g) for w, g in enumerate(L0[:, u]) if not g.is_zero()}
        for u in range(len(L0))
    ]
    zero = GammaFraction.from_gamma(GammaElement.zero(rank))
    one = GammaFraction.from_gamma(GammaElement.from_int(rank, 1))
    return _ms_recursion(poset, chev, zero, one)


# ---------------------------------------------------------------------------
# Checks and probes


def ch_bridge_check(table: MultTable, sol: MSSolution) -> dict:
    """Chern character bridge between the classical K and H tables.

    For d(u,v,w) = l(u)+l(v)-l(w), every graded piece of ch(N^{w,0}_{u,v})
    below degree d vanishes and the piece in degree d equals C^w_{u,v}.
    Comparisons cross-multiply so no polynomial division is needed.
    """
    if not table.is_exact:
        raise CohomologyError("bridge needs the exact table")
    poset = table.poset
    k = table.k
    lengths = [bin(m).count("1") for m in table.masks]
    failures = []
    for u in range(k):
        for v in range(k):
            for w in range(k):
                n = table.classical(u, v, w)
                cwu = sol.value(u, v, w)
                d = lengths[u] + lengths[v] - lengths[w]
                if d < 0:
                    # K constants above the expected degree carry no H data;
                    # the cohomology constant itself vanishes by homogeneity.
                    if not cwu.is_zero():
                        failures.append((u, v, w, "negative-degree"))
                    continue
                ch = ch_character(n, d)
                for m in range(d):
                    if not ch.graded_piece(m).is_zero():
                        failures.append((u, v, w, f"ch_{m} nonzero"))
                        break
                else:
                    lead = ch.graded_piece(d)
                    if lead * cwu.den != cwu.num:
                        failures.append((u, v, w, "leading piece mismatch"))
    return {
        "check": "ch-bridge",
        "space": table.space,
        "status": "pass" if not failures else "fail",
        "triples": k**3,
        "failures": failures[:20],
        "failure_count": len(failures),
    }


def _h_matrix(poset: CominusculePoset, assignment: tuple, p: int) -> np.ndarray:
    """The H-side divisor matrix at an assignment mod p: H[u, w] is the
    coefficient of [X^w] in the divisor times [X^u]."""
    masks = poset.shape_masks
    index = {m: i for i, m in enumerate(masks)}
    H = np.zeros((len(masks), len(masks)), dtype=np.int64)
    for u, mask in enumerate(masks):
        for wm, c in h_chevalley(poset, mask).items():
            H[u, index[wm]] = c.evaluate_mod_p(assignment, p)
    return H


# The probe's second system has k^3 rows and k*m columns, where m >= k is the
# dimension of Comm(H); past this many entries each int64 copy of it passes
# 128 MB.  E6 needs 27^5 (about 14.3M) entries, E7 56^5 (about 550M).
_PROBE_SYSTEM_ENTRIES = 1 << 24


def _check_probe_system(k: int, m: int) -> None:
    entries = k**4 * m
    if entries > _PROBE_SYSTEM_ENTRIES:
        raise CohomologyError(
            f"the conjecture probe needs a {k**3} x {k * m} system ({entries} entries), "
            f"past its bound of {_PROBE_SYSTEM_ENTRIES}"
        )


def _null_space_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the null space of A mod p, read off its reduced echelon form."""
    R, rank = _row_reduce_mod(A, p)
    R = R[:rank]
    pivots = (R != 0).argmax(axis=1)
    free = np.flatnonzero(np.bincount(pivots, minlength=A.shape[1]) == 0)
    N = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    N[np.arange(len(free)), free] = 1
    N[:, pivots] = -R[:, free].T % p
    return N


def _ms_solution_dimension(H: np.ndarray, p: int) -> int:
    """Dimension mod p of the tensors c[u, v, w] whose slices c[:, v, :] and
    c[u, :, :] all commute with H: the Molev-Sagan equations of the divisor.

    Write c[u, v, w] = sum_j a[v, j] B_j[u, w] over a basis B_1..B_m of
    Comm(H); the first family then holds, and the second is a (k^3, k*m)
    system in a, whose equation (u, v, w) has the coefficient
    H[v, v'] B_j[u, w] - [v = v'] (B_j H)[u, w] on a[v', j].
    """
    k = len(H)
    # dim Comm(H) >= k, so a system past the bound is refused before any work
    _check_probe_system(k, k)
    eye = np.eye(k, dtype=np.int64)
    B = _null_space_mod(np.kron(H, eye) - np.kron(eye, H.T), p)
    m = len(B)
    _check_probe_system(k, m)
    col = B.T.reshape(-1, 1)  # B_j[u, w] at ((u, w), j)
    BH = _matmul_mod(B.reshape(m * k, k), H, p).reshape(m, k * k).T
    S = np.zeros((k, k * k, m, k), dtype=np.int64)  # rows (v, u, w), columns (j, v')
    for v in range(k):
        nz = np.flatnonzero(H[v])
        S[v][..., nz] = _matmul_mod(col, H[v:v + 1, nz], p).reshape(k * k, m, len(nz))
        S[v, ..., v] -= BH
    return k * m - _row_reduce_mod(S.reshape(k**3, m * k), p)[1]


def conjecture_probe(poset: CominusculePoset, assignments: int = 2, prime: int | None = None, seed: int = 0) -> dict:
    """Dimension of the full Molev-Sagan solution space over evaluated Lambda_0.

    The uniqueness conjecture predicts |W^P|.  This only reports; nothing
    is asserted on the outcome.
    """
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    rank = poset.rs.rank
    k = len(poset.shape_masks)
    rng = random.Random(f"probe:{seed}:{p}:{rank}")
    points = [tuple(rng.randrange(1, p) for _ in range(rank)) for _ in range(assignments)]
    dims = [_ms_solution_dimension(_h_matrix(poset, asg, p), p) for asg in points]
    return {
        "check": "conjecture-probe",
        "space": str(poset.space),
        "status": "report",
        "dimension": dims[0],
        "expected": k,
        "matches_conjecture": all(d == k for d in dims),
        "stable": len(set(dims)) == 1,
        "prime": p,
        "assignments": [list(a) for a in points],
    }


def divisor_generation_check(poset: CominusculePoset, prime: int | None = None, seed: int = 0) -> dict:
    """Distinct divisor restrictions and an invertible H-side Krylov matrix."""
    masks = poset.shape_masks
    k = len(masks)
    rank = poset.rs.rank
    diags = [h_diagonal(poset, m) for m in masks]
    distinct = all(diags[i] != diags[j] for i in range(k) for j in range(i + 1, k))
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    rng = random.Random(f"divgen:{seed}:{p}:{rank}")
    asg = tuple(rng.randrange(1, p) for _ in range(rank))
    L = _h_matrix(poset, asg, p).T
    K = np.zeros((k, k), dtype=np.int64)
    e = np.zeros(k, dtype=np.int64)
    e[0] = 1
    for i in range(k):
        K[:, i] = e
        e = _matmul_mod(L, e, p)
    invertible = _row_reduce_mod(K, p)[1] == k
    return {
        "check": "divisor-generation",
        "space": str(poset.space),
        "status": "pass" if distinct and invertible else "fail",
        "distinct_diagonals": distinct,
        "krylov_invertible": invertible,
        "prime": p,
        "assignment": list(asg),
    }
