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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gamma import DEFAULT_PRIMES, ChernPolynomial, GammaElement, GammaFraction, ch_character
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


class LambdaFraction:
    """num/den with polynomial parts; equality by cross multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: ChernPolynomial, den: ChernPolynomial, normalize: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if normalize:
            if num.is_zero():
                den = ChernPolynomial.from_fraction(num.rank, 1)
            else:
                q = _poly_divide(num, den)
                if q is not None:
                    num, den = q, ChernPolynomial.from_fraction(num.rank, 1)
                else:
                    lc = den.leading()[1]
                    if lc != 1:
                        inv = Fraction(1) / lc
                        num, den = num * inv, den * inv
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: ChernPolynomial) -> "LambdaFraction":
        return LambdaFraction(p, ChernPolynomial.from_fraction(p.rank, 1), normalize=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "LambdaFraction") -> "LambdaFraction":
        if self.den == other.den:
            return LambdaFraction(self.num + other.num, self.den)
        return LambdaFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "LambdaFraction") -> "LambdaFraction":
        return self + (-other)

    def __neg__(self) -> "LambdaFraction":
        return LambdaFraction(-self.num, self.den, normalize=False)

    def __mul__(self, other: "LambdaFraction") -> "LambdaFraction":
        return LambdaFraction(self.num * other.num, self.den * other.den)

    def inverse(self) -> "LambdaFraction":
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return LambdaFraction(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):  # pragma: no cover - not used as a key
        raise TypeError("LambdaFraction is unhashable")

    def __repr__(self) -> str:
        if self.den == ChernPolynomial.from_fraction(self.den.rank, 1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


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
    dv = divisor_matrix(poset)
    chev = [
        {w: GammaFraction.from_gamma(row[u]) for w, row in enumerate(dv.layer0) if not row[u].is_zero()}
        for u in range(dv.k)
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


def conjecture_probe(poset: CominusculePoset, assignments: int = 2, prime: int | None = None, seed: int = 0) -> dict:
    """Dimension of the full Molev-Sagan solution space over evaluated Lambda_0.

    The uniqueness conjecture predicts |W^P|.  This only reports; nothing
    is asserted on the outcome.
    """
    p = prime if prime is not None else DEFAULT_PRIMES[0]
    rank = poset.rs.rank
    masks = poset.shape_masks
    k = len(masks)
    index = {m: i for i, m in enumerate(masks)}
    import random

    rng = random.Random(f"probe:{seed}:{p}:{rank}")
    points = [tuple(rng.randrange(1, p) for _ in range(rank)) for _ in range(assignments)]
    dims = []
    for asg in points:
        chev = [
            {index[wm]: c.evaluate_mod_p(asg, p) for wm, c in h_chevalley(poset, mask).items()}
            for mask in masks
        ]
        idx = lambda u, v, w: (u * k + v) * k + w
        mat = np.zeros((2 * k**3, k**3), dtype=np.int64)
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
        dims.append(k**3 - _row_reduce_mod(mat, p)[1])
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
    import random

    rng = random.Random(f"divgen:{seed}:{p}:{rank}")
    asg = tuple(rng.randrange(1, p) for _ in range(rank))
    index = {m: i for i, m in enumerate(masks)}
    L = np.zeros((k, k), dtype=np.int64)
    for u, mask in enumerate(masks):
        for wm, c in h_chevalley(poset, mask).items():
            L[index[wm], u] = c.evaluate_mod_p(asg, p)
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
