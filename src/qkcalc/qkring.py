"""Reconstruction of the full QK_T multiplication table from the divisor.

Multiplication by O^{s_gamma} has q-constant term triangular with pairwise
distinct diagonal entries 1 - J_u, so its minimal polynomial equals its
characteristic polynomial and the Krylov matrix K = [e_1, L e_1, ..., L^{k-1} e_1]
is invertible over the q-adic completion.  Any multiplication operator M_v
commutes with L and sends e_1 to e_v, hence M_v = sum_i c_i L^i where
K c = e_v.  Solving that system q-adically (invert K mod q once, then lift
degree by degree) recovers every structure constant N^{w,d}_{u,v} from the
Chevalley formula alone.

Every product has q-degree at most d_X(2) = d_max (Buch, Chaput, Mihalcea
and Perrin, "Finiteness of cominuscule quantum K-theory"), so tables are
computed mod q^{D+1} with D = d_max + 2 by default.  The bound is not trusted
blindly: a table is certified by requiring its top two layers to vanish
identically, and TruncationTooSmall is raised otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import comb

import numpy as np

from .gamma import (
    DEFAULT_PRIMES,
    GammaElement,
    GammaFractionField,
    GammaModPField,
    NotDivisible,
    QPolynomial,
    default_assignments,
    eval_mod_p,
    exact_divide,
)
from .chevalley import j_class, j_weight, sgamma_star
from .poset import CominusculePoset, build_cominuscule


class QKRingError(Exception):
    pass


class SingularKrylov(QKRingError):
    """The q-constant Krylov matrix failed to invert (signals a bug)."""


class NonIntegralConstant(QKRingError):
    """A reconstructed constant did not clear to the group ring."""


class TruncationTooSmall(QKRingError):
    """Stabilization certificate failed; rerun with a larger truncation."""


# ---------------------------------------------------------------------------
# Divisor operator


@dataclass
class DivisorOperator:
    """Matrix of O^{s_gamma} * (.) in the Schubert basis, split by q-degree.

    layer0/layer1 are k x k nested lists (rows w, columns u) over the group
    ring; all higher layers vanish by the Chevalley theorem.
    """

    poset: CominusculePoset
    layer0: list
    layer1: list

    @property
    def k(self) -> int:
        return len(self.poset.shape_masks)

    def qpoly(self, w: int, u: int) -> QPolynomial:
        rank = self.poset.rs.rank
        return QPolynomial(rank, [self.layer0[w][u], self.layer1[w][u]])

    def modp_layers(self, fld) -> list:
        """layer0 and layer1 evaluated through a mod-p field, as int64 arrays."""
        to = fld.from_gamma
        return [
            np.array([[to(x) for x in row] for row in layer], dtype=np.int64)
            for layer in (self.layer0, self.layer1)
        ]


_DIVISOR_CACHE: dict[str, DivisorOperator] = {}


def divisor_matrix(poset: CominusculePoset) -> DivisorOperator:
    """Divisor multiplication operator, with its structural invariants checked."""
    key = str(poset.space)
    hit = _DIVISOR_CACHE.get(key)
    if hit is not None:
        return hit
    masks = poset.shape_masks
    k = len(masks)
    rank = poset.rs.rank
    zero = GammaElement.zero(rank)
    one = GammaElement.from_int(rank, 1)
    layer0 = [[zero] * k for _ in range(k)]
    layer1 = [[zero] * k for _ in range(k)]
    index = {m: i for i, m in enumerate(masks)}
    for u, mask in enumerate(masks):
        for wm, poly in sgamma_star(poset, mask).items():
            if poly.degree() > 1:
                raise QKRingError("divisor product exceeded q-degree 1")
            w = index[wm]
            layer0[w][u] = poly.coeff(0)
            layer1[w][u] = poly.coeff(1)
    # q^0 part is triangular for Bruhat order and carries 1 - J_u on the
    # diagonal; the J_u are pairwise distinct since u.omega determines u.
    seen = set()
    for u, mask in enumerate(masks):
        if layer0[u][u] != one - j_class(poset, mask):
            raise QKRingError("divisor diagonal entry is not 1 - J_u")
        jw = j_weight(poset, mask)
        if jw in seen:
            raise QKRingError("coinciding divisor eigenvalues")
        seen.add(jw)
        for w in range(k):
            if not layer0[w][u].is_zero() and masks[u] & masks[w] != masks[u]:
                raise QKRingError("q^0 layer not triangular")
    dv = DivisorOperator(poset, layer0, layer1)
    _DIVISOR_CACHE[key] = dv
    return dv


# ---------------------------------------------------------------------------
# Backends


def make_field(poset: CominusculePoset, backend="exact", prime=None, assignment=None, seed=0):
    """Resolve a backend argument into a scalar-field object."""
    if not isinstance(backend, str):
        return backend
    rank = poset.rs.rank
    if backend == "exact":
        return GammaFractionField(rank)
    if backend in ("mod-p", "modp"):
        p = prime if prime is not None else DEFAULT_PRIMES[0]
        asg = assignment if assignment is not None else default_assignments(rank, p, 1, seed)[0]
        return GammaModPField(rank, p, asg)
    raise ValueError(f"unknown backend {backend!r}")


def modp_evaluations(poset: CominusculePoset, primes: int = 2, assignments: int = 2, seed: int = 0):
    """Independent mod-p scalar fields: first `primes` defaults, `assignments` each."""
    rank = poset.rs.rank
    out = []
    for p in DEFAULT_PRIMES[:primes]:
        for asg in default_assignments(rank, p, assignments, seed):
            out.append(GammaModPField(rank, p, asg))
    return out


# ---------------------------------------------------------------------------
# Mod-p linear algebra: int64 numpy arrays of residues in [0, p), p < 2^31


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    # 16-bit split keeps every product-sum below 2^63 for 31-bit primes.
    hi, lo = A >> 16, A & 0xFFFF
    return ((hi @ B % p << 16) + lo @ B) % p


def _row_reduce_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """Reduced row echelon form of A mod p, and its rank.

    Each pivot updates only the rows with a nonzero entry in its column,
    and only from the pivot column on: the systems met here are sparse.
    """
    m = A % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        nz = np.flatnonzero(m[r:, c])
        if not len(nz):
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if len(hit):
            # rank-one update: a single product of two residues stays below 2^62
            m[hit, c:] = (m[hit, c:] - m[hit, c:c + 1] * m[r, c:] % p) % p
        r += 1
        if r == rows:
            break
    return m, r


def _inverse_mod(A: np.ndarray, p: int) -> np.ndarray:
    """A^{-1} mod p from the reduced form of [A | I]; SingularKrylov on failure."""
    k = len(A)
    eye = np.eye(k, dtype=np.int64)
    R, _ = _row_reduce_mod(np.hstack([A, eye]), p)
    if not np.array_equal(R[:, :k], eye):
        raise SingularKrylov("Krylov matrix is singular mod q")
    return R[:, k:]


class _ModPSolver:
    """Krylov data for one (space, truncation, mod-p field) combination."""

    def __init__(self, dv: DivisorOperator, D: int, fld):
        self.D = D
        self.p = p = fld.p
        self.k = k = dv.k
        L0, L1 = dv.modp_layers(fld)
        # P[i, d] = layer d of L^i mod q^{D+1}
        P = np.zeros((k, D + 1, k, k), dtype=np.int64)
        P[0, 0] = np.eye(k, dtype=np.int64)
        for i in range(1, k):
            P[i] = _matmul_mod(L0, P[i - 1], p)
            P[i, 1:] = (P[i, 1:] + _matmul_mod(L1, P[i - 1, :-1], p)) % p
        self.P = P
        # Krylov layers: column i of K is L^i e_1 (e_1 = the identity class).
        K = P[:, :, :, 0].transpose(1, 2, 0)
        C0 = _inverse_mod(K[0], p)
        C = [C0]
        for d in range(1, D + 1):
            S = sum(_matmul_mod(K[a], C[d - a], p) for a in range(1, d + 1)) % p
            C.append(-_matmul_mod(C0, S, p) % p)
        self.C = C

    def columns(self) -> list:
        """Layers of every M_v = sum_i c_i L^i with K c = e_v, mod q^{D+1},
        as nested lists of ints: M[v][d][w][u]."""
        D, k, p = self.D, self.k, self.p
        P = self.P.reshape(k, D + 1, k * k)
        M = np.zeros((k, D + 1, k * k), dtype=np.int64)
        for a in range(D + 1):
            for b in range(D + 1 - a):
                M[:, a + b] += _matmul_mod(self.C[a].T, P[:, b], p)
        return (M % p).reshape(k, D + 1, k, k).tolist()


def _montante(rank: int, A: list) -> tuple:
    """Fraction-free Gauss-Jordan on [A | I] over the group ring.

    Returns (adj, det) with adj * A = A * adj = det * I, both integral.
    Every intermediate entry is a minor of the original matrix, so the
    division by the previous pivot is exact (Sylvester's identity); no
    group-ring fractions ever appear.
    """
    n = len(A)
    zero = GammaElement.zero(rank)
    one = GammaElement.from_int(rank, 1)
    M = [list(A[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    prev = one
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if piv is None:
            raise SingularKrylov("Krylov matrix is singular mod q")
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        p = M[c][c]
        first = prev == one
        for r in range(n):
            if r == c:
                continue
            Mr, Mc = M[r], M[c]
            f = Mr[c]
            fz = f.is_zero()
            for j in range(2 * n):
                if fz or Mc[j].is_zero():
                    if Mr[j].is_zero():
                        continue
                    num = p * Mr[j]
                elif Mr[j].is_zero():
                    num = -(f * Mc[j])
                else:
                    num = p * Mr[j] - f * Mc[j]
                Mr[j] = num if first else exact_divide(num, prev)
        prev = p
    det = M[n - 1][n - 1]
    adj = [row[n:] for row in M]
    if sign < 0:
        det = -det
        adj = [[-x for x in row] for row in adj]
    return adj, det


class _ExactSolver:
    """Exact Krylov data: everything stays integral at det(K_0) scale.

    M_v K = W_v with W_v(:,i) = L^i e_v, so layer d of M_v solves
    M_v[d] K_0 = W_v[d] - sum_{b>=1} M_v[d-b] K_b.  Right-multiplying by
    adj(K_0) and dividing entrywise by det(K_0) lifts one q-degree at a
    time; the divisions are exact because the structure constants are.
    Powers of det(K_0) never appear, and free-form fraction sums are
    avoided on purpose: their denominators compound multiplicatively.
    """

    def __init__(self, poset: CominusculePoset, dv: DivisorOperator, D: int):
        self.poset = poset
        self.D = D
        rank = poset.rs.rank
        self.rank = rank
        k = dv.k
        self.k = k
        powers = [[_gident(rank, k)]]
        for i in range(1, k):
            prev = powers[-1]
            cap = min(i, D)
            cur = []
            for d in range(cap + 1):
                acc = _gmul(dv.layer0, prev[d], rank) if d < len(prev) else _gzero(rank, k)
                if 0 <= d - 1 < len(prev):
                    _gadd_into(acc, _gmul(dv.layer1, prev[d - 1], rank))
                cur.append(acc)
            powers.append(cur)
        self.powers = powers
        K = [_gzero(rank, k) for _ in range(D + 1)]
        for i, P in enumerate(powers):
            for a, Pa in enumerate(P):
                for w in range(k):
                    K[a][w][i] = Pa[w][0]
        self.K = K
        self.adj0, self.det0 = _montante(rank, K[0])
        if self.det0.is_zero():
            raise SingularKrylov("vanishing Krylov determinant")
        self._spot_check_adjugate()

    def _spot_check_adjugate(self) -> None:
        # Schwartz-Zippel guard: adj0 K0 = det0 I at one random evaluation.
        p = DEFAULT_PRIMES[0]
        asg = default_assignments(self.rank, p, 1, seed=0)[0]
        Am, Km = (
            np.array([[eval_mod_p(x, asg, p) for x in row] for row in mat], dtype=np.int64)
            for mat in (self.adj0, self.K[0])
        )
        dm = eval_mod_p(self.det0, asg, p)
        if not np.array_equal(_matmul_mod(Am, Km, p), dm * np.eye(self.k, dtype=np.int64)):
            raise SingularKrylov("adjugate identity failed mod p")

    def columns(self):
        """Lazily, so a failed certificate stops the build at its first column."""
        return (self.column(v) for v in range(self.k))

    def column(self, v: int) -> list:
        """Layers of M_v, already cleared to the group ring."""
        D, k, rank = self.D, self.k, self.rank
        W = [_gzero(rank, k) for _ in range(D + 1)]
        for i, P in enumerate(self.powers):
            for a, Pa in enumerate(P):
                for w in range(k):
                    W[a][w][i] = Pa[w][v]
        M = []
        for d in range(D + 1):
            U = W[d]
            for b in range(1, d + 1):
                contrib = _gmul(M[d - b], self.K[b], rank)
                for w in range(k):
                    Uw, Cw = U[w], contrib[w]
                    for i in range(k):
                        if not Cw[i].is_zero():
                            Uw[i] = Uw[i] - Cw[i]
            Y = _gmul(U, self.adj0, rank)
            try:
                M.append([[exact_divide(x, self.det0) for x in row] for row in Y])
            except NotDivisible as exc:
                raise NonIntegralConstant(str(exc)) from exc
        return M


def _gzero(rank: int, k: int) -> list:
    z = GammaElement.zero(rank)
    return [[z] * k for _ in range(k)]


def _gident(rank: int, k: int) -> list:
    out = _gzero(rank, k)
    one = GammaElement.from_int(rank, 1)
    for i in range(k):
        out[i][i] = one
    return out


def _gmul(A: list, B: list, rank: int) -> list:
    k = len(A)
    out = _gzero(rank, k)
    for i in range(k):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a.is_zero():
                continue
            Bt = B[t]
            for j in range(k):
                b = Bt[j]
                if not b.is_zero():
                    Oi[j] = Oi[j] + a * b
    return out


def _gadd_into(A: list, B: list) -> None:
    for i, row in enumerate(B):
        Ai = A[i]
        for j, b in enumerate(row):
            if not b.is_zero():
                Ai[j] = Ai[j] + b


def _solver_for(poset: CominusculePoset, D: int, fld):
    dv = divisor_matrix(poset)
    if isinstance(fld, GammaModPField):
        return _ModPSolver(dv, D, fld)
    return _ExactSolver(poset, dv, D)


# ---------------------------------------------------------------------------
# Full tables


@dataclass
class MultTable:
    """All structure constants N^{w,d}_{u,v} of one space, mod q^{D+1}.

    mats[v][d][w][u] holds the coefficient of q^d O^w in O^u * O^v, as a
    GammaElement (exact backend) or a residue (mod-p backend).
    """

    space: str
    D: int
    backend: dict
    masks: tuple
    mats: list
    poset: CominusculePoset | None = None
    flags: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.masks)

    @property
    def is_exact(self) -> bool:
        return self.backend.get("kind") == "exact"

    def entry(self, u: int, v: int, w: int):
        layers = [self.mats[v][d][w][u] for d in range(len(self.mats[v]))]
        if self.is_exact:
            rank = self.poset.rs.rank if self.poset else layers[0].rank
            return QPolynomial(rank, layers)
        return tuple(layers)

    def classical(self, u: int, v: int, w: int):
        return self.mats[v][0][w][u]

    def to_json_obj(self) -> dict:
        if self.is_exact:
            ser = lambda x: x.to_json_obj()
        else:
            ser = int
        return {
            "space": self.space,
            "D": self.D,
            "backend": self.backend,
            "masks": list(self.masks),
            "mats": [
                [[[ser(x) for x in row] for row in mat] for mat in layers]
                for layers in self.mats
            ],
            "flags": self.flags,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "MultTable":
        poset = build_cominuscule(obj["space"])
        if tuple(obj["masks"]) != poset.shape_masks:
            raise QKRingError("cached table does not match the space basis")
        exact = obj["backend"].get("kind") == "exact"
        de = GammaElement.from_json_obj if exact else int
        mats = [
            [[[de(x) for x in row] for row in mat] for mat in layers]
            for layers in obj["mats"]
        ]
        return MultTable(
            space=obj["space"],
            D=obj["D"],
            backend=obj["backend"],
            masks=tuple(obj["masks"]),
            mats=mats,
            poset=poset,
            flags=dict(obj.get("flags", {})),
        )


def default_truncation(poset: CominusculePoset) -> int:
    """Smallest D whose certificate can hold: q-degrees reach d_max, and the
    certificate needs layers D-1 and D to vanish."""
    return poset.d_max + 2


def full_table(poset: CominusculePoset, D: int | None = None, backend="exact") -> MultTable:
    """Solve all k^2 products mod q^{D+1} and certify q-stabilization.

    The certificate requires layers D and D-1 of every entry to vanish; the
    default D = d_max + 2 leaves exactly that headroom above the q-degree
    bound d_max.
    """
    if D is None:
        D = default_truncation(poset)
    if D < 2:
        raise ValueError("truncation must be at least 2 for the certificate")
    fld = make_field(poset, backend)
    mats = []
    for M in _solver_for(poset, D, fld).columns():
        # certificate: the top two layers vanish identically
        for d in (D - 1, D):
            if any(x for row in M[d] for x in row):
                raise TruncationTooSmall(f"nonzero coefficient at q^{d} with truncation {D}")
        mats.append(M)
    table = MultTable(
        space=str(poset.space),
        D=D,
        backend=fld.descriptor(),
        masks=poset.shape_masks,
        mats=mats,
        poset=poset,
        flags={"stabilized": True},
    )
    _check_identity_row(table)
    return table


def _check_identity_row(table: MultTable) -> None:
    # O^1 is the unit: column u = identity of M_v must be e_v in layer 0.
    k = table.k
    zero_like = (lambda x: x.is_zero()) if table.is_exact else (lambda x: x == 0)
    one_like = (
        (lambda x: x == GammaElement.from_int(table.poset.rs.rank, 1))
        if table.is_exact
        else (lambda x: x == 1)
    )
    for v in range(k):
        for d, mat in enumerate(table.mats[v]):
            for w in range(k):
                x = mat[w][0]
                if not (one_like(x) if d == 0 and w == v else zero_like(x)):
                    raise QKRingError("identity row broken")


def modp_tables(poset: CominusculePoset, D: int | None = None, primes: int = 2, assignments: int = 2, seed: int = 0) -> list:
    """One table per (prime, assignment) evaluation; checks must agree on all."""
    return [full_table(poset, D, fld) for fld in modp_evaluations(poset, primes, assignments, seed)]


def tables_agree(exact: MultTable, modp: MultTable) -> bool:
    """Evaluate the exact table through the mod-p assignment and compare."""
    p = modp.backend["p"]
    asg = tuple(modp.backend["assignment"])
    for v in range(exact.k):
        for d, mat in enumerate(exact.mats[v]):
            other = modp.mats[v][d]
            for w in range(exact.k):
                row = mat[w]
                orow = other[w]
                for u in range(exact.k):
                    if eval_mod_p(row[u], asg, p) != orow[u]:
                        return False
    return True


def specialize(table: MultTable, mode: str) -> MultTable:
    """Coefficient-wise ring maps: 'q0' kills q, 'nonequivariant' sends e^l to 1."""
    if mode == "q0":
        mats = [[table.mats[v][0]] for v in range(table.k)]
        return MultTable(
            space=table.space,
            D=0,
            backend=dict(table.backend, specialized="q0"),
            masks=table.masks,
            mats=mats,
            poset=table.poset,
            flags={"specialized": "q0"},
        )
    if mode == "nonequivariant":
        if not table.is_exact:
            raise QKRingError("nonequivariant specialization needs the exact backend")
        mats = [
            [[[sum(x.terms.values()) for x in row] for row in mat] for mat in layers]
            for layers in table.mats
        ]
        return MultTable(
            space=table.space,
            D=table.D,
            backend={"kind": "nonequivariant"},
            masks=table.masks,
            mats=mats,
            poset=table.poset,
            flags={"specialized": "nonequivariant"},
        )
    raise ValueError(f"unknown specialization {mode!r}")


# ---------------------------------------------------------------------------
# Verification suites


def _np_layers(mats_v: list) -> list:
    return [np.array(mat, dtype=np.int64) for mat in mats_v]


def _lay_mul_mod(A: list, B: list, p: int, cap: int) -> list:
    k = A[0].shape[0]
    out = [np.zeros((k, k), dtype=np.int64) for _ in range(cap + 1)]
    for a, Aa in enumerate(A):
        if not Aa.any():
            continue
        for b, Bb in enumerate(B):
            if a + b > cap:
                break
            if Bb.any():
                out[a + b] = (out[a + b] + _matmul_mod(Aa, Bb, p)) % p
    return out


def _glay_mul(A: list, B: list, rank: int) -> list:
    """Layered product over the group ring (dense nested lists)."""
    k = len(A[0])
    zero = GammaElement.zero(rank)
    cap = len(A) + len(B) - 2
    out = [[[zero] * k for _ in range(k)] for _ in range(cap + 1)]
    for a, Aa in enumerate(A):
        for b, Bb in enumerate(B):
            tgt = out[a + b]
            for i in range(k):
                Ai = Aa[i]
                Ti = tgt[i]
                for t in range(k):
                    x = Ai[t]
                    if x.is_zero():
                        continue
                    Bt = Bb[t]
                    for j in range(k):
                        y = Bt[j]
                        if not y.is_zero():
                            Ti[j] = Ti[j] + x * y
    return out


def _report(check: str, table: MultTable, failures: list, extra: dict | None = None) -> dict:
    rep = {
        "check": check,
        "space": table.space,
        "backend": table.backend,
        "status": "pass" if not failures else "fail",
        "failures": failures[:20],
        "failure_count": len(failures),
    }
    if extra:
        rep.update(extra)
    return rep


def verify_ms_equations(table: MultTable) -> dict:
    """Check both generalized Molev-Sagan identities on every triple (u,v,w).

    With beta = gamma the three sums are, over u', w', v' respectively,
    sum N^{u'}_{s,u} D^w_{u',v} = sum N^w_{s,w'} D^{w'}_{u,v} = sum N^{v'}_{s,v} D^w_{u,v'}.
    """
    poset = table.poset
    dv = divisor_matrix(poset)
    k = table.k
    failures = []
    if table.is_exact:
        rank = poset.rs.rank
        L = [[dv.qpoly(w, u) for u in range(k)] for w in range(k)]
        E = [
            [
                [table.entry(u, v, w) for u in range(k)]
                for w in range(k)
            ]
            for v in range(k)
        ]
        zero = QPolynomial.zero(rank)
        for u in range(k):
            for v in range(k):
                for w in range(k):
                    left = zero
                    for up in range(k):
                        if L[up][u]:
                            left = left + L[up][u].mul(E[v][w][up])
                    mid = zero
                    for wp in range(k):
                        if L[w][wp]:
                            mid = mid + L[w][wp].mul(E[v][wp][u])
                    right = zero
                    for vp in range(k):
                        if L[vp][v]:
                            right = right + L[vp][v].mul(E[vp][w][u])
                    if left != mid or mid != right:
                        failures.append((u, v, w))
        return _report("ms-equations", table, failures, {"triples": k**3})
    # mod-p: the u'- and w'-sums for all (u,w) at fixed v are the layered
    # products M_v L and L M_v; the v'-sum is a contraction over the stack.
    p = table.backend["p"]
    fld = GammaModPField(poset.rs.rank, p, tuple(table.backend["assignment"]))
    Lnp = dv.modp_layers(fld)
    Ms = [_np_layers(table.mats[v]) for v in range(k)]
    cap = 2 * table.D
    rights = None
    stack = [np.stack([Ms[vp][d] for vp in range(k)]) for d in range(table.D + 1)]
    for v in range(k):
        left = _lay_mul_mod(Ms[v], Lnp, p, cap)
        mid = _lay_mul_mod(Lnp, Ms[v], p, cap)
        if rights is None:
            # rights[d][w,u,v] = sum_{v'} L[v'][v] * N^{w,d-b}_{u,v'}
            rights = [np.zeros((k, k, k), dtype=np.int64) for _ in range(cap + 1)]
            for a, Xa in enumerate(stack):
                flat = Xa.reshape(k, k * k)
                for b, Lb in enumerate(Lnp):
                    got = _matmul_mod(flat.T, Lb, p).reshape(k, k, k)
                    rights[a + b] = (rights[a + b] + got) % p
        for d in range(cap + 1):
            if not np.array_equal(left[d], mid[d]) or not np.array_equal(
                mid[d], rights[d][:, :, v]
            ):
                bad = np.argwhere(left[d] != mid[d])
                failures.append((int(bad[0][1]) if len(bad) else -1, v, d))
    return _report("ms-equations", table, failures, {"triples": k**3})


def verify_associativity(table: MultTable, sample: int | None = None, seed: int = 0) -> dict:
    """Symmetry plus commuting multiplication operators.

    Once N^w_{u,v} = N^w_{v,u} holds, (O^u * O^v) * O^w = O^u * (O^v * O^w)
    for all triples is equivalent to [M_u, M_w] = 0 for all pairs.
    """
    k = table.k
    failures = []
    pairs = [(u, w) for u in range(k) for w in range(u + 1, k)]
    if sample is not None and sample < len(pairs):
        import random

        pairs = random.Random(seed).sample(pairs, sample)
    if table.is_exact:
        for u in range(k):
            for v in range(u + 1, k):
                for w in range(k):
                    if table.entry(u, v, w) != table.entry(v, u, w):
                        failures.append(("symmetry", u, v, w))
        rank = table.poset.rs.rank
        for u, w in pairs:
            AB = _glay_mul(table.mats[u], table.mats[w], rank)
            BA = _glay_mul(table.mats[w], table.mats[u], rank)
            if AB != BA:
                failures.append(("commutator", u, w))
        return _report("associativity", table, failures, {"pairs": len(pairs)})
    p = table.backend["p"]
    Ms = [_np_layers(table.mats[v]) for v in range(k)]
    for d in range(table.D + 1):
        X = np.stack([Ms[v][d] for v in range(k)])
        if not np.array_equal(X, X.transpose(2, 1, 0)):
            failures.append(("symmetry", d))
    cap = 2 * table.D
    for u, w in pairs:
        AB = _lay_mul_mod(Ms[u], Ms[w], p, cap)
        BA = _lay_mul_mod(Ms[w], Ms[u], p, cap)
        for d in range(cap + 1):
            if not np.array_equal(AB[d], BA[d]):
                failures.append(("commutator", u, w, d))
                break
    return _report("associativity", table, failures, {"pairs": len(pairs)})


def _sign_expand(g: GammaElement, sign: int):
    """Rewrite g in the variables y_i = e^{-alpha_i} - 1 and test sign."""
    rank = g.rank
    poly: dict[tuple, int] = {}
    for e, c in g.terms.items():
        if any(x > 0 for x in e):
            return False, None
        ms = tuple(-x for x in e)
        for js in iproduct(*(range(m + 1) for m in ms)):
            w = c
            for m, j in zip(ms, js):
                w *= comb(m, j)
            poly[js] = poly.get(js, 0) + w
    ok = all(sign * c >= 0 for c in poly.values())
    return ok, poly


def verify_positivity_signs(table: MultTable) -> dict:
    """Report whether (-1)^s N^{w,d}_{u,v} has nonnegative coefficients in the
    y_beta = [C_{-beta}] - 1 variables, s = l(u)+l(v)+l(w) + d * fano index.

    This tests a conjecture; the result is reported, never asserted.
    """
    if not table.is_exact:
        return {"check": "positivity-signs", "space": table.space, "status": "not-applicable"}
    poset = table.poset
    fano = poset.fano_index
    lengths = [bin(m).count("1") for m in table.masks]
    k = table.k
    failures = []
    checked = 0
    for v in range(k):
        for d, mat in enumerate(table.mats[v]):
            for w in range(k):
                for u in range(k):
                    g = mat[w][u]
                    if g.is_zero():
                        continue
                    checked += 1
                    s = lengths[u] + lengths[v] + lengths[w] + d * fano
                    ok, _ = _sign_expand(g, -1 if s % 2 else 1)
                    if not ok:
                        failures.append((u, v, w, d))
    rep = _report("positivity-signs", table, failures, {"checked": checked})
    rep["note"] = "conjectural sign condition, report only"
    return rep


# ---------------------------------------------------------------------------
# Table cache


def cache_key(space: str, D: int, backend: dict) -> str:
    blob = json.dumps([space, D, backend], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def cache_path(space: str, D: int, backend: dict, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"qk-{cache_key(space, D, backend)}.json")


def save_table(table: MultTable, cache_dir: str) -> str:
    """Write the table atomically; concurrent writers never share a temp file."""
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(table.space, table.D, table.backend, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".qk-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp makes the file owner-only; a shared cache needs open()'s mode
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            json.dump(table.to_json_obj(), fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_table(space: str, D: int, backend: dict, cache_dir: str) -> MultTable | None:
    """The cached table, or None when it is missing, undecodable or keyed
    differently; a basis mismatch raises QKRingError."""
    try:
        with open(cache_path(space, D, backend, cache_dir)) as fh:
            obj = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if not isinstance(obj, dict):
        return None
    if obj.get("space") != space or obj.get("D") != D or obj.get("backend") != backend:
        return None
    return MultTable.from_json_obj(obj)
