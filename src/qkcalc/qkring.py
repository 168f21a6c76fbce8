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
identically, and TruncationTooSmall is raised otherwise.  An exact build
solves only mod q^{S+1}, S = min(D, d_max), and fills layers S+1..D with
zeros; its exact certificate (below) multiplies untruncated operators, so it
proves those layers zero too.  The mod-p backend solves all D + 1 layers.

Both backends run one solve: mod p, batched over evaluation points that send
each x_i = e^{-alpha_i} to a nonzero residue.  The mod-p backend is a single
point.  The exact backend rebuilds every constant, a polynomial in the x_i
with small integer coefficients, by dense interpolation (Brown's modular
method) modulo _INTERPOLATION_PRIME, the largest prime below 2^24, where
its products are one float64 limb (below).  The 31-bit primes stay where
they are outputs (the mod-p backend, backend agreement), so agreement checks
an exact table at primes its build never used.  The grid is computed once,
before any solve: one more random nonzero node per variable than the
table's degree in x_i, which the poset gives in closed form
(CominusculePoset.table_degrees), so a grid past the guard is refused
before any solve, with its real size.  The guard counts D + 1 layers
whatever S is.  The grid is solved in blocks of points, all columns at
once; the inverse Vandermonde matrix of each axis turns the values of the
live entries, those nonzero somewhere in the first block, into
coefficients, lifted to the symmetric range (-p/2, p/2).  The candidate is
then certified exactly by verify_ms_equations, the same check that verify
runs: M_v L = L M_v, and its seed M_v e_1 = e_v (the identity row).  L is
cyclic, so its commutant holds exactly one operator sending e_1 to e_v, and
a candidate that passes is the true table whatever the degree box or the
prime.  A failed certificate redraws the nodes once with a doubled box, a
singular node or a missed live entry on the same box; a second failure, or
a doubled box past the guard, raises QKRingError.  So a closed form that
under-counts a degree costs a redraw, never a wrong table.

The certificate and the verify checks multiply exactly on term arrays: the
terms of the table and of L as numpy arrays of int64 codes, each an entry
index and a key, and coefficients (_term_arrays).  A key is a Kronecker
index of q and the exponents over their common box, with widths that leave
room for a product, so a product of two terms adds keys and never merges
distinct terms.  A matrix product is a join of term pairs on the contracted
index, in blocks of a bounded number of pairs (_term_matmul), and two
products compare by one sort of their difference by code.  The
coefficients are int64 below a bound proven from the operands and Python
ints past it.  A mod-p table is checked at values q = 0, 1, ... instead
of its layers, each check at as few as decide its products.  With e and
e_L the top nonzero layers of the table and of L, read from the arrays (a
certified table has e <= d_max), the Molev-Sagan products have q-degree at
most e + e_L and the commutators at most 2e, so e + e_L + 1 and 2e + 1
values decide them, and each product is pointwise.  Either way the
checks' arrays hold one entry per value of q, or one entry whose keys hold
q.

The associativity check applies the solve's argument to the table's own
divisor operator M_g: if every M_w commutes with M_g and e_1 is cyclic for
M_g, every M_w is a polynomial in M_g, so all of them commute.  That is two
products over the ring and one Krylov matrix inverted mod p at q = 0
(_commutant_decides).  Only on a table that fails it do the 2(k - 1)
products comparing every pair [M_u, M_w] run, so that the report names each
failing pair.

Every mod-p matrix product runs through _matmul_mod, exact in float64 BLAS:
the left factor splits into limbs narrow enough that no sum of products
reaches 2^53 (one limb, the factor itself, at the interpolation prime and
up to 32 summands).  The solve takes one product per q-layer, a block row
of layers times a block column: C_d = -C_0 [K_1 ... K_d][C_{d-1}; ...; C_0] for
the layers of K^{-1}, and [C_0^T ... C_c^T][W_c^T; ...; W_0^T] for layer c
of M_v^T.

Backend descriptors, the grid's guard and the table cache live in
qkcalc.store, which loads no numpy, so that a query the cache answers
never imports this module; the names are imported back here.  The store
writes and reads the whole cache file, the table's JSON included:
MultTable is only the solver's record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache
from math import comb, prod
from typing import Callable, NamedTuple

import numpy as np

from .gamma import (
    DEFAULT_PRIMES,
    GammaElement,
    QPolynomial,
    default_assignments,
    exact_divide,  # noqa: F401  perfbench/tracer.py counts calls through this name
)
from .chevalley import j_class, j_weight, sgamma_mask, sgamma_star
from .poset import CominusculePoset, build_cominuscule  # noqa: F401  perfbench/tracer.py wraps this name
# the table store; cache_key, cache_path, load_table and save_table are
# re-exported, so that qkring.* keeps naming them
from .store import (  # noqa: F401
    _zero, cache_key, cache_path, default_truncation, exact_grid, grid_refusal, load_table, make_field, save_table,
)


class QKRingError(Exception):
    pass


class SingularKrylov(QKRingError):
    """The q-constant Krylov matrix failed to invert at an evaluation point.

    At a fixed mod-p assignment this is an error; at the random nodes of an
    exact build it means two J_u coincide there, and the nodes are redrawn.
    """


class LiveSetMissed(QKRingError):
    """An entry zero on the exact grid's first block of points is nonzero on
    a later one; the nodes are redrawn on the same box."""


class TruncationTooSmall(QKRingError):
    """Stabilization certificate failed; rerun with a larger truncation."""


class GridOutOfReach(QKRingError):
    """The exact build's interpolation grid would pass the store's guard
    (store.grid_refusal)."""


# ---------------------------------------------------------------------------
# Divisor operator


def _object_array(items: list, shape) -> np.ndarray:
    # filling a flat array is several times faster than np.array on nested lists
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out.reshape(shape)


def _terms(G: np.ndarray):
    """The terms of the group-ring array G in G.flat order: entry indices,
    exponent rows (an int64 array (terms, rank)) and coefficients (Python ints)."""
    nz = [(i, g.terms) for i, g in enumerate(G.ravel().tolist()) if g.terms]
    exps = np.array([e for _, t in nz for e in t], dtype=np.int64).reshape(-1, G.flat[0].rank)
    return np.array([i for i, t in nz for _ in t], dtype=np.int64), exps, [c for _, t in nz for c in t.values()]


def _node_powers(exps: np.ndarray, p: int, axes: list) -> list:
    """x^{-lam_i} for each node x of axes[i], a list of residues of
    x_i = e^{-alpha_i}, and each term's exponent lam (a row of exps): one
    int64 array (len(axes[i]), terms) per variable, one pow per distinct
    value of lam_i."""
    out = []
    for xs, lam in zip(axes, exps.T):
        lams, inv = np.unique(lam, return_inverse=True)
        lams = lams.tolist()
        out.append(np.array([[pow(x, -e, p) for e in lams] for x in xs], dtype=np.int64)[:, inv])
    return out


def _eval_at(size: int, terms, powers: list, index, p: int) -> np.ndarray:
    """The values (points, size) of an array of `size` entries with terms
    `terms` (from _terms) at the points j whose node of x_i is row
    index[i][j] of powers[i] (from _node_powers): e^{lam} = prod x_i^{-lam_i}."""
    at, _, coeffs = terms
    val = np.array(coeffs, dtype=np.int64) % p
    for P, ix in zip(powers, index):
        val = val * P[ix] % p
    out = np.zeros((len(index[0]), size), dtype=np.int64)
    np.add.at(out, (slice(None), at), val)
    return out % p


def _eval_array(G: np.ndarray, p: int, nodes: np.ndarray, terms=None) -> np.ndarray:
    """The group-ring array G at every row of nodes, the residues of the
    x_i = e^{-alpha_i}: an int64 array of shape (len(nodes), *G.shape).
    terms, when given, is _terms(G), so that a caller evaluating G at
    several primes scans it once."""
    terms = _terms(G) if terms is None else terms
    powers = _node_powers(terms[1], p, nodes.T.tolist())
    index = [np.arange(len(nodes))] * nodes.shape[1]
    return _eval_at(G.size, terms, powers, index, p).reshape(len(nodes), *G.shape)


@cache
def divisor_matrix(poset: CominusculePoset) -> np.ndarray:
    """Matrix of O^{s_gamma} * (.) in the Schubert basis, split by q-degree:
    the read-only (2, k, k) object array L[d, w, u] over the group ring (all
    higher layers vanish by the Chevalley theorem), with its structural
    invariants checked; once per poset, which build_cominuscule memoizes."""
    masks = poset.shape_masks
    k = len(masks)
    rank = poset.rs.rank
    one = GammaElement.from_int(rank, 1)
    L = _object_array([GammaElement.zero(rank)] * (2 * k * k), (2, k, k))
    index = {m: i for i, m in enumerate(masks)}
    for u, mask in enumerate(masks):
        for wm, poly in sgamma_star(poset, mask).items():
            if poly.degree() > 1:
                raise QKRingError("divisor product exceeded q-degree 1")
            w = index[wm]
            L[0, w, u] = poly.coeff(0)
            L[1, w, u] = poly.coeff(1)
    # q^0 part is triangular for Bruhat order and carries 1 - J_u on the
    # diagonal; the J_u are pairwise distinct since u.omega determines u.
    seen = set()
    for u, mask in enumerate(masks):
        if L[0, u, u] != one - j_class(poset, mask):
            raise QKRingError("divisor diagonal entry is not 1 - J_u")
        jw = j_weight(poset, mask)
        if jw in seen:
            raise QKRingError("coinciding divisor eigenvalues")
        seen.add(jw)
        for w in range(k):
            if not L[0, w, u].is_zero() and masks[u] & masks[w] != masks[u]:
                raise QKRingError("q^0 layer not triangular")
    L.flags.writeable = False
    return L


# ---------------------------------------------------------------------------
# Mod-p linear algebra: int64 numpy arrays of residues in [0, p), p < 2^31


# a product with more output entries runs in blocks of about this many,
# which keeps the kernel's float64 temporaries small and in cache
_KERNEL_ENTRIES = 1 << 16


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exact, through float64 BLAS (after Dumas, Giorgi and
    Pernet's FFLAS), with matmul's shapes: stacks broadcast, a 1-d B is a
    vector.  A and B hold residues in [0, p).

    A splits into w-bit limbs, A = sum_i A_i 2^{wi}.  An entry of A_i @ B
    sums n products below 2^w p over the inner dimension n, so float64
    computes it exactly when w + p.bit_length() + ceil(log2 n) <= 53; the
    limbs recombine in int64 mod p.  For 31-bit primes that is two limbs up
    to n = 64 and three up to n = 2048; for _INTERPOLATION_PRIME, one limb
    up to n = 32 and two up to n = 2^17.
    """
    n = B.shape[0] if B.ndim == 1 else B.shape[-2]
    # float64 holds every integer below 2^53 exactly
    w = 53 - p.bit_length() - (n - 1).bit_length()
    if w < 1:
        raise ValueError(f"inner dimension {n} is past float64's exact range mod {p}")
    if B.ndim == 1:
        return _limb_product(A, B, p, w)
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
    if prod(shape) <= _KERNEL_ENTRIES:
        return _limb_product(A, B, p, w)
    out = np.empty(shape, dtype=np.int64)
    if len(shape) == 2:
        # a matrix, in blocks of B's columns
        step = max(1, _KERNEL_ENTRIES // shape[0])
        for j in range(0, shape[1], step):
            out[:, j:j + step] = _limb_product(A, B[:, j:j + step], p, w)
        return out
    # a stack, in blocks of its leading axis; an operand without it broadcasts
    step = max(1, _KERNEL_ENTRIES * shape[0] // prod(shape))
    for j in range(0, shape[0], step):
        A_j, B_j = (X[j:j + step] if X.ndim == len(shape) and len(X) > 1 else X for X in (A, B))
        out[j:j + step] = _limb_product(A_j, B_j, p, w)
    return out


def _limb_product(A: np.ndarray, B: np.ndarray, p: int, w: int) -> np.ndarray:
    """A @ B mod p from the w-bit limbs of A, the top limb first."""
    Bf = B.astype(np.float64)
    out, top = None, w * ((p.bit_length() - 1) // w)
    for shift in range(top, -1, -w):
        # one limb (top = 0) is A itself: its residues lie below p <= 2^w
        limb = A if not top else (A >> shift) & ((1 << w) - 1)
        # below 2^53, so the int64 cast is exact
        limb = (limb.astype(np.float64) @ Bf).astype(np.int64)
        if out is None:
            out = limb
        else:
            out <<= w
            out += limb
        # out % p, but floor division by a scalar is several times faster
        out -= out // p * p
    return out


def _inverse_mod(A: np.ndarray, p: int) -> np.ndarray:
    """A^{-1} mod p for every matrix of a stack (..., k, k), by Gauss-Jordan
    on [A | I]; SingularKrylov when any of them is singular."""
    shape, k = A.shape, A.shape[-1]
    A = A.reshape(-1, k, k) % p
    m = np.concatenate([A, np.broadcast_to(np.eye(k, dtype=np.int64), A.shape)], axis=2)
    at = np.arange(len(m))
    for c in range(k):
        nz = m[:, c:, c] != 0
        if not nz.any(axis=1).all():
            raise SingularKrylov("Krylov matrix is singular mod q")
        piv = c + nz.argmax(axis=1)
        row = m[at, piv]
        m[at, piv] = m[:, c]
        inv = np.array([pow(x, -1, p) for x in row[:, c].tolist()], dtype=np.int64)
        m[:, c] = row * inv[:, None] % p
        f = m[:, :, c].copy()
        f[:, c] = 0
        m = (m - f[:, :, None] * m[:, None, c] % p) % p
    return m[:, :, k:].reshape(shape)


def _vandermonde(xs, n: int, p: int) -> np.ndarray:
    """The Vandermonde matrix V[a, j] = xs[a]^j mod p, j < n."""
    xs = np.asarray(xs, dtype=np.int64)
    V = np.ones((len(xs), n), dtype=np.int64)
    for j in range(1, n):
        V[:, j] = V[:, j - 1] * xs % p
    return V


def _e1_cyclic(M: np.ndarray, p: int) -> bool:
    """Whether e_1 is cyclic for the k x k matrix M mod p: its Krylov matrix
    [e_1, M e_1, ..., M^{k-1} e_1] inverts."""
    k = len(M)
    K = np.zeros((k, k), dtype=np.int64)
    K[0, 0] = 1
    for i in range(1, k):
        K[:, i] = _matmul_mod(M, K[:, i - 1], p)
    try:
        _inverse_mod(K, p)
    except SingularKrylov:
        return False
    return True


def _solve(L: np.ndarray, D: int, p: int) -> np.ndarray:
    """The layers M[j, v, d, w, u] of every M_v mod q^{D+1} at each point j.

    L[j] holds the divisor matrix's values (2, k, k) at point j, residues in
    an int64 array: callers evaluate it, the mod-p backend at its
    assignment and an exact build at each block of its grid.  M_v K = W_v,
    where column i of W_v is L^i e_v, so M_v = W_v K^{-1}, and K is W_v of
    the identity class e_1.
    """
    n, k = len(L), L.shape[-1]
    # rows 0..k-1 hold L's q^0 layer, rows k..2k-1 its q^1 layer
    Lj = L.reshape(n, 2 * k, k)
    # one Krylov pass for all columns: W[j, w, v, d, i] = layer d of (L^i)_{wv}
    W = np.zeros((n, k, k, D + 1, k), dtype=np.int64)
    W[:, range(k), range(k), 0, 0] = 1
    for i in range(1, k):
        Y = _matmul_mod(Lj, W[..., i - 1].reshape(n, k, -1), p).reshape(n, 2, k, k, D + 1)
        W[..., i] = Y[:, 0]
        W[..., 1:, i] += Y[:, 1, ..., :-1]
        W[..., i] %= p
    # K[j, w, d, i] holds layer d, so K[:, :, 1:d+1] is the block row [K_1 ... K_d]
    K = W[:, :, 0]
    C = np.zeros((n, D + 1, k, k), dtype=np.int64)
    C[:, 0] = _inverse_mod(K[:, :, 0], p)
    # C_d = -C_0 [K_1 ... K_d][C_{d-1}; ...; C_0]: one product per layer
    for d in range(1, D + 1):
        S = _matmul_mod(K[:, :, 1:d + 1].reshape(n, k, d * k), C[:, d - 1::-1].reshape(n, d * k, k), p)
        C[:, d] = -_matmul_mod(C[:, 0], S, p) % p
    # transposed, M_v^T = K^{-T} W_v^T with the (w, v) pairs as columns: layer
    # c is [C_0^T ... C_c^T][W_c^T; ...; W_0^T], one product per layer
    Ct, Wt = C.transpose(0, 3, 1, 2), W.transpose(0, 3, 4, 1, 2).reshape(n, D + 1, k, k * k)
    Mt = np.empty((n, D + 1, k, k * k), dtype=np.int64)
    for c in range(D + 1):
        Mt[:, c] = _matmul_mod(Ct[:, :, :c + 1].reshape(n, k, -1), Wt[:, c::-1].reshape(n, -1, k * k), p)
    return Mt.reshape(n, D + 1, k, k, k).transpose(0, 4, 1, 3, 2)


# ---------------------------------------------------------------------------
# Exact tables from mod-p evaluations


# The exact build's prime, the largest below 2^24: a product mod p of inner
# dimension n is one float64 limb when 2 * 24 + ceil(log2 n) <= 53
# (_matmul_mod), that is up to n = 32.  The lift needs |coefficients| < p/2.
_INTERPOLATION_PRIME = 16777213
# the grid's blocks of points, the coefficient slices, the term joins and
# the positivity slices; point blocks measured level from 2^17 to 2^19 on
# Gr(2,6), Q(6) and Gr(2,5), slower at 2^15, with memory growing past 2^17
_BLOCK_ENTRIES = 1 << 17


def _interpolated_columns(L: np.ndarray, D: int, counts: list, p: int, rng: random.Random, S: int) -> np.ndarray:
    """Layers C[v, d, w, u], d <= D, of every M_v over the group ring, the
    shared zero above S, interpolated from the solve mod q^{S+1} on a grid
    of counts[i] random nonzero nodes per variable, in blocks of points of
    about _BLOCK_ENTRIES entries (a larger point alone).  A grid past the guard of truncation D
    is refused before any solve.  Only the live entries, nonzero somewhere
    in the first block, keep their values; LiveSetMissed when a later block
    has another."""
    rank, k = len(counts), L.shape[-1]
    refusal = grid_refusal(counts, D, k)
    if refusal:
        raise GridOutOfReach(refusal)
    axes = [rng.sample(range(1, p), n) for n in counts]
    Lterms = _terms(L)
    powers = _node_powers(Lterms[1], p, axes)
    points = prod(counts)
    step = max(1, _BLOCK_ENTRIES // ((S + 1) * k**3))
    for at in range(0, points, step):
        # point j of the grid takes node unravel_index(j, counts)[i] of axes[i]
        Lj = _eval_at(L.size, Lterms, powers, np.unravel_index(np.arange(at, min(at + step, points)), counts), p)
        M = _solve(Lj.reshape(-1, *L.shape), S, p).reshape(-1, k * (S + 1) * k * k)
        if not at:
            live = np.flatnonzero(M.any(axis=0))
            values = np.empty((points, len(live)), dtype=np.int32)  # residues below p < 2^24
        values[at:at + step] = M[:, live]
        if np.count_nonzero(M) != np.count_nonzero(values[at:at + step]):
            raise LiveSetMissed("an entry zero on the grid's first block of points is not zero on a later one")
    # values at the nodes to coefficients of 1, x, x^2, ...
    terms = _coefficients(values, counts, [_inverse_mod(_vandermonde(xs, len(xs), p), p) for xs in axes], p)
    zero = _zero(rank)
    mats = np.full((k, D + 1, k * k), zero, dtype=object)
    mats[np.unravel_index(live, (k, S + 1, k * k))] = _object_array([GammaElement(rank, t) if t else zero for t in terms], len(live))
    return mats.reshape(k, D + 1, k, k)


def _coefficients(M: np.ndarray, counts: list, inverses: list, p: int) -> list:
    """The terms {exponents: coefficient} of each entry of M[j, ...] in
    row-major order, from its values at the grid points j, in slices of
    about _BLOCK_ENTRIES values.  Every entry is transformed: the exact
    build passes only its live entries, and an entry zero at every point
    has no terms."""
    M = M.reshape(len(M), -1)
    step = max(1, _BLOCK_ENTRIES // len(M))
    terms = [{} for _ in range(M.shape[1])]
    for at in range(0, M.shape[1], step):
        # axes (n_1, ..., n_rank, entries); transforming the leading axis and
        # rotating it to the back ends with (entries, n_1, ..., n_rank)
        c = M[:, at:at + step].reshape(*counts, -1)
        for n, Vinv in zip(counts, inverses):
            c = _matmul_mod(Vinv, c.reshape(n, -1), p).T
        c = c.reshape(-1, prod(counts))
        c[c > p // 2] -= p
        entry, mono = np.nonzero(c)
        # the coefficient of x^j is that of e^{-j}
        exps = (-np.stack(np.unravel_index(mono, counts), axis=1)).tolist()
        for t, e, x in zip((at + entry).tolist(), exps, c[entry, mono].tolist()):
            terms[t][tuple(e)] = x
    return terms


def _exact_table(poset: CominusculePoset, L: np.ndarray, D: int, backend: dict) -> MultTable:
    """Interpolate and certify, on two draws of the nodes: after a singular
    node or a missed live entry on the same box, after a failed certificate
    on a doubled one.  The first box has one node more than the table's
    degree in each x_i.  A first box past the guard is GridOutOfReach; a
    doubled one is a QKRingError that names the failed certificate.

    The solves stop at q^S, S = min(D, d_max), and layers S+1..D are zero:
    the certificate compares untruncated products, so it proves them zero."""
    p = _INTERPOLATION_PRIME
    rng = random.Random(f"nodes:{poset.space}:{D}")
    S = min(D, poset.d_max)
    counts = exact_grid(poset)
    for draw in range(2):
        try:
            table = _assemble(poset, D, backend, _interpolated_columns(L, D, counts, p, rng, S))
        except SingularKrylov:
            failure = "exact interpolation hit a singular Krylov node on its last draw"
            continue
        except LiveSetMissed:
            failure = "exact interpolation missed a live entry in its first block of points on its last draw"
            continue
        except GridOutOfReach as refused:
            if not draw:
                raise
            raise QKRingError(f"{failure}, and the doubled grid is refused: {refused}") from None
        if verify_ms_equations(table)["status"] == "pass":
            return table
        failure = "interpolated table failed its exact certificate"
        counts = [2 * n for n in counts]
    raise QKRingError(failure)


# ---------------------------------------------------------------------------
# Full tables


@dataclass
class MultTable:
    """All structure constants N^{w,d}_{u,v} of one space, mod q^{D+1}.

    mats[v, d, w, u] holds the coefficient of q^d O^w in O^u * O^v, in an
    array of shape (k, D+1, k, k): GammaElement objects (exact backend) or
    int64 residues (mod-p backend).  The space, its basis and k are the
    poset's.
    """

    poset: CominusculePoset
    D: int
    backend: dict
    mats: np.ndarray
    flags: dict = field(default_factory=dict)

    @property
    def space(self) -> str:
        return str(self.poset.space)

    @property
    def masks(self) -> tuple:
        return self.poset.shape_masks

    @property
    def k(self) -> int:
        return len(self.poset.shape_masks)

    @property
    def is_exact(self) -> bool:
        return self.backend.get("kind") == "exact"

    def entry(self, u: int, v: int, w: int):
        layers = self.mats[v, :, w, u].tolist()
        if self.is_exact:
            return QPolynomial(self.poset.rs.rank, layers)
        return tuple(layers)


def full_table(poset: CominusculePoset, D: int | None = None, backend="exact") -> MultTable:
    """Solve all k^2 products mod q^{D+1} and certify q-stabilization.

    The certificate requires layers D and D-1 of every entry to vanish; the
    default D = d_max + 2 leaves exactly that headroom above the q-degree
    bound d_max.  An exact table is interpolated from mod-p solves and
    certified exactly (see the module docstring).
    """
    D = _truncation(poset, D)
    backend = make_field(poset, backend)
    L = divisor_matrix(poset)
    if backend["kind"] == "exact":
        return _exact_table(poset, L, D, backend)
    return _modp_point_tables(poset, L, D, [backend])[0]


def _truncation(poset: CominusculePoset, D: int | None) -> int:
    if D is None:
        D = default_truncation(poset)
    if D < 2:
        raise ValueError("truncation must be at least 2 for the certificate")
    return D


def _modp_point_tables(poset: CominusculePoset, L: np.ndarray, D: int, backends: list) -> list:
    """The tables of mod-p backends of one prime, from one solve batched over
    their assignments."""
    p = backends[0]["p"]
    Lj = _eval_array(L, p, np.array([b["assignment"] for b in backends], dtype=np.int64))
    tables = []
    for backend, mats in zip(backends, _solve(Lj, D, p)):
        tables.append(_assemble(poset, D, backend, mats))
        _check_identity_row(tables[-1])
    return tables


def _assemble(poset: CominusculePoset, D: int, backend: dict, mats: np.ndarray) -> MultTable:
    """The table of the layers mats[v, d, w, u], once its top two layers vanish."""
    for d in (D - 1, D):
        if mats[:, d].any():
            raise TruncationTooSmall(f"nonzero coefficient at q^{d} with truncation {D}")
    return MultTable(poset, D, backend, mats, {"stabilized": True})


def _seed_breaks(table: MultTable) -> np.ndarray:
    """broken[v, w]: some layer of N^w_{1,v}, entry mats[v, :, w, 0], is not
    that of O^1 * O^v = O^v (O^1 is the unit), 1 at q^0 O^v and 0 elsewhere."""
    col = table.mats[..., 0]
    unit = np.zeros(col.shape, dtype=bool)
    unit[:, 0] = np.eye(table.k, dtype=bool)
    broken = col.astype(bool)
    broken[unit] = col[unit] != (GammaElement.from_int(table.poset.rs.rank, 1) if table.is_exact else 1)
    return broken.any(axis=1)


def _check_identity_row(table: MultTable) -> None:
    if _seed_breaks(table).any():
        raise QKRingError("identity row broken")


def modp_tables(poset: CominusculePoset, D: int | None = None, seed: int = 0) -> list:
    """One table per evaluation: two default assignments for each of the
    first two default primes, from one batched solve per prime; checks must
    agree on all."""
    D, rank, L = _truncation(poset, D), poset.rs.rank, divisor_matrix(poset)
    tables = []
    for p in DEFAULT_PRIMES[:2]:
        asgs = default_assignments(rank, p, 2, seed)
        tables += _modp_point_tables(poset, L, D, [make_field(poset, {"kind": "mod-p", "p": p, "assignment": a}) for a in asgs])
    return tables


def tables_agree(exact: MultTable, *modp: MultTable) -> bool:
    """Evaluate the exact table through each mod-p table's assignment and
    compare: the exact terms are scanned once, and evaluated once per prime
    at all of that prime's assignments."""
    terms = _terms(exact.mats)
    for p in dict.fromkeys(m.backend["p"] for m in modp):
        tables = [m for m in modp if m.backend["p"] == p]
        nodes = np.array([m.backend["assignment"] for m in tables], dtype=np.int64)
        values = _eval_array(exact.mats, p, nodes, terms)
        if not all((x == m.mats).all() for x, m in zip(values, tables)):
            return False
    return True


def specialize(table: MultTable, mode: str) -> MultTable:
    """Coefficient-wise ring maps: 'q0' kills q, 'nonequivariant' sends e^l to 1."""
    if mode == "q0":
        return replace(table, D=0, backend=dict(table.backend, specialized="q0"), mats=table.mats[:, :1], flags={"specialized": "q0"})
    if mode == "nonequivariant":
        if not table.is_exact:
            raise QKRingError("nonequivariant specialization needs the exact backend")
        mats = np.array([sum(x.terms.values()) for x in table.mats.flat], dtype=np.int64)
        return replace(
            table, backend={"kind": "nonequivariant"}, mats=mats.reshape(table.mats.shape), flags={"specialized": "nonequivariant"}
        )
    raise ValueError(f"unknown specialization {mode!r}")


# ---------------------------------------------------------------------------
# Verification suites: one body each, over the table's coefficient ring


class _Ring(NamedTuple):
    """The table mats[v, j, w, u] and the divisor L[j, w, u] over a ring, and
    its matrix product of two stacks along j.  Over F_p, j runs over the
    values q = 0, 1, ..., n-1, as many as the checks' products need, and
    products are pointwise; the exact ring's term arrays keep q in their
    keys, so they have one entry along j."""

    mats: np.ndarray
    L: np.ndarray
    matmul: Callable


def verify_ring(table: MultTable) -> _Ring:
    """The table and the divisor mod q^{D+1} over the table's coefficient
    ring, which verify_ms_equations and verify_associativity share: term
    arrays for an exact table, F_p through the table's assignment for a
    mod-p one.  Other tables (a nonequivariant specialization, say) have no
    divisor image to check against.

    The mod-p checks multiply the table by L and by itself.  With e and e_L
    the top nonzero layers of the table and of L, read from the arrays, so
    that a corrupted layer above d_max counts, those products have q-degree
    at most e + e_L and 2e, below p: their values at max(2e, e + e_L) + 1
    points differ exactly when some layer does."""
    kind = table.backend.get("kind")
    # a q = 0 specialization (D = 0) keeps only L_0
    layers = divisor_matrix(table.poset)[: table.D + 1]
    if kind == "exact":
        return _Ring(*_term_arrays(table.poset.rs.rank, (table.mats, layers)), _term_matmul)
    if kind == "mod-p":
        p = table.backend["p"]
        node = np.array([table.backend["assignment"]], dtype=np.int64)
        L = _eval_array(layers, p, node)[0]
        e = int(max(np.flatnonzero(table.mats.any(axis=(0, 2, 3))), default=0))
        eL = int(max(np.flatnonzero(L.any(axis=(1, 2))), default=0))
        n = max(2 * e, e + eL) + 1
        return _Ring(_values(table.mats[:, : e + 1], 1, n, p), _values(L[: eL + 1], 0, n, p), lambda A, B: _matmul_mod(A, B, p))
    raise QKRingError(f"no coefficient ring to verify a {kind!r} table over")


def _values(X: np.ndarray, axis: int, n: int, p: int) -> np.ndarray:
    """X with its layers in q along axis replaced by its values at q = 0,
    1, ..., n-1: one product with the Vandermonde matrix V[j, d] = j^d."""
    X = np.moveaxis(X, axis, 0)
    Y = _matmul_mod(_vandermonde(range(n), len(X), p), X.reshape(len(X), -1), p)
    return np.moveaxis(Y.reshape(n, *X.shape[1:]), 0, axis)


class _TermArray:
    """A group-ring array of the given shape as its terms: the code of each
    term, at * span + key for the flat index `at` of its entry and its packed
    key, and its coefficient.  It reshapes, transposes and slices its first
    axis like an ndarray, and X != Y is the boolean ndarray of the entries
    where X - Y is not zero.  Keys, those of products included, stay below
    span (see _term_arrays), and codes below 2^63 (_check_codes)."""

    __slots__ = ("shape", "code", "coef", "span")

    def __init__(self, shape: tuple, code: np.ndarray, coef: np.ndarray, span: int):
        self.shape, self.code, self.coef, self.span = shape, code, coef, span

    def __len__(self) -> int:
        return self.shape[0]

    def reshape(self, *shape) -> "_TermArray":
        # row-major flat indices do not change; -1 stands for the size over
        # the product of the other axes (prod(shape) is minus that product)
        if -1 in shape:
            i = shape.index(-1)
            shape = shape[:i] + (prod(self.shape) // -prod(shape),) + shape[i + 1:]
        return _TermArray(shape, self.code, self.coef, self.span)

    def transpose(self, *axes) -> "_TermArray":
        shape = tuple(self.shape[a] for a in axes)
        at, key = np.divmod(self.code, self.span)
        index = np.unravel_index(at, self.shape)
        at = np.ravel_multi_index(tuple(index[a] for a in axes), shape)
        return _TermArray(shape, at * self.span + key, self.coef, self.span)

    def __getitem__(self, i) -> "_TermArray":
        # an index or a slice of the first axis, without a step
        rows, stride = range(len(self))[i], prod(self.shape[1:]) * self.span
        lo, hi = (rows, rows + 1) if isinstance(i, int) else (rows.start, rows.stop)
        keep = (self.code >= lo * stride) & (self.code < hi * stride)
        shape = self.shape[1:] if isinstance(i, int) else (hi - lo, *self.shape[1:])
        return _TermArray(shape, self.code[keep] - lo * stride, self.coef[keep], self.span)

    def __ne__(self, other: "_TermArray") -> np.ndarray:
        code, _ = _collect(np.concatenate([self.code, other.code]), np.concatenate([self.coef, -other.coef]))
        out = np.zeros(prod(self.shape), dtype=bool)
        out[code // self.span] = True
        return out.reshape(self.shape)


def _check_codes(shape: tuple, span: int) -> None:
    """Refuse term codes at * span + key past int64 for an array of shape."""
    if prod(shape) * span >= 1 << 63:
        raise QKRingError("exponent box too wide for 63-bit term codes")


def _collect(code: np.ndarray, coef: np.ndarray) -> tuple:
    """The terms (code, coef) with the coefficients of equal codes summed and
    zero sums dropped, sorted by code: one sort, then one reduceat."""
    if not len(code):
        return code, coef
    order = code.argsort()
    code = code[order]
    head = np.concatenate(([True], code[1:] != code[:-1])).nonzero()[0]
    sums = np.add.reduceat(coef[order], head)
    live = sums != 0
    return code[head[live]], sums[live]


def _term_arrays(rank: int, arrays) -> list:
    """Term arrays (..., 1, k, m) of layered group-ring arrays (..., layers,
    k, m) for the exact checks, with q in the key.

    The key of q^d e^lam is sum_i (lam_i - lo_i) B_i + d B_rank, a Kronecker
    index over the box [lo, hi] of every exponent in arrays: B_0 = 1 and
    B_{i+1} = B_i * (2(hi_i - lo_i) + 1).  The key of a product of two terms
    is the sum of theirs, and the exponents of such products, in [2lo, 2hi],
    are its digits below those radices, so the key stays injective on them.
    q comes last, so its degree needs no width.  Every key of a product stays
    below span = 2 * layers * B_rank.  The codes at * span + key must stay
    below 2^63 for the k^3 entries of the checks' largest arrays; a table
    this module builds is far inside that, since its exponent box is at most
    its interpolation grid, which the grid guard limits.

    The coefficients are int64 when twice the square of the largest sum of
    |coefficients| over one array is below 2^63, Python ints past that.  A
    product of two arrays sums at most ||A||_1 ||B||_1 in absolute value,
    and a comparison adds two such sums, so no partial sum can overflow.
    """
    terms = [_terms(G) for G in arrays]
    exps = np.concatenate([e for _, e, _ in terms]).reshape(-1, rank)
    lo = exps.min(axis=0, initial=0)
    strides = [1]
    for width in (exps.max(axis=0, initial=0) - lo).tolist():
        strides.append(strides[-1] * (2 * width + 1))
    qstride = strides.pop()
    span = 2 * max(G.shape[-3] for G in arrays) * qstride
    norm = max(sum(map(abs, c)) for _, _, c in terms)
    dtype = np.int64 if 2 * norm * norm < 1 << 63 else object
    out = []
    for G, (at, e, c) in zip(arrays, terms):
        layers, k, m = G.shape[-3:]
        shape = (*G.shape[:-3], 1, k, m)
        _check_codes(shape, span)
        d, entry = at // (k * m) % layers, at // (layers * k * m) * (k * m) + at % (k * m)
        key = (e - lo) @ np.array(strides, dtype=np.int64) + d * qstride
        out.append(_TermArray(shape, entry * span + key, np.array(c, dtype=dtype), span))
    return out


def _term_matmul(A: _TermArray, B: _TermArray) -> _TermArray:
    """A @ B for term arrays of shapes (J, n, m) and (J, m, r): a join of
    each term of A with the terms of B in the row its column names.  The
    pairs run in blocks of A's terms, about _BLOCK_ENTRIES pairs each (more
    when one term alone has more), and each block is collected on its own,
    so an entry may keep a key in several blocks; comparisons collect again."""
    J, n, m = A.shape
    r, span = B.shape[2], A.span
    _check_codes((J, n, r), span)
    # B's terms by row (j, t), which runs from first[t] to first[t + 1]; a
    # product's code is A's row part plus B's rest, column * span + key
    tb = B.code // (r * span)
    ob = tb.argsort()
    tb = tb[ob]
    first = tb.searchsorted(np.arange(J * m + 1))
    brest, bcoef = B.code[ob] - tb * (r * span), B.coef[ob]
    # each term of A, in row (j, i) and column t, meets count terms of B
    at = A.code // span
    ra = at // m
    t = ra // n * m + at % m
    arest = ra * (r * span) + A.code % span  # row * r * span + key
    count = (first[1:] - first[:-1])[t]
    end = count.cumsum()
    # pair number p of A's term a is with B's term p - shift[a]
    shift = end - count - first[t]
    total = int(end[-1]) if len(end) else 0
    # the term holding pair 0, pair _BLOCK_ENTRIES, ... starts each block
    cuts = list(dict.fromkeys(end.searchsorted(np.arange(0, total, _BLOCK_ENTRIES), side="right").tolist()))
    parts = []
    for lo, hi in zip(cuts, cuts[1:] + [len(at)]):
        a = np.arange(lo, hi).repeat(count[lo:hi])
        b = np.arange(end[lo] - count[lo], end[hi - 1]) - shift[a]
        parts.append(_collect(arest[a] + brest[b], A.coef[a] * bcoef[b]))
    code, coef = (np.concatenate(x) for x in zip(*parts)) if parts else (A.code[:0], A.coef[:0])
    return _TermArray((J, n, r), code, coef, span)


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


def _rows(X: np.ndarray) -> np.ndarray:
    """The stack [M_v; ...] of X[v, j, w, u] at each j, rows (v, w)."""
    return X.transpose(1, 0, 2, 3).reshape(X.shape[1], -1, X.shape[3])


def _cols(X: np.ndarray) -> np.ndarray:
    """The block row [M_v ...] of X[v, j, w, u] at each j, columns (v, u)."""
    return X.transpose(1, 2, 0, 3).reshape(X.shape[1], X.shape[2], -1)


def verify_ms_equations(table: MultTable, ring: _Ring | None = None) -> dict:
    """Check both generalized Molev-Sagan identities on every triple (u,v,w),
    seeded by the unit.

    With beta = gamma the three sums are, over u', w', v' respectively,
    sum N^{u'}_{s,u} D^w_{u',v} = sum N^w_{s,w'} D^{w'}_{u,v} = sum N^{v'}_{s,v} D^w_{u,v'}.
    They are three products over the ring: M_v L and L M_v for all v at
    once, and S L for the stack S[(w, u), v'] = M_v'.  The sums are linear
    in the table, so a zero table or a multiple of the true one passes
    them; the seed M_v e_1 = e_v (O^1 * O^v = O^v) pins it, and a broken
    entry N^w_{1,v}, mats[v, :, w, 0], fails the triple (0, v, w).  L is cyclic, so its
    commutant holds exactly one operator sending e_1 to e_v: an exact table
    that passes is the true table, which makes this the exact build's
    certificate.  ring is the table's verify_ring, built here if not given.
    """
    C, L, matmul = verify_ring(table) if ring is None else ring
    k = table.k
    left = matmul(_rows(C), L).reshape(-1, k, k, k)
    mid = matmul(L, _cols(C)).reshape(-1, k, k, k).transpose(0, 2, 1, 3)
    S = C.transpose(1, 2, 3, 0).reshape(C.shape[1], k * k, k)
    right = matmul(S, L).reshape(-1, k, k, k).transpose(0, 3, 1, 2)
    # bad[u, v, w]: some identity fails at some point
    bad = ((left != mid) | (mid != right)).any(axis=0).transpose(2, 0, 1)
    bad[0] |= _seed_breaks(table)
    return _report("ms-equations", table, [tuple(t) for t in np.argwhere(bad).tolist()], {"triples": k**3})


def verify_associativity(table: MultTable, ring: _Ring | None = None) -> dict:
    """Symmetry plus commuting multiplication operators.

    Once N^w_{u,v} = N^w_{v,u} holds, (O^u * O^v) * O^w = O^u * (O^v * O^w)
    for all triples is equivalent to [M_u, M_w] = 0 for all pairs.  If every
    M_w commutes with the divisor's operator M_g and M_g is cyclic, all of
    them commute (_commutant_decides, two products over the ring).  Only
    otherwise is each M_u compared with every later M_w, 2(k - 1) products,
    so that the report names each failing pair.  ring is the table's
    verify_ring, built here if not given.
    """
    C, _, matmul = verify_ring(table) if ring is None else ring
    k = table.k
    # asym[u, v, w]: N^w_{u,v} != N^w_{v,u} at some point
    asym = (C != C.transpose(3, 1, 2, 0)).any(axis=1).transpose(2, 0, 1)
    failures = [("symmetry", u, v, w) for u, v, w in np.argwhere(asym).tolist() if u < v]
    if not _commutant_decides(table, C, matmul):
        # M_u against every later M_w at once: M_u [M_w ...] and [M_w; ...] M_u
        for u in range(k - 1):
            Mu, rest = C[u], C[u + 1:]
            uw = matmul(Mu, _cols(rest)).reshape(-1, k, len(rest), k).transpose(0, 2, 1, 3)
            wu = matmul(_rows(rest), Mu).reshape(-1, len(rest), k, k)
            bad = (uw != wu).any(axis=(0, 2, 3))
            failures += [("commutator", u, w) for w in (u + 1 + np.flatnonzero(bad)).tolist()]
    return _report("associativity", table, failures, {"pairs": k * (k - 1) // 2})


def _commutant_decides(table: MultTable, C, matmul) -> bool:
    """True when every M_w in C commutes with M_g, the table's operator for
    the divisor (one product each way over the ring of matmul), and e_1 is
    cyclic for M_g at q = 0: its Krylov matrix inverts mod p at the table's
    assignment, or for an exact table at the first default assignment of
    the first default prime.  The Krylov determinant is then nonzero, so
    M_g is cyclic over the fraction field, its commutant is the polynomials
    in M_g, and all M_w commute.  Only the table's entries are read, not
    divisor_matrix, so the check stays independent of the Molev-Sagan one.
    """
    k, g = table.k, table.masks.index(sgamma_mask(table.poset))
    if table.is_exact:
        p = DEFAULT_PRIMES[0]
        node = np.array(default_assignments(table.poset.rs.rank, p, 1, 0), dtype=np.int64)
        M = _eval_array(table.mats[g, 0], p, node)[0]
    else:
        p, M = table.backend["p"], table.mats[g, 0]
    if not _e1_cyclic(M, p):
        return False
    gw = matmul(C[g], _cols(C)).reshape(-1, k, k, k).transpose(0, 2, 1, 3)
    wg = matmul(_rows(C), C[g]).reshape(-1, k, k, k)
    return not (gw != wg).any()


def verify_positivity_signs(table: MultTable) -> dict:
    """Report whether (-1)^s N^{w,d}_{u,v} has nonnegative coefficients in the
    y_beta = [C_{-beta}] - 1 variables, s = l(u)+l(v)+l(w) + d * fano index.

    With x_i = e^{-alpha_i} = 1 + y_i, x^m = prod_i sum_j C(m_i, j) y_i^j, so
    an entry's y-coefficients are its dense box of x-coefficients times the
    Pascal matrix P[m, j] = C(m, j) along each axis; a term with a positive
    exponent fails its entry.  Each column M_v is transformed over the box of
    its own terms, in blocks of about _BLOCK_ENTRIES values: in int64 where
    the bound |y-coefficient| <= ||g||_1 2^(sum(n_i - 1)) stays below 2^63,
    in Python ints past that.

    This tests a conjecture; the result is reported, never asserted.
    """
    if not table.is_exact:
        return {"check": "positivity-signs", "space": table.space, "status": "not-applicable"}
    ls = np.array([bin(m).count("1") for m in table.masks])
    # s at every entry [v, d, w, u], in the order of mats.flat
    s = ls[:, None, None, None] + table.poset.fano_index * np.arange(table.D + 1)[:, None, None] + ls[:, None] + ls
    at, exps, coeffs = _terms(table.mats)
    entries, row = np.unique(at, return_inverse=True)
    sign, m, cf = 1 - 2 * (s.flat[entries] % 2), -exps, np.array(coeffs, dtype=object)
    bad = np.bincount(row[(m < 0).any(axis=1)], minlength=len(entries)) > 0
    keep = ~bad[row]
    # PT[j, i] = C(i, j) up to the largest box; each axis takes its corner
    top = int(m[keep].max(initial=0)) + 1
    PT = np.array([[comb(i, j) for i in range(top)] for j in range(top)], dtype=object)
    # the entries of each column M_v are a run of entries, transformed over
    # the box of that column's terms
    runs = np.searchsorted(entries, np.arange(table.k + 1) * table.mats[0].size).tolist()
    for start, stop in zip(runs, runs[1:]):
        first, last = np.searchsorted(row, [start, stop])
        n = (m[first:last][keep[first:last]].max(axis=0, initial=0) + 1).tolist()
        step = max(1, _BLOCK_ENTRIES // prod(n))
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            first, last = np.searchsorted(row, [lo, hi])
            # the block's sum of |coefficients| is at least each entry's ||g||_1;
            # below the bound every C(i, j) of the box fits in int64 too
            dtype = np.int64 if sum(map(abs, coeffs[first:last])) << (sum(n) - len(n)) < 1 << 63 else object
            t = first + np.flatnonzero(keep[first:last])
            # axes (n_1, ..., n_rank, entries); transforming the leading axis and
            # rotating it to the back ends with (entries, n_1, ..., n_rank)
            y = np.zeros((*n, hi - lo), dtype=dtype)
            y[(*m[t].T, row[t] - lo)] = cf[t]
            for size in n:
                y = (PT[:size, :size].astype(dtype) @ y.reshape(size, -1)).T
            bad[lo:hi] |= (y.reshape(hi - lo, -1) * sign[lo:hi, None] < 0).any(axis=1)
    v, d, w, u = (x.tolist() for x in np.unravel_index(entries[bad], table.mats.shape))
    rep = _report("positivity-signs", table, list(zip(u, v, w, d)), {"checked": len(entries)})
    rep["note"] = "conjectural sign condition, report only"
    return rep
