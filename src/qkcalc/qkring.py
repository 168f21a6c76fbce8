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

Both backends run one solve: mod p, batched over evaluation points that send
each x_i = e^{-alpha_i} to a nonzero residue.  The mod-p backend is a single
point.  The exact backend rebuilds every constant, a polynomial in the x_i
with small integer coefficients, by dense interpolation (Brown's modular
method): line probes through a random point find the degree in each x_i,
doubling their node count until the interpolant's degree falls below it
(early termination, after Kaltofen and Lee); the solve runs on the tensor grid
of that many random nonzero nodes per variable; the inverse Vandermonde
matrix of each axis turns values into coefficients, lifted to the symmetric
range (-p/2, p/2).  The candidate is then certified exactly: M_v L = L M_v
(verify_ms_equations) and M_v e_1 = e_v (the identity row).  L is cyclic, so
its commutant holds exactly one operator sending e_1 to e_v, and a candidate
that passes is the true table whatever the degree box or the prime.  A failed
certificate redraws the nodes once with a doubled box; a second failure
raises QKRingError.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from itertools import product as iproduct
from math import comb, prod
from typing import Callable, NamedTuple

import numpy as np

from .gamma import (
    DEFAULT_PRIMES,
    GammaElement,
    GammaError,
    QPolynomial,
    ZeroAssignment,
    default_assignments,
    exact_divide,  # noqa: F401  perfbench/tracer.py counts calls through this name
)
from .chevalley import j_class, j_weight, sgamma_star
from .poset import CominusculePoset, build_cominuscule


class QKRingError(Exception):
    pass


class SingularKrylov(QKRingError):
    """The q-constant Krylov matrix failed to invert at an evaluation point.

    At a fixed mod-p assignment this is an error; at the random nodes of an
    exact build it means two J_u coincide there, and the nodes are redrawn.
    """


class TruncationTooSmall(QKRingError):
    """Stabilization certificate failed; rerun with a larger truncation."""


# ---------------------------------------------------------------------------
# Divisor operator


@dataclass
class DivisorOperator:
    """Matrix of O^{s_gamma} * (.) in the Schubert basis, split by q-degree.

    layer0/layer1 are k x k nested lists (rows w, columns u) over the group
    ring; all higher layers vanish by the Chevalley theorem.  ``layers`` stacks
    them into the array L[d, w, u].
    """

    poset: CominusculePoset
    layer0: list
    layer1: list

    @property
    def k(self) -> int:
        return len(self.poset.shape_masks)

    @property
    def layers(self) -> np.ndarray:
        """layer0 and layer1 as one (2, k, k) object array."""
        return _object_array([g for lay in (self.layer0, self.layer1) for row in lay for g in row], (2, self.k, self.k))


def _object_array(items: list, shape) -> np.ndarray:
    # filling a flat array is several times faster than np.array on nested lists
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out.reshape(shape)


def _eval_array(G: np.ndarray, p: int, nodes: np.ndarray) -> np.ndarray:
    """The group-ring array G at every row of nodes, the residues of the
    x_i = e^{-alpha_i}: an int64 array of shape (len(nodes), *G.shape)."""
    terms = [(at, e, c) for at, g in enumerate(G.flat) for e, c in g.terms.items()]
    out = np.zeros((len(nodes), G.size), dtype=np.int64)
    if terms:
        at, lams, coeffs = zip(*terms)
        val = np.array(coeffs, dtype=np.int64) % p
        # e^{lam} = prod x_i^{-lam_i}
        for xs, lam in zip(nodes.T.tolist(), zip(*lams)):
            exps, inv = np.unique(lam, return_inverse=True)
            powers = np.array([[pow(x, -int(e), p) for e in exps] for x in xs], dtype=np.int64)
            val = val * powers[:, inv] % p
        np.add.at(out, (slice(None), at), val)
    return (out % p).reshape(len(nodes), *G.shape)


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


def make_field(poset: CominusculePoset, backend="exact", seed=0) -> dict:
    """Resolve a backend name ("exact", "mod-p") or check a descriptor dict.

    The result is the descriptor a table carries and its cache key is made
    of: {"kind": "exact", "rank": r} or {"kind": "mod-p", "rank": r, "p": p,
    "assignment": [...]}, the residues of the x_i = e^{-alpha_i}.
    """
    rank = poset.rs.rank
    if backend in ("mod-p", "modp"):
        p = DEFAULT_PRIMES[0]
        backend = {"kind": "mod-p", "p": p, "assignment": default_assignments(rank, p, 1, seed)[0]}
    if backend == "exact" or isinstance(backend, dict) and backend.get("kind") == "exact":
        return {"kind": "exact", "rank": rank}
    if not isinstance(backend, dict) or backend.get("kind") != "mod-p":
        raise ValueError(f"unknown backend {backend!r}")
    p, assignment = backend["p"], backend["assignment"]
    if len(assignment) != rank:
        raise GammaError("assignment length does not match rank")
    if any(t % p == 0 for t in assignment):
        raise ZeroAssignment("mod-p assignment contains a zero residue")
    # cache files write the keys in this order
    return {"kind": "mod-p", "rank": rank, "p": p, "assignment": [t % p for t in assignment]}


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


class _ModPSolver:
    """Krylov data of one space and truncation at n evaluation points.

    nodes[j] holds the residues of x_1, ..., x_rank at point j; the mod-p
    backend is the case n = 1.  M_v K = W_v, where column i of W_v is
    L^i e_v, so M_v = W_v K^{-1}: the solver keeps K^{-1} and builds W_v only
    for the columns asked for.
    """

    def __init__(self, dv: DivisorOperator, D: int, p: int, nodes: np.ndarray):
        self.D, self.p, self.k = D, p, dv.k
        k, n = dv.k, len(nodes)
        # rows 0..k-1 hold L's q^0 layer, rows k..2k-1 its q^1 layer
        self.L = _eval_array(dv.layers, p, nodes).reshape(n, 2 * k, k)
        # Krylov layers: column i of K is L^i e_1 (e_1 = the identity class).
        K = self._krylov([0])[:, :, 0].transpose(0, 2, 1, 3)
        C0 = _inverse_mod(K[:, 0], p)
        C = [C0]
        for d in range(1, D + 1):
            S = sum(_matmul_mod(K[:, a], C[d - a], p) for a in range(1, d + 1)) % p
            C.append(-_matmul_mod(C0, S, p) % p)
        # Ct[j, d] = layer d of K^{-1} at point j, transposed
        self.Ct = np.stack([c.swapaxes(1, 2) for c in C], axis=1)

    def _krylov(self, vs) -> np.ndarray:
        """W[j, w, v, d, i] = layer d of (L^i e_v)_w at point j, mod q^{D+1}."""
        n, k, D, p = len(self.L), self.k, self.D, self.p
        W = np.zeros((n, k, len(vs), D + 1, k), dtype=np.int64)
        W[:, vs, range(len(vs)), 0, 0] = 1
        for i in range(1, k):
            Y = _matmul_mod(self.L, W[..., i - 1].reshape(n, k, -1), p).reshape(n, 2, k, len(vs), D + 1)
            W[..., i] = Y[:, 0]
            W[..., 1:, i] += Y[:, 1, ..., :-1]
            W[..., i] %= p
        return W

    def columns(self, vs) -> np.ndarray:
        """Layers of M_v = W_v K^{-1} mod q^{D+1} for each v in vs at every
        point: M[j, v, d, w, u]."""
        n, k, D, p = len(self.L), self.k, self.D, self.p
        # transposed, M_v^T = K^{-T} W_v^T with the (w, v) pairs as columns:
        # one matmul per point and pair of layers, whose left factor is small
        Wt = self._krylov(vs).transpose(0, 3, 4, 1, 2).reshape(n, D + 1, k, k * len(vs))
        Mt = np.zeros((n, D + 1, k, k * len(vs)), dtype=np.int64)
        for a in range(D + 1):
            for b in range(D + 1 - a):
                Mt[:, a + b] += _matmul_mod(self.Ct[:, b], Wt[:, a], p)
        return (Mt % p).reshape(n, D + 1, k, k, len(vs)).transpose(0, 4, 1, 3, 2)


# ---------------------------------------------------------------------------
# Exact tables from mod-p evaluations


def _interpolation_matrix(xs: list, p: int) -> np.ndarray:
    """Inverse of the Vandermonde matrix V[a, j] = xs[a]^j: values at the
    nodes xs to coefficients of 1, x, x^2, ..."""
    V = np.ones((len(xs), len(xs)), dtype=np.int64)
    for j in range(1, len(xs)):
        V[:, j] = V[:, j - 1] * xs % p
    return _inverse_mod(V, p)


def _degree_probe(dv: DivisorOperator, D: int, p: int, rng: random.Random) -> list:
    """Nodes per variable for dense interpolation: one more than the table's
    degree in x_i, read off a line through a random point whose node count
    doubles until the interpolant's degree falls below it."""
    rank = dv.poset.rs.rank
    base = [rng.randrange(1, p) for _ in range(rank)]
    counts = []
    for i in range(rank):
        # a constant that is not a polynomial in x_i would never terminate
        for t in (2, 4, 8, 16, 32, 64, 128):
            xs = rng.sample(range(1, p), t)
            nodes = np.array([base[:i] + [x] + base[i + 1:] for x in xs], dtype=np.int64)
            solver, Vinv = _ModPSolver(dv, D, p, nodes), _interpolation_matrix(xs, p)
            deg = max(
                np.flatnonzero(_matmul_mod(Vinv, solver.columns([v]).reshape(t, -1), p).any(axis=1))[-1]
                for v in range(dv.k)
            )
            if deg < t - 1:
                break
            # x_i needs at least t nodes: stop once that is out of reach
            _check_grid(counts + [t], D, dv.k)
        else:
            raise QKRingError(f"table degree in x_{i + 1} exceeds {t - 2}")
        counts.append(int(deg) + 1)
    return counts


# The solve keeps a few int64 arrays of (grid points, D+1, k, k) entries;
# past this many entries each of them would pass 64 MB.
_GRID_ENTRIES = 1 << 23


def _check_grid(counts: list, D: int, k: int) -> None:
    """Refuse a grid of at least prod(counts) points that is out of reach; the
    probe checks its lower bounds as it goes, so it stops as soon as it knows."""
    if prod(counts) * (D + 1) * k * k > _GRID_ENTRIES:
        raise QKRingError(f"exact interpolation needs a grid of at least {prod(counts)} points; use the mod-p backend")


def _interpolated_columns(dv: DivisorOperator, D: int, counts: list, p: int, rng: random.Random):
    """Layers C[d, w, u] of every M_v over the group ring, interpolated from
    the solve on a grid of counts[i] random nonzero nodes per variable, one v
    at a time."""
    rank, k = dv.poset.rs.rank, dv.k
    _check_grid(counts, D, k)
    axes = [rng.sample(range(1, p), n) for n in counts]
    inverses = [_interpolation_matrix(xs, p) for xs in axes]
    solver = _ModPSolver(dv, D, p, np.array(list(iproduct(*axes)), dtype=np.int64))
    for v in range(k):
        # axes (n_1, ..., n_rank, entries); transforming the leading axis and
        # rotating it to the back ends with (entries, n_1, ..., n_rank)
        c = solver.columns([v]).reshape(*counts, -1)
        for n, Vinv in zip(counts, inverses):
            c = _matmul_mod(Vinv, c.reshape(n, -1), p).T
        c = c.reshape(-1, prod(counts))
        c = np.where(c > p // 2, c - p, c)
        entry, mono = np.nonzero(c)
        terms = [{} for _ in range(len(c))]
        # the coefficient of x^j is that of e^{-j}
        exps = (-np.stack(np.unravel_index(mono, counts), axis=1)).tolist()
        for t, e, x in zip(entry.tolist(), exps, c[entry, mono].tolist()):
            terms[t][tuple(e)] = x
        yield _object_array([GammaElement(rank, t) for t in terms], (D + 1, k, k))


def _certified(table: MultTable) -> bool:
    """M_v e_1 = e_v and M_v L = L M_v, exactly: only the true table passes."""
    try:
        _check_identity_row(table)
    except QKRingError:
        return False
    return verify_ms_equations(table)["status"] == "pass"


def _exact_table(poset: CominusculePoset, dv: DivisorOperator, D: int, backend: dict) -> MultTable:
    """Probe, interpolate and certify; on failure redraw once with a doubled box."""
    p = DEFAULT_PRIMES[0]
    rng = random.Random(f"nodes:{poset.space}:{D}")
    counts = None
    for _ in range(2):
        try:
            counts = _degree_probe(dv, D, p, rng) if counts is None else [2 * n for n in counts]
            table = _assemble(poset, D, backend, np.stack(list(_interpolated_columns(dv, D, counts, p, rng))))
        except SingularKrylov:
            continue
        if _certified(table):
            return table
    raise QKRingError("interpolated table failed its exact certificate")


# ---------------------------------------------------------------------------
# Full tables


@dataclass
class MultTable:
    """All structure constants N^{w,d}_{u,v} of one space, mod q^{D+1}.

    mats[v, d, w, u] holds the coefficient of q^d O^w in O^u * O^v, in an
    array of shape (k, D+1, k, k): GammaElement objects (exact backend) or
    int64 residues (mod-p backend).
    """

    space: str
    D: int
    backend: dict
    masks: tuple
    mats: np.ndarray
    poset: CominusculePoset | None = None
    flags: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.masks)

    @property
    def is_exact(self) -> bool:
        return self.backend.get("kind") == "exact"

    def entry(self, u: int, v: int, w: int):
        layers = self.mats[v, :, w, u].tolist()
        if self.is_exact:
            rank = self.poset.rs.rank if self.poset else layers[0].rank
            return QPolynomial(rank, layers)
        return tuple(layers)

    def classical(self, u: int, v: int, w: int):
        return self.mats[v, 0, w, u]

    def to_json_obj(self) -> dict:
        mats = self.mats.tolist()
        if self.is_exact:
            mats = [[[[x.to_json_obj() for x in row] for row in mat] for mat in layers] for layers in mats]
        return self._json_obj(mats=mats)

    def _json_obj(self, **payload) -> dict:
        return {
            "space": self.space,
            "D": self.D,
            "backend": self.backend,
            "masks": list(self.masks),
            **payload,
            "flags": self.flags,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "MultTable":
        """The table of to_json_obj's output; a mod-p "mats" may also be an
        int64 array, which is used as it is, without a copy."""
        poset = build_cominuscule(obj["space"])
        if tuple(obj["masks"]) != poset.shape_masks:
            raise QKRingError("cached table does not match the space basis")
        k = len(poset.shape_masks)
        if obj["backend"].get("kind") == "exact":
            # looked up per call, so that a wrapper on the class attribute sees it
            de = GammaElement.from_json_obj
            flat = [de(x) for layers in obj["mats"] for mat in layers for row in mat for x in row]
            mats = _object_array(flat, (k, -1, k, k))
        else:
            mats = np.asarray(obj["mats"], dtype=np.int64)
        if mats.shape != (k, obj["D"] + 1, k, k):
            raise ValueError(f"table array of shape {mats.shape} for k={k}, D={obj['D']}")
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
    bound d_max.  An exact table is interpolated from mod-p solves and
    certified exactly (see the module docstring).
    """
    if D is None:
        D = default_truncation(poset)
    if D < 2:
        raise ValueError("truncation must be at least 2 for the certificate")
    backend = make_field(poset, backend)
    dv = divisor_matrix(poset)
    if backend["kind"] == "exact":
        return _exact_table(poset, dv, D, backend)
    solver = _ModPSolver(dv, D, backend["p"], np.array([backend["assignment"]], dtype=np.int64))
    table = _assemble(poset, D, backend, solver.columns(range(dv.k))[0])
    _check_identity_row(table)
    return table


def _assemble(poset: CominusculePoset, D: int, backend: dict, mats: np.ndarray) -> MultTable:
    """The table of the layers mats[v, d, w, u], once its top two layers vanish."""
    for d in (D - 1, D):
        if mats[:, d].any():
            raise TruncationTooSmall(f"nonzero coefficient at q^{d} with truncation {D}")
    return MultTable(
        space=str(poset.space),
        D=D,
        backend=backend,
        masks=poset.shape_masks,
        mats=mats,
        poset=poset,
        flags={"stabilized": True},
    )


def _check_identity_row(table: MultTable) -> None:
    # O^1 is the unit: column u = identity of M_v must be e_v in layer 0.
    col = table.mats[..., 0]
    unit = np.zeros(col.shape, dtype=bool)
    unit[:, 0] = np.eye(table.k, dtype=bool)
    if not (col[unit] == _ring(table).one).all() or col[~unit].astype(bool).any():
        raise QKRingError("identity row broken")


def modp_tables(poset: CominusculePoset, D: int | None = None, primes: int = 2, assignments: int = 2, seed: int = 0) -> list:
    """One table per evaluation: `assignments` default assignments for each of
    the first `primes` default primes; checks must agree on all."""
    rank = poset.rs.rank
    return [
        full_table(poset, D, {"kind": "mod-p", "p": p, "assignment": asg})
        for p in DEFAULT_PRIMES[:primes]
        for asg in default_assignments(rank, p, assignments, seed)
    ]


def tables_agree(exact: MultTable, modp: MultTable) -> bool:
    """Evaluate the exact table through the mod-p assignment and compare."""
    return bool((_ring(modp).image(exact.mats) == modp.mats).all())


def specialize(table: MultTable, mode: str) -> MultTable:
    """Coefficient-wise ring maps: 'q0' kills q, 'nonequivariant' sends e^l to 1."""
    if mode == "q0":
        return MultTable(
            space=table.space,
            D=0,
            backend=dict(table.backend, specialized="q0"),
            masks=table.masks,
            mats=table.mats[:, :1],
            poset=table.poset,
            flags={"specialized": "q0"},
        )
    if mode == "nonequivariant":
        if not table.is_exact:
            raise QKRingError("nonequivariant specialization needs the exact backend")
        mats = np.array([sum(x.terms.values()) for x in table.mats.flat], dtype=np.int64)
        return MultTable(
            space=table.space,
            D=table.D,
            backend={"kind": "nonequivariant"},
            masks=table.masks,
            mats=mats.reshape(table.mats.shape),
            poset=table.poset,
            flags={"specialized": "nonequivariant"},
        )
    raise ValueError(f"unknown specialization {mode!r}")


# ---------------------------------------------------------------------------
# Verification suites: one body each, over the table's coefficient ring


class _Ring(NamedTuple):
    one: object
    image: Callable  # group-ring object array -> array over the ring
    matmul: Callable  # matrix product of two 2-d arrays over the ring


def _ring(table: MultTable) -> _Ring:
    """The group ring itself for an exact table; F_p through the table's
    assignment for a mod-p one.  Other tables (a nonequivariant
    specialization, say) have no divisor image to check against."""
    kind = table.backend.get("kind")
    if kind == "exact":
        zero = GammaElement.zero(table.poset.rs.rank)
        return _Ring(GammaElement.from_int(zero.rank, 1), lambda G: G, lambda A, B: _group_ring_matmul(A, B, zero))
    if kind == "mod-p":
        p = table.backend["p"]
        node = np.array([table.backend["assignment"]], dtype=np.int64)
        return _Ring(1, lambda G: _eval_array(G, p, node)[0], lambda A, B: _matmul_mod(A, B, p))
    raise QKRingError(f"no coefficient ring to verify a {kind!r} table over")


def _group_ring_matmul(A: np.ndarray, B: np.ndarray, zero: GammaElement) -> np.ndarray:
    """A @ B for object arrays over the group ring, skipping zero entries."""
    rows = [[(j, y) for j, y in enumerate(brow) if y] for brow in B.tolist()]
    out = []
    for arow in A.tolist():
        acc = [zero] * B.shape[1]
        for x, brow in zip(arow, rows):
            if x:
                for j, y in brow:
                    acc[j] = x * y if acc[j] is zero else acc[j] + x * y
        out.extend(acc)
    return _object_array(out, (A.shape[0], B.shape[1]))


def _lay_mul(A: np.ndarray, B: np.ndarray, matmul: Callable) -> np.ndarray:
    """Product of two matrices over ring[q] given by their layers, A (a, k, m)
    and B (b, m, n): layer d is [A_i ...] @ [B_{d-i}; ...] over the i with
    both layers nonzero."""
    nz_a = np.flatnonzero(A.astype(bool).any(axis=(1, 2)))
    nz_b = B.astype(bool).any(axis=(1, 2))
    out = []
    for d in range(len(A) + len(B) - 1):
        i = nz_a[(nz_a <= d) & (nz_a > d - len(B))]
        i = i[nz_b[d - i]]
        out.append(matmul(A[i].transpose(1, 0, 2).reshape(A.shape[1], -1), B[d - i].reshape(-1, B.shape[2])))
    return np.stack(out)


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
    """Layers of the stack [M_v; ...] of X[v, d, w, u], rows (v, w)."""
    return X.transpose(1, 0, 2, 3).reshape(X.shape[1], -1, X.shape[3])


def _cols(X: np.ndarray) -> np.ndarray:
    """Layers of the block row [M_v ...] of X[v, d, w, u], columns (v, u)."""
    return X.transpose(1, 2, 0, 3).reshape(X.shape[1], X.shape[2], -1)


def verify_ms_equations(table: MultTable) -> dict:
    """Check both generalized Molev-Sagan identities on every triple (u,v,w).

    With beta = gamma the three sums are, over u', w', v' respectively,
    sum N^{u'}_{s,u} D^w_{u',v} = sum N^w_{s,w'} D^{w'}_{u,v} = sum N^{v'}_{s,v} D^w_{u,v'}.
    They are three layered products: M_v L and L M_v for all v at once, and
    S L for the stack S[d][(w, u), v'] = M_v'.
    """
    _, image, matmul = _ring(table)
    # the divisor mod q^{D+1}: a q = 0 specialization (D = 0) keeps only L_0
    L = image(divisor_matrix(table.poset).layers)[: table.D + 1]
    C, k = table.mats, table.k
    left = _lay_mul(_rows(C), L, matmul).reshape(-1, k, k, k)
    mid = _lay_mul(L, _cols(C), matmul).reshape(-1, k, k, k).transpose(0, 2, 1, 3)
    S = C.transpose(1, 2, 3, 0).reshape(C.shape[1], k * k, k)
    right = _lay_mul(S, L, matmul).reshape(-1, k, k, k).transpose(0, 3, 1, 2)
    # bad[u, v, w]: some layer of some identity fails
    bad = ((left != mid) | (mid != right)).any(axis=0).transpose(2, 0, 1)
    return _report("ms-equations", table, [tuple(t) for t in np.argwhere(bad).tolist()], {"triples": k**3})


def verify_associativity(table: MultTable) -> dict:
    """Symmetry plus commuting multiplication operators.

    Once N^w_{u,v} = N^w_{v,u} holds, (O^u * O^v) * O^w = O^u * (O^v * O^w)
    for all triples is equivalent to [M_u, M_w] = 0 for all pairs.
    """
    matmul = _ring(table).matmul
    C, k = table.mats, table.k
    # asym[u, v, w]: N^w_{u,v} != N^w_{v,u} in some layer
    asym = (C != C.transpose(3, 1, 2, 0)).any(axis=1).transpose(2, 0, 1)
    failures = [("symmetry", u, v, w) for u, v, w in np.argwhere(asym).tolist() if u < v]
    # M_u against every later M_w at once: M_u [M_w ...] and [M_w; ...] M_u
    for u in range(k - 1):
        rest = C[u + 1:]
        uw = _lay_mul(C[u], _cols(rest), matmul).reshape(-1, k, len(rest), k).transpose(0, 2, 1, 3)
        wu = _lay_mul(_rows(rest), C[u], matmul).reshape(-1, len(rest), k, k)
        bad = (uw != wu).any(axis=(0, 2, 3))
        failures += [("commutator", u, w) for w in (u + 1 + np.flatnonzero(bad)).tolist()]
    return _report("associativity", table, failures, {"pairs": k * (k - 1) // 2})


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
    for v, layers in enumerate(table.mats.tolist()):
        for d, mat in enumerate(layers):
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
#
# A cache file starts with one line of JSON, the table's to_json_obj().  An
# exact table is that line alone.  A mod-p table's line has "shape" in place
# of "mats", and the array follows the newline as raw little-endian int64.

# part of every cache key, so that no reader opens a file of another format
_CACHE_FORMAT = 2


def cache_key(space: str, D: int, backend: dict) -> str:
    blob = json.dumps([space, D, backend, _CACHE_FORMAT], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def cache_path(space: str, D: int, backend: dict, cache_dir: str) -> str:
    # perfbench/tracer.py recomputes this name to size the file a hit read
    return os.path.join(cache_dir, f"qk-{cache_key(space, D, backend)}.json")


def save_table(table: MultTable, cache_dir: str) -> str:
    """Write the table atomically; concurrent writers never share a temp file."""
    if table.is_exact:
        head, payload = table.to_json_obj(), b""
    else:
        head = table._json_obj(shape=list(table.mats.shape))
        payload = b"\n" + np.ascontiguousarray(table.mats, dtype="<i8").tobytes()
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(table.space, table.D, table.backend, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".qk-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file owner-only; a shared cache needs open()'s mode
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(json.dumps(head).encode())
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_table(space: str, D: int, backend: dict, cache_dir: str) -> MultTable | None:
    """The cached table, or None when it is missing, unreadable, cut short,
    malformed or keyed differently; a basis mismatch raises QKRingError."""
    try:
        with open(cache_path(space, D, backend, cache_dir), "rb") as fh:
            obj = json.loads(fh.readline())
            if not isinstance(obj, dict):
                return None
            if obj.get("space") != space or obj.get("D") != D or obj.get("backend") != backend:
                return None
            if backend["kind"] != "exact":
                shape = obj["shape"]
                payload = fh.read()
                if len(payload) != 8 * prod(shape):
                    return None
                obj["mats"] = np.frombuffer(payload, dtype="<i8").reshape(shape)
        return MultTable.from_json_obj(obj)
    except (OSError, KeyError, TypeError, ValueError):
        return None
