"""The table store: backend descriptors, the exact build's reach and the
table cache.

This module imports neither numpy nor the solver (`qkring`), so that a
query the cache answers loads neither: a product read decodes its one
column in pure Python.  Only a full-table read imports `qkring`, for
`MultTable`; `qkring` imports these names back.  The file's form is this
module's alone: it writes every table's JSON (table_json_obj), encodes and
decodes the entries, and checks what it reads.

A backend is the descriptor dict a table carries and its cache key is made
of (make_field).  Whether the exact backend reaches a space is known before
any work: its interpolation grid has one node more per variable than the
table's degree in x_i (exact_grid), and grid_refusal holds it against
_GRID_ENTRIES.

A cache file starts with one line of JSON, the table's table_json_obj()
without "mats", and the table's columns M_v follow it, v = 0, ..., k-1, so
that a query reads only the column it needs and decodes only the product
O^u * O^v it prints, mats[v][:, :, u].  An exact table's header has
"columns", the payload offsets of the k columns and of the payload's end;
column v is the JSON line of mats[v], the (D+1, k, k) layers of M_v.  A
mod-p table's header has "shape", and the array follows as raw
little-endian int64, column v in the v-th slab of 8(D+1)k^2 bytes.  A
product read checks the unit's seed in the column it reads, N^w_{1,v} in
its raw form, so that a zeroed or scaled file is a miss; whole tables are
judged by `verify`.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from array import array
from functools import cache
from itertools import accumulate
from math import prod

from .gamma import DEFAULT_PRIMES, GammaElement, GammaError, ZeroAssignment, default_assignments
from .poset import CominusculePoset, build_cominuscule

# ---------------------------------------------------------------------------
# Backends


def make_field(poset: CominusculePoset, backend="exact", seed=0) -> dict:
    """Resolve a backend name ("exact", "mod-p") or check a descriptor dict.

    The result is the descriptor a table carries and its cache key is made
    of: {"kind": "exact", "rank": r} or {"kind": "mod-p", "rank": r, "p": p,
    "assignment": [...]}, the residues of the x_i = e^{-alpha_i}.
    """
    rank = poset.rs.rank
    if backend == "mod-p":
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


def default_truncation(poset: CominusculePoset) -> int:
    """Smallest D whose certificate can hold: q-degrees reach d_max, and the
    certificate needs layers D-1 and D to vanish."""
    return poset.d_max + 2


# The exact build's solve keeps a few int64 arrays of (grid points, D+1, k, k)
# entries; past this many entries each of them would pass 64 MB.
_GRID_ENTRIES = 1 << 23


def exact_grid(poset: CominusculePoset) -> list:
    """Nodes per variable of the exact build's grid: one more than the
    table's degree in x_i (CominusculePoset.table_degrees)."""
    return [d + 1 for d in poset.table_degrees]


def grid_refusal(counts: list, D: int, k: int) -> str | None:
    """Why an exact build of k classes at truncation D cannot run on a grid
    of counts[i] nodes per variable, or None when the grid is in reach."""
    points = prod(counts)
    if points * (D + 1) * k * k > _GRID_ENTRIES:
        return f"exact interpolation needs a grid of {points} points; use the mod-p backend"
    return None


# ---------------------------------------------------------------------------
# Exact entries


@cache
def _zero(rank: int) -> GammaElement:
    """The zero that every zero entry of an exact table is: one object per
    rank, not one per entry (group-ring elements are never changed in place)."""
    return GammaElement.zero(rank)


def _decoded(entries: list, rank: int) -> list:
    """The GammaElements of a table's JSON entries: the JSON of that rank's
    zero is _zero(rank), and any other entry, one without "rank" too, goes
    through GammaElement.from_json_obj (looked up per call, so that a
    wrapper on the class attribute sees it)."""
    de, zero = GammaElement.from_json_obj, _zero(rank)
    blank = zero.to_json_obj()
    return [zero if x == blank else de(x) for x in entries]


# ---------------------------------------------------------------------------
# Table cache

# part of every cache key, so that no reader opens a file of another format
_CACHE_FORMAT = 3


def cache_key(space: str, D: int, backend: dict) -> str:
    blob = json.dumps([space, D, backend, _CACHE_FORMAT], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def cache_path(space: str, D: int, backend: dict, cache_dir: str) -> str:
    # perfbench/tracer.py recomputes this name to size the file a hit read
    return os.path.join(cache_dir, f"qk-{cache_key(space, D, backend)}.json")


def table_json_obj(table, **payload) -> dict:
    """A MultTable's JSON object: its space, D, backend and basis, the
    payload, then its flags.  The default payload is the whole table as
    "mats": residues (mod-p) or the entries' JSON (exact)."""
    if not payload:
        mats = table.mats.tolist()
        if table.is_exact:
            zero = _zero(table.poset.rs.rank).to_json_obj()
            mats = [[[[x.to_json_obj() if x.terms else zero for x in row] for row in mat] for mat in col] for col in mats]
        payload = {"mats": mats}
    return {"space": table.space, "D": table.D, "backend": table.backend, "masks": list(table.masks), **payload, "flags": table.flags}


def save_table(table, cache_dir: str) -> str:
    """Write the MultTable atomically; concurrent writers never share a temp file."""
    if table.is_exact:
        lines = [json.dumps(col).encode() + b"\n" for col in table_json_obj(table)["mats"]]
        head = table_json_obj(table, columns=list(accumulate(map(len, lines), initial=0)))
        payload = b"".join(lines)
    else:
        head = table_json_obj(table, shape=list(table.mats.shape))
        payload = table.mats.astype("<i8").tobytes()
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(table.space, table.D, table.backend, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".qk-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file owner-only; a shared cache needs open()'s mode
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(json.dumps(head).encode() + b"\n")
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_table(space: str, D: int, backend: dict, cache_dir: str, *, product: tuple[int, int] | None = None):
    """The cached MultTable, or with product=(u, v) only mats[v][:, :, u]
    as (D+1) lists c[d][w] of k coefficients, those of q^d O^w in
    O^u * O^v, read from M_v alone: GammaElements (exact) or residues
    (mod-p).  None when the file is missing, unreadable, cut short,
    malformed or keyed differently, when a mod-p column read holds a
    residue outside [0, p), or when a product read's column breaks the
    unit's seed; a basis mismatch raises QKRingError."""
    try:
        with open(cache_path(space, D, backend, cache_dir), "rb") as fh:
            obj = json.loads(fh.readline())
            if not isinstance(obj, dict) or obj.get("space") != space or obj.get("D") != D or obj.get("backend") != backend:
                return None
            # files that an older default rule fell back to carry
            # "exact_out_of_reach", which says nothing about their table
            flags = dict(obj.get("flags", {}))
            flags.pop("exact_out_of_reach", None)
            poset = build_cominuscule(space)
            if tuple(obj["masks"]) != poset.shape_masks:
                # the solver's error, loaded only when raised
                from .qkring import QKRingError

                raise QKRingError("cached table does not match the space basis")
            k, rank = len(poset.shape_masks), poset.rs.rank
            if product is not None and not all(0 <= i < k for i in product):
                raise IndexError(f"no product {product} in a table of {k} classes")
            vs = range(k) if product is None else range(product[1], product[1] + 1)
            start, size = fh.tell(), os.fstat(fh.fileno()).st_size
            if backend["kind"] == "exact":
                # k nonempty lines from the header to the end of the file,
                # each the (D+1, k, k) layers of its column
                ends = obj["columns"]
                if len(ends) != k + 1 or ends != sorted(set(ends)) or ends[0] != 0 or start + ends[-1] != size:
                    return None
                fh.seek(start + ends[vs[0]])
                cols = [json.loads(fh.read(ends[v + 1] - ends[v])) for v in vs]
                if any(len(col) != D + 1 or any(len(mat) != k or any(len(row) != k for row in mat) for mat in col)
                       for col in cols):
                    return None
            else:
                slab = 8 * (D + 1) * k * k
                if obj["shape"] != [k, D + 1, k, k] or size - start != k * slab:
                    return None
                fh.seek(start + vs[0] * slab)
                cols = fh.read(len(vs) * slab)
        if product is None:
            return _whole_table(poset, D, backend, flags, cols)
        u, v = product
        if backend["kind"] == "exact":
            # rows d k + w of M_v, left as JSON: only the printed entries are decoded
            col = [row for mat in cols[0] for row in mat]
            seed, one, zero = [row[0] for row in col], GammaElement.from_int(rank, 1).to_json_obj(), _zero(rank).to_json_obj()
        else:
            col = array("Q", cols)
            if sys.byteorder == "big":
                col.byteswap()
            # residues lie in [0, p); read unsigned, a negative one lies past p too
            if max(col) >= backend["p"]:
                return None
            # entry (d, w, u) of M_v sits at (d k + w) k + u
            seed, one, zero = col[::k], 1, 0
        # the unit's seed, O^1 * O^v = O^v: N^w_{1,v} is 1 at q^0 O^v and 0 elsewhere
        if seed[v] != one or seed.count(zero) != len(seed) - 1:
            return None
        c = _decoded([row[u] for row in col], rank) if backend["kind"] == "exact" else col[u::k].tolist()
        return [c[d * k:(d + 1) * k] for d in range(D + 1)]
    except (OSError, KeyError, TypeError, ValueError):
        return None


def _whole_table(poset: CominusculePoset, D: int, backend: dict, flags: dict, cols):
    """The MultTable of a cache file's payload: the k column lines of an
    exact table, the int64 bytes of a mod-p one (None when a residue lies
    outside [0, p)).  The solver's table, so this read loads numpy."""
    import numpy as np

    from .qkring import MultTable, _object_array

    k = len(poset.shape_masks)
    shape = (k, D + 1, k, k)
    if backend["kind"] == "exact":
        mats = _object_array(_decoded([x for col in cols for mat in col for row in mat for x in row], poset.rs.rank), shape)
    else:
        mats = np.frombuffer(cols, dtype="<i8").astype(np.int64, copy=False).reshape(shape)
        if (mats.view(np.uint64) >= backend["p"]).any():
            return None
    return MultTable(poset, D, backend, mats, flags)
