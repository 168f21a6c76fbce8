"""Command line front end.

Subcommands: describe, chevalley, product, table, verify, dual, nbhd.
Output formats: text (default), latex, json.  Exit codes: 0 ok, 1 any hard
verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .chevalley import j_class, j_weight, qkt_chevalley, sgamma_star
from .gamma import QPolynomial
from .poset import (
    InvalidShape,
    NotContained,
    ParseError,
    Shape,
    build_cominuscule,
    eps_string,
)
from .store import cache_path, default_truncation, exact_grid, grid_refusal, load_table, make_field, save_table

# the solver's names, bound in this module on first use (PEP 562), so that
# a query the cache answers loads neither numpy nor qkring; a name already
# bound here, a wrapper or a test's stand-in, is kept
_SOLVER_NAMES = (
    "full_table", "modp_tables", "tables_agree",
    "verify_associativity", "verify_ms_equations", "verify_positivity_signs",
)


def _solver() -> None:
    from . import qkring

    for name in _SOLVER_NAMES:
        globals().setdefault(name, getattr(qkring, name))


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        _solver()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

CACHE_ENV = "QKCALC_CACHE_DIR"


def _default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qkcalc")


# ---------------------------------------------------------------------------
# rendering


def _gamma_coeff(g, poset, fmt: str) -> str:
    """Render a Gamma element as a sum of [C_w] characters."""
    if g.is_zero():
        return "0"
    times = "\\," if fmt == "latex" else "*"
    bits = []
    for e, c in g.sorted_terms():
        if not any(e):
            ch = "1"
        elif fmt == "latex":
            ch = "[{\\mathbb C}_{%s}]" % eps_string(poset, e, fmt)
        else:
            ch = f"[C_{{{eps_string(poset, e)}}}]"
        if c in (1, -1):
            term = ch if c == 1 else "-" + ch
        else:
            term = f"{c}{times}{ch}"
        bits.append(term if not bits or term.startswith("-") else "+" + term)
    return "".join(bits)


def _shape_name(poset, mask: int) -> str:
    return "(" + poset.format_shape(Shape(poset, mask)) + ")"


def _render_product(poset, lhs: str, items, fmt: str) -> str:
    """Render `lhs` = the quantum K class `items`, one q^d O^w term a line."""
    basis = "{\\mathcal O}^" if fmt == "latex" else "O^"
    order = {m: i for i, m in enumerate(poset.shape_masks)}
    terms = []
    for mask, poly in sorted(items, key=lambda kv: order[kv[0]]):
        name = _shape_name(poset, mask)
        if fmt == "latex":
            name = "{%s}" % name
        for d, g in enumerate(poly.coeffs):
            if g.is_zero():
                continue
            qpart = "" if d == 0 else ("q" if d == 1 else f"q^{d}")
            terms.append(" ".join(x for x in (f"({_gamma_coeff(g, poset, fmt)})", qpart, basis + name) if x))
    return f"{lhs} =\n  " + ("\n  + ".join(terms) if terms else "0")


def _json_qkclass(items) -> list:
    return [[mask, poly.to_json_obj()] for mask, poly in sorted(items)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_describe(args) -> int:
    poset = build_cominuscule(args.space)
    if args.format == "json":
        obj = {
            "space": str(poset.space),
            "boxes": poset.n_boxes,
            "classes": len(poset.shape_masks),
            "d_max": poset.d_max,
            "fano_index": poset.fano_index,
            "shapes": [poset.format_shape(s) for s in poset.shapes()],
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(poset.describe())
    return EXIT_OK


def _cmd_chevalley(args) -> int:
    poset = build_cominuscule(args.space)
    u = poset.parse_shape(args.shape)
    jw = j_weight(poset, u.mask)
    ju = j_class(poset, u.mask)
    jstar = qkt_chevalley(poset, u.mask)
    sstar = sorted(sgamma_star(poset, u.mask).items())
    if args.format == "json":
        obj = {
            "space": str(poset.space),
            "u": poset.format_shape(u),
            "J_u": ju.to_json_obj(),
            "J_star_Ou": _json_qkclass(jstar),
            "sgamma_star_Ou": _json_qkclass(sstar),
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
        return EXIT_OK
    fmt = args.format
    uname = poset.format_shape(u)
    if fmt == "latex":
        header = "%% %s, u = (%s), J_u = [{\\mathbb C}_{%s}]" % (
            poset.space,
            uname,
            eps_string(poset, tuple(-x for x in jw), fmt),
        )
        lhs1 = "J \\star {\\mathcal O}^{(%s)}" % uname
        lhs2 = "{\\mathcal O}^{s_\\gamma} \\star {\\mathcal O}^{(%s)}" % uname
    else:
        header = "space %s, u = (%s), J_u = [C_{%s}]" % (
            poset.space,
            uname,
            eps_string(poset, tuple(-x for x in jw)),
        )
        lhs1 = f"J * O^({uname})   [every coefficient times J_u]"
        lhs2 = f"O^(s_gamma) * O^({uname})"
    print(header)
    print(_render_product(poset, lhs1, [(m, _shift_all(p, jw)) for m, p in jstar], fmt))
    print(_render_product(poset, lhs2, sstar, fmt))
    return EXIT_OK


def _shift_all(poly: QPolynomial, offset) -> QPolynomial:
    return QPolynomial(poly.rank, [c.shifted(offset) for c in poly.coeffs])


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _load_or_build_table(args, poset, product=None) -> tuple:
    """The table's backend descriptor and the table, or with product=(u, v)
    only the coefficients c[d][w] of q^d O^w in O^u * O^v, as lists: read
    from the cache when its file answers, else built, saved and sliced."""
    # q-degrees reach d_max (BCMP), so the truncation is known before any
    # work: --qmax, doubled at most three times towards the default, whose
    # certificate fails if it is still short
    bound = default_truncation(poset)
    qmax = args.qmax if args.qmax is not None else bound
    D = next((qmax << i for i in range(3) if qmax << i >= bound), qmax << 3)
    cache_dir = args.cache_dir or _default_cache_dir()
    # so is the exact grid: without --backend, exact where it is in reach and
    # mod-p past it, one backend and one cache file
    refusal = None if args.backend else grid_refusal(exact_grid(poset), D, len(poset.shape_masks))
    desc = make_field(poset, args.backend or ("mod-p" if refusal else "exact"), seed=args.seed)
    space = str(poset.space)
    cached = load_table(space, D, desc, cache_dir, product=product)
    if cached is not None:
        return desc, cached
    path = cache_path(space, D, desc, cache_dir)
    if os.path.exists(path):
        _warn(f"ignoring unreadable cache file {path}")
    if refusal:
        _warn(f"exact table out of reach, building mod-p: {refusal}")
    _solver()
    table = full_table(poset, D=D, backend=desc)
    try:
        save_table(table, cache_dir)
    except OSError as e:
        _warn(f"table not cached: {e}")
    if product is None:
        return desc, table
    u, v = product
    return desc, table.mats[v][:, :, u].tolist()


def _cmd_product(args) -> int:
    poset = build_cominuscule(args.space)
    u = poset.parse_shape(args.shape_u)
    v = poset.parse_shape(args.shape_v)
    backend, c = _load_or_build_table(args, poset, product=(poset.index_of(u), poset.index_of(v)))
    exact = backend["kind"] == "exact"
    items = []
    # c[d][w] is the coefficient of q^d O^w in O^u * O^v
    for mask, val in zip(poset.shape_masks, zip(*c)):
        if exact:
            val = QPolynomial(poset.rs.rank, val)
            if not val.is_zero():
                items.append((mask, val))
        elif any(val):
            items.append((mask, val))
    if args.format == "json":
        obj = {
            "space": str(poset.space),
            "u": poset.format_shape(u),
            "v": poset.format_shape(v),
            "backend": backend,
            "product": _json_qkclass(items)
            if exact
            else [[m, list(t)] for m, t in sorted(items)],
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
        return EXIT_OK
    if not exact:
        print(f"# mod-p table {backend}")
        for m, t in items:
            print(f"O^{_shape_name(poset, m)}: {list(t)}")
        return EXIT_OK
    lhs = f"O^({poset.format_shape(u)}) * O^({poset.format_shape(v)})"
    if args.format == "latex":
        lhs = "{\\mathcal O}^{(%s)} \\star {\\mathcal O}^{(%s)}" % (
            poset.format_shape(u),
            poset.format_shape(v),
        )
    print(_render_product(poset, lhs, items, args.format))
    return EXIT_OK


def _cmd_table(args) -> int:
    poset = build_cominuscule(args.space)
    _, table = _load_or_build_table(args, poset)
    k = table.k
    nonzero = int(table.mats.astype(bool).any(axis=1).sum())
    if args.format == "json":
        print(json.dumps(table.to_json_obj(), sort_keys=True))
    else:
        print(
            f"table {poset.space}: k={k}, qmax={table.D}, "
            f"backend={table.backend['kind']}, nonzero constants={nonzero}"
        )
    return EXIT_OK


def _cmd_dual(args) -> int:
    poset = build_cominuscule(args.space)
    u = poset.parse_shape(args.shape)
    print(poset.format_shape(poset.dual(u)))
    return EXIT_OK


def _cmd_nbhd(args) -> int:
    poset = build_cominuscule(args.space)
    u = poset.parse_shape(args.shape)
    print(poset.format_shape(poset.curve_nbhd(u, args.degree)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _suite_chevalley(poset, args, table) -> list[dict]:
    from .chevalley import chev_constants_closed

    failures = 0
    for mask in poset.shape_masks:
        closed = chev_constants_closed(poset, mask)
        star = sgamma_star(poset, mask)
        keys = set(closed) | set(star)
        for m in keys:
            a = closed.get(m)
            b = star.get(m)
            if (a is None) != (b is None) or (a is not None and a != b):
                failures += 1
    return [
        {
            "check": "chevalley-closed-form",
            "space": str(poset.space),
            "status": "pass" if failures == 0 else "fail",
            "failure_count": failures,
        }
    ]


def _suite_ktchev2(poset, args, table) -> list[dict]:
    from .oracles import verify_ktchev2

    return [verify_ktchev2(poset)]


def _suite_lg_oracle(poset, args, table) -> list[dict]:
    from .oracles import verify_lg_oracle

    return [verify_lg_oracle(poset)]


def _suite_table(poset, args, table) -> list[dict]:
    _solver()
    table = table()
    reports = [
        verify_ms_equations(table),
        verify_associativity(table),
    ]
    if table.is_exact:
        agree = tables_agree(table, *modp_tables(poset, D=table.D, seed=args.seed))
        reports.append(
            {
                "check": "backend-agreement",
                "space": str(poset.space),
                "status": "pass" if agree else "fail",
            }
        )
    return reports


def _suite_positivity(poset, args, table) -> list[dict]:
    _solver()
    return [verify_positivity_signs(table())]


def _suite_probe(poset, args, table) -> list[dict]:
    from .cohomology import conjecture_probe, divisor_generation_check

    return [divisor_generation_check(poset, seed=args.seed), conjecture_probe(poset, seed=args.seed)]


_SUITES = {
    "chevalley": _suite_chevalley,
    "ktchev2": _suite_ktchev2,
    "lg-oracle": _suite_lg_oracle,
    "table": _suite_table,
    "positivity": _suite_positivity,
    "probe": _suite_probe,
}

_SOFT_CHECKS = {"positivity-signs", "conjecture-probe"}


def _cmd_verify(args) -> int:
    poset = build_cominuscule(args.space)
    if args.suite == "lg-oracle" and poset.space.kind != "LG":
        # a usage error, caught before the oracles module is imported
        print(f"error: NotLG: {poset.space} is not a Lagrangian Grassmannian", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "all":
        names = ["chevalley", "ktchev2", "table", "positivity", "probe"]
        if poset.space.kind == "LG":
            names.insert(2, "lg-oracle")
    else:
        names = [args.suite]
    # the table suites share one table, loaded or built when first asked for
    table = functools.cache(lambda: _load_or_build_table(args, poset)[1])
    reports = []
    for name in names:
        reports.extend(_SUITES[name](poset, args, table))
    hard_fail = False
    for rep in reports:
        status = rep.get("status", "?")
        line = f"[{status:>6}] {rep.get('check')} on {rep.get('space')}"
        if rep.get("check") == "conjecture-probe":
            line += f" (dimension {rep.get('dimension')}, expected {rep.get('expected')})"
            if not rep.get("matches_conjecture"):
                line += "  ** warning: dimension differs from |W^P| **"
        if status == "fail":
            if rep.get("check") in _SOFT_CHECKS:
                line += "  ** warning: conjectural check failed, not fatal **"
            else:
                hard_fail = True
        print(line)
        if args.format == "json":
            print(json.dumps(rep, sort_keys=True))
    return EXIT_FAIL if hard_fail else EXIT_OK


# ---------------------------------------------------------------------------


def _truncation(text: str) -> int:
    """--qmax value: the certificate needs layers D-1 and D above q^0."""
    try:
        D = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if D < 2:
        raise argparse.ArgumentTypeError(f"truncation must be at least 2 for the certificate, got {D}")
    return D


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qkcalc",
        description="Equivariant quantum K-theory of cominuscule flag varieties",
    )
    ap.add_argument("--version", action="version", version=f"qkcalc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, cache=False):
        p.add_argument("--format", choices=("text", "latex", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        if cache:
            p.add_argument("--qmax", type=_truncation, default=None)
            p.add_argument("--backend", choices=("exact", "mod-p"), default=None)
            p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("describe", help="poset, labels and basic invariants")
    p.add_argument("space")
    common(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("chevalley", help="J*O^u and O^{s_gamma}*O^u")
    p.add_argument("space")
    p.add_argument("shape")
    common(p)
    p.set_defaults(func=_cmd_chevalley)

    p = sub.add_parser("product", help="O^u * O^v from the reconstructed table")
    p.add_argument("space")
    p.add_argument("shape_u")
    p.add_argument("shape_v")
    common(p, cache=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("table", help="build (and cache) the full table")
    p.add_argument("space")
    common(p, cache=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("space")
    p.add_argument(
        "--suite",
        choices=sorted(_SUITES) + ["all"],
        default="all",
    )
    common(p, cache=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dual", help="Poincare dual shape")
    p.add_argument("space")
    p.add_argument("shape")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("nbhd", help="curve neighborhood u(d)")
    p.add_argument("space")
    p.add_argument("shape")
    p.add_argument("degree", type=int)
    common(p)
    p.set_defaults(func=_cmd_nbhd)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, InvalidShape, NotContained) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # surfaced module errors
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
