"""Exact equivariant quantum K-theory of cominuscule flag varieties.

The ring QK_T(X) is reconstructed from a single Chevalley formula: the
divisor class generates, so every structure constant is pinned down by a
linear solve over the equivariant coefficient field.  Everything is exact
(integers and representation-ring characters); mod-p evaluation exists only
as an independent cross-check and as a fallback for large posets.

Main entry points:

    build_cominuscule(space)   poset + root system for "Gr(3,7)", "LG(4,8)", ...
    qkt_chevalley, sgamma_star quantum Chevalley products of O^{s_gamma}
    full_table(poset)          all structure constants, certified in q-degree
    load_table, save_table     the table cache (qkcalc.store)

The independent oracles live in their modules: qkcalc.oracles.verify_ktchev2
and qkcalc.oracles.lg_oracle_chi, qkcalc.cohomology.ms_solve_classical.

`import qkcalc` loads the numpy-free modules: rootsys, gamma, poset,
chevalley and store.  The solver's names (full_table, MultTable,
modp_tables, ...) import qkcalc.qkring, and with it numpy, on first use.
"""

__version__ = "0.1.0"

from .chevalley import (
    chev_constants_closed,
    j_class,
    j_weight,
    kt_chevalley,
    qkt_chevalley,
    sgamma_star,
)
from .gamma import ChernPolynomial, GammaElement, QPolynomial
from .poset import (
    CominusculePoset,
    InvalidShape,
    NotContained,
    PosetError,
    Shape,
    UnsupportedSpace,
    build_cominuscule,
)
from .rootsys import RootSystem, build_root_system
from .store import load_table, save_table

# the solver's names, imported from qkring on first use (PEP 562)
_SOLVER_NAMES = ("MultTable", "TruncationTooSmall", "full_table", "modp_tables", "specialize", "tables_agree")


def __getattr__(name: str):
    if name in _SOLVER_NAMES:
        from . import qkring

        return getattr(qkring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChernPolynomial",
    "CominusculePoset",
    "GammaElement",
    "InvalidShape",
    "MultTable",
    "NotContained",
    "PosetError",
    "QPolynomial",
    "RootSystem",
    "Shape",
    "TruncationTooSmall",
    "UnsupportedSpace",
    "__version__",
    "build_cominuscule",
    "build_root_system",
    "chev_constants_closed",
    "full_table",
    "j_class",
    "j_weight",
    "kt_chevalley",
    "load_table",
    "modp_tables",
    "qkt_chevalley",
    "save_table",
    "sgamma_star",
    "specialize",
    "tables_agree",
]
