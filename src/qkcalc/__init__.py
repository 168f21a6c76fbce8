"""Exact equivariant quantum K-theory of cominuscule flag varieties.

The ring QK_T(X) is reconstructed from a single Chevalley formula: the
divisor class generates, so every structure constant is pinned down by a
linear solve over the equivariant coefficient field.  The solve runs mod p
for both backends: the exact backend interpolates mod-p solves over a grid
of evaluation points and certifies the result exactly (integers and
representation-ring characters); the mod-p backend is one such point, for
spaces past the grid's reach and as an independent cross-check.

Main entry points:

    build_cominuscule(space)   poset + root system for "Gr(3,7)", "LG(4,8)", ...
    qkt_chevalley, sgamma_star quantum Chevalley products of O^{s_gamma}
    full_table(poset)          all structure constants, certified in q-degree
    load_table, save_table     the table cache (qkcalc.store)

The independent oracles live in their modules: qkcalc.oracles.verify_ktchev2
and qkcalc.oracles.lg_oracle_chi, qkcalc.cohomology.ms_solve_classical.

`import qkcalc` loads the modules a cached query runs: rootsys, gamma,
poset and store, and none of dataclasses, fractions or numpy.  The
Chevalley names (sgamma_star, qkt_chevalley, ...) import qkcalc.chevalley on
first use, and the solver's names (full_table, MultTable, modp_tables, ...)
import qkcalc.qkring, and with it numpy.
"""

__version__ = "0.1.0"

from importlib import import_module

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

# names imported from their module on first use (PEP 562)
_LAZY_NAMES = {
    "chevalley": ("chev_constants_closed", "j_class", "j_weight", "kt_chevalley", "qkt_chevalley", "sgamma_star"),
    "qkring": ("MultTable", "TruncationTooSmall", "full_table", "modp_tables", "specialize", "tables_agree"),
}


def __getattr__(name: str):
    for module, names in _LAZY_NAMES.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
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
