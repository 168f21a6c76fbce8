"""Acceptance suite: the ten headline guarantees of the package.

One test per criterion, each printing a single verdict line (visible with
pytest -s; the pytest -v status line carries the same information) and
enforcing its runtime budget.  Expensive tables are built once and shared
by the later criteria; the budgets are charged to the first test that
needs each table.
"""

import io
import time
from contextlib import redirect_stdout

from qkcalc.chevalley import (
    chev_constants_closed,
    j_class,
    kt_chevalley,
    phi_op,
    psi_op,
    qkt_chevalley,
    sgamma_star,
    theta0_op,
    theta1_op,
)
from qkcalc.cohomology import (
    LambdaFraction,
    ch_bridge_check,
    conjecture_probe,
    ms_solve_classical,
    ms_solve_classical_kt,
)
from qkcalc.gamma import ChernPolynomial, GammaElement, GammaFraction, QPolynomial
from qkcalc.oracles import verify_ktchev2, verify_lg_oracle
from qkcalc.poset import build_cominuscule
from qkcalc.qkring import (
    full_table,
    modp_tables,
    specialize,
    verify_associativity,
    verify_ms_equations,
    verify_positivity_signs,
)

CLASSICAL_TEN = [
    "Gr(2,4)",
    "Gr(2,5)",
    "Gr(3,6)",
    "LG(2,4)",
    "LG(3,6)",
    "OG(5,10)",
    "Q(3)",
    "Q(4)",
    "Q(5)",
    "Q(6)",
]

FANO_STANDARD = {
    "Gr(2,4)": 4,
    "Gr(2,5)": 5,
    "Gr(3,6)": 6,
    "LG(2,4)": 3,
    "LG(3,6)": 4,
    "OG(5,10)": 8,
    "Q(3)": 3,
    "Q(4)": 4,
    "Q(5)": 5,
    "Q(6)": 6,
}

_posets: dict = {}
_exact: dict = {}


def P(space):
    if space not in _posets:
        _posets[space] = build_cominuscule(space)
    return _posets[space]


def exact_table(space):
    if space not in _exact:
        _exact[space] = full_table(P(space))
    return _exact[space]


def run_criterion(n, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {n:02d} ({label}): FAIL after {time.perf_counter() - t0:.1f}s")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"criterion {n:02d} ({label}): {verdict} in {elapsed:.1f}s (budget {limit:g}s)")
    assert elapsed < limit, f"runtime budget exceeded: {elapsed:.1f}s"


def char(poset, eps):
    from qkcalc.rootsys import eps_to_root

    return GammaElement.monomial(eps_to_root(poset.rs, eps))


def test_criterion_01_gr37_product():
    def body():
        from qkcalc import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["chevalley", "Gr(3,7)", "4,3,1"])
        assert code == 0
        text = buf.getvalue()
        for name in ("(4,3,1)", "(4,4,1)", "(4,3,2)", "(4,4,2)", "(2)", "(3)", "(2,1)", "(3,1)"):
            assert f"O^{name}" in text, name

        poset = P("Gr(3,7)")
        u = poset.parse_shape("4,3,1")
        ju = j_class(poset, u.mask)
        assert ju == char(poset, {7: 1, 5: 1, 3: -1, 1: -1})
        rank = poset.rs.rank
        z = GammaElement.zero(rank)
        want = {}
        for name, sign in (("4,3,1", 1), ("4,4,1", -1), ("4,3,2", -1), ("4,4,2", 1)):
            want[poset.parse_shape(name).mask] = QPolynomial(rank, [ju * sign])
        for name, sign in (("2", -1), ("3", 1), ("2,1", 1), ("3,1", -1)):
            want[poset.parse_shape(name).mask] = QPolynomial(rank, [z, ju * sign])
        assert dict(qkt_chevalley(poset, u.mask)) == want

    run_criterion(1, "Gr(3,7) divisor product", 1.0, body)


def test_criterion_02_lg510_product():
    def body():
        poset = P("LG(5,10)")
        one = GammaElement.from_int(poset.rs.rank, 1)
        u = poset.parse_shape("4,2")
        phi = phi_op(poset, {u.mask: one})
        want_phi = {
            poset.parse_shape("4,2").mask: one,
            poset.parse_shape("5,2").mask: -char(poset, {2: 1, 1: -1}),
            poset.parse_shape("4,3").mask: -char(poset, {4: 1, 3: -1}),
            poset.parse_shape("5,3").mask: char(poset, {4: 1, 3: -1, 2: 1, 1: -1}),
        }
        assert phi == want_phi

        a = char(poset, {1: -1, 2: -1, 4: -2})
        b = char(poset, {1: -1, 2: -1, 3: -1, 4: -1})
        qpart = {}
        for m, p in qkt_chevalley(poset, u.mask):
            if p.degree() >= 1 and not p.coeff(1).is_zero():
                qpart[poset.format_shape(poset.shape(m))] = p.coeff(1)
        assert qpart == {
            "2": a,
            "3": -a - b,
            "2,1": -a,
            "3,1": a + b,
            "4": b,
            "4,1": -b,
        }

        ju = j_class(poset, u.mask)
        n31 = sgamma_star(poset, u.mask)[poset.parse_shape("3,1").mask].coeff(1)
        assert n31 == -(ju * char(poset, {2: 1, 1: -1}) * (one + char(poset, {4: 1, 3: -1})))

    run_criterion(2, "LG(5,10) quantum terms", 1.0, body)


def test_criterion_03_closed_form_equivalence():
    def body():
        for space in CLASSICAL_TEN + ["E6", "E7"]:
            poset = P(space)
            for mask in poset.shape_masks:
                assert chev_constants_closed(poset, mask) == sgamma_star(poset, mask), (
                    space,
                    poset.format_shape(poset.shape(mask)),
                )

    run_criterion(3, "closed form vs operator form", 120.0, body)


def test_criterion_04_ktchev2():
    def body():
        for space in CLASSICAL_TEN:
            rep = verify_ktchev2(P(space))
            assert rep["status"] == "pass", rep
        rep = verify_ktchev2(P("E6"))
        assert rep["status"] == "pass", rep
        assert rep["pairs"] == 27 * 27

    run_criterion(4, "theta0-dual pairing theorem", 300.0, body)


def test_criterion_05_lg_oracle():
    def body():
        for space in ("LG(2,4)", "LG(3,6)"):
            rep = verify_lg_oracle(P(space))
            assert rep["status"] == "pass", rep

    run_criterion(5, "fixed-point oracle on LG", 60.0, body)


def _table_properties(table):
    rank = table.poset.rs.rank
    rep = verify_ms_equations(table)
    assert rep["status"] == "pass", rep
    rep = verify_associativity(table)
    assert rep["status"] == "pass", rep
    k = table.k
    for v in range(k):
        for w in range(k):
            e = table.entry(0, v, w)
            if table.is_exact:
                ok = e == QPolynomial(rank, [GammaElement.from_int(rank, 1)]) if v == w else e.is_zero()
            else:
                ok = (e[0] == 1 if v == w else e[0] == 0) and not any(e[1:])
            assert ok, ("identity row", v, w)
    assert table.flags.get("stabilized") is True
    assert table.D == table.poset.d_max + 2


def test_criterion_06_full_table_properties():
    def body():
        t0 = time.perf_counter()
        _table_properties(exact_table("Gr(2,4)"))
        assert time.perf_counter() - t0 < 60, "exact Gr(2,4) over budget"
        for space in ("LG(2,4)", "Q(3)", "Q(4)"):
            _table_properties(exact_table(space))
        for space in ("Gr(2,5)", "LG(3,6)"):
            for t in modp_tables(P(space)):
                _table_properties(t)
        t0 = time.perf_counter()
        for t in modp_tables(P("Gr(3,6)")):
            _table_properties(t)
        assert time.perf_counter() - t0 < 300, "mod-p Gr(3,6) over budget"

    run_criterion(6, "reconstructed table laws", 400.0, body)


def test_criterion_07_specialization_chain():
    def body():
        for space in ("Gr(2,4)", "LG(2,4)"):
            poset = P(space)
            q0 = specialize(exact_table(space), "q0")
            sol = ms_solve_classical_kt(poset)
            k = q0.k
            for u in range(k):
                for v in range(k):
                    for w in range(k):
                        want = GammaFraction.from_gamma(q0.entry(u, v, w).coeff(0))
                        assert sol.value(u, v, w) == want, (space, u, v, w)
            hsol = ms_solve_classical(poset)
            rep = ch_bridge_check(q0, hsol)
            assert rep["status"] == "pass", rep

    run_criterion(7, "q=0 chain and ch bridge", 120.0, body)


def test_criterion_08_p1_end_to_end():
    def body():
        poset = P("P1")
        rank = poset.rs.rank
        table = full_table(poset)
        js = j_class(poset, poset.full_mask)
        one = GammaElement.from_int(rank, 1)
        assert table.entry(1, 1, 1) == QPolynomial(rank, [one - js])
        assert table.entry(1, 1, 0) == QPolynomial(rank, [GammaElement.zero(rank), js])
        # matches the Chevalley-derived product
        star = sgamma_star(poset, poset.full_mask)
        assert star[poset.full_mask] == table.entry(1, 1, 1)
        assert star[0].truncate(table.D) == table.entry(1, 1, 0)

        sol = ms_solve_classical(poset)
        inv_a = sol.diag[1].inverse()
        assert sol.a_value(0, 1, 1, 1) == inv_a
        assert sol.a_value(0, 0, 1, 1) == inv_a * inv_a
        assert sol.a_value(0, 0, 1, 0) == -inv_a
        assert sol.a_value(0, 0, 0, 0) == LambdaFraction.from_poly(ChernPolynomial.from_fraction(rank, 1))

        probe = conjecture_probe(poset)
        assert probe["dimension"] == 2 and probe["matches_conjecture"]

    run_criterion(8, "P1 end to end", 1.0, body)


def test_criterion_09_positivity_report():
    def body():
        lines = []
        for space in ("Gr(2,4)", "LG(2,4)", "Q(3)", "Q(4)"):
            rep = verify_positivity_signs(exact_table(space))
            assert rep["status"] == "pass", rep
            lines.append(f"{space}:{rep['checked']} constants all-pass")
        print("positivity report: " + "; ".join(lines))

    run_criterion(9, "positivity sign report", 120.0, body)


def test_criterion_10_combinatorial_invariants():
    def body():
        one_by = {}
        for space in CLASSICAL_TEN:
            poset = P(space)
            one = GammaElement.from_int(poset.rs.rank, 1)
            for mask in poset.shape_masks:
                cls = {mask: one}
                assert theta1_op(poset, cls) == psi_op(poset, theta0_op(poset, cls))
            dm = poset.d_max
            for u in poset.shapes():
                for d in range(dm + 1):
                    assert poset.dual(poset.curve_nbhd(u, -d)) == poset.curve_nbhd(
                        poset.dual(u), d
                    )
                for d in range(dm + 2):
                    for e in range(dm + 2 - d):
                        assert poset.curve_nbhd(poset.curve_nbhd(u, d), e) == poset.curve_nbhd(u, d + e)
            assert poset.fano_index == FANO_STANDARD[space]

    run_criterion(10, "combinatorial invariants", 120.0, body)
