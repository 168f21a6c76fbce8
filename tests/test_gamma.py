"""Ring axioms and arithmetic invariants of the Laurent group ring.

Random elements come from hypothesis; rank is kept small (2 or 3) since the
axioms are coordinate-blind and large exponents only slow things down.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkcalc.gamma import (
    ChernPolynomial,
    GammaElement,
    NotDivisible,
    QPolynomial,
    ch_character,
    ch_leading,
    default_assignments,
    exact_divide,
)
from qkcalc.qkring import _eval_array, _object_array

RANK = 2
P = 1000003


def gammas(rank=RANK, max_terms=4, span=3):
    exponent = st.tuples(*[st.integers(-span, span)] * rank)
    return st.dictionaries(exponent, st.integers(-9, 9), max_size=max_terms).map(
        lambda d: GammaElement(rank, d)
    )


@given(gammas(), gammas(), gammas())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GammaElement.zero(RANK)


@given(gammas(), gammas())
def test_exact_divide_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_divide(a * b, b) == a


def test_exact_divide_failure():
    one = GammaElement.from_int(RANK, 1)
    x = GammaElement.monomial((1, 0))
    with pytest.raises(NotDivisible):
        exact_divide(one + x, one - x)


def eval_mod_p(g: GammaElement, asg: tuple, p: int) -> int:
    # the evaluator of the mod-p solve and the verify suites, on one element
    return int(_eval_array(_object_array([g], (1,)), p, np.array([asg]))[0, 0])


@given(gammas(), gammas())
@settings(max_examples=60)
def test_eval_mod_p_is_a_homomorphism(a, b):
    asg = default_assignments(RANK, P, 1, seed=7)[0]
    ea, eb = eval_mod_p(a, asg, P), eval_mod_p(b, asg, P)
    assert eval_mod_p(a + b, asg, P) == (ea + eb) % P
    assert eval_mod_p(a * b, asg, P) == (ea * eb) % P


@given(gammas(), gammas())
@settings(max_examples=40)
def test_eval_commutes_with_exact_divide(a, b):
    if b.is_zero():
        return
    asg = default_assignments(RANK, P, 1, seed=7)[0]
    eb = eval_mod_p(b, asg, P)
    if eb == 0:
        return
    q = exact_divide(a * b, b)
    assert eval_mod_p(q, asg, P) == (eval_mod_p(a * b, asg, P) * pow(eb, P - 2, P)) % P


@given(gammas(max_terms=3, span=2), gammas(max_terms=3, span=2), st.integers(0, 4))
@settings(max_examples=50)
def test_ch_leading_convolution(a, b, m):
    lhs = ch_leading(a * b, m)
    rhs = ChernPolynomial.zero(RANK)
    for i in range(m + 1):
        rhs = rhs + ch_leading(a, i) * ch_leading(b, m - i)
    assert lhs == rhs


def test_ch_character_exponential():
    # ch(e^v) = sum v^k / k!, truncated
    v = (1, -2)
    g = GammaElement.monomial(v)
    ch = ch_character(g, 3)
    x = ChernPolynomial.linear(RANK, v)
    expected = (
        ChernPolynomial.from_fraction(RANK, 1)
        + x
        + x * x * Fraction(1, 2)
        + x * x * x * Fraction(1, 6)
    )
    for m in range(4):
        assert ch.graded_piece(m) == expected.graded_piece(m)


@given(gammas())
def test_json_roundtrip_bit_exact(a):
    blob = json.dumps(a.to_json_obj(), sort_keys=True)
    back = GammaElement.from_json_obj(json.loads(blob))
    assert back == a
    assert json.dumps(back.to_json_obj(), sort_keys=True) == blob


@given(st.lists(gammas(max_terms=3), max_size=3))
def test_qpolynomial_json_roundtrip(coeffs):
    p = QPolynomial(RANK, coeffs)
    back = QPolynomial.from_json_obj(p.to_json_obj())
    assert back == p


@given(st.lists(gammas(max_terms=2), max_size=3), st.lists(gammas(max_terms=2), max_size=3))
@settings(max_examples=40)
def test_qpolynomial_truncated_product(ca, cb):
    a, b = QPolynomial(RANK, ca), QPolynomial(RANK, cb)
    full = a.mul(b)
    for tmax in range(4):
        assert a.mul(b, tmax) == full.truncate(tmax)


def test_shifted_is_monomial_multiplication():
    a = GammaElement(RANK, {(1, 0): 2, (0, -1): -3})
    assert a.shifted((2, -1)) == a * GammaElement.monomial((2, -1))


def test_assignments_are_reproducible():
    a1 = default_assignments(3, P, 2, seed=5)
    a2 = default_assignments(3, P, 2, seed=5)
    a3 = default_assignments(3, P, 2, seed=6)
    assert a1 == a2
    assert a1 != a3
    assert all(0 < x < P for asg in a1 for x in asg)
