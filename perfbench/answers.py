"""Golden product answers and the checks that compare `qkcalc product` output
against them.

A golden answer is computed from a table object handed back by
`qkring.full_table` (never from the JSON cache) and stored as a list of
``[mask, payload]`` pairs in the space's Schubert order, zero entries left out:

- exact tables: payload is the list of q-coefficients as GammaElement JSON
  objects, trailing zero q-layers dropped;
- mod-p tables: payload is the list of residues per q-layer, trailing zero
  layers dropped.

Dropping trailing zero layers makes the comparison independent of the
truncation the CLI's qmax ladder settled on.
"""

from __future__ import annotations

import json

from qkcalc.gamma import GammaElement
from qkcalc.poset import Shape, eps_string


def _strip(layers: list) -> list:
    out = list(layers)
    while out and not out[-1]:
        out.pop()
    return out


def golden_answer(table, ui: int, vi: int) -> list:
    """Product O^u * O^v read from an in-memory MultTable."""
    answer = []
    for w in range(table.k):
        val = table.entry(ui, vi, w)
        if table.is_exact:
            payload = [g.to_json_obj() for g in val.coeffs]
        else:
            payload = _strip([int(x) for x in val])
        if payload:
            answer.append([table.masks[w], payload])
    return answer


def _gamma_text(g: GammaElement, poset) -> str:
    if g.is_zero():
        return "0"
    bits = []
    for e, c in g.sorted_terms():
        ch = "1" if not any(e) else f"[C_{{{eps_string(poset, e)}}}]"
        term = ch if c == 1 else (f"-{ch}" if c == -1 else f"{c}*{ch}")
        bits.append(term if not bits or term.startswith("-") else "+" + term)
    return "".join(bits)


def render_exact_text(poset, u: str, v: str, answer: list) -> str:
    """The text form of an exact product, as `qkcalc product` prints it."""
    lines = []
    for mask, payload in answer:
        name = "(" + poset.format_shape(Shape(poset, mask)) + ")"
        for d, obj in enumerate(payload):
            g = GammaElement.from_json_obj(obj)
            if g.is_zero():
                continue
            qpart = "" if d == 0 else ("q" if d == 1 else f"q^{d}")
            parts = (f"({_gamma_text(g, poset)})", qpart, f"O^{name}")
            lines.append(" ".join(x for x in parts if x))
    body = "\n  + ".join(lines) if lines else "0"
    return f"O^({u}) * O^({v}) =\n  {body}"


def _parse_modp_text(poset, text: str) -> dict | None:
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("# mod-p table"):
        return None
    names = {poset.format_shape(s): s.mask for s in poset.shapes()}
    out = {}
    for line in lines[1:]:
        head, sep, tail = line.partition(": ")
        if not (sep and head.startswith("O^(") and head.endswith(")")):
            return None
        mask = names.get(head[3:-1])
        if mask is None:
            return None
        out[mask] = _strip(json.loads(tail))
    return out


def check_product(poset, exact: bool, u: str, v: str, fmt: str, out: str, answer: list) -> str | None:
    """Compare one product output with its golden answer; None when equal,
    else a short reason."""
    want = {mask: payload for mask, payload in answer}
    if fmt == "json":
        try:
            obj = json.loads(out)
        except ValueError:
            return "json output did not parse"
        if obj.get("u") != u or obj.get("v") != v:
            return "json output names other shapes"
        got = {}
        for mask, val in obj.get("product", []):
            payload = val["q_coeffs"] if exact else _strip(val)
            if payload:
                got[mask] = payload
        return None if got == want else "json answer differs from golden"
    if exact:
        expected = render_exact_text(poset, u, v, answer)
        return None if out.strip() == expected else "text answer differs from golden"
    got = _parse_modp_text(poset, out)
    if got is None:
        return "mod-p text output did not parse"
    return None if got == want else "mod-p text answer differs from golden"
