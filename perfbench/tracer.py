"""In-memory tracing of qkcalc's layers, installed from outside the package.

Every wrapper replaces a name where its caller looks it up, so `src/` is left
untouched:

- `cli` imports `full_table`, `load_table`, `save_table`, the verify
  functions, `sgamma_star` and `build_cominuscule` by name;
- `qkring` imports `exact_divide`, `sgamma_star` and `build_cominuscule` by
  name and calls its own `divisor_matrix` through its globals;
- the verify suites import `chev_constants_closed`, `verify_ktchev2`,
  `verify_lg_oracle`, `conjecture_probe` and `divisor_generation_check`
  from their modules when they run;
- `GammaElement.__mul__` / `from_json_obj`, `GammaModPField.mul` / `add`
  and `CominusculePoset.parse_shape` are class attributes.

Coarse calls become spans (name, start, end, parent span, operation id,
outcome).  Calls that run millions of times (group-ring and mod-p
arithmetic, JSON decoding of coefficients, exact division) only bump
counters, since a span each would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

from qkcalc import chevalley, cli, cohomology, oracles, qkring
from qkcalc.gamma import GammaElement, GammaModPField
from qkcalc.poset import CominusculePoset

# (module, attribute, layer name) for every span boundary
SPAN_SITES = (
    (cli, "full_table", "qkring.full_table"),
    (cli, "load_table", "qkring.load_table"),
    (cli, "save_table", "qkring.save_table"),
    (cli, "verify_ms_equations", "qkring.verify_ms_equations"),
    (cli, "verify_associativity", "qkring.verify_associativity"),
    (cli, "tables_agree", "qkring.tables_agree"),
    (cli, "modp_tables", "qkring.modp_tables"),
    (cli, "verify_positivity_signs", "qkring.verify_positivity_signs"),
    (cli, "sgamma_star", "chevalley.sgamma_star"),
    (cli, "build_cominuscule", "poset.build_cominuscule"),
    (qkring, "sgamma_star", "chevalley.sgamma_star"),
    (qkring, "build_cominuscule", "poset.build_cominuscule"),
    (qkring, "divisor_matrix", "qkring.divisor_matrix"),
    (chevalley, "chev_constants_closed", "chevalley.chev_constants_closed"),
    (cohomology, "conjecture_probe", "cohomology.conjecture_probe"),
    (cohomology, "divisor_generation_check", "cohomology.divisor_generation_check"),
    (oracles, "verify_ktchev2", "oracles.verify_ktchev2"),
    (oracles, "verify_lg_oracle", "oracles.verify_lg_oracle"),
    (CominusculePoset, "parse_shape", "poset.parse_shape"),
)


def _load_extra(args, kwargs, result):
    space, D, backend, cache_dir = args
    if result is None:
        return {"hit": False, "bytes": 0}
    path = os.path.join(cache_dir, f"qk-{qkring.cache_key(space, D, backend)}.json")
    return {"hit": True, "bytes": os.path.getsize(path)}


def _save_extra(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


_EXTRAS = {"qkring.load_table": _load_extra, "qkring.save_table": _save_extra}


class Tracer:
    """Spans and counters of one process; `op` tags spans with the id of the
    command or query that caused them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, outcome, extra]
        self.stack: list[int] = []
        self.op: int | None = None
        self.counters: dict[str, list] = {}  # name -> [calls, seconds, term pairs]

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, "ok", None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list, outcome: str = "ok") -> None:
        rec[2] = perf_counter()
        rec[5] = outcome
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of its own."""
        rec = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(rec, type(exc).__name__)
            raise
        self._close(rec)
        extra = _EXTRAS.get(name)
        if extra is not None:
            rec[6] = extra(args, kwargs, result)
        return result

    def _span_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    # -- counters ----------------------------------------------------------

    def _counter(self, name: str) -> list:
        return self.counters.setdefault(name, [0, 0.0, 0])

    def install(self) -> None:
        for owner, attr, name in SPAN_SITES:
            setattr(owner, attr, self._span_wrapper(getattr(owner, attr), name))

        mul_st = self._counter("gamma.mul")
        orig_mul = GammaElement.__mul__

        def gamma_mul(a, b):
            t = perf_counter()
            r = orig_mul(a, b)
            mul_st[1] += perf_counter() - t
            mul_st[0] += 1
            mul_st[2] += len(a.terms) * (len(b.terms) if type(b) is GammaElement else 1)
            return r

        GammaElement.__mul__ = gamma_mul

        div_st = self._counter("gamma.exact_divide")
        orig_div = qkring.exact_divide

        def exact_divide(a, b):
            t = perf_counter()
            r = orig_div(a, b)
            div_st[1] += perf_counter() - t
            div_st[0] += 1
            return r

        qkring.exact_divide = exact_divide

        json_st = self._counter("gamma.from_json")
        orig_from_json = GammaElement.__dict__["from_json_obj"].__func__

        def from_json_obj(obj):
            t = perf_counter()
            r = orig_from_json(obj)
            json_st[1] += perf_counter() - t
            json_st[0] += 1
            return r

        GammaElement.from_json_obj = staticmethod(from_json_obj)

        for op in ("mul", "add"):
            st = self._counter(f"gamma.modp.{op}")
            orig = getattr(GammaModPField, op)

            def counted(fld, a, b, _orig=orig, _st=st):
                _st[0] += 1
                return _orig(fld, a, b)

            setattr(GammaModPField, op, counted)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Additive per-layer totals of this process."""
        out: dict[str, float] = {}

        def add(key, val):
            out[key] = out.get(key, 0) + val

        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, outcome, extra in self.spans:
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.s", dur)
            if outcome != "ok":
                add(f"{name}.failed", 1)
            if extra:
                if "hit" in extra:
                    add(f"{name}.hits" if extra["hit"] else f"{name}.misses", 1)
                add(f"{name}.bytes", extra["bytes"])
            if parent >= 0:
                child_time[parent] += dur
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            if name == "cli.main":
                add("cli.self_s", end - start - child_time[i])
        for name, (calls, secs, pairs) in self.counters.items():
            add(f"{name}.calls", calls)
            add(f"{name}.s", secs)
            add(f"{name}.term_pairs", pairs)
        return out

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "op", "outcome", "extra")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, rec)) for rec in self.spans], fh)
