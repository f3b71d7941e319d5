"""Per-layer tracing from outside the program.

Each traced layer is a public name of a ``qbc`` module, replaced by a
wrapper at every place where a caller looks it up: the module global a
function reads at call time, or the class attribute a method call binds.
A wrapper opens a span (name, start, parent) on entry and closes it
(end) on exit.  Spans are folded into per-name totals as they close, so
memory stays flat over millions of multiplications:

- ``calls``: how many times the layer was entered;
- ``s``: summed self time, a span's duration minus the time covered by
  the spans opened inside it;
- ``total_s``: summed duration, kept for the suites, which never nest.

``perf_counter`` spans replace ``cProfile`` here because a profiler that
hooks every Python call inflates the ``Fraction``-heavy layers unevenly.
"""

from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.extra = {}
        self._stack = []  # open spans: [name, start, time covered by children]

    def count(self, key: str, amount: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def wrap(self, name, fn, before=None, after=None, inclusive=False):
        """Wrap fn as the layer called name.  before(args, kwargs) runs on
        entry and its result is handed to after(token) on exit; inclusive
        also sums whole durations into total_s."""
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        for table in (calls, self_s) + ((total_s,) if inclusive else ()):
            table.setdefault(name, 0)

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span = [name, perf_counter(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - span[1]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - span[2]
                if stack:
                    stack[-1][2] += duration
                if inclusive:
                    total_s[name] += duration
                if after is not None:
                    after(token)

        return traced

    def install(self, name, sites, before=None, after=None) -> None:
        """Wrap the callable found at each (owner, attribute) site.  Sites
        that hold the same function share one layer name."""
        for owner, attr in sites:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))


def install_qbc_layers(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports, at its lookup sites."""
    from qbc import algebra, askey_wilson, b2, koornwinder, macdonald_bcd
    from qbc import qseries, reports, suites

    def dividend_terms(args, kwargs):
        tracer.count("algebra.exact_div.terms_in", len(args[0].terms))

    def solve_columns(args, kwargs):
        tracer.count("algebra.triangular_solve.columns", len(args[0]))

    def koorn_solve(args, kwargs):
        tracer.count("koornwinder.solves")
        return solve_columns(args, kwargs)

    def b2_solve(args, kwargs):
        tracer.count("b2.solves")
        return solve_columns(args, kwargs)

    # an oracle call is a hit when no solve ran inside it
    def oracle_enter(args, kwargs):
        return tracer.extra.get("koornwinder.solves", 0)

    def oracle_exit(solves_before):
        solved = tracer.extra.get("koornwinder.solves", 0) > solves_before
        tracer.count("koornwinder.oracle.misses" if solved else "koornwinder.oracle.hits")

    C, L = algebra.ClearedShiftOperator, algebra.LaurentPoly
    plain = {
        "algebra.operator_apply": [(C, "apply")],
        "algebra.operator_build": [(C, "__init__")],
        "algebra.laurent_mul": [(L, "__mul__"), (L, "__rmul__")],
        "qseries.qpoch": [
            (qseries, "qpoch"), (askey_wilson, "qpoch"), (b2, "qpoch"),
            (macdonald_bcd, "qpoch"), (suites, "qpoch"),
        ],
        "qseries.phi_sum": [(qseries, "phi_sum"), (askey_wilson, "phi_sum")],
        "qseries.power_of_base": [(qseries, "power_of_base")],
        "askey_wilson.phi_series": [(suites, "phi_series"), (macdonald_bcd, "phi_series")],
        "askey_wilson.psi_series": [(suites, "psi_series")],
        "askey_wilson.even_sum_forms": [(suites, "even_sum_forms")],
        "askey_wilson.fourfold_poly": [(suites, "fourfold_poly")],
        "askey_wilson.aw_poly": [(suites, "aw_poly")],
        "koornwinder.g_series_list": [
            (koornwinder, "g_series_list"), (macdonald_bcd, "g_series_list"),
        ],
        "koornwinder.g_row_general": [(suites, "g_row_general")],
        "koornwinder.kernel_check": [(suites, "kernel_identity_check")],
        "macdonald_bcd.mac_row": [(suites, "mac_row")],
        "macdonald_bcd.lassalle_form": [(suites, "lassalle_form")],
        "macdonald_bcd.simplification_lemma": [(suites, "simplification_lemma_check")],
        "b2.series": [(b2, "_series_terms")],
        "b2.character_series": [(suites, "b2_character_series")],
        "b2.oracle": [(b2, "b2_oracle")],
        "b2.conjecture_check": [(suites, "b2_conjecture_check")],
        "reports.to_json": [(reports.VerificationReport, "to_json")],
    }
    for name, sites in plain.items():
        tracer.install(name, sites)
    tracer.install("algebra.exact_div", [(algebra, "exact_div")], before=dividend_terms)
    tracer.install(
        "algebra.triangular_solve",
        [(koornwinder, "solve_triangular_eigenproblem")],
        before=koorn_solve,
    )
    tracer.install(
        "algebra.triangular_solve",
        [(b2, "solve_triangular_eigenproblem")],
        before=b2_solve,
    )
    tracer.install(
        "koornwinder.oracle", [(suites, "koorn_oracle")],
        before=oracle_enter, after=oracle_exit,
    )
    # run_suite reaches a suite through SUITES, or by its global name
    # when the call narrows the koornwinder or lassalle suite
    for key in list(suites.SUITES):
        fn = suites.SUITES[key]
        wrapped = tracer.wrap(f"suites.{key}", fn, inclusive=True)
        suites.SUITES[key] = wrapped
        if getattr(suites, fn.__name__) is fn:
            setattr(suites, fn.__name__, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat metric dict: name.calls and name.s for each layer, total_s for
    the suites, plus the extra counts."""
    out = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.self_s[name]
        if name in tracer.total_s:
            out[f"{name}.total_s"] = tracer.total_s[name]
    out.update(tracer.extra)
    return out
