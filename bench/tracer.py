"""Span tracing of twophoton from outside the package.

``instrument(tracer)`` wraps the public entry points of each module for the
duration of a ``with`` block and restores the originals afterwards. Spans
nest as call -> check group -> check function -> engine operation, each
with a link to its parent. Check-level spans are kept one per call. Engine
operations (series, PBW, tensor and operator products) run hundreds of
thousands of times per call, so their spans are aggregated per (parent,
name): one record holds the count, total and self time of every such call
under that parent.

Self time is a span's duration minus the time its child spans cover. The
tracer is single-threaded: spans nest strictly, so a stack suffices.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# public functions traced one span per call, by module
SPAN_FUNCTIONS = {
    "hopf": ("hopf_checks", "structure_checks", "transport_checks", "rmatrix_checks",
             "casimir_checks", "r_matrix", "r_matrix_inverse", "transport_structure",
             "verify_spec_equality", "first_order_delta"),
    "bialgebra": ("verify_cybe", "verify_cocycle", "delta_table_from_r", "basis_change"),
    "bargmann": ("rep_checks", "verify_rep", "deformed_rep", "eigen_operator",
                 "series_solve"),
    "discrete": ("verify_realization", "symmetry_checks", "solution_checks",
                 "heat_polynomials", "exponential_solutions", "apply_and_recheck"),
    "report": ("render_text", "canonical_json"),
}
FACTORIES = ("two_photon_algebra", "schrodinger_algebra")
BUILD = "algebra.build"


class Tracer:
    """In-memory span recorder with per-name call counts and times."""

    def __init__(self):
        self.spans = []      # finished check-level spans
        self.op_spans = {}   # (parent id, name) -> aggregated engine-op span
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self.peaks = {}      # name -> largest value seen
        self.algebras = []   # every QuantumAlgebra built while tracing
        self._stack = []     # open frames: [id, name, start, child s, op record]
        self._open = {}      # name -> open span count, for recursion-safe inclusive time
        self._ids = 0

    def enter(self, name, aggregate=False):
        parent = self._stack[-1][0] if self._stack else None
        record = None
        if aggregate:
            record = self.op_spans.get((parent, name))
            if record is None:
                self._ids += 1
                # id, parent, name, calls, first start, last end, total s, self s
                record = [self._ids, parent, name, 0, None, None, 0.0, 0.0]
                self.op_spans[(parent, name)] = record
            span_id = record[0]
        else:
            self._ids += 1
            span_id = self._ids
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([span_id, name, time.perf_counter(), 0.0, record])

    def exit(self):
        end = time.perf_counter()
        span_id, name, start, child, record = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        still_open = self._open[name] - 1
        self._open[name] = still_open
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += duration - child
        if not still_open:
            stat[1] += duration
        if record is None:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append({"id": span_id, "parent": parent, "name": name,
                               "calls": 1, "start": start, "end": end,
                               "total_s": duration, "self_s": duration - child})
        else:
            record[3] += 1
            if record[4] is None:
                record[4] = start
            record[5] = end
            record[6] += duration
            record[7] += duration - child

    def peak(self, name, value):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def wrap(self, fn, name, aggregate=False, name_of=None, on_result=None):
        """Return fn recorded as a span; name_of(*args) overrides the name per call."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name_of(*args) if name_of else name, aggregate)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def span_records(self):
        """Every span, check-level and aggregated, as JSON-ready dicts."""
        ops = [{"id": r[0], "parent": r[1], "name": r[2], "calls": r[3],
                "start": r[4], "end": r[5], "total_s": r[6], "self_s": r[7]}
               for r in self.op_spans.values()]
        return sorted(self.spans + ops, key=lambda s: s["id"])


def _tensor_mul_name(tensor, *_):
    return f"algebra.tensor_mul.rank{tensor.rank}"


@contextmanager
def instrument(tracer):
    """Wrap twophoton's public entry points with tracer spans inside the block."""
    import twophoton.algebra as algebra
    import twophoton.bargmann as bargmann
    import twophoton.cli as cli
    import twophoton.discrete as discrete
    import twophoton.series as series

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "twophoton" or name.startswith("twophoton."))]
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(fn, wrapped):
        # functions are imported by name across modules: rebind every alias
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patch(mod, attr, wrapped)

    def capture_algebra(args, _result):
        tracer.algebras.append(args[0])

    def tensor_terms(_args, result):
        tracer.peak("algebra.peak_tensor_terms", len(result.terms))

    methods = [
        (series.TruncatedSeries, "__mul__", "series.mul", {}),
        (algebra.QuantumAlgebra, "normal_word", "algebra.normal_word", {}),
        (algebra.QuantumAlgebra, "coproduct_word", "algebra.coproduct_word", {}),
        (algebra.QuantumAlgebra, "antipode_word", "algebra.antipode_word", {}),
        (algebra.NCElement, "__mul__", "algebra.nc_mul", {}),
        (algebra.TensorElement, "__mul__", None,
         {"name_of": _tensor_mul_name, "on_result": tensor_terms}),
        (bargmann.DiffOperator, "__mul__", "bargmann.diffop_mul", {}),
        (discrete.SchrodingerOperator, "__mul__", "discrete.schop_mul", {}),
    ]
    try:
        for cls, attr, name, extra in methods:
            patch(cls, attr, tracer.wrap(getattr(cls, attr), name, aggregate=True, **extra))
        patch(algebra.QuantumAlgebra, "__init__",
              tracer.wrap(algebra.QuantumAlgebra.__init__, BUILD,
                          on_result=capture_algebra))
        for fname in FACTORIES:
            fn = getattr(algebra, fname)
            patch_function(fn, tracer.wrap(fn, BUILD))
        for short, names in SPAN_FUNCTIONS.items():
            mod = sys.modules[f"twophoton.{short}"]
            for fname in names:
                fn = getattr(mod, fname)
                patch_function(fn, tracer.wrap(fn, f"{short}.{fname}"))
        for group, runner in list(cli.GROUP_RUNNERS.items()):
            restore.append((cli.GROUP_RUNNERS, group, runner))
            cli.GROUP_RUNNERS[group] = tracer.wrap(runner, f"group.{group}")
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def layer_metrics(tracer):
    """Per-layer metrics of one traced call, as {name: (value, unit)}."""
    caches = [getattr(alg, "_nf_cache", {}) for alg in tracer.algebras]
    metrics = {
        "series.mul_calls": (tracer.calls("series.mul"), "count"),
        "series.mul_self_s": (tracer.self_s("series.mul"), "s"),
        "algebra.normal_word_calls": (tracer.calls("algebra.normal_word"), "count"),
        "algebra.normal_word_self_s": (tracer.self_s("algebra.normal_word"), "s"),
        "algebra.nf_cache_entries": (sum(len(c) for c in caches), "count"),
        "algebra.nf_max_word_len": (max((len(w) for c in caches for w in c), default=0),
                                    "count"),
        "algebra.peak_tensor_terms": (tracer.peaks.get("algebra.peak_tensor_terms", 0),
                                      "count"),
        "algebra.nc_mul_calls": (tracer.calls("algebra.nc_mul"), "count"),
        "algebra.nc_mul_self_s": (tracer.self_s("algebra.nc_mul"), "s"),
        "algebra.coproduct_word_calls": (tracer.calls("algebra.coproduct_word"), "count"),
        "algebra.antipode_word_calls": (tracer.calls("algebra.antipode_word"), "count"),
        "algebra.instances": (len(tracer.algebras), "count"),
        "algebra.build_s": (tracer.inclusive_s(BUILD), "s"),
        "hopf.hopf_checks_s": (tracer.inclusive_s("hopf.hopf_checks"), "s"),
        "hopf.transport_checks_s": (tracer.inclusive_s("hopf.transport_checks"), "s"),
        "hopf.casimir_checks_s": (tracer.inclusive_s("hopf.casimir_checks"), "s"),
        "hopf.rmatrix_checks_s": (tracer.inclusive_s("hopf.rmatrix_checks"), "s"),
        "hopf.r_matrix_s": (tracer.inclusive_s("hopf.r_matrix"), "s"),
        "bialgebra.group_s": (tracer.inclusive_s("group.bialgebra"), "s"),
        "bargmann.diffop_mul_calls": (tracer.calls("bargmann.diffop_mul"), "count"),
        "bargmann.diffop_mul_self_s": (tracer.self_s("bargmann.diffop_mul"), "s"),
        "bargmann.deformed_rep_s": (tracer.inclusive_s("bargmann.deformed_rep"), "s"),
        "bargmann.series_solve_s": (tracer.inclusive_s("bargmann.series_solve"), "s"),
        "discrete.schop_mul_calls": (tracer.calls("discrete.schop_mul"), "count"),
        "discrete.schop_mul_self_s": (tracer.self_s("discrete.schop_mul"), "s"),
        "discrete.symmetry_checks_s": (tracer.inclusive_s("discrete.symmetry_checks"), "s"),
        "discrete.solution_checks_s": (tracer.inclusive_s("discrete.solution_checks"), "s"),
        "report.render_s": (tracer.inclusive_s("report.render_text")
                            + tracer.inclusive_s("report.canonical_json"), "s"),
    }
    for rank in (2, 3):
        name = f"algebra.tensor_mul.rank{rank}"
        metrics[f"{name}_calls"] = (tracer.calls(name), "count")
        metrics[f"{name}_self_s"] = (tracer.self_s(name), "s")
    return metrics
