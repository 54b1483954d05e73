"""Spans at the package's layer boundaries, recorded from outside the package.

Each boundary function is replaced, where its caller looks it up, by a
wrapper that records a span (name, start, end, parent span, op id).  Spans
stay in memory; self time is a span's duration minus the durations of its
direct children, which never overlap because the program is single-threaded.

Wrapping costs about a microsecond per call.  That overhead is reported
(traced minus untraced pass time), not subtracted.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

from workloads import NINE_SUITES

QCORE_FUNCTIONS = (
    "apply_vector_matrix", "reduced_outer", "apply_matrix", "partial_trace",
    "apply_on_qubits", "compose_on_qubits", "dephase_register", "conditional_entropy",
    "fidelity", "haar_random_unitary", "random_unit_vector", "random_pure_state",
    "random_density_matrix", "stream",
)
SPAN_NAMES = (
    tuple(f"qcore.{f}" for f in QCORE_FUNCTIONS)
    + ("protocol.round", "protocol.accept_probability", "protocol.constant_round_probability",
       "attacks.execute", "attacks.seesaw_optimize", "attacks.compile_gardenhose",
       "attacks.epsilon_l_report")
    + tuple(f"checks.{s}" for s in NINE_SUITES)
    + ("analysis.smp_cc_bruteforce", "analysis.oneway_cc_bruteforce",
       "analysis.counting_bound",
       "cli.main", "cli.cmd_simulate", "cli.cmd_attack_optimize", "cli.cmd_bounds",
       "cli.cmd_verify")
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = -1
        self.counters = defaultdict(float)

    def wrap(self, name, fn, on_call=None, on_return=None):
        """``fn`` recording a span per call.  ``on_call(args, kwargs)`` and
        ``on_return(args, kwargs, result)`` update the computed counters."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    # -- computed counters ---------------------------------------------------

    def _count_apply(self, args, kwargs):
        vec, mat = args[0], args[2]
        dim, width = vec.size, mat.shape[0]
        # one complex128 read and one write per entry; 2^w complex
        # multiply-adds (8 flops) per output entry
        self.counters["qcore.apply_vector_matrix.bytes_computed"] += 32 * dim
        self.counters["qcore.apply_vector_matrix.flops_computed"] += 8 * dim * width

    def _count_assignments(self, model):
        def on_return(args, kwargs, result):
            f, k = args[0], args[1]
            num = 1 << (k << f.n)
            self.counters["analysis.assignments"] += num * num if model == "smp" else num
        return on_return

    def _count_restarts(self, args, kwargs, outcome):
        best = outcome.best_value
        self.counters["attacks.restarts"] += len(outcome.restart_values)
        self.counters["attacks.useful_restarts"] += sum(
            1 for v in outcome.restart_values if abs(v - best) <= 1e-6)

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary function; restore the originals on exit."""
        import qpv.analysis
        import qpv.attacks
        import qpv.checks
        import qpv.cli
        import qpv.protocol
        import qpv.protocol.repetition
        import qpv.qcore

        saved = []

        def patch(owner, attr, name, **hooks):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

        def patch_item(table, key, name):
            saved.append((table, key, table[key]))
            table[key] = self.wrap(name, table[key])

        for fn in QCORE_FUNCTIONS:
            hooks = {"on_call": self._count_apply} if fn == "apply_vector_matrix" else {}
            patch(qpv.qcore, fn, f"qcore.{fn}", **hooks)
        patch(qpv.cli, "stream", "qcore.stream")
        for key in list(qpv.protocol.RUNNERS):
            patch_item(qpv.protocol.RUNNERS, key, "protocol.round")
        patch(qpv.protocol.repetition, "accept_probability", "protocol.accept_probability")
        patch(qpv.protocol, "constant_round_probability",
              "protocol.constant_round_probability")
        for fn in ("execute_route", "execute_route_reduced", "execute_meas"):
            patch(qpv.attacks, fn, "attacks.execute")
        patch(qpv.attacks, "seesaw_optimize", "attacks.seesaw_optimize",
              on_return=self._count_restarts)
        patch(qpv.attacks, "compile_gardenhose", "attacks.compile_gardenhose")
        patch(qpv.attacks, "epsilon_l_report", "attacks.epsilon_l_report")
        for suite in list(qpv.checks.CHECKS):
            patch_item(qpv.checks.CHECKS, suite, f"checks.{suite}")
        for model in ("smp", "oneway"):
            patch(qpv.analysis, f"{model}_cc_bruteforce", f"analysis.{model}_cc_bruteforce",
                  on_return=self._count_assignments(model))
        patch(qpv.analysis, "counting_bound", "analysis.counting_bound")
        for cmd in ("simulate", "attack_optimize", "bounds", "verify"):
            patch(qpv.cli, f"cmd_{cmd}", f"cli.cmd_{cmd}")
        try:
            yield
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def layer_totals(self, passes: int) -> dict:
        """Per-pass calls and self seconds per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        # counters computed from call arguments and results, not measured
        for name in ("qcore.apply_vector_matrix.bytes_computed",
                     "qcore.apply_vector_matrix.flops_computed", "analysis.assignments"):
            out[name] = self.counters[name] / passes
        restarts = self.counters["attacks.restarts"]
        out["attacks.useful_restart_ratio"] = (
            self.counters["attacks.useful_restarts"] / restarts if restarts else 0.0)
        return out

    def write_spans(self, path) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
