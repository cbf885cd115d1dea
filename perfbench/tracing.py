"""Traced replay: per-layer spans recorded from the benchmark's side.

Each op is replayed as the chain of public calls the CLI makes, one span
per call, all under one op span.  Where the program itself calls across a
layer boundary inside such a call (``verify_two_projection_law`` calling
``trial_spectra`` and ``ks_statistic``, ``certify_law`` calling
``alternating_moment``, ``ideals_to_json`` calling ``ideal_lattice``), the
callee is wrapped for the duration of the replay so that it gets a child
span; nothing in the program is changed.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("cli", "model", "engine", "conjectures", "nc", "twoproj", "rmt")


class Tracer:
    """Spans as [name, layer, start, end, parent index, op id] records."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = time.perf_counter()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, layer):
            return fn(*args, **kwargs)

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def wrapped(self, module, attr: str, layer: str, counter=None, name_of=None):
        """Give every call to ``module.attr`` made during the block a span."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            name = name_of(*args) if name_of is not None else attr
            with self.span(name, layer):
                out = original(*args, **kwargs)
            if counter is not None:
                counter(self, out)
            return out

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# Replays: the calls cmd_<subcommand> makes, in order
# ---------------------------------------------------------------------------

def _replay_structure(t: Tracer, path: str, fmt: str, ideals: bool) -> None:
    from freeprod import engine, model
    from freeprod.errors import FreeprodError

    try:
        spec = t.call("load_problem", "model", model.load_problem, path)
        t.count("model.calls")
        problem = t.call("normalize_problem", "model", model.normalize_problem, spec)
        t.count("model.calls")
        report = t.call("decompose", "engine", engine.decompose, problem)
    except FreeprodError:
        return  # a refusal: the CLI prints one error line
    t.count("engine.tuples", len(report.summands) + len(report.characters))
    if ideals:
        t.call("ideals_to_json", "engine", engine.ideals_to_json, report)
        t.count("engine.ideals", report.ideal_count)
    elif fmt == "json":
        t.call("report_to_json", "engine", engine.report_to_json, report)


def _replay_conjecture(t: Tracer, path: str, kind: str) -> None:
    from freeprod import conjectures, model

    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if kind == "abelian":
        x = t.call("factor_from_json", "model", model.factor_from_json, obj["X"])
        y = t.call("factor_from_json", "model", model.factor_from_json, obj["Y"])
        t.count("model.calls", 2)
        verdict = t.call("conjecture_abelian", "conjectures", conjectures.conjecture_abelian, x, y)
    else:
        a = t.call("matrix_block_from_json", "conjectures", conjectures.matrix_block_from_json, obj["A"])
        b = t.call("matrix_block_from_json", "conjectures", conjectures.matrix_block_from_json, obj["B"])
        verdict = t.call("conjecture_finite_dim", "conjectures", conjectures.conjecture_finite_dim, a, b)
    t.count("conjectures.calls")
    t.call("verdict_to_json", "conjectures", verdict.to_json)


def _replay_oracle(t: Tracer, alpha: str, beta: str) -> None:
    from freeprod import nc, twoproj

    a, b = Fraction(alpha), Fraction(beta)
    # moments --max-n 8 --compare-law
    law = t.call("two_projection_law", "twoproj", twoproj.two_projection_law, a, b)
    for n in range(9):
        if n:
            with t.span(f"alternating_moment[{n}]", "nc"):
                nc.alternating_moment(a, b, n)
            t.count("nc.moments")
        t.call("law_moment", "twoproj", twoproj.law_moment, law, n)
    t.call("wedge_trace", "nc", nc.wedge_trace, a, b)
    # two-proj
    t.call("two_projection_law", "twoproj", twoproj.two_projection_law, a, b)
    t.call("two_projection_structure", "twoproj", twoproj.two_projection_structure, a, b)
    # the benchmark's own library call
    t.call("certify_law", "twoproj", twoproj.certify_law, a, b)


def _replay_mc(t: Tracer, e: dict, csv_path) -> None:
    from freeprod import rmt

    a, b = Fraction(e["alpha"]), Fraction(e["beta"])
    args = (a, b, e["dim"], e["seed"], e["trials"])
    report = t.call("verify_two_projection_law", "rmt", rmt.verify_two_projection_law, *args)
    if csv_path is not None:
        # the second sampling pass of cmd_mc; its span comes from
        # wrapped_callees, like the pass inside verify_two_projection_law
        spectra = rmt.trial_spectra(*args)
        with t.span("eigenvalue_csv_rows", "rmt"):
            with open(csv_path, "w", encoding="utf-8") as fh:
                for line in rmt.eigenvalue_csv_rows(spectra):
                    fh.write(line + "\n")
    t.call("report_to_json", "rmt", report.to_json)


def _count_spectra(t: Tracer, spectra) -> None:
    t.count("rmt.eigenvalues", sum(len(s) for s in spectra))


@contextmanager
def wrapped_callees(t: Tracer):
    """Wrap the cross-layer calls the program makes inside a replayed call."""
    from freeprod import engine, rmt, twoproj

    with t.wrapped(rmt, "trial_spectra", "rmt", _count_spectra), \
            t.wrapped(rmt, "ks_statistic", "rmt"), \
            t.wrapped(twoproj, "alternating_moment", "nc",
                      lambda tr, _: tr.count("nc.moments"),
                      lambda a, b, n: f"alternating_moment[{n}]"), \
            t.wrapped(engine, "ideal_lattice", "engine"):
        yield


def replay(t: Tracer, op, paths: dict, csv_path) -> None:
    """Replay one op under one op span."""
    with t.span("op", "bench"):
        if op.kind in ("analyze", "refuse", "ideals"):
            argv = op.argvs[0]
            fmt = argv[argv.index("--format") + 1]
            _replay_structure(t, paths[argv[1]], fmt, op.kind == "ideals")
        elif op.kind == "conjecture":
            argv = op.argvs[0]
            _replay_conjecture(t, paths[argv[3]], op.expect["kind"])
        elif op.kind == "oracle":
            _replay_oracle(t, op.expect["alpha"], op.expect["beta"])
        else:
            _replay_mc(t, op.expect, csv_path)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def layer_times(t: Tracer) -> dict:
    """Busy and self seconds per layer, and seconds per span name.

    A layer is busy while any of its outermost spans (those whose parent is
    another layer) is open; its self time is its spans' durations minus the
    part covered by child spans of other layers.
    """
    spans = t.spans
    dur = [s[3] - s[2] for s in spans]
    child_other = [0.0] * len(spans)
    for i, (name, layer, _, _, parent, _) in enumerate(spans):
        if parent >= 0 and spans[parent][1] != layer:
            child_other[parent] += dur[i]
    busy = {}
    self_t = {}
    by_name = {}
    for i, (name, layer, _, _, parent, _) in enumerate(spans):
        key = f"{layer}.{name.split('[')[0]}"
        by_name[key] = by_name.get(key, 0.0) + dur[i]
        outer = parent < 0 or spans[parent][1] != layer
        if outer:
            busy[layer] = busy.get(layer, 0.0) + dur[i]
            self_t[layer] = self_t.get(layer, 0.0) + dur[i] - child_other[i]
    top_order = sum(d for s, d in zip(spans, dur) if s[0] == "alternating_moment[8]")
    return {"busy": busy, "self": self_t, "by_name": by_name, "top_order": top_order,
            "op_children": _op_children(spans, dur)}


#: Calls the benchmark makes itself, not through the CLI.
LIBRARY_CALLS = frozenset({"certify_law"})


def _op_children(spans, dur) -> dict:
    """Per op id: seconds covered by the direct children of its op span that
    replay a CLI call (so ``cli.run`` minus this is the CLI's own time)."""
    out: dict = {}
    for i, s in enumerate(spans):
        parent = s[4]
        if parent >= 0 and spans[parent][0] == "op" and s[0] not in LIBRARY_CALLS:
            out[s[5]] = out.get(s[5], 0.0) + dur[i]
    return out
