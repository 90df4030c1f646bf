"""Layer spans for the engine, recorded from outside it.

Before a traced phase the bench replaces the public functions of each layer
module with wrappers. Modules bind names with ``from .x import y``, so a
wrapper goes on every ``polarpool`` module that binds the name, the defining
module included (``polarpool.ticks.fp_sin_cos``, ``polarpool.cli.load``, ...).
Each call records one span: name, start, end, parent span and op id. Spans
stay in memory until the phase ends; self time is a span's duration minus
the time its children cover.

``fp_add``, ``fp_sub``, ``fp_mul``, ``fp_div`` and the degree/radian and
price/angle conversions stay unwrapped: each costs about as much as a
wrapper would, so their time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
import time
import types
from array import array

LAYER_MODULES = ("fixed", "invariant", "swap", "polar", "ticks", "hedge",
                 "fingerprint", "poolfile")
UNWRAPPED = {"fp_add", "fp_sub", "fp_mul", "fp_div", "deg_to_rad", "rad_to_deg",
             "price_to_angle", "angle_to_price", "default_offset"}
# command functions, the parser and the shifted-mode scale solver live in cli
CLI_PREFIXES = ("cmd_", "build_parser", "_solve_")

FIXED_KINDS = {
    "trig": ("fp_sin", "fp_cos", "fp_sin_cos"),
    "inverse_trig": ("fp_acos", "fp_asin", "fp_atan2"),
    "log_exp": ("fp_ln", "fp_exp", "fp_pow"),
    "sqrt": ("fp_sqrt",),
}
CLOSED_FORM = ("ccmm_swap_exact_in", "ccmm_swap_exact_out", "csemm_swap_exact_in",
               "csemm_swap_exact_out", "swap_exact_in", "ndim_pairwise_swap")
BOUNDARY_SCANS = ("boundary_deltas", "active_liquidity")
FINGERPRINT_CLOSED = ("fingerprint_ccmm", "fingerprint_cemm", "fingerprint_csemm")


def _traced_label(module: str, fn_name: str) -> str | None:
    layer = module.rpartition(".")[2]
    if layer == "cli":
        return f"cli.{fn_name}" if fn_name.startswith(CLI_PREFIXES) else None
    if layer not in LAYER_MODULES or fn_name.startswith("_") or fn_name in UNWRAPPED:
        return None
    return f"{layer}.{fn_name}"


class Tracer:
    """Installs span wrappers on the loaded ``polarpool`` modules."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.segments: list[tuple[int, int]] = []  # (op id, segments) per tick swap
        self.drift: list[tuple[int, int]] = []  # (op id, quanta) per tick swap
        self.pool_bytes: list[tuple[int, int]] = []  # (op id, file size)
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, fn, label: str, post=None):
        nid = self._label_id(label)
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id: int, label: str) -> int:
        """Open the root span of one command; returns its index."""
        self.op_id = op_id
        idx = len(self.name)
        self.name.append(self._label_id(label))
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def end_op(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        del self.stack[1:]

    # -- post hooks ----------------------------------------------------------

    def _after_tick_swap(self, args, kwargs, result):
        segments = getattr(result, "segments", None)
        if segments is not None:
            self.segments.append((self.op_id, len(segments)))
        # never filtered: crossings count too, where the committed reserves
        # also jump to the virtual reserves of the new circle
        quote = getattr(result, "quote", None)
        state = next((a for a in list(args) + list(kwargs.values())
                      if hasattr(a, "reserves")), None)
        if quote is None or state is None:
            return
        old = [r.raw for r in state.reserves]
        new = [r.raw for r in quote.new_reserves]
        old[quote.token_in] += quote.amount_in.raw
        old[quote.token_out] -= quote.amount_out.raw
        self.drift.append((self.op_id, max(abs(a - b) for a, b in zip(old, new))))

    def _after_build_parser(self, args, kwargs, parser):
        parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")

    def _after_pool_io(self, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        try:
            self.pool_bytes.append((self.op_id, os.path.getsize(path)))
        except (OSError, TypeError):
            pass

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        posts = {"ticks.swap_across_ticks": self._after_tick_swap,
                 "cli.build_parser": self._after_build_parser,
                 "poolfile.load": self._after_pool_io,
                 "poolfile.save": self._after_pool_io}
        wrappers: dict[int, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("polarpool.") or module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                label = _traced_label(fn.__module__, fn.__name__)
                if label is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, label, posts.get(label))
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip'd TSV: index, name, parent, op, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\top\tstart_ns\tend_ns\n")
            labels = self.labels
            for k in range(len(self.name)):
                fh.write(f"{k}\t{labels[self.name[k]]}\t{self.parent[k]}\t{self.op[k]}"
                         f"\t{self.start[k]}\t{self.end[k]}\n")


class SpanTable:
    """Calls, self time and inclusive time of groups of spans over some ops."""

    def __init__(self, tracer: Tracer, ops):
        ops = set(ops)
        n = len(tracer.name)
        dur = [tracer.end[k] - tracer.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = tracer.parent[k]
            if p >= 0:
                child[p] += dur[k]
        labels = tracer.labels
        self.spans = [(labels[tracer.name[k]], dur[k], dur[k] - child[k], tracer.op[k],
                       labels[tracer.name[tracer.parent[k]]] if tracer.parent[k] >= 0 else None)
                      for k in range(n) if tracer.op[k] in ops]

    def select(self, match, outermost=False):
        """(inclusive ns, self ns, op) of spans whose label ``match`` accepts.

        With ``outermost``, spans whose parent also matches are left out, so
        nested calls within the group count once.
        """
        return [(incl, own, op) for label, incl, own, op, parent in self.spans
                if match(label) and not (outermost and parent is not None and match(parent))]


def named(names, layer=None):
    """Label matcher for functions ``names`` in ``layer`` (any layer if None)."""
    names = set(names)

    def match(label):
        head, _, fn = label.rpartition(".")
        return fn in names and (layer is None or head == layer)

    return match


def in_layer(layer):
    return lambda label: label.startswith(layer + ".")


def residual_kernel(label):
    """Residual evaluations; ``invariant_residual`` only dispatches to them."""
    return (label.startswith("invariant.") and label.endswith("_residual")
            and label != "invariant.invariant_residual")


def op_counts(tracer: Tracer, table: SpanTable, op_ids) -> list[dict]:
    """Deterministic operation counts for each op id, in order."""
    counters = {f"fixed.{kind}": named(names, "fixed") for kind, names in FIXED_KINDS.items()}
    counters["invariant.residual"] = residual_kernel
    counters["invariant.eta"] = named(("eta",), "invariant")
    counters["ticks.boundary_scan"] = named(BOUNDARY_SCANS, "ticks")
    rows = {op: dict.fromkeys(counters, 0) for op in op_ids}
    for label, _, _, op, _ in table.spans:
        row = rows.get(op)
        if row is None:
            continue
        for key, match in counters.items():
            if match(label):
                row[key] += 1
    for row in rows.values():
        row["ticks.segments"] = 0
        row["ticks.reserve_drift_quanta"] = 0
    for op, n in tracer.segments:
        if op in rows:
            rows[op]["ticks.segments"] += n
    for op, q in tracer.drift:
        if op in rows:
            row = rows[op]
            row["ticks.reserve_drift_quanta"] = max(row["ticks.reserve_drift_quanta"], q)
    return [rows[op] for op in op_ids]


SCALE_SOLVERS = ("solve_ccmm_scale", "solve_csemm_scale", "_solve_shifted_scale")


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, timed: SpanTable, setup: SpanTable, ops: int,
                  ops_by_command: dict) -> dict:
    """Per-layer metrics of one traced phase; ``ops`` is its successful ops."""
    per = 1.0 / max(ops, 1)
    ms = 1e-6

    def calls(match, outermost=False):
        return len(timed.select(match, outermost)) * per

    def self_ms(match):
        return sum(own for _, own, _ in timed.select(match)) * ms * per

    def mean_incl_ms(match):
        return _mean([incl for incl, _, _ in timed.select(match)]) * ms

    m = {}
    for kind, names in FIXED_KINDS.items():
        m[f"fixed.{kind}.calls_per_op"] = calls(named(names, "fixed"))
        if kind != "sqrt":
            m[f"fixed.{kind}.self_ms_per_op"] = self_ms(named(names, "fixed"))
    root_ms = sum(incl for incl, _, _ in timed.select(lambda label: label.startswith("op.")))
    fixed_ns = sum(own for _, own, _ in timed.select(in_layer("fixed")))
    m["fixed.self_share"] = fixed_ns / root_ms if root_ms else 0.0
    m["invariant.residual.calls_per_op"] = calls(residual_kernel)
    m["invariant.residual.self_ms_per_op"] = self_ms(
        lambda label: label.startswith("invariant.") and label.endswith("_residual"))
    m["invariant.eta.calls_per_op"] = calls(named(("eta",), "invariant"))
    m["invariant.scale_solve.ms"] = sum(
        incl for incl, _, _ in setup.select(named(SCALE_SOLVERS), outermost=True)) * ms
    m["swap.closed_form.calls_per_op"] = calls(named(CLOSED_FORM, "swap"), outermost=True)
    m["swap.closed_form.self_ms_per_op"] = self_ms(named(CLOSED_FORM, "swap"))
    m["polar.rotation.self_ms_per_op"] = self_ms(named(("polar_swap_exact_in",), "polar"))
    m["polar.angle_recompute.calls_per_op"] = calls(named(("cartesian_to_polar",), "polar"))
    traverse = named(("swap_across_ticks",), "ticks")
    m["ticks.traverse.self_ms_per_op"] = self_ms(traverse)
    durations = [incl * ms for incl, _, _ in timed.select(traverse)]
    m["ticks.traverse.p50_ms"] = percentile(durations, 0.5)
    m["ticks.traverse.p99_ms"] = percentile(durations, 0.99)
    m["ticks.boundary_scan.calls_per_op"] = calls(named(BOUNDARY_SCANS, "ticks"))
    m["ticks.boundary_scan.self_ms_per_op"] = self_ms(named(BOUNDARY_SCANS, "ticks"))
    timed_ops = {op for _, _, op in timed.select(lambda label: label.startswith("op."))}
    segments = [n for op, n in tracer.segments if op in timed_ops]
    m["ticks.segments.per_op"] = sum(segments) * per
    m["ticks.segments.p50"] = float(percentile(segments, 0.5))
    m["ticks.segments.p99"] = float(percentile(segments, 0.99))
    m["ticks.reserve_drift.max_quanta"] = float(max(
        (q for op, q in tracer.drift if op in timed_ops), default=0))
    hedge_samples = ops_by_command.get("hedge", 0)
    m["hedge.payoff.ms_per_sample"] = (
        sum(incl for incl, _, _ in timed.select(named(("hedge_payoff",), "hedge")))
        * ms / hedge_samples if hedge_samples else 0.0)
    m["fingerprint.radius.ms_per_sample"] = mean_incl_ms(
        named(("multimodal_radius",), "fingerprint"))
    m["fingerprint.closed_form.ms_per_sample"] = mean_incl_ms(
        named(FINGERPRINT_CLOSED, "fingerprint"))
    m["fingerprint.lp_payoff.ms_per_sample"] = mean_incl_ms(named(("lp_payoff",), "fingerprint"))
    m["poolfile.load.ms"] = mean_incl_ms(named(("load",), "poolfile"))
    m["poolfile.save.ms"] = mean_incl_ms(named(("save",), "poolfile"))
    m["poolfile.bytes"] = _mean([n for op, n in tracer.pool_bytes if op in timed_ops])
    m["cli.parse.ms_per_op"] = sum(
        incl for incl, _, _ in timed.select(named(("build_parser", "parse_args"), "cli"))
    ) * ms * per
    m["cli.command.self_ms_per_op"] = self_ms(
        lambda label: label.startswith("cli.cmd_"))
    return m
