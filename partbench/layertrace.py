"""In-process traced run of one partlab CLI command.

The tracer wraps public functions of partlab's modules from outside the
package and records a span (id, name, start, end, parent) for every call,
plus work counts at the same boundaries.  Layers are named after partlab's
modules; `counting` is split into the table factory and the three engines.
A target that a later version of partlab no longer has is skipped and
listed in the record, and its metrics read 0.

Only the first SPAN_LIMIT spans are kept verbatim; the per-name totals and
self times cover every call.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import io
import os
import pickle
import resource
import sys
import time
import traceback
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

SPAN_LIMIT = 20_000

LAYERS = (
    "cli",
    "sweeps",
    "counting.tables",
    "counting.engines",
    "packed",
    "bounds",
    "series",
    "reporting",
)

# (module, attribute, layer); a dotted attribute is a method of a class.
TARGETS = (
    ("sweeps", "run_verify", "sweeps"),
    ("sweeps", "table_rows", "sweeps"),
    ("sweeps", "sweep_rows", "sweeps"),
    ("sweeps", "oracle_equivalence_rows", "sweeps"),
    ("counting", "TableFactory.aplus", "counting.tables"),
    ("counting", "TableFactory.full_a", "counting.tables"),
    ("counting", "TableFactory.rplus", "counting.tables"),
    ("counting", "TableFactory.table", "counting.tables"),
    ("counting", "count_dp", "counting.engines"),
    ("counting", "count_recurrence", "counting.engines"),
    ("counting", "count_bruteforce", "counting.engines"),
    ("packed", "pack", "packed"),
    ("packed", "unpack", "packed"),
    ("packed", "convolve_truncated", "packed"),
    ("bounds", "check_theorem1", "bounds"),
    ("bounds", "check_erdos", "bounds"),
    ("bounds", "check_rplus_poly_bound", "bounds"),
    ("bounds", "check_nathanson_chain", "bounds"),
    ("bounds", "asymptotic_ratio", "bounds"),
    ("bounds", "BoundReport.as_row", "bounds"),
    ("series", "check_eq1", "series"),
    ("series", "check_eq2_pointwise", "series"),
    ("series", "check_eq3", "series"),
    ("series", "check_sinh_inequality", "series"),
    ("series", "check_sqrt_inequality", "series"),
    ("series", "check_derivative_nonpositive", "series"),
    ("series", "find_counterexample_odd_remark", "series"),
    ("series", "SeriesCheckReport.as_row", "series"),
    ("reporting", "canon_row", "reporting"),
    ("reporting", "document_to_json", "reporting"),
    ("reporting", "rows_to_csv", "reporting"),
)

# Calls whose growth of the peak RSS is attributed to them.
RSS_SAMPLED = {
    "counting.count_recurrence",
    "reporting.canon_row",
    "reporting.document_to_json",
    "reporting.rows_to_csv",
}

BOUND_CHECKS = {
    "bounds.check_theorem1",
    "bounds.check_erdos",
    "bounds.check_rplus_poly_bound",
    "bounds.check_nathanson_chain",
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span stack with per-name calls and times, per-layer self times."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [id, name, layer, start, child_s, rss_kb, outer]
        self.open_layers: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.layer_outer_s: defaultdict = defaultdict(float)  # outermost spans only
        self.rss_growth_kb: defaultdict = defaultdict(int)
        self.work: Counter = Counter()
        self.specs: set = set()
        self.last_verify_config = None
        self.spans: list[tuple] = []
        self.span_total = 0

    def enter(self, name: str, layer: str) -> list:
        outer = self.open_layers[layer] == 0
        self.open_layers[layer] += 1
        rss = _peak_rss_kb() if outer and name in RSS_SAMPLED else None
        self.span_total += 1
        frame = [self.span_total, name, layer, time.perf_counter(), 0.0, rss, outer]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, layer, start, child_s, rss, outer = frame
        self.stack.pop()
        self.open_layers[layer] -= 1
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.layer_self_s[layer] += duration - child_s
        if outer:
            self.layer_outer_s[layer] += duration
        if rss is not None:
            self.rss_growth_kb[name] += max(0, _peak_rss_kb() - rss)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += duration
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    def wrap(self, name: str, layer: str, fn):
        enter, exit_, observe = self.enter, self.exit, self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        """Work counts taken at the span boundary."""
        if name in BOUND_CHECKS:
            self.work["bounds.rows"] += len(result)
        elif name.startswith("series.check_") or name == "series.find_counterexample_odd_remark":
            self.work["series.points"] += len(result) if isinstance(result, list) else 1
        elif name == "packed.pack":
            self.work["packed.bytes"] += len(args[0]) * args[1]
        elif name == "packed.unpack":
            self.work["packed.bytes"] += args[1] * args[2]
        elif name.startswith("counting.TableFactory.") and len(args) > 1:
            self.specs.add(args[1])
        elif name == "sweeps.run_verify" and args:
            self.last_verify_config = args[0]

    def install(self, modules: dict) -> tuple[list, list[str]]:
        """Wrap every target found; return the undo list and missing targets."""
        undo, missing = [], []
        for modname, attr, layer in TARGETS:
            mod = modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(f"{modname}.{attr}", layer, original)
            # Rebind every name that refers to the original, including
            # `from .x import f` copies in other partlab modules.
            holders = [owner] if owner_name else list(modules.values())
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapped)
        return undo, missing


def _undo(undo: list) -> None:
    for holder, key, value in reversed(undo):
        setattr(holder, key, value)


class _TimedText:
    """Text stream whose writes are spans of the cli layer (emission)."""

    def __init__(self, stream, tracer: Tracer) -> None:
        self._stream, self._tracer = stream, tracer

    def write(self, text: str) -> int:
        frame = self._tracer.enter("cli.emit", "cli")
        try:
            return self._stream.write(text)
        finally:
            self._tracer.exit(frame)

    def flush(self) -> None:
        frame = self._tracer.enter("cli.emit", "cli")
        try:
            self._stream.flush()
        finally:
            self._tracer.exit(frame)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def _partlab_modules(src: str) -> dict:
    if src not in sys.path:
        sys.path.insert(0, src)
    import partlab.cli  # noqa: F401  (loads every module the CLI uses)

    return {
        name.split(".", 1)[1]: mod
        for name, mod in list(sys.modules.items())
        if name.startswith("partlab.") and mod is not None
    }


def traced_main(src: str, argv: list[str], stdout_path: str) -> dict:
    """Run `partlab <argv>` in this process with 1 worker, traced."""
    modules = _partlab_modules(src)
    tracer = Tracer()
    undo, missing = tracer.install(modules)
    saved_env = os.environ.get("PARTLAB_THREADS")
    os.environ["PARTLAB_THREADS"] = "1"
    saved_out, saved_err = sys.stdout, sys.stderr
    err = io.StringIO()
    try:
        with open(stdout_path, "w", encoding="utf-8", newline="") as fh:
            sys.stdout, sys.stderr = _TimedText(fh, tracer), err
            root = tracer.enter("cli.main", "cli")
            try:
                code = modules["cli"].main(argv)
                sys.stdout.flush()
            except Exception:  # a crash is a failed run, reported by the gate
                code = -1
                err.write(traceback.format_exc())
            finally:
                tracer.exit(root)
    finally:
        sys.stdout, sys.stderr = saved_out, saved_err
        _undo(undo)
        if saved_env is None:
            os.environ.pop("PARTLAB_THREADS", None)
        else:
            os.environ["PARTLAB_THREADS"] = saved_env
    return {"code": code, "stderr": err.getvalue(), "tracer": tracer, "missing": missing}


def pool_speedup(src: str, config) -> dict:
    """Time run_verify at 1 and at 2 workers; size the rows the pool returns."""
    sweeps = _partlab_modules(src)["sweeps"]
    received: list = []
    original_map = ProcessPoolExecutor.map

    def recording_map(self, fn, *iterables, **kwargs):
        for item in original_map(self, fn, *iterables, **kwargs):
            received.append(item)
            yield item

    times, ok = {}, True
    for workers in (1, 2):
        gc.collect()
        ProcessPoolExecutor.map = recording_map
        try:
            start = time.perf_counter()
            result = sweeps.run_verify(dataclasses.replace(config, workers=workers))
            times[workers] = time.perf_counter() - start
        finally:
            ProcessPoolExecutor.map = original_map
        ok = ok and bool(result.ok)
        del result
    result_bytes = sum(len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)) for item in received)
    return {"t1_s": times[1], "t2_s": times[2], "ok": ok, "result_bytes": result_bytes}


def layer_metrics(tracer: Tracer, output_bytes: int, pool: dict | None, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    `<layer>.self_s` is the layer's span time minus its child spans; the
    self times of all layers add up to cli.main_s.  `bounds.check_s`,
    `counting.table_s` and `series.check_s` count only a layer's outermost
    spans.  The factory multiplies packed tables itself, so those products
    are part of counting.table_self_s; packed.bytes_computed counts the
    bytes packed and unpacked.  An rss_growth figure is how far the process's
    peak RSS rose inside those calls.  sweeps.result_bytes is the pickled
    size of what the pool's workers return at 2 workers; it and
    sweeps.pool_speedup read 0 where the command runs no pool.
    """
    t, calls, work = tracer.total_s, tracer.calls, tracer.work
    main_s = t["cli.main"]
    bound_rows = work["bounds.rows"]
    aplus_calls = calls["counting.TableFactory.aplus"]
    return {
        "reporting.canon_row_s": (t["reporting.canon_row"], "s"),
        "reporting.canon_row_calls": (calls["reporting.canon_row"], "count"),
        "reporting.document_to_json_s": (t["reporting.document_to_json"], "s"),
        "reporting.rows_to_csv_s": (t["reporting.rows_to_csv"], "s"),
        "reporting.output_bytes": (output_bytes, "bytes"),
        "reporting.rss_growth_mb": (
            sum(v for k, v in tracer.rss_growth_kb.items() if k.startswith("reporting.")) / 1024,
            "MB",
        ),
        "reporting.self_s": (tracer.layer_self_s["reporting"], "s"),
        "bounds.check_s": (tracer.layer_outer_s["bounds"], "s"),
        "bounds.rows": (bound_rows, "count"),
        "bounds.us_per_row": (
            1e6 * tracer.layer_outer_s["bounds"] / bound_rows if bound_rows else 0.0,
            "us",
        ),
        "bounds.self_s": (tracer.layer_self_s["bounds"], "s"),
        "counting.table_s": (tracer.layer_outer_s["counting.tables"], "s"),
        "counting.table_self_s": (tracer.layer_self_s["counting.tables"], "s"),
        "counting.aplus_calls_per_spec": (
            aplus_calls / len(tracer.specs) if tracer.specs else 0.0,
            "calls/spec",
        ),
        "packed.pack_s": (t["packed.pack"], "s"),
        "packed.unpack_s": (t["packed.unpack"], "s"),
        "packed.bytes_computed": (work["packed.bytes"], "bytes"),
        "packed.self_s": (tracer.layer_self_s["packed"], "s"),
        "counting.count_dp_s": (t["counting.count_dp"], "s"),
        "counting.count_dp_calls": (calls["counting.count_dp"], "count"),
        "counting.count_recurrence_s": (t["counting.count_recurrence"], "s"),
        "counting.count_recurrence_rss_growth_mb": (
            tracer.rss_growth_kb["counting.count_recurrence"] / 1024,
            "MB",
        ),
        "counting.count_bruteforce_s": (t["counting.count_bruteforce"], "s"),
        "counting.count_bruteforce_calls": (calls["counting.count_bruteforce"], "count"),
        "counting.engines_self_s": (tracer.layer_self_s["counting.engines"], "s"),
        "series.check_s": (tracer.layer_outer_s["series"], "s"),
        "series.points": (work["series.points"], "count"),
        "series.self_s": (tracer.layer_self_s["series"], "s"),
        "sweeps.run_verify_s": (t["sweeps.run_verify"], "s"),
        "sweeps.table_rows_s": (t["sweeps.table_rows"], "s"),
        "sweeps.pool_speedup": (pool["t1_s"] / pool["t2_s"] if pool else 0.0, "x"),
        "sweeps.result_bytes": (pool["result_bytes"] if pool else 0, "bytes"),
        "sweeps.self_s": (tracer.layer_self_s["sweeps"], "s"),
        "cli.main_s": (main_s, "s"),
        "cli.emit_s": (t["cli.emit"], "s"),
        "cli.self_s": (tracer.layer_self_s["cli"], "s"),
        "trace.overhead_s": (main_s - untraced_wall_s, "s"),
    }
