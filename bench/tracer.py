"""Traced run of one reflectron command, and the per-layer metrics of its spans.

As a script, `python3 bench/tracer.py PREFIX RUN_ID -- <reflectron args>`
(with reflectron importable) wraps every public function of the
reflectron modules at every module that binds it, calls
reflectron.cli.main once with stdout captured, and then writes
PREFIX.report (the report bytes), PREFIX.spans.jsonl (one span per line:
run id, name, start, end, parent index, raised, first int argument) and
PREFIX.meta.json.  Spans stay in memory until main returns.

A layer is a reflectron module; a span is named after the module that
defines the function, whichever module's binding was called.  Pool
workers of `cubic-tab --workers 2` record into their own memory, which is
lost, so the trace covers the parent process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import sys
from time import perf_counter

LAYERS = ("arith", "quadforms", "cubicforms", "reflection", "fieldtables", "cli")


def _tabulation_counts(tab) -> dict[str, int]:
    return {
        "cubicforms.fields.pos": sum(n for disc, n in tab.counts.items() if disc > 0),
        "cubicforms.fields.neg": sum(n for disc, n in tab.counts.items() if disc < 0),
        "cubicforms.discs": len(tab.counts),
    }


# exact counts read from what a layer returns
_OBSERVE = {
    "cubicforms.enumerate_cubic_fields": _tabulation_counts,
    "fieldtables.parse_field_table": lambda entries: {"fieldtables.parse.rows": len(entries)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.observed: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, _OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            arg0 = args[0] if args and type(args[0]) is int else None
            raised = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, raised, arg0)
            if observe is not None:
                for key, n in observe(result).items():
                    self.observed[key] = self.observed.get(key, 0) + n
            return result

        return traced

    def install(self) -> None:
        """Wrap each public function once, and point every binding of it
        at that one wrapper.  All layers are imported before any is
        wrapped, so no binding is made from a wrapper."""
        modules = [importlib.import_module(f"reflectron.{layer}") for layer in LAYERS]
        wrappers: dict = {}  # original function -> its wrapper
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("reflectron."):
                    continue
                if value not in wrappers:
                    name = f"{home.removeprefix('reflectron.')}.{value.__name__}"
                    wrappers[value] = self.wrap(name, value)
                setattr(module, attr, wrappers[value])


def _trace(prefix: str, run_id: str, cli_args: list[str]) -> None:
    tracer = Tracer()
    tracer.install()
    from reflectron import cli

    captured = io.StringIO()
    stdout, sys.stdout = sys.stdout, captured
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout = stdout
    with open(f"{prefix}.report", "wb") as handle:
        handle.write(captured.getvalue().encode())
    # writing spans is not part of the traced run; the caller subtracts it
    start = perf_counter()
    with open(f"{prefix}.spans.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps([run_id, *span]) + "\n")
    write_s = perf_counter() - start
    with open(f"{prefix}.meta.json", "w") as handle:
        json.dump({"code": code, "write_s": write_s, "observed": tracer.observed}, handle)


def read_spans(path: str) -> list[tuple]:
    with open(path) as handle:
        return [tuple(json.loads(line)[1:]) for line in handle]


def layer_metrics(spans: list[tuple], observed: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `_s` metrics named after a function are inclusive time of its
    outermost spans; `self_s` subtracts the time its child spans cover.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, raised, arg0 in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    class_group = {-1: 0.0, 1: 0.0}
    errors = dict.fromkeys(LAYERS, 0)
    for i, (name, start, end, parent, raised, arg0) in enumerate(spans):
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + duration - child_time[i]
        errors[name.partition(".")[0]] += raised
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] = inclusive.get(name, 0.0) + duration
            if name == "quadforms.class_group":
                class_group[1 if arg0 > 0 else -1] += duration
    metrics = {
        "cli.emit_report_s": inclusive.get("cli.emit_report", 0.0),
        "arith.factorize.calls": calls.get("arith.factorize", 0),
        "arith.factorize.self_s": self_s.get("arith.factorize", 0.0),
        "arith.fundamental_discriminants_in_s": inclusive.get(
            "arith.fundamental_discriminants_in", 0.0
        ),
        "quadforms.class_group.calls": calls.get("quadforms.class_group", 0),
        "quadforms.class_group.neg_s": class_group[-1],
        "quadforms.class_group.pos_s": class_group[1],
        "quadforms.ell_rank.calls": calls.get("quadforms.ell_rank", 0),
        "quadforms.ell_rank_s": inclusive.get("quadforms.ell_rank", 0.0),
        "cubicforms.enumerate_s": inclusive.get("cubicforms.enumerate_cubic_fields", 0.0),
        "cubicforms.fields.pos": observed.get("cubicforms.fields.pos", 0),
        "cubicforms.fields.neg": observed.get("cubicforms.fields.neg", 0),
        "cubicforms.discs": observed.get("cubicforms.discs", 0),
        "reflection.verify_on3.calls": calls.get("reflection.verify_on3", 0),
        "reflection.verify_on3.self_s": self_s.get("reflection.verify_on3", 0.0),
        "cubicforms.count_N3.calls": calls.get("cubicforms.count_N3", 0),
        "reflection.corollary5_predict.calls": calls.get("reflection.corollary5_predict", 0),
        "reflection.corollary5_predict.self_s": self_s.get(
            "reflection.corollary5_predict", 0.0
        ),
        "fieldtables.parse.rows": observed.get("fieldtables.parse.rows", 0),
        "fieldtables.parse.self_s": self_s.get("fieldtables.parse_field_table", 0.0),
        "fieldtables.compare.calls": calls.get("fieldtables.compare_with_table", 0),
        "fieldtables.compare.self_s": self_s.get("fieldtables.compare_with_table", 0.0),
    }
    for layer, count in errors.items():
        metrics[f"{layer}.errors"] = count
    return metrics


if __name__ == "__main__":
    prefix, run_id, dashes, *cli_args = sys.argv[1:]
    if dashes != "--":
        sys.exit("usage: tracer.py PREFIX RUN_ID -- <reflectron args>")
    _trace(prefix, run_id, cli_args)
