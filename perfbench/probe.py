"""One benchmark operation: runs the scbandits CLI in this process and records
where the time went.

    python3 perfbench/probe.py <probe.json> <trace 0|1> <scbandits CLI args...>

run.py starts one such process per config. Before calling
``scbandits.cli.main`` the probe installs wrappers at the names the calling
modules look up; the program's source is not modified.

Always installed (cheap, one call per seed or per check group):

* every ``engine.run*`` function, at each module that imports it, marks the
  first call into the engine layer (the end of set-up for a regret run) and
  counts the rounds it was asked to play;
* every entry of ``verify.CHECK_GROUPS`` marks the first check group (the end
  of set-up for a verify run).

With trace 1 it also records spans (name, start, end, parent) around per-process,
per-config, per-seed and set-up calls, and, for calls made once per round,
only a count and a total time under the enclosing span, so memory stays
bounded however long the run. Everything is written to ``probe.json`` when
the process ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable with run.py's clock

# (owner, attribute, span name): calls made once per process, config or seed.
# The owner is a module, or a class, of the scbandits package.
SPANS = (
    ("cli", "cmd_run", "harness.cmd_run"),
    ("cli", "cmd_verify", "harness.cmd_verify"),
    ("harness", "generate", "environments.generate"),
    ("harness", "best_in_hindsight", "environments.best_in_hindsight"),
    ("harness", "cumulative_regret", "engine.cumulative_regret"),
    ("perturbations.PerturbationSampler", "for_set", "perturbations.sampler_setup"),
    ("estimation.KFunctionCache", "__init__", "estimation.kgrid_build"),
)


def _rows(args, kwargs) -> int:
    shape = getattr(args[1] if len(args) > 1 else kwargs.get("points"), "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _size(args, kwargs) -> int:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return 1 if size is None else int(size)


# (owner, attribute, aggregate name, items counter): calls made per round or
# per batch, kept as count + total time + items under the enclosing span.
COUNTED = (
    ("engine", "gaussians", "perturbations.gaussians", None),
    ("engine", "conjugate_gradient", "action_sets.conjugate_gradient", None),
    ("engine", "barrier_hessian", "action_sets.barrier_hessian", None),
    ("engine", "dikin_pole", "action_sets.dikin_pole", None),
    ("engine", "scribble_estimate", "estimation.scribble_estimate", None),
    ("engine", "local_norm_sq", "estimation.local_norm_sq", None),
    ("action_sets", "grad_support", "action_sets.grad_support", _rows),
    ("perturbations", "grad_support", "action_sets.grad_support", _rows),
    ("perturbations.RadialTable", "inverse_scalar", "perturbations.inverse_scalar", None),
    ("estimation.KFunctionCache", "__call__", "estimation.k_lookup", None),
    ("perturbations.PerturbationSampler", "draw", "perturbations.bulk_draw", _size),
)


def _patch(owner_path: str, attr: str, make) -> None:
    """Replace ``attr`` on a scbandits module or class by ``make(original)``.

    Names the program no longer has are skipped; their metrics read 0.
    """
    import scbandits
    owner = scbandits
    for part in owner_path.split("."):
        owner = getattr(owner, part, None)
    raw = vars(owner).get(attr) if owner is not None else None
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif raw is not None:
        setattr(owner, attr, make(raw))


def _run_counters(records) -> dict:
    """Step violations and the per-round trace size of a list of RoundRecords.

    The trace size is computed, not measured: the ndarray payload of one
    round's record. An engine that returns something else reports neither.
    """
    if not isinstance(records, list) or not records or not hasattr(records[0], "__dict__"):
        return {}
    return {
        "step_violations": sum(bool(getattr(r, "step_violation", False)) for r in records),
        "trace_bytes_per_round": sum(getattr(v, "nbytes", 0) for v in vars(records[0]).values()),
    }


def _k_misses(estimation) -> int | None:
    cache_info = getattr(estimation.k_function_ball, "cache_info", None)
    return None if cache_info is None else cache_info().misses


class Probe:
    """The wrappers installed in one process and what they recorded."""

    def __init__(self, trace: bool, start_ns: int, import_ns: int):
        from scbandits import estimation
        self.estimation = estimation
        self.trace = trace
        self.import_ns = import_ns
        self.first_engine_ns: int | None = None
        self.first_check_ns: int | None = None
        self.k_misses_at_engine: int | None = None
        self.rounds = 0
        self.engine_depth = 0
        self.spans = [{"id": 0, "name": "process", "parent": None, "start": start_ns, "end": None}]
        self.stack = [0]
        self.aggregates: dict[tuple[int, str], list[int]] = {}
        self.aborted_error: type[BaseException] | tuple = ()

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "parent": self.stack[-1],
                "start": clock(), "end": None}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = clock()
        self.stack.pop()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def counted(self, name: str, items, fn):
        aggregates, stack = self.aggregates, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            elapsed = clock() - start
            entry = aggregates.setdefault((stack[-1], name), [0, 0, 0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += items(args, kwargs) if items is not None else 1
            return out
        return wrapper

    # -- layer-boundary markers (both modes) ----------------------------------
    def engine_entry(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.engine_depth:
                return fn(*args, **kwargs)
            if self.first_engine_ns is None:
                self.first_engine_ns = clock()
                self.k_misses_at_engine = _k_misses(self.estimation)
            rounds = len(args[1] if len(args) > 1 else kwargs.get("losses", ()))
            self.rounds += rounds
            span = self._open("engine.run") if self.trace else None
            self.engine_depth += 1
            try:
                records = fn(*args, **kwargs)
            except self.aborted_error:
                if span is not None:
                    span["aborted"] = True
                raise
            finally:
                self.engine_depth -= 1
                if span is not None:
                    self._close(span)
            if span is not None:
                span["rounds"] = rounds
                span.update(_run_counters(records))
            return records
        return wrapper

    def check_group(self, fn):
        inner = self.span(f"verify.{fn.__name__}", fn) if self.trace else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first_check_ns is None:
                self.first_check_ns = clock()
            return inner(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        from scbandits import engine, harness, verify
        if self.trace:
            for owner, attr, name in SPANS:
                _patch(owner, attr, functools.partial(self.span, name))
            for owner, attr, name, items in COUNTED:
                _patch(owner, attr, functools.partial(self.counted, name, items))
        self.aborted_error = getattr(engine, "AbortedRunError", ())
        # Any engine entry point, however harness or verify reaches it.
        for module in (harness, verify, engine):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("run") and inspect.isfunction(fn)
                        and fn.__module__ == engine.__name__):
                    setattr(module, attr, self.engine_entry(fn))
        verify.CHECK_GROUPS = tuple(self.check_group(g) for g in verify.CHECK_GROUPS)

    def write(self, path: str) -> None:
        self.spans[0]["end"] = clock()
        data = {
            "import_ns": self.import_ns,
            "first_engine_ns": self.first_engine_ns,
            "first_check_ns": self.first_check_ns,
            "rounds": self.rounds,
            "k_misses_at_engine": self.k_misses_at_engine,
            "k_misses_end": _k_misses(self.estimation),
            "spans": self.spans,
            "aggregates": [{"parent": parent, "name": name, "count": c, "ns": ns, "items": items}
                           for (parent, name), (c, ns, items) in self.aggregates.items()],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def main() -> int:
    probe_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = clock()
    import scbandits.cli as cli
    probe = Probe(trace, start, clock() - start)
    probe.install()
    try:
        return cli.main(argv)
    finally:
        probe.write(probe_path)


if __name__ == "__main__":
    sys.exit(main())
