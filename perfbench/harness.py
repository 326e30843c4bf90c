"""Stage runner, call timing, span tracing and the correctness gate.

A workload is a list of stages.  The runner cycles through them, one
closed-loop client, until the run's time is spent; every call the
benchmark makes into a cubefield layer goes through Context.call, which
times it and, in a traced execution, keeps a span in memory.
"""

import json
import math
import statistics
import time
import tracemalloc
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Callable

TAIL_MIN_BEYOND = 10  # a reported percentile has at least this many samples beyond it
MIN_MEASURED_CYCLES = 3  # run even past the deadline, so every stage time is a median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str
    run_id: str


@dataclass
class Execution:
    """One run of one stage: its time, its calls and the checks it made."""
    stage: str
    traced: bool
    warmup: bool = False
    seconds: float = 0.0
    busy: dict = field(default_factory=dict)    # "module.function" -> seconds
    calls: dict = field(default_factory=dict)   # "module.function" -> count
    counts: dict = field(default_factory=dict)  # computed counters, e.g. walsh.fwht.butterflies
    latencies: dict = field(default_factory=dict)  # "module.function" -> [seconds]
    peaks: dict = field(default_factory=dict)  # "module.function" -> largest bytes of one call
    attempted: int = 0
    failed: int = 0


class Context:
    """What a stage sees: timed calls into the program and the gate."""

    def __init__(self, run_id: str, memory: frozenset = frozenset()):
        self.run_id = run_id
        self.memory = memory  # functions whose calls in the warm-up cycle run under tracemalloc
        self.spans: list[Span] = []
        self.failures: list[str] = []  # the first few misses, for the report
        self.current: Execution | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        ex = self.current
        if ex.warmup and name in self.memory:
            return self._call_traced_memory(name, fn, *args, **kwargs)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        ex.busy[name] = ex.busy.get(name, 0.0) + (t1 - t0)
        ex.calls[name] = ex.calls.get(name, 0) + 1
        ex.latencies.setdefault(name, []).append(t1 - t0)
        if ex.traced:
            self.spans.append(Span(name, t0, t1, ex.stage, self.run_id))
        return result

    def _call_traced_memory(self, name: str, fn: Callable, *args, **kwargs):
        """Peak bytes the call allocates on top of what was live when it began.

        tracemalloc is started just before the call, so only the call's own
        allocations are traced.  The warm-up cycle's times are not used, so
        tracemalloc's cost there does not reach any reported time.
        """
        ex = self.current
        tracemalloc.start(1)
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ex.calls[name] = ex.calls.get(name, 0) + 1
        ex.peaks[name] = max(ex.peaks.get(name, 0), peak)
        return result

    def count(self, name: str, amount: float):
        ex = self.current
        ex.counts[name] = ex.counts.get(name, 0) + amount

    def check(self, what: str, ok: bool, detail=""):
        """One verified operation; a miss counts toward fail_ratio."""
        ex = self.current
        ex.attempted += 1
        if not ok:
            ex.failed += 1
            self.note(f"{ex.stage}: {what}: {detail}")

    def note(self, line: str):
        if len(self.failures) < 20:
            self.failures.append(line)


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


@dataclass
class Stage:
    name: str
    run: Callable[[Context], None]


def run_stages(stages: list[Stage], seconds: float, trace: bool, ctx: Context) -> list[Execution]:
    """Cycle through the stages until `seconds` are spent.

    The first cycle is a warm-up: its outputs are checked but its times are
    not used, since the first large allocations and lazy imports of a
    process are paid once, not per pass; the peak memory of the calls in
    ctx.memory is measured there.  MIN_MEASURED_CYCLES cycles are measured
    after it whatever the deadline; later stages start only while their
    median still fits.  With tracing, each stage alternates traced and
    untraced executions, starting traced, so the tracing overhead is
    measured inside the same run and every stage runs both ways.
    """
    executions: list[Execution] = []
    measured: dict[str, list[float]] = {s.name: [] for s in stages}
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        stage = stages[i % len(stages)]
        warmup = i < len(stages)
        done = measured[stage.name]
        if i >= (1 + MIN_MEASURED_CYCLES) * len(stages) and \
                time.perf_counter() + statistics.median(done) > deadline:
            break
        ex = execute(stage, ctx, traced=trace and not warmup and len(done) % 2 == 0,
                     warmup=warmup)
        if not warmup:
            done.append(ex.seconds)
        executions.append(ex)
        i += 1
    return executions


def execute(stage: Stage, ctx: Context, traced: bool = False, warmup: bool = False) -> Execution:
    """Run one stage; a call that raises is one failed operation."""
    ex = Execution(stage.name, traced=traced, warmup=warmup)
    ctx.current = ex
    t0 = time.perf_counter()
    try:
        stage.run(ctx)
    except Exception as err:
        ex.attempted += 1
        ex.failed += 1
        ctx.note(f"{stage.name}: raised {err!r}\n{traceback.format_exc(limit=4)}")
    ex.seconds = time.perf_counter() - t0
    ctx.current = None
    return ex


def new_run_id() -> str:
    return uuid.uuid4().hex[:12]


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> dict:
    """Median and the highest whole percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    for pct in range(99, 49, -1):
        idx = max(0, math.ceil(pct / 100 * n) - 1)
        if n - 1 - idx >= TAIL_MIN_BEYOND:
            out[f"p{pct}"] = values[idx]
            break
    return out


def per_pass(executions: list[Execution], pick: Callable[[Execution], float],
             traced: bool | None = None) -> float:
    """Sum over stages of the median per-execution value: one full pass."""
    by_stage: dict[str, list[float]] = {}
    for ex in executions:
        if traced is None or ex.traced == traced:
            by_stage.setdefault(ex.stage, []).append(pick(ex))
    return sum(statistics.median(v) for v in by_stage.values())


def write_spans(path, spans: list[Span]):
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "run_id": s.run_id}) + "\n")
