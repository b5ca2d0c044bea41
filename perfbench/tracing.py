"""Layer spans for a traced run, recorded from outside the package.

`install()` replaces the layer entry points with timing wrappers, as module
attributes, so the package's source stays untouched:

    cli.simulate_point               -> span "simulator" (+ tracemalloc peak)
    simulator.uniform_block          -> span "simulator.rng"
    simulator._block_outcomes        -> span "simulator.select"
    analytics.oracle                 -> span "analytics.oracle"
    analytics.closed_form            -> span "analytics.series"
    cli._write_csv,
    analytics.write_validation_report -> span "cli.write"

Module-level functions look their callees up in the module namespace at call
time, so internal calls (validate_point -> oracle, _all_outcomes ->
uniform_block) go through the wrappers too.

Oracle integrand evaluations are counted from quadpack's own `neval`, by
standing in for `scipy.integrate` inside `analytics` and forcing
`full_output`.  A Python counter in the integrand callback would double the
run time of an oracle-bound command.

`tracing.overhead_s` is what tracing adds to the command, estimated inside
the traced process so that the machine's drift between processes does not
reach it: the time the wrappers spend around the calls they time, plus the
number of counted `quad` calls times the extra cost of one counted call.
The per-allocation cost of tracemalloc inside simulator spans is left out.
"""
from __future__ import annotations

import functools
import math
import statistics
import time
import timeit
import tracemalloc
import warnings
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    evals: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps every span in memory; `summary` reduces them to layer metrics."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.quad_evals = 0
        self.quad_calls = 0
        self.bookkeeping_s = 0.0  # time spent in the wrappers around the calls

    def wrap(self, module, attr: str, name: str, observe=None, memory: bool = False) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(name, self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            evals = self.quad_evals
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._open.pop()
            span.evals = self.quad_evals - evals
            if observe is not None:
                span.attrs.update(observe(*args, **kwargs, result=result))
            self.bookkeeping_s += (span.start - entered) + (time.perf_counter() - span.end)
            return result

        setattr(module, attr, wrapper)

    def summary(self, main_s: float) -> dict[str, float]:
        """Per-layer metrics; `main_s` is the wall time of `cli.main`."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.duration

        def of(name: str) -> list[Span]:
            return [span for span in self.spans if span.name == name]

        def busy(name: str) -> float:
            return sum(span.duration for span in of(name))

        def total(name: str, key: str) -> float:
            return sum(span.attrs[key] for span in of(name))

        sim, rng, select = busy("simulator"), busy("simulator.rng"), busy("simulator.select")
        oracle_ms = [span.duration * 1e3 for span in of("analytics.oracle")]
        series_ms = [span.duration * 1e3 for span in of("analytics.series")]
        words = total("simulator.rng", "words")
        blocks = [span.attrs["block"] for span in of("simulator.rng")]
        selected = total("simulator.select", "trials")
        top_level = sum(span.duration for span in self.spans if span.parent is None)
        return {
            "simulator.points": len(of("simulator")),
            "simulator.trials": total("simulator", "trials"),
            "simulator.busy_s": sim,
            "simulator.self_s": sim - sum(
                child_s[i] for i, span in enumerate(self.spans) if span.name == "simulator"
            ),
            "simulator.wall_share": sim / main_s,
            "simulator.rng.busy_s": rng,
            "simulator.rng.words": words,
            "simulator.rng.words_per_s": words / rng if rng > 0 else 0.0,
            "simulator.rng.reuse_ratio": len(set(blocks)) / len(blocks) if blocks else 0.0,
            "simulator.select.busy_s": select,
            "simulator.select.trials_per_s": selected / select if select > 0 else 0.0,
            "simulator.peak_traced_mb": max(
                (span.attrs["peak_bytes"] for span in of("simulator")), default=0
            ) / 2**20,
            "analytics.oracle.cells": len(oracle_ms),
            "analytics.oracle.busy_s": busy("analytics.oracle"),
            "analytics.oracle.wall_share": busy("analytics.oracle") / main_s,
            "analytics.oracle.cell_ms_p50": statistics.median(oracle_ms) if oracle_ms else 0.0,
            "analytics.oracle.cell_ms_max": max(oracle_ms, default=0.0),
            "analytics.oracle.evals": sum(span.evals for span in of("analytics.oracle")),
            "analytics.oracle.unconverged": sum(
                not span.attrs["ok"] for span in of("analytics.oracle")
            ),
            "analytics.series.cells": len(series_ms),
            "analytics.series.busy_s": busy("analytics.series"),
            "analytics.series.cell_ms_max": max(series_ms, default=0.0),
            "analytics.series.out_of_range": sum(
                not span.attrs["ok"] for span in of("analytics.series")
            ),
            "cli.write.busy_s": busy("cli.write"),
            "cli.self_s": main_s - top_level,
            "tracing.overhead_s": self.bookkeeping_s + self.quad_calls * _counting_quad_cost(),
        }


class _CountingIntegrate:
    """Stands in for `scipy.integrate` inside `analytics`, summing `neval`."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name: str):
        return getattr(self._module, name)

    def quad(self, *args, full_output=0, **kwargs):
        out = self._module.quad(*args, full_output=1, **kwargs)
        self._tracer.quad_evals += out[2]["neval"]
        self._tracer.quad_calls += 1
        if full_output:
            return out
        if len(out) > 3:
            # quad warns instead of returning the message without full_output
            warnings.warn(out[3], self._module.IntegrationWarning, stacklevel=2)
        return out[:2]


def _counting_quad_cost(calls: int = 200, repeat: int = 7) -> float:
    """Extra seconds per `quad` call that counting adds (mostly `full_output`).

    Timed on a cheap integrand: the extra work, building quadpack's info
    dict and the bookkeeping above, does not depend on the integrand.
    """
    from scipy import integrate

    counting = _CountingIntegrate(integrate, Tracer())

    def best(quad) -> float:
        return min(timeit.repeat(lambda: quad(math.sin, 0.0, 1.0), number=calls, repeat=repeat))

    return max(best(counting.quad) - best(integrate.quad), 0.0) / calls


def install() -> Tracer:
    """Wrap the layer entry points of an imported rts_secrecy; return the tracer."""
    from rts_secrecy import analytics, cli, simulator

    tracer = Tracer()
    tracer.wrap(
        cli, "simulate_point", "simulator", memory=True,
        observe=lambda p, scheme, mode, trials, *rest, result, **kw: {"trials": trials},
    )
    tracer.wrap(
        simulator, "uniform_block", "simulator.rng",
        observe=lambda seed, k, start, count, result: {
            "words": count * simulator.trial_stride(k),
            "block": (seed, k, start, count),
        },
    )
    tracer.wrap(
        simulator, "_block_outcomes", "simulator.select",
        observe=lambda p, scheme, mode, u, result: {"trials": u.shape[0]},
    )
    tracer.wrap(
        analytics, "oracle", "analytics.oracle",
        observe=lambda *args, result, **kw: {"ok": result.ok},
    )
    tracer.wrap(
        analytics, "closed_form", "analytics.series",
        observe=lambda *args, result, **kw: {"ok": result.ok},
    )
    tracer.wrap(cli, "_write_csv", "cli.write")
    tracer.wrap(analytics, "write_validation_report", "cli.write")
    analytics.integrate = _CountingIntegrate(analytics.integrate, tracer)
    return tracer
