"""Shared benchmark fixtures and result recording.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index).  Because the substrate is pure Python while
the paper's is C inside real SGX, absolute numbers differ; each bench

* measures a sweep at sizes feasible in pure Python,
* fits the operation's complexity curve (Table I) to the measurements, and
* extrapolates to the paper's axis to make the shape comparison explicit.

Series are printed and also appended to ``benchmarks/results/*.txt`` so a
full run leaves a reviewable record (EXPERIMENTS.md quotes those files).

Environment knobs:

* ``REPRO_BENCH_SCALE`` (float, default 1.0) — multiplies sweep sizes for
  the macro benchmarks; 0.5 halves them for quick runs, 2.0 doubles.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import quickstart_system
from repro.crypto.rng import DeterministicRng
from repro.pairing import PairingGroup, preset

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int, minimum: int = 2) -> int:
    return max(minimum, int(n * bench_scale()))


class ResultSink:
    """Collects printed series and persists them per benchmark module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lines = []
        RESULTS_DIR.mkdir(exist_ok=True)

    def line(self, text: str = "") -> None:
        self._lines.append(text)
        print(text)

    def table(self, title: str, headers, rows) -> None:
        from repro.bench import print_table
        self.line(f"\n== {title} ==")
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
            if rows else len(str(headers[i]))
            for i in range(len(headers))
        ]
        header = "  ".join(str(h).ljust(widths[i])
                           for i, h in enumerate(headers))
        self._lines.append(header)
        self._lines.append("-" * len(header))
        print(header)
        print("-" * len(header))
        for row in rows:
            text = "  ".join(str(c).ljust(widths[i])
                             for i, c in enumerate(row))
            self._lines.append(text)
            print(text)

    def flush(self) -> None:
        path = RESULTS_DIR / f"{self.name}.txt"
        path.write_text("\n".join(self._lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def sink(request):
    sink = ResultSink(Path(request.module.__file__).stem)
    yield sink
    sink.flush()


@pytest.fixture(scope="session")
def std_group() -> PairingGroup:
    """PBC a.param-equivalent parameters (the paper's security level)."""
    return PairingGroup(preset("std160"))


@pytest.fixture(scope="session")
def toy_group() -> PairingGroup:
    """Fast toy parameters for the macro (trace-replay) benchmarks."""
    return PairingGroup(preset("toy64"))


def make_bench_system(seed: str, capacity: int, params: str = "toy64",
                      system_bound: int | None = None,
                      auto_repartition: bool = True,
                      workers: int | None = 1):
    return quickstart_system(
        partition_capacity=capacity,
        params=params,
        rng=DeterministicRng(f"bench:{seed}"),
        auto_repartition=auto_repartition,
        system_bound=system_bound or capacity,
        workers=workers,
    )


#: The dotted metric names the pipeline reports track.  ``cloud.bytes_in``
#: is upload volume (put payloads), ``cloud.bytes_out`` download volume
#: (get payloads) — the asymmetric quantities cloud providers meter and
#: bill separately.
FOOTPRINT_METRICS = (
    "sgx.crossings",
    "sgx.ecalls",
    "cloud.requests",
    "cloud.batch_commits",
    "cloud.bytes_in",
    "cloud.bytes_out",
)


def footprint_counters(system) -> dict:
    """Boundary-crossing and cloud-traffic counters for pipeline reports,
    read from the unified telemetry snapshot (``System.telemetry()``)."""
    metrics = system.telemetry()["metrics"]
    return {name: metrics[name] for name in FOOTPRINT_METRICS}


def footprint_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in before}


def traced_breakdown(sink, title: str, action) -> None:
    """Run ``action`` once with span tracing enabled and print the
    per-category self-time breakdown into the sink.

    Always a *separate* rerun, never the timed measurement — tracing
    overhead must not contaminate the numbers the assertions check."""
    from repro import obs

    tr = obs.tracer()
    was_enabled = tr.enabled
    tr.reset()
    tr.enable()
    try:
        action()
    finally:
        if not was_enabled:
            tr.disable()
    sink.line(f"\n  {title} (traced rerun):")
    for line in obs.breakdown_table(tr.spans()):
        sink.line(f"    {line}")
    # Persist the spans as a Chrome trace next to the text results, so a
    # reviewer can open the run in chrome://tracing / Perfetto.
    slug = "".join(c if c.isalnum() else "-" for c in title.lower())
    obs.write_chrome_trace(
        tr.spans(), RESULTS_DIR / f"{sink.name}.{slug}.trace.json"
    )
    tr.reset()
