"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-hybrid --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced operations with operations run under
per-layer timing wrappers, and reports the per-layer metrics, the closure
check and the tracing overhead.  The metric names and units come from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from machine import (Probe, cpu_seconds, fingerprint,  # noqa: E402
                     peak_rss_mb, stop_children)
from tracing import LayerTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.perf import counting  # noqa: E402

#: a run is this many segments; each builds a fresh instance (timed:
#: ``setup_s`` is the median), measures, and tears the instance down
SEGMENTS = 5
#: fewest operations a segment measures, however short ``--seconds`` is
MIN_OPS = 2
#: probe time, in seconds, of the reference machine (2-core Intel Xeon VM,
#: Python 3.11.7, NumPy 2.4.6, OpenBLAS 0.3.31).  End-to-end times are
#: reported at this probe speed: a segment's times are multiplied by
#: REFERENCE_PROBE_S / (the segment's probe time, see _probe_time), and
#: its rates divided by the same factor.
REFERENCE_PROBE_S = 1.5e-3
#: the layers a traced run reports self time for (repro.<layer>)
LAYERS = ("nn", "stage", "transport", "engine", "parallel", "serve",
          "fleet", "sim")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _probe_time(probes: list) -> float:
    """The median probe of a segment, leaving out probes that took more
    than twice the fastest: those ran while the workload's own threads or
    worker processes still held the cores."""
    fastest = min(probes)
    return statistics.median(p for p in probes if p <= 2 * fastest)


def _calibrated(record: dict, scale: float) -> dict:
    """An op's record at the reference probe speed."""
    return {k: v / scale if k == "tok_s" else v * scale
            for k, v in record.items()}


class _Run:
    """What a run accumulates over its segments."""

    def __init__(self) -> None:
        self.records = []      # raw op records
        self.calibrated = []   # the same, at the reference probe speed
        self.setup_s = []      # raw set-up seconds
        self.setup_cal_s = []
        self.mem_mb = 0.0
        # traced runs: ops, untraced and traced wall, untraced CPU seconds
        self.n = 0
        self.wall_u = self.wall_t = self.cpu = 0.0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _segment(wl, seconds: float, probe: Probe, run: _Run) -> None:
    """Set up, then run ops for ``seconds`` with a probe between each."""
    probes = [probe.run()]
    setup = _timed(wl.setup)
    records = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(records) < MIN_OPS:
        probes.append(probe.run())
        records.append(wl.op())
    probes.append(probe.run())
    scale = REFERENCE_PROBE_S / _probe_time(probes)
    run.setup_s.append(setup)
    run.setup_cal_s.append(setup * scale)
    run.records += records
    run.calibrated += [_calibrated(r, scale) for r in records]


def _traced_segment(wl, seconds: float, probe: Probe, run: _Run,
                    tr: LayerTracer, ctr) -> None:
    """Set up, then alternate untraced and traced ops for ``seconds``, so
    both see the same machine; their difference is the tracing overhead."""
    run.setup_s.append(_timed(wl.setup))
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or n < MIN_OPS:
        pids = [os.getpid(), *wl.pids()]
        probe.run()
        cpu0 = cpu_seconds(pids)
        t0 = time.perf_counter()
        run.records.append(wl.op())
        run.wall_u += time.perf_counter() - t0
        run.cpu += cpu_seconds(pids) - cpu0
        probe.run()
        tr.resume()
        ctr.enabled = True
        try:
            run.wall_t += _timed(lambda: wl.traced_op(tr))
        finally:
            tr.suspend()
            ctr.enabled = False
        run.n += 1
        n += 1


def _traced_metrics(wl, tr: LayerTracer, run: _Run, probe: Probe) -> dict:
    n = run.n
    metrics = dict(wl.untraced_pass_metrics())
    # The tail of the untraced ops: too unsteady from run to run on a
    # shared host to carry a bound, so it is reported here.
    metrics["latency_ms.p90"] = wl.end_to_end(run.records)["latency_ms.p90"]
    metrics["proc.cpu_per_wall"] = run.cpu / run.wall_u
    metrics.update(wl.layers(tr, n, run.wall_t))
    for layer in LAYERS:
        metrics[f"self_ms.{layer}"] = tr.self_s[layer] * 1e3 / n
        metrics[f"calls.{layer}"] = tr.calls[layer] / n
    remainder = run.wall_t - tr.top_s
    # Closure: the layers' self times plus the untraced remainder must
    # account for the traced wall time.
    wl.check(abs(sum(tr.self_s.values()) + remainder - run.wall_t)
             <= 1e-6 * run.wall_t)
    metrics["trace.remainder_ms"] = remainder * 1e3 / n
    metrics["trace.attributed_share"] = tr.top_s / run.wall_t
    metrics["trace.overhead_ms"] = (run.wall_t - run.wall_u) * 1e3 / n
    metrics["trace.overhead_share"] = (run.wall_t - run.wall_u) / run.wall_u
    metrics["trace.ops"] = n
    metrics.update({f"probe.{k}": v for k, v in probe.summary().items()})
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"fingerprint": fingerprint(),
                      "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))

    wl = WORKLOADS[args.workload](args.seed)
    probe = Probe()
    run = _Run()
    with LayerTracer() as tr, counting() as ctr:
        ctr.enabled = False
        if args.trace:
            wl.wrap(tr)
            tr.suspend()
        for _ in range(SEGMENTS):
            try:
                if args.trace:
                    _traced_segment(wl, args.seconds / SEGMENTS, probe, run,
                                    tr, ctr)
                else:
                    _segment(wl, args.seconds / SEGMENTS, probe, run)
                run.mem_mb = max(run.mem_mb, peak_rss_mb(wl.pids()))
            finally:
                wl.teardown()

    if args.trace:
        got = _traced_metrics(wl, tr, run, probe)
    else:
        raw = wl.end_to_end(run.records)
        raw["setup_s"] = statistics.median(run.setup_s)
        print(json.dumps({"uncalibrated": raw, "ops": len(run.records)}))
        got = wl.end_to_end(run.calibrated)
        got["setup_s"] = statistics.median(run.setup_cal_s)
    got["mem.peak_rss_mb"] = run.mem_mb

    metrics = {}
    for m in wanted:
        if not args.trace and m["name"] not in got:
            raise KeyError(f"{args.workload} did not measure {m['name']}")
        value = float(got.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:>30} = {value:14.6g} {m['unit']}")
    print(json.dumps({"probe": probe.summary(),
                      "probe_runs": len(probe.gemm_s),
                      "setup_s": run.setup_s}))
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # a SIGTERM unwinds like an error, so the processes are still stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
