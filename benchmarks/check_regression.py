"""Performance-regression gate for the trainer step times and serving
throughput.

Re-measures the trainer section of :mod:`bench_wallclock` and compares
each variant's ``min_s`` against the **best** time recorded for that
variant across *every* committed ``BENCH_PR*.json`` at the repo root
that carries a ``trainers`` section (a later PR may have made a variant
faster; the gate must hold the high-water mark, not the oldest file).
The winning baseline file is printed per variant.  When
``BENCH_PR5.json`` is present it also re-measures the
:mod:`bench_serving` functional throughput (tokens/s) and the
deterministic DES tail latency, and when ``BENCH_PR6.json`` is present
it re-measures one process-backend step (:mod:`bench_scaling`) and —
only on machines with >= 4 cores — asserts the >= 2x scaling bar at 4
ranks.  That comparison is skipped (with a message) when this
machine's core count differs from the one the baseline was recorded
on, since process-backend times are not comparable across core counts.
On any machine with >= 2 cores it also times process x1 and x2 in the
same run and fails unless x2 is faster, whatever cores the baseline
was recorded on.
When ``BENCH_PR10.json`` is present the elastic-fleet DES is re-run and
gated: the diurnal p99 TTFTs and replica-seconds must hold, and the
structural acceptance bars — both elastic policies >= 25% cheaper than
static at the same met SLO, disaggregated beating unified p99 at equal
hardware — are re-asserted on the fresh rows.  Exits nonzero when any
metric regressed by more than the
threshold (default 20%), so CI can fail the build::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.1

The opt-in ``pytest -m bench`` marker (``tests/test_bench_regression.py``)
runs this script as a subprocess; it is excluded from the default test
run because a timing gate on a loaded machine is noise, not signal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_fleet  # noqa: E402  (needs the path tweak above)
import bench_scaling  # noqa: E402
import bench_schedules  # noqa: E402
import bench_serving  # noqa: E402
import bench_wallclock  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_serving(baseline_path: Path, threshold: float) -> bool:
    """Compare fresh serving numbers against ``BENCH_PR5.json``.

    Returns True when a regression was detected.  Throughput must not
    drop by more than ``threshold``; the DES p99 TTFT (deterministic in
    the model, so any change is a model change) must not grow by more
    than ``threshold``.
    """
    if not baseline_path.exists():
        print(f"no serving baseline found at {baseline_path}; nothing to "
              f"compare against.\nRun `PYTHONPATH=src python "
              f"benchmarks/bench_serving.py` to record one.")
        return False
    baseline = json.loads(baseline_path.read_text())

    failed = False
    fresh = bench_serving.bench_functional()
    for name, stats in fresh.items():
        base = baseline["functional"][name]["tokens_per_s"]
        ratio = stats["tokens_per_s"] / base
        status = "ok"
        if ratio < 1.0 - threshold:
            status = "REGRESSION"
            failed = True
        print(f"{name:>16}: {stats['tokens_per_s']:.1f} tok/s vs baseline "
              f"{base:.1f} tok/s ({ratio:.2f}x)  {status}")

    des = bench_serving.bench_des()
    for key in ("saturated_throughput_tok_s", "ttft_p99_ms_light"):
        base, now = baseline["des"][key], des[key]
        worse = now / base if key.startswith("ttft") else base / now
        status = "ok"
        if worse > 1.0 + threshold:
            status = "REGRESSION"
            failed = True
        print(f"{key:>28}: {now:.2f} vs baseline {base:.2f}  {status}")
    return failed


def check_schedules(baseline_path: Path, threshold: float) -> bool:
    """Compare fresh schedule-DES numbers against ``BENCH_PR9.json``.

    Returns True when a regression was detected.  The simulation is
    deterministic (no jitter), so makespans growing past ``threshold``
    means the cost model or a schedule changed.  The PR's structural
    acceptance bar — interleaved and zero-bubble beat 1F1B's bubble
    fraction at depth 4 — is re-asserted on the fresh numbers.
    """
    if not baseline_path.exists():
        print(f"no schedule baseline found at {baseline_path}; nothing to "
              f"compare against.\nRun `PYTHONPATH=src python "
              f"benchmarks/bench_schedules.py` to record one.")
        return False
    baseline = json.loads(baseline_path.read_text())["schedules"]

    failed = False
    fresh = bench_schedules.bench_schedules()
    for stages, per_sched in fresh.items():
        for name, stats in per_sched.items():
            base = baseline.get(stages, {}).get(name)
            if base is None:
                print(f"S={stages} {name:>12}: new schedule, no baseline")
                continue
            ratio = stats["makespan_s"] / base["makespan_s"]
            status = "ok"
            if ratio > 1.0 + threshold:
                status = "REGRESSION"
                failed = True
            print(f"S={stages} {name:>12}: makespan "
                  f"{stats['makespan_s']:.4f}s vs baseline "
                  f"{base['makespan_s']:.4f}s ({ratio:.2f}x)  {status}")
    at4 = fresh.get("4", {})
    if at4:
        bar = at4["1f1b"]["bubble_fraction"]
        for name in ("interleaved", "zb-h1"):
            ok = name in at4 and at4[name]["bubble_fraction"] < bar
            print(f"acceptance: {name} bubble beats 1f1b ({bar:.4f}) at "
                  f"S=4: {'ok' if ok else 'REGRESSION'}")
            failed = failed or not ok
    return failed


def check_fleet(baseline_path: Path, threshold: float) -> bool:
    """Compare fresh elastic-fleet numbers against ``BENCH_PR10.json``.

    Returns True when a regression was detected.  The fleet DES is
    deterministic, so diurnal/flash p99 TTFT or replica-seconds drifting
    past ``threshold`` means the cost model or a policy changed.  On top
    of the drift gate, the PR's structural bars are re-asserted on the
    fresh rows: under the diurnal trace every elastic policy must pay
    <= 75% of static's replica-seconds while holding the p99 SLO static
    holds, and the disaggregated split must beat the unified pool's p99
    TTFT at equal hardware.
    """
    if not baseline_path.exists():
        print(f"no fleet baseline found at {baseline_path}; nothing to "
              f"compare against.\nRun `PYTHONPATH=src python "
              f"benchmarks/bench_fleet.py` to record one.")
        return False
    baseline = json.loads(baseline_path.read_text())["fleet"]

    failed = False
    fresh = bench_fleet.bench_fleet()
    for section in ("diurnal", "flash"):
        base_rows = {r["policy"]: r for r in baseline.get(section, [])}
        for row in fresh[section]:
            base = base_rows.get(row["policy"])
            if base is None:
                print(f"{section} {row['policy']:>12}: new policy, "
                      f"no baseline")
                continue
            for key in ("ttft_p99_ms", "replica_seconds"):
                ratio = row[key] / base[key] if base[key] else 1.0
                status = "ok"
                if ratio > 1.0 + threshold:
                    status = "REGRESSION"
                    failed = True
                print(f"{section} {row['policy']:>12} {key}: "
                      f"{row[key]:.1f} vs baseline {base[key]:.1f} "
                      f"({ratio:.2f}x)  {status}")

    # structural acceptance bars, on the fresh rows
    from repro.experiments import AUTOSCALE_SLO_S
    slo_ms = AUTOSCALE_SLO_S * 1e3
    by_policy = {r["policy"]: r for r in fresh["diurnal"]}
    static = by_policy["static-peak"]
    for name in ("reactive", "predictive"):
        row = by_policy[name]
        holds = (static["ttft_p99_ms"] > slo_ms
                 or row["ttft_p99_ms"] <= slo_ms)
        cheaper = row["replica_seconds"] <= 0.75 * static["replica_seconds"]
        ok = holds and cheaper
        print(f"acceptance: {name} meets the SLO static meets at <= 75% "
              f"of its replica-seconds: {'ok' if ok else 'REGRESSION'}")
        failed = failed or not ok
    uni = next(r for r in fresh["disaggregation"]
               if r["policy"] == "unified")
    dis = next(r for r in fresh["disaggregation"]
               if r["policy"] == "disaggregated")
    ok = dis["ttft_p99_ms"] < uni["ttft_p99_ms"]
    print(f"acceptance: disaggregated p99 {dis['ttft_p99_ms']:.1f}ms beats "
          f"unified {uni['ttft_p99_ms']:.1f}ms at equal hardware: "
          f"{'ok' if ok else 'REGRESSION'}")
    failed = failed or not ok
    ok = fresh["failover"]["lost"] == 0
    print(f"acceptance: failover loses nothing "
          f"(lost={fresh['failover']['lost']:.0f}): "
          f"{'ok' if ok else 'REGRESSION'}")
    failed = failed or not ok
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max allowed fractional step-time regression")
    parser.add_argument("--serving-baseline", type=Path,
                        default=bench_serving.OUTPUT,
                        help="committed BENCH_PR5.json to compare against")
    parser.add_argument("--scaling-baseline", type=Path,
                        default=bench_scaling.OUTPUT,
                        help="committed BENCH_PR6.json to compare against")
    parser.add_argument("--schedules-baseline", type=Path,
                        default=bench_schedules.OUTPUT,
                        help="committed BENCH_PR9.json to compare against")
    parser.add_argument("--fleet-baseline", type=Path,
                        default=bench_fleet.OUTPUT,
                        help="committed BENCH_PR10.json to compare against")
    parser.add_argument("--bench-root", type=Path, default=REPO_ROOT,
                        help="directory globbed for BENCH_PR*.json trainer "
                             "baselines")
    args = parser.parse_args(argv)

    failed = check_trainers(args.threshold, args.bench_root)
    failed = check_serving(args.serving_baseline, args.threshold) or failed
    failed = check_scaling(args.scaling_baseline, args.threshold) or failed
    failed = check_schedules(args.schedules_baseline,
                             args.threshold) or failed
    failed = check_fleet(args.fleet_baseline, args.threshold) or failed
    return 1 if failed else 0


def best_trainer_baselines(root: Path = REPO_ROOT) -> Dict[str, Tuple[float, str]]:
    """Best ``min_s`` per trainer variant across all ``BENCH_PR*.json``.

    Returns ``{variant: (min_s, filename)}`` — the fastest time any
    committed bench file ever recorded for that variant and which file
    holds it.  Files without a ``trainers`` section (e.g. the serving
    baseline) are skipped.
    """
    best: Dict[str, Tuple[float, str]] = {}
    for path in sorted(root.glob("BENCH_PR*.json")):
        try:
            trainers = json.loads(path.read_text()).get("trainers")
        except (json.JSONDecodeError, OSError):
            continue
        if not isinstance(trainers, dict):
            continue
        for name, stats in trainers.items():
            min_s = stats.get("min_s")
            if min_s is None:
                continue
            if name not in best or min_s < best[name][0]:
                best[name] = (min_s, path.name)
    return best


def check_trainers(threshold: float, root: Path = REPO_ROOT) -> bool:
    """Compare fresh trainer step times against the best committed time.

    The baseline per variant is the minimum ``min_s`` across every
    ``BENCH_PR*.json`` carrying a ``trainers`` section; the file that
    holds the winning time is printed alongside each comparison.
    """
    best = best_trainer_baselines(root)
    if not best:
        # No baseline is not a regression — a fresh checkout (or CI cache
        # miss) has nothing to compare against.  Say so clearly and pass.
        print(f"no trainer baseline found (no BENCH_PR*.json with a "
              f"trainers section under {root}); nothing to compare "
              f"against.\nRun `PYTHONPATH=src python "
              f"benchmarks/bench_wallclock.py` to record one.")
        return False

    fresh = bench_wallclock.bench_trainers()
    failed = False
    for name, stats in fresh.items():
        if name not in best:
            print(f"{name:>13}: {stats['min_s']:.4f}s (no baseline; "
                  f"recorded for future gates)")
            continue
        base_min, source = best[name]
        ratio = stats["min_s"] / base_min
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            failed = True
        print(f"{name:>13}: {stats['min_s']:.4f}s vs best baseline "
              f"{base_min:.4f}s from {source} ({ratio:.2f}x)  {status}")
    return failed


def check_scaling(baseline_path: Path, threshold: float) -> bool:
    """Gate the process-backend numbers when ``BENCH_PR6.json`` exists:
    a same-run ratio, then the recorded step time.

    The same-run gate compares nothing recorded: on a machine with >= 2
    cores it times process x1 and x2 in three alternating rounds and
    fails unless the x2 ``min_s`` is below the x1 ``min_s`` — two
    workers with a core each must beat one.  Both sides run on this
    machine in this run, so the ratio holds on any host; on one core the
    workers time-slice a single CPU and the gate is skipped with a
    message.

    Then it re-measures one 2-rank process-backend step and compares it
    with the committed time.  Process-backend step time is a function of
    how many workers actually run in parallel, so that comparison holds
    only when this machine has the same core count the baseline was
    recorded on — otherwise it is skipped with a message rather than
    gating against an apples-to-oranges bar (a 1-core baseline looks
    like a huge "speedup" on any multi-core box, and vice versa).  The
    ISSUE's >= 2x-at-4-ranks bar is additionally asserted only when both
    machines have >= 4 cores — on fewer cores the workers time-slice one
    CPU and the bar is physically unattainable, so it is reported as not
    measurable instead of faked.
    """
    if not baseline_path.exists():
        print(f"no scaling baseline found at {baseline_path}; nothing to "
              f"compare against.\nRun `PYTHONPATH=src python "
              f"benchmarks/bench_scaling.py` to record one.")
        return False
    baseline = json.loads(baseline_path.read_text())

    n_cores = bench_scaling.cores()
    failed = False
    if n_cores >= 2:
        mins: Dict[int, list] = {1: [], 2: []}
        for _round in range(3):  # alternate: host drift hits both sides
            for ranks in mins:
                mins[ranks].append(
                    bench_scaling.bench_backend("process", ranks)["min_s"])
        one, two = min(mins[1]), min(mins[2])
        failed = not two < one
        print(f"{'process x2/x1':>13}: {two:.4f}s vs {one:.4f}s "
              f"({two / one:.2f}x, same run; target < 1.0x)  "
              f"{'REGRESSION' if failed else 'ok'}")
    else:
        print(f"{'process x2/x1':>13}: skipped — {n_cores} core; two "
              f"workers time-slice one CPU, so x2 cannot beat x1")

    recorded_cores = int(baseline.get("cores", 1))
    if n_cores != recorded_cores:
        print(f"{'scaling':>13}: skipped — baseline "
              f"{baseline_path.name} was recorded on {recorded_cores} "
              f"core(s), this machine has {n_cores}; process-backend "
              f"times are not comparable across core counts.  Re-record "
              f"with `PYTHONPATH=src python benchmarks/bench_scaling.py` "
              f"to gate on this machine.")
        return failed

    fresh = bench_scaling.bench_backend("process", 2)
    base_min = baseline["scaling"]["process"]["2"]["min_s"]
    ratio = fresh["min_s"] / base_min
    status = "ok"
    if ratio > 1.0 + threshold:
        status = "REGRESSION"
        failed = True
    print(f"{'process x2':>13}: {fresh['min_s']:.4f}s vs baseline "
          f"{base_min:.4f}s ({ratio:.2f}x)  {status}")

    if n_cores >= 4 and recorded_cores >= 4:
        speedup = baseline["speedup_vs_1rank"]["process"]["4"]
        ok = speedup >= 2.0
        if not ok:
            failed = True
        print(f"{'scaling bar':>13}: process x4 {speedup:.2f}x vs x1 "
              f"(target >= 2.0x)  {'ok' if ok else 'REGRESSION'}")
    else:
        print(f"{'scaling bar':>13}: not measurable (recorded on "
              f"{recorded_cores} core(s), running on {n_cores}); "
              f"honest numbers only")
    return failed


if __name__ == "__main__":
    sys.exit(main())
