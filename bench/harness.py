"""The benchmark loop: set up a workload, run sessions back to back until
the run's time is up, check each one, and reduce the samples to metrics.

The loop is closed: one session at a time, each starting only after the
previous one has finished and been checked.  End-to-end metrics come from
untraced runs; a traced run reports the per-layer metrics instead.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from checks import check_session
from session import run_session


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Name-to-unit map of one metric list (`end_to_end` or `per_layer`)
    of the checkout's BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


MAX_REPORTED_FAILURES = 5


def run_benchmark(name: str, seed: int, seconds: float, traced: bool,
                  root: Path, quick: bool = False) -> dict:
    """Run one workload for `seconds` and return the result object."""
    workload = workloads.build(name, root / "programs", quick)
    samples: dict[str, list] = {}
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        workdir = Path(tmp)
        program_path = workdir / f"{name}.prog"
        program_path.write_text(workload.source, encoding="utf-8")
        deadline = perf_counter() + seconds
        while True:
            attempted += 1
            # Each session writes fresh files in its own directory, removed
            # after it: triples are one-time material, and rewriting a file
            # in place would add the filesystem's flush-on-truncate to the
            # offline time.
            session_dir = workdir / f"session-{attempted}"
            session_dir.mkdir()
            try:
                result = run_session(program_path, workload,
                                     f"{name}:{seed}:{attempted}", attempted,
                                     session_dir, traced)
            except Exception:  # noqa: BLE001 - a failed session, reported
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    traceback.print_exc(file=sys.stderr)
            else:
                failures = check_session(workload, result)
                if failures:
                    failed += 1
                    if failed <= MAX_REPORTED_FAILURES:
                        print(f"session {attempted} failed its checks: "
                              + "; ".join(failures[:5]), file=sys.stderr)
                else:
                    _collect(samples, result)
            finally:
                shutil.rmtree(session_dir)
            if perf_counter() >= deadline:
                break

    values = {key: statistics.median(series) for key, series in samples.items()}
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    units = metric_units(root, "per_layer" if traced else "end_to_end")
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in units.items() if key in values}
    print(f"{name}: {attempted} sessions, {failed} failed; "
          f"{'traced' if traced else 'untraced'} online median "
          f"{values.get('online_s', float('nan')):.6f} s", file=sys.stderr)
    # A session that raises has failed as surely as one that fails a check.
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _collect(samples: dict, result) -> None:
    rounds, _, _, bits = result.out1.transcript.account()
    per_session = {"setup_s": result.setup_s, "online_s": result.online_s,
                   "offline_s": result.offline_s, "rounds": rounds,
                   "comm_bits": bits, **result.layers}
    for key, value in per_session.items():
        samples.setdefault(key, []).append(value)
