"""Tests of the benchmark itself: every check rejects a corrupted session,
and a quick mode runs all three workloads end to end in a few seconds."""

from __future__ import annotations

import copy
import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from asmpc.costs import expected_for_node
from asmpc.errors import NumericOverflow

import workloads
from checks import (
    check_costs,
    check_parties,
    check_rounds,
    check_session,
    check_values,
)
import harness
from harness import metric_units, run_benchmark
from session import run_session

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


def _session(name: str, seed: str):
    workload = workloads.build(name, ROOT / "programs", quick=True)
    with tempfile.TemporaryDirectory() as tmp:
        program_path = Path(tmp) / f"{name}.prog"
        program_path.write_text(workload.source, encoding="utf-8")
        result = run_session(program_path, workload, seed, 1, Path(tmp))
    return result.plan, workload, result


@pytest.fixture(scope="module")
def demo():
    return _session("demo", "test:demo")


@pytest.fixture(scope="module")
def wide():
    return _session("wide", "test:wide")


def test_real_sessions_pass_every_check(demo, wide):
    for _, workload, result in (demo, wide):
        assert check_session(workload, result) == []


def test_value_check_rejects_each_shifted_output(demo):
    _, workload, result = demo
    references = workload.references(result.secrets)
    comparisons = workload.comparisons(result.secrets)
    assert set(references) | set(comparisons) == set(workload.reveal)
    for ref in references:
        revealed = dict(result.out1.revealed)
        revealed[ref] *= 1 + 1e-6
        failures = check_values(revealed, references, comparisons)
        assert len(failures) == 1 and failures[0].startswith(f"{ref}:")


def test_value_check_rejects_a_missing_output(demo):
    _, workload, result = demo
    revealed = dict(result.out1.revealed)
    del revealed["z"]
    assert check_values(revealed, workload.references(result.secrets),
                        workload.comparisons(result.secrets))


def test_comparison_check_rejects_flipped_outcomes(demo, wide):
    _, workload, result = demo
    revealed = dict(result.out1.revealed, o=1)
    assert check_values(revealed, workload.references(result.secrets),
                        workload.comparisons(result.secrets))

    _, workload, result = wide
    comparisons = workload.comparisons(result.secrets)
    assert comparisons and set(comparisons.values()) <= {-1, 1}
    for ref, sign in comparisons.items():
        revealed = dict(result.out1.revealed, **{ref: -sign})
        failures = check_values(revealed, workload.references(result.secrets),
                                comparisons)
        assert len(failures) == 1 and failures[0].startswith(f"{ref}:")


def test_cost_check_rejects_each_pair_off_by_one(demo, wide):
    for schedule, _, result in (demo, wide):
        measured = result.out1.transcript.node_costs()
        assert check_costs(schedule, measured) == []
        for pn in schedule.nodes:
            out = pn.node.out
            table = expected_for_node(pn.node)
            # One past the table; exact rows also reject one below it.
            offsets = [(1, 0), (0, 1)]
            if table.exact:
                offsets += [(-1, 0), (0, -1)]
            for dr, db in offsets:
                corrupt = dict(measured,
                               **{out: (table.rounds + dr, table.bits + db)})
                failures = check_costs(schedule, corrupt)
                assert len(failures) == 1 and failures[0].startswith(out)


def test_rounds_check_rejects_an_extra_round(demo):
    schedule, _, result = demo
    assert check_rounds(schedule, result.out1.transcript.rounds) == []
    assert check_rounds(schedule, result.out1.transcript.rounds + 1)


def test_party_check_rejects_disagreeing_parties(demo):
    _, _, result = demo
    assert check_parties(result.out1, result.out2) == []

    out2 = copy.deepcopy(result.out2)
    out2.revealed["p"] += 1e-12
    assert check_parties(result.out1, out2)

    out2 = copy.deepcopy(result.out2)
    first = out2.transcript.entries[0]
    flipped = bytes([first.payload[0] ^ 1]) + first.payload[1:]
    out2.transcript.entries[0] = dataclasses.replace(first, payload=flipped)
    assert check_parties(result.out1, out2)


@pytest.mark.parametrize("name", ["demo", "wide", "deep"])
def test_quick_mode_runs_each_workload(name):
    # Seed 1 is the command's default; seed 7 is a second one.
    for seed, traced in ((1, False), (7, True)):
        result = run_benchmark(name, seed, 0, traced, ROOT, quick=True)
        assert (result["correct"], result["attempted"], result["failed"]) \
            == (True, 1, 0)
        kind = "per_layer" if traced else "end_to_end"
        assert list(result["metrics"]) == list(metric_units(ROOT, kind))
    assert not list(ROOT.glob(".bench-tmp-*"))


def test_a_session_that_raises_is_incorrect(monkeypatch):
    def overflow(*args, **kwargs):
        raise NumericOverflow("injected")

    monkeypatch.setattr(harness, "run_session", overflow)
    result = run_benchmark("demo", 1, 0, False, ROOT, quick=True)
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 1, 1)
    assert not list(ROOT.glob(".bench-tmp-*"))


def test_command_fails_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
