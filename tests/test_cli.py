import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from asmpc import MaskSource, RandomnessPolicy, stage_inputs, write_share_file
from asmpc.cli import main

from helpers import BALANCED

PROGRAM = (
    "p = mul(x, y)\n"
    "q = exp(p, base=e)\n"
    "c = cmp(p, x)\n"
)


def _write_program(tmp_path, text=PROGRAM):
    path = tmp_path / "prog.txt"
    path.write_text(text)
    return path


def _write_shares(tmp_path, secrets, seed=5):
    masks = MaskSource(RandomnessPolicy(
        additive_bound=BALANCED.additive_bound,
        mult_bound=BALANCED.mult_bound,
        mult_floor=BALANCED.mult_floor, seed=seed))
    path = tmp_path / "shares.csv"
    write_share_file(path, stage_inputs(secrets, masks))
    return path


def _deal(tmp_path, std, resh, session=1, seed=9):
    t1, t2 = tmp_path / "p1.triples", tmp_path / "p2.triples"
    rc = main(["dealer", "--standard", str(std), "--resharing", str(resh),
               "--session", str(session), "--out-p1", str(t1),
               "--out-p2", str(t2), "--seed", str(seed),
               "--mask.additive_bound", "0.25", "--mask.mult_bound", "2.0",
               "--mask.mult_floor", "1.0"])
    assert rc == 0
    return t1, t2


def test_plan_command(tmp_path, capsys):
    prog = _write_program(tmp_path, "f = mul(x, y)\n")
    assert main(["plan", "--program", str(prog)]) == 0
    out = capsys.readouterr().out
    assert "steps=1 standard=1 resharing=0" in out


def test_oracle_command(tmp_path, capsys):
    prog = _write_program(tmp_path, "f = div(x, y)\n")
    inputs = tmp_path / "plain.txt"
    inputs.write_text("x = 6\ny = 3\n")
    assert main(["oracle", "--program", str(prog), "--inputs", str(inputs)]) == 0
    assert "f = 2.0" in capsys.readouterr().out


def test_dealer_run_report_pipeline(tmp_path, capsys):
    prog = _write_program(tmp_path)
    shares = _write_shares(tmp_path, dict(x=1.25, y=0.75))
    t1, t2 = _deal(tmp_path, 1, 2)
    run1 = tmp_path / "run1.json"
    run2 = tmp_path / "run2.json"
    rc = main(["run", "--party", "both", "--program", str(prog),
               "--inputs", str(shares), "--triples", str(t1),
               "--triples-p2", str(t2), "--reveal", "q",
               "--out", str(run1), "--out-p2", str(run2)])
    assert rc == 0
    data = json.loads(run1.read_text())
    # mul takes step 1; exp and cmp both depend on p only, so exp's single
    # round coalesces with cmp's first round.
    assert data["account"]["rounds"] == 4
    assert data["account"]["bits_total"] == 256 + 128 + 130
    out = capsys.readouterr().out
    assert "revealed q" in out

    csv = tmp_path / "rows.csv"
    assert main(["report", "--run", str(run1), "--csv", str(csv)]) == 0
    report = capsys.readouterr().out
    assert "MISMATCH" not in report
    rows = csv.read_text().splitlines()
    assert rows[0] == "op,n,rounds_expected,rounds_actual,bits_expected,bits_actual"
    assert "mul,2,1,1,256,256" in rows

    # Both parties computed identical accounting.
    assert json.loads(run2.read_text())["account"] == data["account"]


def test_run_over_tcp_loopback(tmp_path):
    prog = _write_program(tmp_path, "f = mul(x, y)\n")
    shares = _write_shares(tmp_path, dict(x=3.0, y=5.0))
    t1, t2 = _deal(tmp_path, 1, 0)
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    port = 17420
    rcs = {}

    def party1():
        rcs[1] = main(["run", "--party", "1", "--program", str(prog),
                       "--inputs", str(shares), "--triples", str(t1),
                       "--bind", f"127.0.0.1:{port}", "--reveal", "f",
                       "--out", str(out1)])

    t = threading.Thread(target=party1)
    t.start()
    rcs[2] = main(["run", "--party", "2", "--program", str(prog),
                   "--inputs", str(shares), "--triples", str(t2),
                   "--peer", f"127.0.0.1:{port}", "--reveal", "f",
                   "--out", str(out2)])
    t.join()
    assert rcs == {1: 0, 2: 0}
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["revealed"]["f"] == pytest.approx(15.0, rel=1e-9)
    assert d1["account"] == d2["account"]
    from asmpc import SessionTranscript

    t1_canon = SessionTranscript.from_rows(1, d1["entries"]).canonical_bytes()
    t2_canon = SessionTranscript.from_rows(1, d2["entries"]).canonical_bytes()
    assert t1_canon == t2_canon


def test_usage_errors_exit_2(tmp_path):
    assert main(["plan"]) == 2                      # missing --program
    bad = tmp_path / "bad.txt"
    bad.write_text("f = frobnicate(x)\n")
    assert main(["plan", "--program", str(bad)]) == 2


def test_triple_exhaustion_exit_6(tmp_path):
    prog = _write_program(tmp_path, "f = mul(x, y)\n")
    shares = _write_shares(tmp_path, dict(x=1.0, y=2.0))
    t1, t2 = _deal(tmp_path, 0, 0)  # no triples for a mul
    rc = main(["run", "--party", "both", "--program", str(prog),
               "--inputs", str(shares), "--triples", str(t1),
               "--triples-p2", str(t2)])
    assert rc == 6


def test_config_file_feeds_policies(tmp_path, capsys):
    cfg = tmp_path / "asmpc.cfg"
    cfg.write_text(
        "mask.additive_bound = 0.5\n"
        "mask.mult_bound = 2.0\n"
        "mask.mult_floor = 1.0\n"
        "tol.delta = 1e-9\n")
    t1 = tmp_path / "p1.triples"
    t2 = tmp_path / "p2.triples"
    rc = main(["dealer", "--standard", "0", "--resharing", "3",
               "--session", "4", "--out-p1", str(t1), "--out-p2", str(t2),
               "--seed", "2", "--config", str(cfg)])
    assert rc == 0
    from asmpc import read_triple_file

    store = read_triple_file(t1)
    assert store.session_id == 4
    assert all(1.0 <= abs(t.plain) <= 2.0 for t in store.resharing)


def test_console_entry_point(tmp_path):
    prog = _write_program(tmp_path, "f = mul(x, y)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "asmpc.cli", "plan", "--program", str(prog)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "steps=1" in proc.stdout


def test_demo_script_completes(tmp_path):
    # The bundled end-to-end demo, with its work directory under tmp_path.
    demo = Path(__file__).resolve().parents[1] / "scripts" / "run_demo.py"
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=dict(os.environ, TMPDIR=str(tmp_path)),
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "demo complete" in proc.stdout
    assert not list(tmp_path.glob("asmpc-demo-*"))
