#!/usr/bin/env python3
"""End-to-end demo: plan -> dealer -> stage shares -> run both parties ->
report, on the bundled demo program.

Confirms that every measured (rounds, bits) row equals its published
budget (secant rows are upper bounds) and that revealed outputs agree
with the plaintext oracle.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from asmpc import MaskSource, RandomnessPolicy, stage_inputs, write_share_file
from asmpc.cli import main as asmpc
from asmpc.oracle import eval_plain
from asmpc.program import load_program, plan

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ROOT / "programs" / "demo.prog"
SECRETS = {"x": 0.8, "y": 2.0}
SEED = 424242

# Narrow mask intervals keep Beaver intermediates small enough that the
# demo outputs match the oracle to ~1e-9; see README on masking vs
# precision trade-offs.
POLICY_FLAGS = ["--mask.additive_bound", "0.25",
                "--mask.mult_bound", "2.0", "--mask.mult_floor", "1.0"]


def run(workdir: Path) -> int:
    print(f"workdir: {workdir}")

    program = load_program(PROGRAM)
    schedule = plan(program)
    print(f"plan: steps={schedule.steps} standard={schedule.standard_count} "
          f"resharing={schedule.resharing_count}")

    t1, t2 = workdir / "p1.triples", workdir / "p2.triples"
    rc = asmpc(["dealer", "--standard", str(schedule.standard_count),
                "--resharing", str(schedule.resharing_count),
                "--session", "1", "--out-p1", str(t1), "--out-p2", str(t2),
                "--seed", str(SEED), *POLICY_FLAGS])
    if rc:
        return rc

    masks = MaskSource(RandomnessPolicy(
        additive_bound=0.25, mult_bound=2.0, mult_floor=1.0, seed=SEED + 1))
    shares = workdir / "shares.csv"
    write_share_file(shares, stage_inputs(SECRETS, masks))
    plain = workdir / "plain.txt"
    plain.write_text("".join(f"{k} = {v}\n" for k, v in SECRETS.items()))

    run1, run2 = workdir / "run1.json", workdir / "run2.json"
    reveals = []
    for ref in ("q", "t", "h", "z", "f"):
        reveals += ["--reveal", ref]
    rc = asmpc(["run", "--party", "both", "--program", str(PROGRAM),
                "--inputs", str(shares), "--triples", str(t1),
                "--triples-p2", str(t2), *reveals,
                "--out", str(run1), "--out-p2", str(run2), *POLICY_FLAGS])
    if rc:
        return rc

    print("\noracle says:")
    asmpc(["oracle", "--program", str(PROGRAM), "--inputs", str(plain)])

    print("\nreport:")
    csv = workdir / "report.csv"
    rc = asmpc(["report", "--run", str(run1), "--csv", str(csv)])
    if rc:
        print("report found expected-vs-actual mismatches")
        return rc

    revealed = json.loads(run1.read_text())["revealed"]
    expected = eval_plain(program, dict(SECRETS))
    print("\nrevealed vs oracle:")
    bad = False
    for ref, value in sorted(revealed.items()):
        want = expected[ref]
        err = abs(value - want) / max(1.0, abs(want))
        flag = "ok" if err <= 1e-9 else "MISMATCH"
        bad = bad or err > 1e-9
        print(f"  {ref}: protocol {value:.12g}  oracle {want:.12g}  "
              f"rel_err {err:.2e}  {flag}")
    if bad:
        return 1
    print("demo complete: all cost rows and outputs check out")
    return 0


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="asmpc-demo-") as tmp:
        sys.exit(run(Path(tmp)))
