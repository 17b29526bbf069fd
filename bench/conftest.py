"""Lets the benchmark's tests import the package from the checkout.

Run them from the repository root with `python -m pytest bench`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
