"""Every demo prints exactly its recorded output, `tests/golden/demos/<demo>.txt`.

To re-record after an intended change:
`PYTHONPATH=src python demos/<demo>.py > tests/golden/demos/<demo>.txt`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


def test_every_demo_has_a_golden_output():
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert golden == [d.stem for d in DEMOS] and len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_prints_its_golden_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, check=True)
    assert run.stdout.decode("utf-8") == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_text(encoding="utf-8")
