import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_goldens_reproduce():
    # every pinned CLI output and certify summary of perfbench/golden/,
    # recomputed from this checkout's src and compared byte for byte
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "make_golden.py"), "--check"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "golden outputs reproduce" in proc.stderr
