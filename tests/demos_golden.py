"""Pinned output of the demos.

tests/demos_golden.json maps the name of each script in ``demos/`` to the
text it prints on stdout.  The demos call most of the library API, so the
pins check it end to end, byte for byte.

Check the pins (exit 1 on a difference), or write them anew:

    python tests/demos_golden.py
    python tests/demos_golden.py --write

Nothing needs to be installed: each demo runs in a fresh interpreter from
the root of the repository, with ``src`` on its path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "demos_golden.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(demo: Path) -> str:
    """The stdout of one demo; raises CalledProcessError if it fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return proc.stdout.decode()


def main(argv: list[str]) -> int:
    got = {demo.stem: run(demo) for demo in DEMOS}
    if argv == ["--write"]:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n")
        return 0
    pinned = json.loads(GOLDEN.read_text())
    names = pinned.keys() | got.keys()
    wrong = sorted(name for name in names if pinned.get(name) != got.get(name))
    print(f"{len(pinned) - len(wrong)} of {len(pinned)} pinned demo outputs reproduce")
    if wrong:
        print(f"demos that differ: {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
