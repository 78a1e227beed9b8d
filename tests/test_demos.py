import json

import pytest

from demos_golden import DEMOS, GOLDEN, run

PINNED = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the stdout of each demo, byte for byte (tests/demos_golden.py)
    assert run(demo) == PINNED[demo.stem]
