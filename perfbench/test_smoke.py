"""Self-test of the benchmark on tiny inputs: ``python3 -m pytest perfbench``."""

import run


def test_smoke():
    run.smoke()
