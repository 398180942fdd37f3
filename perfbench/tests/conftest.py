import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import load_goldens, setup  # noqa: E402


@pytest.fixture(scope="session")
def ctx():
    return setup(BENCH_DIR.parent)


@pytest.fixture(scope="session")
def goldens():
    return load_goldens()
