import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture(scope="session")
def default_ruleset():
    from tensorsel import rules
    return rules.build_default_ruleset()
