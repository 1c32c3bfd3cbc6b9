import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkedgrass

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of each demo's stdout, recorded before the demos read the stratum table
DEMO_DIGESTS = {
    "multidegree_tour": "52883cae8ca636a8bbd3ee092ce93803bf7246ce2da6310c112d4359226392ff",
    "strata_tour": "0a8588f8f301ce51de3d7204265b4ad47fc2d70763f1014ea3952106078ef5da",
    "weyl_tour": "c8af18c41f7afedd8279da192209dcfbe298578dcaf57c10b1053ce560aa6b58",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output_is_byte_identical(name):
    src = Path(linkedgrass.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DEMO_DIGESTS[name]
