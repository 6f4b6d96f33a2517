import sys
from pathlib import Path

import pytest

from wwmtc import beam, muscle
from wwmtc.muscle import MuscleSpec

# make tests/synth.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def cold_caches():
    # curve keeps the tables of the last four grids it drew, and beam the
    # Carlson passes at the last few caps: every test starts without them,
    # so that no count of Carlson passes depends on test order
    muscle._grid.cache_clear()
    beam._shape_at.cache_clear()


@pytest.fixture
def radial_spec() -> MuscleSpec:
    return MuscleSpec(n=8, L=27.0, h0=22.0, kind="radial")


@pytest.fixture
def planar_spec() -> MuscleSpec:
    return MuscleSpec(n=6, L=35.0, h0=14.5, kind="planar")


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR
