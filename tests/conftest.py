import functools
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
    # forward-table values at the last few caps: every test starts without
    # them, so that no count of table evaluations depends on test order
    muscle._grid.cache_clear()
    beam._shape_at.cache_clear()


@pytest.fixture
def shape_evaluations(monkeypatch):
    """The p of every evaluation of beam's forward table, in order.

    Counts each beam._shape call past the straight strip, which returns
    beam._STRAIGHT without one, wherever a wwmtc module looks _shape up,
    and through a fresh beam._shape_at cache of the same size in place of
    the module's, so that a cached value is counted once.
    """
    shape, shape_at = beam._shape, beam._shape_at
    calls = []

    def counted(p):
        result = shape(p)
        if result is not beam._STRAIGHT:
            calls.append(p)
        return result

    cached = functools.lru_cache(maxsize=shape_at.cache_info().maxsize)(counted)
    for name, module in list(sys.modules.items()):
        if name == "wwmtc" or name.startswith("wwmtc."):
            for attr, value in list(vars(module).items()):
                if value is shape:
                    monkeypatch.setattr(module, attr, counted)
                elif value is shape_at:
                    monkeypatch.setattr(module, attr, cached)
    return calls


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
