import tracemalloc

import pytest

import isoflex.grid as grid
import isoflex.nash_step as nash_step

# SLAB_BYTES budgets: one row per slab, 7 rows of a 3-component (75, 53)
# field, and the default
SLAB_BUDGETS = [1, 7 * 53 * 3 * 8, grid.SLAB_BYTES]


@pytest.fixture(params=SLAB_BUDGETS)
def slab_budget(request, monkeypatch):
    monkeypatch.setattr(grid, "SLAB_BYTES", request.param)
    return request.param


@pytest.fixture
def traced_peak():
    """peak(fn, *args) -> (fn(*args), tracemalloc peak in bytes above the entry)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()

    def peak(fn, *args):
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry

    yield peak
    if started:
        tracemalloc.stop()


@pytest.fixture
def law_band():
    """check(records) -> the number of records whose stage ran.

    Every pass stage record carrying a measured defect_sup (its stage ran,
    kept or rolled back) carries predicted_defect, and its defect lies
    within the stage law's scatter of that prediction."""
    def check(records):
        ran = [rec for rec in records if "defect_sup" in rec]
        for rec in ran:
            ratio = rec["defect_sup"] / rec["predicted_defect"]
            assert abs(ratio - 1.0) <= nash_step.STAGE_LAW_SCATTER, (rec["q"], ratio)
        return len(ran)

    return check
