"""Run-labelled blob extraction against the flood-fill oracle.

:func:`repro.core.shift.flow._connected_blobs` labels row runs and merges
them with a union-find; the oracle walks cells one by one.  They must
find the same blobs in the same order, with mass and centroids equal up
to summation order.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.shift import flow
from repro.core.shift.flow import ShiftField, _connected_blobs, major_flows
from repro.core.shift.grids import GridSpec
from repro.core.shift.kde import kde_density
from repro.db.spatial import BBox
from tests.shift._oracles import flood_fill_blobs

SPEC = GridSpec(BBox(0.0, 0.0, 1.0, 1.0), nx=24, ny=20)


def assert_same_blobs(mask, weights, spec=SPEC, max_blobs=10**6):
    got = _connected_blobs(mask, weights, spec, max_blobs)
    want = flood_fill_blobs(mask, weights, spec, max_blobs)
    assert len(got) == len(want)
    np.testing.assert_allclose(
        np.array(got).reshape(-1, 3), np.array(want).reshape(-1, 3), rtol=1e-12
    )
    return got


def serpentine(ny, nx):
    """One snake-shaped component: full rows joined at alternating ends."""
    mask = np.zeros((ny, nx), dtype=bool)
    mask[::2] = True
    for row in range(1, ny, 2):
        mask[row, nx - 1 if row % 4 == 1 else 0] = True
    return mask


class TestAgainstFloodFill:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("density", [0.2, 0.45, 0.6, 0.8])
    def test_random_masks(self, seed, density):
        rng = np.random.default_rng(seed)
        mask = rng.random((SPEC.ny, SPEC.nx)) < density
        assert_same_blobs(mask, rng.random(mask.shape))

    @pytest.mark.parametrize("seed", range(4))
    def test_max_blobs_truncates_the_same_prefix(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((SPEC.ny, SPEC.nx)) < 0.4
        assert len(assert_same_blobs(mask, rng.random(mask.shape), max_blobs=3)) == 3

    @pytest.mark.parametrize("shape", [(20, 24), (19, 24), (2, 24), (20, 2), (2, 2)])
    def test_serpentine_is_one_blob(self, shape):
        spec = GridSpec(SPEC.bbox, nx=shape[1], ny=shape[0])
        mask = serpentine(*shape)
        got = assert_same_blobs(mask, np.ones(shape), spec)
        assert len(got) == 1
        assert got[0][2] == mask.sum()

    def test_interleaved_combs(self):
        """Two interleaved combs.  The second one's teeth are separate
        runs that join only at the bottom row, yet its blob is still
        numbered by its first cell."""
        mask = np.zeros((SPEC.ny, SPEC.nx), dtype=bool)
        mask[0, :] = True
        mask[:-2, ::4] = True
        mask[-1, :] = True
        mask[2:, 2::4] = True
        weights = np.arange(mask.size, dtype=float).reshape(mask.shape)
        got = assert_same_blobs(mask, weights)
        assert len(got) == 2

    def test_full_mask(self):
        got = assert_same_blobs(
            np.ones((SPEC.ny, SPEC.nx), dtype=bool), np.ones((SPEC.ny, SPEC.nx))
        )
        assert len(got) == 1
        assert got[0][2] == SPEC.nx * SPEC.ny

    def test_empty_mask(self):
        mask = np.zeros((SPEC.ny, SPEC.nx), dtype=bool)
        assert assert_same_blobs(mask, np.ones(mask.shape)) == []

    def test_zero_weight_cells_and_blobs(self):
        rng = np.random.default_rng(5)
        mask = rng.random((SPEC.ny, SPEC.nx)) < 0.5
        weights = rng.random(mask.shape)
        weights[rng.random(mask.shape) < 0.4] = 0.0
        weights[:, :6] = 0.0  # whole components with no mass
        got = assert_same_blobs(mask, weights)
        assert all(mass > 0 for _, _, mass in got)

    def test_tie_order_follows_first_cell_not_last(self):
        """A tall bar starting above a short block but ending below it
        still comes first: the label is the component's first cell."""
        mask = np.zeros((SPEC.ny, SPEC.nx), dtype=bool)
        mask[0:10, 2] = True
        mask[3:5, 10:15] = True
        got = assert_same_blobs(mask, mask.astype(float))
        assert [mass for _, _, mass in got] == [10.0, 10.0]
        assert got[0][0] < got[1][0]

    def test_many_tied_blobs_keep_raster_order(self):
        """A checkerboard is one single-cell blob per set cell.  With
        three mass levels, every level holds dozens of ties, and each
        level lists its blobs in raster order."""
        rows, cols = np.indices((SPEC.ny, SPEC.nx))
        mask = (rows + cols) % 2 == 0
        weights = 1.0 + cols % 3
        got = assert_same_blobs(mask, weights)
        cells = sorted(zip(*np.nonzero(mask)), key=lambda rc: -weights[rc])
        want = [(SPEC.lon_centers()[c], SPEC.lat_centers()[r]) for r, c in cells]
        np.testing.assert_allclose(
            [(lon, lat) for lon, lat, _ in got], want, rtol=1e-12
        )


class TestMajorFlowsUnchanged:
    """Arrows from the run labelling equal those the flood fill gives on
    real shift fields: same count, same order."""

    @pytest.mark.parametrize("seed", [29, 401, 7])
    def test_kde_fields(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        spec = GridSpec(BBox(0.0, 0.0, 1.0, 1.0), nx=48, ny=48)
        points = rng.random((60, 2))
        fields = [
            ShiftField.between(
                kde_density(points, rng.random(60), spec, bandwidth_m=9e3),
                kde_density(points, rng.random(60), spec, bandwidth_m=9e3),
            )
            for _ in range(3)
        ]
        got = [major_flows(f, max_flows=6, threshold_quantile=q)
               for f in fields for q in (0.5, 0.75, 0.9)]
        monkeypatch.setattr(flow, "_connected_blobs", flood_fill_blobs)
        want = [major_flows(f, max_flows=6, threshold_quantile=q)
                for f in fields for q in (0.5, 0.75, 0.9)]
        assert [len(a) for a in got] == [len(a) for a in want]
        assert any(got)
        for arrows, oracle in zip(got, want):
            for a, b in zip(arrows, oracle):
                np.testing.assert_allclose(
                    [a.lon, a.lat, a.magnitude], [b.lon, b.lat, b.magnitude],
                    rtol=1e-10,
                )
                np.testing.assert_allclose(
                    [a.dlon, a.dlat], [b.dlon, b.dlat], rtol=0, atol=1e-10
                )


def test_flow_extraction_imports_no_scipy_ndimage():
    """Labelling stays numpy-only: importing scipy.ndimage would add
    tens of MB of resident memory to every serving process."""
    code = (
        "import sys, numpy as np\n"
        "from repro.core.shift.flow import ShiftField, major_flows\n"
        "from repro.core.shift.grids import GridSpec\n"
        "from repro.db.spatial import BBox\n"
        "spec = GridSpec(BBox(0, 0, 1, 1), nx=16, ny=16)\n"
        "values = np.random.default_rng(0).normal(size=(16, 16))\n"
        "assert major_flows(ShiftField(spec, values))\n"
        "assert 'scipy.ndimage' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
