"""EnergyDatabase spatial queries, validated against brute-force oracles.

The oracles test every point one at a time with the scalar predicates
(``BBox.contains``, ``Circle.contains``, ``Polygon.contains``) and rank
neighbours with a stable argsort over the table order — the reference
semantics the vectorised scans must reproduce exactly, ties included.

Each case runs over three table orders (ascending ids, reversed,
shuffled): id lists must come back ascending whatever the row order, and
nearest-neighbour ties must follow the rows as they were inserted.
"""

import numpy as np
import pytest

from repro.data.meter import Customer, CustomerType, ZoneKind
from repro.data.timeseries import SeriesSet
from repro.db.engine import EnergyDatabase
from repro.db.spatial import BBox, Circle, Point, Polygon
from tests.db.points import point_database

ORDERS = ("sorted", "reversed", "shuffled")


def reorder(order, *columns):
    """The same rows as ``columns`` (parallel arrays), in ``order``."""
    columns = [np.asarray(c) for c in columns]
    n = columns[0].size
    if order == "sorted":
        perm = np.arange(n)
    elif order == "reversed":
        perm = np.arange(n)[::-1]
    else:
        perm = np.random.default_rng(5).permutation(n)
    return tuple(c[perm] for c in columns)


@pytest.fixture(scope="module", params=ORDERS)
def cloud(request):
    rng = np.random.default_rng(77)
    n = 400
    # Skewed distribution: dense blob + sparse background, plus duplicates.
    blob = rng.normal([12.57, 55.68], 0.005, size=(n // 2, 2))
    sparse = rng.uniform([12.40, 55.55], [12.75, 55.80], size=(n // 2 - 3, 2))
    duplicates = np.tile([[12.50, 55.60]], (3, 1))
    pts = np.vstack([blob, sparse, duplicates])
    ids = np.arange(pts.shape[0]) * 7 + 3  # non-contiguous ids
    return reorder(request.param, ids, pts[:, 0], pts[:, 1])


@pytest.fixture(scope="module")
def cloud_db(cloud):
    return point_database(*cloud)


def brute(ids, lons, lats, shape):
    return sorted(
        int(i) for i, x, y in zip(ids, lons, lats) if shape.contains(x, y)
    )


def brute_knn(ids, lons, lats, lon, lat, k):
    d2 = (lons - lon) ** 2 + (lats - lat) ** 2
    return ids[np.argsort(d2, kind="stable")[:k]].tolist()


def _customer(cid):
    return Customer(
        customer_id=cid,
        lon=12.5,
        lat=55.6,
        zone=ZoneKind.COMMERCIAL,
        archetype=CustomerType.IDLE,
    )


class TestConstruction:
    def test_len(self, cloud, cloud_db):
        assert len(cloud_db) == cloud[0].size

    @pytest.mark.parametrize("container", [list, tuple, iter])
    def test_rejects_empty(self, container):
        # The constructor materialises any iterable of customers.
        readings = SeriesSet([1], 0, np.zeros((1, 1)))
        with pytest.raises(ValueError, match="at least one customer"):
            EnergyDatabase(container([]), readings)

    @pytest.mark.parametrize("order", ORDERS)
    def test_rejects_duplicate_ids(self, order):
        # The repeated id is caught wherever it sits in the table.
        (ids,) = reorder(order, [1, 1, 2, 3])
        customers = [_customer(int(cid)) for cid in ids]
        readings = SeriesSet([1, 2, 3], 0, np.zeros((3, 1)))
        with pytest.raises(ValueError, match="duplicates"):
            EnergyDatabase(customers, readings)


class TestBBox:
    def test_matches_brute_force(self, cloud, cloud_db, rng):
        for _ in range(25):
            x0, x1 = sorted(rng.uniform(12.35, 12.80, 2))
            y0, y1 = sorted(rng.uniform(55.50, 55.85, 2))
            box = BBox(x0, y0, x1, y1)
            assert cloud_db.ids_in_bbox(box).tolist() == brute(*cloud, box)

    def test_edges_are_inclusive(self):
        db = point_database([1, 2, 3, 4], [0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 2.0, 3.0])
        assert db.ids_in_bbox(BBox(0.0, 0.0, 2.0, 2.0)).tolist() == [1, 2, 3]
        assert db.ids_in_bbox(BBox(1.0, 1.0, 1.0, 3.0)).tolist() == [2, 4]

    def test_empty_result(self, cloud_db):
        out = cloud_db.ids_in_bbox(BBox(0.0, 0.0, 1.0, 1.0))
        assert out.size == 0
        assert out.dtype == np.int64

    def test_ids_ascending_regardless_of_table_order(self):
        db = point_database([9, 4, 7], [0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
        assert db.ids_in_bbox(BBox(-1.0, -1.0, 1.0, 1.0)).tolist() == [4, 7, 9]

    @pytest.mark.parametrize("order", ORDERS)
    def test_collinear_points(self, order):
        # Degenerate extent on one axis.
        n = 20
        xs = np.linspace(0, 1, n)
        db = point_database(*reorder(order, np.arange(n), xs, np.zeros(n)))
        got = db.ids_in_bbox(BBox(0.2, -0.1, 0.4, 0.1)).tolist()
        assert got == [i for i, x in enumerate(xs) if 0.2 <= x <= 0.4]

    @pytest.mark.parametrize("order", ORDERS)
    def test_coincident_points(self, order):
        n = 40
        ids, lons, lats = reorder(
            order, np.arange(n), np.full(n, 1.0), np.full(n, 2.0)
        )
        db = point_database(ids, lons, lats)
        assert db.ids_in_bbox(BBox(0.9, 1.9, 1.1, 2.1)).tolist() == list(range(n))
        # Every point ties at distance 0: the first rows in table order win.
        assert db.nearest(1.0, 2.0, k=5).tolist() == ids[:5].tolist()


class TestRadius:
    def test_planar_matches_brute_force(self, cloud, cloud_db, rng):
        for _ in range(25):
            circle = Circle(
                Point(rng.uniform(12.4, 12.75), rng.uniform(55.55, 55.8)),
                rng.uniform(0.001, 0.1),
            )
            assert cloud_db.ids_in_radius(circle).tolist() == brute(
                *cloud, circle
            )

    @pytest.mark.parametrize("radius_m", [50.0, 800.0, 5000.0])
    def test_geodesic_matches_brute_force(self, cloud, cloud_db, radius_m):
        circle = Circle(Point(12.57, 55.68), 0.0, radius_m=radius_m)
        got = cloud_db.ids_in_radius(circle).tolist()
        assert got == brute(*cloud, circle)
        assert got  # the blob centre always has neighbours this close


class TestPolygon:
    def test_matches_brute_force(self, cloud, cloud_db, rng):
        for _ in range(10):
            cx, cy = rng.uniform(12.45, 12.70), rng.uniform(55.60, 55.75)
            angles = np.sort(rng.uniform(0, 2 * np.pi, 6))
            radii = rng.uniform(0.01, 0.1, 6)
            polygon = Polygon(
                list(zip(cx + radii * np.cos(angles), cy + radii * np.sin(angles)))
            )
            assert cloud_db.ids_in_polygon(polygon).tolist() == brute(
                *cloud, polygon
            )

    def test_outside_every_point(self, cloud_db):
        far = Polygon([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)])
        assert cloud_db.ids_in_polygon(far).size == 0


class TestNearest:
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_stable_argsort(self, cloud, cloud_db, rng, k):
        for _ in range(10):
            lon = rng.uniform(12.4, 12.75)
            lat = rng.uniform(55.55, 55.8)
            got = cloud_db.nearest(lon, lat, k=k).tolist()
            assert got == brute_knn(*cloud, lon, lat, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_ties_at_kth_distance_follow_table_order(self, k):
        # Three duplicate points tie at distance 1 and two more at 2, in a
        # shuffled table order with a closer point last: for every k the
        # tie straddling the k-th slot must keep the earliest rows.
        lons = [2.0, 1.0, 5.0, 1.0, -2.0, 1.0, 0.5]
        lats = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]
        ids = [10, 20, 30, 40, 50, 60, 70]
        db = point_database(ids, lons, lats)
        want = brute_knn(np.array(ids), np.array(lons), np.array(lats), 0.0, 0.0, k)
        assert db.nearest(0.0, 0.0, k=k).tolist() == want
        assert want[0] == 70

    def test_duplicates_in_cloud(self, cloud, cloud_db):
        # The three duplicates of the cloud tie exactly at the query point.
        for k in (1, 2, 3, 4):
            got = cloud_db.nearest(12.50, 55.60, k=k).tolist()
            assert got == brute_knn(*cloud, 12.50, 55.60, k)

    @pytest.mark.parametrize("order", ORDERS)
    def test_k_larger_than_n(self, order):
        db = point_database(
            *reorder(order, [1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        )
        assert db.nearest(0.0, 0.0, k=10).tolist() == [1, 2, 3]

    def test_rejects_bad_k(self, cloud_db):
        with pytest.raises(ValueError):
            cloud_db.nearest(0.0, 0.0, k=0)

    @pytest.mark.parametrize(
        "lon, lat",
        [(12.5, 55.6), (12.0, 55.0), (13.0, 56.0)],
        ids=["interior", "min-corner", "max-corner"],
    )
    def test_single_point(self, lon, lat):
        db = point_database([9], [lon], [lat])
        assert db.ids_in_bbox(BBox(12.0, 55.0, 13.0, 56.0)).tolist() == [9]
        assert db.nearest(0.0, 0.0, k=1).tolist() == [9]
        assert db.nearest(lon, lat, k=3).tolist() == [9]
