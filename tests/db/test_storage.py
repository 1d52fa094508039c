"""Tests for the on-disk database format."""

import json

import numpy as np
import pytest

from repro import obs
from repro.resilience import faults
from repro.resilience.retry import RetryPolicy
from repro.db.storage import (
    CUSTOMERS_FILE,
    META_FILE,
    READINGS_FILE,
    StorageError,
    load_database,
    save_database,
)


class TestRoundTrip:
    def test_exact_round_trip(self, small_db, tmp_path):
        save_database(small_db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert len(loaded) == len(small_db)
        np.testing.assert_array_equal(
            loaded.readings.customer_ids, small_db.readings.customer_ids
        )
        # NaN cells and values round-trip bit-exactly via npz.
        np.testing.assert_array_equal(
            loaded.readings.matrix, small_db.readings.matrix
        )
        cid = small_db.customer_ids[0]
        assert loaded.customer(cid) == small_db.customer(cid)

    def test_legacy_index_kind_is_ignored(self, small_db, tmp_path):
        """Saves from releases with pluggable spatial indexes recorded
        ``index_kind`` in meta.json; they load unchanged into the scan
        engine and answer the same queries."""
        save_database(small_db, tmp_path / "store")
        meta_path = tmp_path / "store" / META_FILE
        meta = json.loads(meta_path.read_text())
        assert "index_kind" not in meta  # current saves record no index
        meta["index_kind"] = "quadtree"
        meta_path.write_text(json.dumps(meta, indent=2))
        loaded = load_database(tmp_path / "store")
        np.testing.assert_array_equal(
            loaded.readings.matrix, small_db.readings.matrix
        )
        box = small_db.bounding_box()
        assert loaded.ids_in_bbox(box).tolist() == small_db.ids_in_bbox(box).tolist()
        assert loaded.nearest(box.center.lon, box.center.lat, k=7).tolist() == (
            small_db.nearest(box.center.lon, box.center.lat, k=7).tolist()
        )

    def test_queries_identical_after_reload(self, small_db, tmp_path):
        save_database(small_db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        box = small_db.bounding_box()
        mid = box.center
        from repro.db.spatial import BBox

        query = BBox(box.min_lon, box.min_lat, mid.lon, mid.lat)
        np.testing.assert_array_equal(
            loaded.ids_in_bbox(query), small_db.ids_in_bbox(query)
        )

    def test_overwrite_save(self, small_db, tmp_path):
        target = tmp_path / "store"
        save_database(small_db, target)
        save_database(small_db, target)  # no error on re-save
        assert load_database(target).readings.n_steps == small_db.readings.n_steps


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError, match="meta.json"):
            load_database(tmp_path / "nope")

    def test_corrupt_meta(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        (target / META_FILE).write_text("{not json")
        with pytest.raises(StorageError, match="JSON"):
            load_database(target)

    def test_wrong_version(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        meta = json.loads((target / META_FILE).read_text())
        meta["format_version"] = 99
        (target / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="version"):
            load_database(target)

    def test_missing_readings_file(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        (target / READINGS_FILE).unlink()
        with pytest.raises(StorageError, match=READINGS_FILE):
            load_database(target)

    def test_shape_mismatch_detected(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        meta = json.loads((target / META_FILE).read_text())
        meta["n_steps"] = 1
        (target / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="disagrees"):
            load_database(target)

    @pytest.mark.parametrize("key", ["n_customers", "n_steps"])
    def test_missing_meta_key_is_storage_error(self, small_db, tmp_path, key):
        """Regression: a truncated meta.json used to escape as a bare
        KeyError; it must surface as a StorageError naming the key."""
        target = save_database(small_db, tmp_path / "store")
        meta = json.loads((target / META_FILE).read_text())
        del meta[key]
        (target / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(StorageError, match=key):
            load_database(target)

    def test_non_integer_meta_key_rejected(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        meta = json.loads((target / META_FILE).read_text())
        meta["n_customers"] = "sixty"
        (target / META_FILE).write_text(json.dumps(meta))
        with pytest.raises(StorageError, match="non-negative integer"):
            load_database(target)

    def test_customer_count_cross_check(self, small_db, tmp_path):
        """customers.csv torn to fewer rows than readings.npz covers."""
        target = save_database(small_db, tmp_path / "store")
        csv_path = target / CUSTOMERS_FILE
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-3]))  # drop the last rows
        meta = json.loads((target / META_FILE).read_text())
        meta["n_customers"] = len(lines) - 4  # keep meta self-consistent
        with pytest.raises(StorageError, match="torn"):
            load_database(target)

    def test_customer_id_cross_check(self, small_db, tmp_path):
        """Same counts but different ids across the two payload files."""
        target = save_database(small_db, tmp_path / "store")
        with np.load(target / READINGS_FILE) as payload:
            ids = payload["customer_ids"].copy()
            matrix = payload["matrix"]
            start_hour = payload["start_hour"]
            ids[0] = 999_999  # an id customers.csv does not list
            np.savez_compressed(
                target / READINGS_FILE,
                customer_ids=ids,
                matrix=matrix,
                start_hour=start_hour,
            )
        with pytest.raises(StorageError, match="999999"):
            load_database(target)


def _fail_fast_policy() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=4,
        base_delay=0.0,
        max_delay=0.0,
        sleeper=lambda s: None,
        metrics=obs.MetricsRegistry(),
    )


class TestCrashSafety:
    @pytest.mark.parametrize(
        "site",
        ["storage.save.customers", "storage.save.readings"],
    )
    def test_torn_save_leaves_old_data_intact(self, small_db, tmp_path, site):
        """Regression for the torn-save bug: killing a save mid-way must
        leave the previous data set fully loadable, with no staging
        leftovers to confuse the next save."""
        with faults.disarmed():  # setup must not see an env chaos plan
            target = save_database(small_db, tmp_path / "store")
            before = load_database(target, retry=None)
        plan = faults.FaultPlan(
            specs=(faults.FaultSpec(site=site, kind="error", rate=1.0),)
        )
        with faults.injected(plan, metrics=obs.MetricsRegistry()):
            with pytest.raises(OSError):
                save_database(small_db, target, retry=None)
        # Old data still loads, bit-for-bit.
        with faults.disarmed():
            after = load_database(target, retry=None)
        assert len(after) == len(before)
        np.testing.assert_array_equal(
            after.readings.matrix, before.readings.matrix
        )
        # The failed save cleaned up after itself.
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "store"]
        assert leftovers == []

    def test_torn_meta_write_detected_on_load(self, small_db, tmp_path):
        """A truncated meta.json (torn byte write) is caught on load as a
        StorageError, never a KeyError/JSONDecodeError escaping raw."""
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(site="storage.save.meta", kind="truncate"),
            )
        )
        with faults.injected(plan, metrics=obs.MetricsRegistry()):
            target = save_database(small_db, tmp_path / "store", retry=None)
        with faults.disarmed(), pytest.raises(StorageError):
            load_database(target, retry=None)

    def test_save_retries_through_transient_faults(self, small_db, tmp_path):
        """One injected fault, then success: the default-on retry makes the
        save complete without the caller noticing."""
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="storage.save.readings",
                    kind="error",
                    rate=1.0,
                    max_faults=1,
                ),
            )
        )
        with faults.injected(plan, metrics=obs.MetricsRegistry()):
            target = save_database(
                small_db, tmp_path / "store", retry=_fail_fast_policy()
            )
        with faults.disarmed():
            assert len(load_database(target, retry=None)) == len(small_db)

    def test_load_retries_through_transient_faults(self, small_db, tmp_path):
        target = save_database(small_db, tmp_path / "store")
        plan = faults.FaultPlan(
            specs=(
                faults.FaultSpec(
                    site="storage.load.readings",
                    kind="error",
                    rate=1.0,
                    max_faults=2,
                ),
            )
        )
        with faults.injected(plan, metrics=obs.MetricsRegistry()):
            loaded = load_database(target, retry=_fail_fast_policy())
        assert len(loaded) == len(small_db)

    def test_interrupted_save_staging_is_reused_safely(self, small_db, tmp_path):
        """A crash that somehow leaves a stale staging dir behind must not
        poison the next save."""
        target = tmp_path / "store"
        save_database(small_db, target)
        staging = tmp_path / ".store.staging"
        staging.mkdir()
        (staging / "garbage").write_text("stale")
        save_database(small_db, target)
        assert not staging.exists()
        with faults.disarmed():
            assert len(load_database(target, retry=None)) == len(small_db)


class TestTenantStorage:
    def test_tenant_directories_are_isolated(self, small_city, tmp_path):
        from repro.data.generator.simulate import CityConfig, generate_city
        from repro.db.engine import EnergyDatabase
        from repro.db.storage import (
            list_tenant_databases,
            load_tenant_database,
            save_tenant_database,
        )

        other_city = generate_city(CityConfig(n_customers=30, n_days=7, seed=9))
        acme = EnergyDatabase(small_city.customers, small_city.raw)
        globex = EnergyDatabase(other_city.customers, other_city.raw)
        root = tmp_path / "tenants"
        save_tenant_database(acme, root, "acme")
        save_tenant_database(globex, root, "globex")
        assert list_tenant_databases(root) == ["acme", "globex"]

        back_acme = load_tenant_database(root, "acme")
        back_globex = load_tenant_database(root, "globex")
        assert len(back_acme) == len(acme)
        assert len(back_globex) == len(globex)
        np.testing.assert_array_equal(
            back_acme.readings.matrix, acme.readings.matrix
        )
        np.testing.assert_array_equal(
            back_globex.readings.matrix, globex.readings.matrix
        )
        # Re-saving one tenant never touches the other's files.
        before = sorted(
            p.relative_to(root) for p in (root / "globex").rglob("*")
        )
        save_tenant_database(acme, root, "acme")
        after = sorted(
            p.relative_to(root) for p in (root / "globex").rglob("*")
        )
        assert before == after

    def test_hostile_tenant_id_cannot_escape_root(self, small_db, tmp_path):
        from repro.db.storage import save_tenant_database, tenant_directory

        for bad in ("../evil", "a/b", "", ".hidden", "x" * 65):
            with pytest.raises(ValueError, match="tenant id"):
                tenant_directory(tmp_path, bad)
            with pytest.raises(ValueError, match="tenant id"):
                save_tenant_database(small_db, tmp_path, bad)
        assert list(tmp_path.iterdir()) == []
