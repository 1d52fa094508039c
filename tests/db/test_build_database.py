"""build_database: the single data plane and its deprecated shard knobs."""

import subprocess
import sys
import warnings

import pytest

from repro.db import EnergyDatabase, build_database


def test_default_builds_the_engine(small_city, monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        db = build_database(small_city.customers, small_city.raw, shards=1)
    assert type(db) is EnergyDatabase


def test_repro_shards_env_is_deprecated(small_city, monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "4")
    with pytest.warns(DeprecationWarning, match="shards=4") as caught:
        db = build_database(small_city.customers, small_city.raw)
    assert len(caught) == 1
    assert type(db) is EnergyDatabase
    assert len(db) == len(small_city.customers)


def test_shards_argument_is_deprecated(small_city):
    with pytest.warns(DeprecationWarning) as caught:
        db = build_database(small_city.customers, small_city.raw, shards=4)
    assert len(caught) == 1
    assert type(db) is EnergyDatabase


def test_import_starts_no_threads():
    code = (
        "import threading, repro.db, repro.stream; "
        "assert threading.active_count() == 1, threading.enumerate()"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
