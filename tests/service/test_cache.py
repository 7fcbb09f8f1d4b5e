"""Tests for the persistent fingerprint-keyed result cache."""

import json
import os

from repro.service.cache import CACHE_SCHEMA, ResultCache
from repro.service.jobs import CANCELLED, CRASHED, SOLVED, UNSOLVED, JobResult


def _result(status=SOLVED, **kwargs):
    defaults = dict(
        job_id="j1",
        name="max2",
        solver="dryadsynth",
        status=status,
        solution_text="(define-fun f ((x Int)) Int x)",
        wall_time=0.25,
        stats={"smt_checks": 2},
    )
    defaults.update(kwargs)
    return JobResult(**defaults)


FP = "ab" + "0" * 62
FP2 = "cd" + "1" * 62


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get(FP) is None
        cache.put(FP, _result())
        hit = cache.get(FP)
        assert hit is not None
        assert hit.status == SOLVED
        assert hit.fingerprint == FP
        assert cache.misses == 1 and cache.hits == 1

    def test_persists_across_instances(self, tmp_path):
        root = str(tmp_path / "cache")
        ResultCache(root).put(FP, _result())
        reloaded = ResultCache(root)
        assert reloaded.get(FP).solution_text.startswith("(define-fun")

    def test_sharded_layout(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(str(root))
        cache.put(FP, _result())
        assert (root / "ab" / f"{FP}.json").exists()

    def test_unsolved_and_timeout_are_cacheable(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(FP, _result(status=UNSOLVED, solution_text=None))
        cache.put(FP2, _result(status="timeout", solution_text=None))
        assert cache.get(FP).status == UNSOLVED
        assert cache.get(FP2).status == "timeout"

    def test_crashed_and_cancelled_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(FP, _result(status=CRASHED))
        cache.put(FP2, _result(status=CANCELLED))
        assert cache.get(FP) is None
        assert cache.get(FP2) is None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(FP, _result())
        path = cache._path(FP)
        with open(path) as handle:
            data = json.load(handle)
        data["schema"] = CACHE_SCHEMA + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        assert cache.get(FP) is None

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cache.put(FP, _result())
        with open(cache._path(FP), "w") as handle:
            handle.write('{"schema": 1, "result": {tru')
        assert cache.get(FP) is None

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_CACHE", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == str(tmp_path / "envcache")
