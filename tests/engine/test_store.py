"""Disk tier of the radius cache: key digests, file lifecycle, engine reuse."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.config import SolverConfig
from repro.core.features import FeatureBounds, PerformanceFeature
from repro.core.impact import AffineImpact, CallableImpact
from repro.core.norms import L2Norm
from repro.core.perturbation import PerturbationParameter
from repro.core.radius import RadiusResult
from repro.engine import RadiusCache, RobustnessEngine
from repro.engine.cache import _key_digest, _value_based
from repro.exceptions import ValidationError

#: written by the standalone ``RadiusStore`` (now the cache's disk tier) for
#: ``TestEngineIntegration``'s four problems; the format must not change
GOLDEN_STORE = Path(__file__).parent / "golden" / "radius_store_v1.json"

PARAM = PerturbationParameter("pi", np.array([0.4, 0.6]))


def _result(radius: float = 1.5) -> RadiusResult:
    return RadiusResult(
        feature="phi",
        parameter="pi",
        radius=radius,
        boundary_point=np.array([0.3, 0.4]),
        binding_bound="upper",
        value_at_origin=0.5,
        feasible_at_origin=True,
        solver="numeric",
    )


def _key(i: int = 0) -> tuple:
    """A value-based :meth:`RadiusCache.key_for` key."""
    feature = PerformanceFeature(
        "phi", AffineImpact(np.array([1.0, 0.5 + 0.1 * i])), FeatureBounds.upper_only(3.0)
    )
    return RadiusCache().key_for(feature, PARAM, L2Norm(), SolverConfig())


def _entries(path: Path) -> dict:
    return json.loads(path.read_text())["entries"]


class TestPersistableKey:
    def test_value_based_key_accepted(self):
        assert _value_based(_key())

    @pytest.mark.parametrize("tag", ["impact-id", "norm-id"])
    def test_identity_tags_rejected(self, tag):
        key = list(_key())
        slot = 0 if tag == "impact-id" else 3
        key[slot] = (tag, 139876)
        assert not _value_based(tuple(key))


class TestKeyDigest:
    def test_stable_and_hex(self):
        key = (("affine", b"ab", (2,), 1.0), (0.0, 4.0))
        d = _key_digest(key)
        assert d == _key_digest(key)
        assert len(d) == 64
        int(d, 16)  # valid hex

    def test_bool_and_int_do_not_collide(self):
        assert _key_digest((True,)) != _key_digest((1,))
        assert _key_digest((False,)) != _key_digest((0,))

    def test_float_and_int_do_not_collide(self):
        assert _key_digest((1.0,)) != _key_digest((1,))

    def test_string_and_bytes_do_not_collide(self):
        assert _key_digest(("ab",)) != _key_digest((b"ab",))

    def test_nesting_is_significant(self):
        assert _key_digest((("a", "b"),)) != _key_digest(("a", "b"))

    def test_unencodable_component_raises(self):
        with pytest.raises(ValidationError, match="not encodable"):
            _key_digest((object(),))


class TestStoreLifecycle:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.json"
        cache = RadiusCache(path=path)
        res = _result()
        cache.put(_key(), res)
        cache.save()
        assert path.exists()

        fresh = RadiusCache(path=path)
        got = fresh.get(_key())
        assert got is not None
        assert got.to_dict() == res.to_dict()
        assert fresh.stats()["hits"] == 1
        assert len(fresh) == 1  # the disk hit was promoted into memory
        # clear() drops memory and counters; the disk tier still serves
        fresh.clear()
        assert (len(fresh), fresh.stats()["hits"]) == (0, 0)
        assert fresh.get(_key()) is not None

    def test_missing_file_is_empty(self, tmp_path):
        cache = RadiusCache(path=tmp_path / "nope.json")
        assert cache.get(_key()) is None
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1
        cache.save()
        assert not (tmp_path / "nope.json").exists()

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{not json")
        cache = RadiusCache(path=path)
        assert cache.get(_key()) is None
        assert cache.stats()["misses"] == 1

    def test_fingerprint_mismatch_discards(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(
            json.dumps(
                {
                    "fingerprint": "repro-radius-store-v2",
                    "entries": {_key_digest(_key()): _result().to_dict()},
                }
            )
        )
        cache = RadiusCache(path=path)
        assert cache.get(_key()) is None
        # the discard is persisted on save, preventing repeated re-parsing
        cache.save()
        doc = json.loads(path.read_text())
        assert doc["fingerprint"] == "repro-radius-store-v1"
        assert doc["entries"] == {}

    def test_corrupt_entry_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "store.json"
        cache = RadiusCache(path=path)
        cache.put(_key(0), _result())
        cache.save()
        bad = {
            1: {"type": "RadiusResult", "version": 1},  # missing fields
            2: 5,  # not a dict
            3: [1, 2],  # not a dict
            5: None,  # JSON null
            4: {**_result().to_dict(), "boundary_point": [[1.0], [2.0, 3.0]]},  # ragged
        }
        doc = json.loads(path.read_text())
        for i, entry in bad.items():
            doc["entries"][_key_digest(_key(i))] = entry
        path.write_text(json.dumps(doc))

        fresh = RadiusCache(path=path)
        for i in bad:
            assert fresh.get(_key(i)) is None
        assert fresh.get(_key(0)) is not None
        assert fresh.stats()["hits"] == 1
        assert fresh.stats()["misses"] == len(bad)
        fresh.save()
        assert list(_entries(path)) == [_key_digest(_key(0))]

    def test_save_without_changes_is_noop(self, tmp_path):
        path = tmp_path / "store.json"
        cache = RadiusCache(path=path)
        cache.save()
        assert not path.exists()
        cache.put(_key(), _result())
        cache.save()
        path.write_text("sentinel")
        cache.save()  # nothing changed since the last save
        assert path.read_text() == "sentinel"


class TestEngineIntegration:
    CONFIG = SolverConfig(solver="numeric", n_starts=1, seed=7)

    def _problems(self):
        problems = []
        for i in range(4):
            f = PerformanceFeature(
                f"a_{i}",
                AffineImpact(np.array([1.0, 0.5 + 0.1 * i])),
                FeatureBounds.upper_only(3.0),
            )
            problems.append(([f], PARAM))
        return problems

    def test_store_populated_and_reused(self, tmp_path):
        path = tmp_path / "radius.json"
        engine = RobustnessEngine(config=self.CONFIG, store=path)
        first = engine.evaluate_population(self._problems())
        assert not hasattr(engine, "store")
        assert len(_entries(path)) == 4

        warm = RobustnessEngine(config=self.CONFIG, store=path)
        second = warm.evaluate_population(self._problems())
        assert warm.cache.stats()["hits"] == 4
        assert [m.value for m in second] == [m.value for m in first]

    def test_disk_hits_count_as_hits(self, tmp_path):
        path = tmp_path / "radius.json"
        cold = RobustnessEngine(config=self.CONFIG, store=path).evaluate_population(
            self._problems()
        )
        obs.reset_metrics()
        warm = RobustnessEngine(config=self.CONFIG, store=path)
        try:
            with obs.observed():
                second = warm.evaluate_population(self._problems())
            events = obs.get_registry().to_json()["repro_cache_events_total"]
        finally:
            obs.reset_metrics()
        assert (warm.cache.hits, warm.cache.misses) == (4, 0)
        assert [(c["labels"], c["value"]) for c in events["children"]] == [
            ({"event": "hit"}, 4.0)
        ]
        assert [m.value for m in second] == [m.value for m in cold]

    def test_golden_store_served_bit_equal(self, tmp_path):
        path = tmp_path / "radius.json"
        shutil.copy(GOLDEN_STORE, path)
        engine = RobustnessEngine(config=self.CONFIG, store=path)
        served = engine.evaluate_population(self._problems())
        assert engine.cache.stats()["misses"] == 0
        fresh = RobustnessEngine(config=self.CONFIG).evaluate_population(self._problems())
        for a, b in zip(served, fresh):
            assert a.value == b.value
            (ra,), (rb,) = a.radii, b.radii
            assert ra.to_dict() == rb.to_dict()
            assert np.array_equal(ra.boundary_point, rb.boundary_point)
        # a cold run writes the golden file byte for byte
        cold = tmp_path / "cold.json"
        RobustnessEngine(config=self.CONFIG, store=cold).evaluate_population(
            self._problems()
        )
        assert cold.read_bytes() == GOLDEN_STORE.read_bytes()

    def test_cache_size_zero_still_persists_and_hits(self, tmp_path):
        path = tmp_path / "radius.json"
        config = self.CONFIG.replace(cache_size=0)
        RobustnessEngine(config=config, store=path).evaluate_population(self._problems())
        warm = RobustnessEngine(config=config, store=path)
        warm.evaluate_population(self._problems())
        assert warm.cache.stats() == {"hits": 4, "misses": 0, "size": 0, "maxsize": 0}

    def test_identity_keyed_solves_stay_out_of_store(self, tmp_path):
        path = tmp_path / "radius.json"
        feature = PerformanceFeature(
            "c",
            CallableImpact(lambda pi: float(pi @ pi), name="quad"),
            FeatureBounds.upper_only(4.0),
        )
        engine = RobustnessEngine(config=self.CONFIG, store=path)
        engine.evaluate_metric([feature], PARAM)
        assert len(engine.cache) == 1
        assert not path.exists()

    def test_store_path_accepts_string(self, tmp_path):
        engine = RobustnessEngine(config=self.CONFIG, store=str(tmp_path / "s.json"))
        engine.evaluate_population(self._problems()[:1])
        assert len(_entries(tmp_path / "s.json")) == 1
