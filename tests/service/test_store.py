"""Store layer: cache keys, record rows, atomic persistence."""

import hashlib
import json
import os
import sys
import threading

import pytest

from repro.api.specs import (
    ApplicationSpec,
    BudgetSpec,
    ExplorationRequest,
)
from repro.errors import ConfigurationError, ServiceError
from repro.io import application_to_dict
from repro.model.generator import GeneratorConfig, random_application
from repro.service.store import (
    JobRecord,
    ResultStore,
    compose_cache_key,
    instance_hash_for,
    is_temp,
    publish_new,
)


def small_request(**overrides):
    base = dict(
        kind="single",
        budget=BudgetSpec(iterations=60, warmup_iterations=10),
        seed=1,
    )
    base.update(overrides)
    return ExplorationRequest(**base)


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


class TestCacheKey:
    def test_key_composes_both_digests(self, store):
        request = small_request()
        key, request_hash, instance_hash = store.cache_key(request)
        assert request_hash == request.content_hash()
        assert instance_hash == instance_hash_for(request)
        assert key == compose_cache_key(request_hash, instance_hash)
        assert key == hashlib.sha256(
            f"{request_hash}:{instance_hash}".encode("ascii")
        ).hexdigest()

    def test_identical_requests_share_a_key(self, store):
        assert store.cache_key(small_request())[0] == \
            store.cache_key(small_request())[0]

    def test_different_seed_different_key(self, store):
        assert store.cache_key(small_request(seed=1))[0] != \
            store.cache_key(small_request(seed=2))[0]

    def test_file_content_change_changes_the_key(self, store, tmp_path):
        # The request hash alone cannot see through a path reference;
        # the composed instance hash must.  Same path, different bytes
        # underneath -> different cache key.
        path = str(tmp_path / "application.json")
        app_a = random_application(GeneratorConfig(num_tasks=6), seed=1)
        app_b = random_application(GeneratorConfig(num_tasks=6), seed=2)
        request = small_request(
            application=ApplicationSpec(kind="inline", path=path)
        )
        with open(path, "w") as handle:
            json.dump(application_to_dict(app_a), handle)
        key_a = store.cache_key(request)
        with open(path, "w") as handle:
            json.dump(application_to_dict(app_b), handle)
        key_b = store.cache_key(request)
        assert key_a[1] == key_b[1]  # same request hash...
        assert key_a[2] != key_b[2]  # ...different instance hash
        assert key_a[0] != key_b[0]

    def test_sweep_requests_get_keys(self, store):
        request = small_request(
            kind="sweep", sizes=(200, 400), runs=2, seed=3
        )
        key, _, _ = store.cache_key(request)
        assert len(key) == 64


class TestJobRecord:
    def _record(self):
        return JobRecord(
            key="k" * 64, request_hash="r" * 64, instance_hash="i" * 64,
            request=small_request().to_dict(), created_ts=100.0,
        )

    def test_lifecycle_transitions(self):
        record = self._record()
        record.transition("pending", now=100.0)
        record.transition("running", worker="w0", now=101.0)
        assert record.attempts == 1
        assert record.claimed_ts == 101.0
        assert record.worker == "w0"
        record.transition("done", worker="w0", now=102.0)
        assert record.completed_ts == 102.0
        assert [h["status"] for h in record.history] == \
            ["pending", "running", "done"]

    def test_requeue_keeps_attempts_and_history(self):
        record = self._record()
        record.transition("running", worker="w0", now=1.0)
        record.transition("pending", error="requeued", now=2.0)
        assert record.attempts == 1
        assert record.worker is None
        assert record.history[-1]["error"] == "requeued"

    def test_unknown_status_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown record"):
            self._record().transition("paused")

    def test_dict_round_trip(self):
        record = self._record()
        record.transition("running", worker="w0", now=1.0)
        record.transition("failed", error="boom", now=2.0)
        clone = JobRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_wrong_format_rejected(self):
        with pytest.raises(ServiceError, match="exploration-record"):
            JobRecord.from_dict({"format": "exploration-response"})

    def test_unknown_disk_status_rejected(self):
        data = self._record().to_dict()
        data["status"] = "paused"
        with pytest.raises(ServiceError, match="unknown status"):
            JobRecord.from_dict(data)

    def test_future_schema_rejected(self):
        data = self._record().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ServiceError, match="schema_version"):
            JobRecord.from_dict(data)


class TestResultStore:
    def test_create_record_is_exclusive(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        first, created = store.create_record(key, rh, ih, request.to_dict())
        assert created
        assert first.status == "pending"
        second, created_again = store.create_record(
            key, rh, ih, request.to_dict()
        )
        assert not created_again
        assert second.key == first.key

    def test_load_missing_record(self, store):
        with pytest.raises(ServiceError, match="no record"):
            store.load_record("0" * 64)

    def test_corrupt_record_is_a_service_error(self, store):
        key = "1" * 64
        with open(store.record_path(key), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ServiceError, match="not valid JSON"):
            store.load_record(key)

    def test_write_then_load(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        record, _ = store.create_record(key, rh, ih, request.to_dict())
        record.transition("running", worker="w0")
        store.write_record(record)
        assert store.load_record(key).status == "running"
        assert store.list_keys() == [key]

    def test_missing_store_without_create(self, tmp_path):
        with pytest.raises(ServiceError, match="no exploration store"):
            ResultStore(str(tmp_path / "absent"), create=False)

    def test_response_bytes_round_trip(self, store):
        from repro.api.facade import explore

        response = explore(small_request())
        key = "2" * 64
        written = store.put_response(key, response)
        assert store.response_text(key) == written
        assert store.get_response(key).to_json() == written

    def test_missing_response(self, store):
        with pytest.raises(ServiceError, match="no result envelope"):
            store.response_text("3" * 64)

    def test_delete_record_removes_all_files(self, store):
        request = small_request()
        key, rh, ih = store.cache_key(request)
        store.create_record(key, rh, ih, request.to_dict())
        for path in (store.queue_ticket(key), store.result_path(key)):
            with open(path, "w") as handle:
                handle.write("x")
        store.delete_record(key)
        assert not store.has_record(key)
        assert not os.path.exists(store.queue_ticket(key))
        assert not os.path.exists(store.result_path(key))


class TestPublish:
    def test_publish_new_has_one_winner_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "row.json")
        assert publish_new(path, "first")
        assert not publish_new(path, "second")
        with open(path) as handle:
            assert handle.read() == "first"
        assert os.listdir(tmp_path) == ["row.json"]

    def test_racing_creators_never_expose_a_partial_record(self, store):
        """A reader polling while 8 threads create the same key sees no
        record or a whole one, never an empty or torn file."""
        request = small_request()
        _, rh, ih = store.cache_key(request)
        document = request.to_dict()
        racers = 8
        torn = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for round_index in range(50):
                key = f"{round_index:064x}"
                barrier = threading.Barrier(racers + 1, timeout=10)
                done = threading.Event()
                created = []

                def poll():
                    barrier.wait()
                    while not done.is_set():
                        try:
                            store.load_record(key)
                        except ServiceError as exc:
                            if "no record" not in str(exc):
                                torn.append(str(exc))

                def create():
                    barrier.wait()
                    _, won = store.create_record(key, rh, ih, document)
                    created.append(won)

                poller = threading.Thread(target=poll)
                threads = [
                    threading.Thread(target=create) for _ in range(racers)
                ]
                poller.start()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                done.set()
                poller.join(timeout=10)
                assert not any(t.is_alive() for t in threads + [poller])
                assert sorted(created) == [False] * (racers - 1) + [True]
        finally:
            sys.setswitchinterval(switch_interval)
        assert torn == []
        records = os.listdir(os.path.join(store.root, store.RECORDS_DIR))
        assert not [name for name in records if is_temp(name)]
