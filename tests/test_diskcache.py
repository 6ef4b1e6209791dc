import json
import sys
import threading

import pytest

from fockcorr import diskcache


@pytest.fixture
def cache_dir(tmp_path):
    diskcache.configure(str(tmp_path))
    try:
        yield tmp_path
    finally:
        diskcache.configure(None)


def test_two_puts_leave_one_valid_file(cache_dir):
    diskcache.put("k", {"v": 1})
    diskcache.put("k", {"v": 2})
    assert [p.suffix for p in cache_dir.iterdir()] == [".json"]
    assert diskcache.get("k") == {"v": 2}


def test_concurrent_puts_of_one_key(cache_dir):
    payloads = [{"writer": i, "data": list(range(2000))} for i in range(4)]
    errors = []

    def writer(obj):
        try:
            for _ in range(25):
                diskcache.put("k", obj)
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside each put
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    (blob,) = cache_dir.iterdir()
    assert blob.suffix == ".json"
    assert json.loads(blob.read_text()) in payloads


def test_corrupt_blob_is_a_miss(cache_dir):
    diskcache.put("k", {"v": 1})
    (blob,) = cache_dir.iterdir()
    blob.write_text('{"v": ')
    assert diskcache.get("k") is None
    blob.write_bytes(b"\xff\xfe")
    assert diskcache.get("k") is None
    diskcache.put("k", {"v": 1})
    assert diskcache.get("k") == {"v": 1}


def test_failed_publish_stores_nothing(cache_dir, monkeypatch):
    def fail(src, dst):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(diskcache.os, "replace", fail)
    diskcache.put("k", {"v": 1})
    assert list(cache_dir.iterdir()) == []  # the temp blob is gone too
    assert diskcache.get("k") is None


def test_blob_bytes_are_the_one_shot_encoding(cache_dir):
    obj = {"terms": [["1/2", {"s1": [[1, -2], "3/4"]}]], "trunc": None, "n": 2}
    diskcache.put("k", obj)
    (blob,) = cache_dir.iterdir()
    assert blob.read_text() == json.dumps(obj)


def test_key_is_versioned_canonical_json():
    from fractions import Fraction
    key = diskcache.key("corr", "d", Fraction(3, 2), (1, 0), True, {"b": 1, "a": 2})
    assert key == '["fockcorr-cache/1","corr","d","3/2",[1,0],true,{"a":2,"b":1}]'
    assert json.loads(key)[0] == diskcache.FORMAT
    with pytest.raises(TypeError):
        diskcache.key("corr", object())


def test_blob_of_another_format_version_is_a_miss(cache_dir, monkeypatch):
    monkeypatch.setattr(diskcache, "FORMAT", "fockcorr-cache/0")
    diskcache.put(diskcache.key("corr", 1), {"v": "old"})
    monkeypatch.undo()
    assert diskcache.get(diskcache.key("corr", 1)) is None
    diskcache.put(diskcache.key("corr", 1), {"v": "new"})
    assert diskcache.get(diskcache.key("corr", 1)) == {"v": "new"}
    assert len(list(cache_dir.iterdir())) == 2
