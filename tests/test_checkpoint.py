import hashlib
import json
import os
import re
import signal
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fapft import checkpoint
from fapft.checkpoint import (
    _CHUNK,
    _CHUNK_BUDGET,
    Checkpoint,
    CheckpointReader,
    chunk_length,
    read_checkpoint,
    write_checkpoint,
    zip_chunks,
)
from fapft.errors import (
    CorruptFile,
    FormatError,
    InvalidValue,
    IoError,
    UnsupportedDtype,
)
from fapft.tensors import _BLOCK, _MEAN_BLOCK, bits_equal


def build_file(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<Q", len(raw)) + raw + payload


def random_checkpoint(rng, max_tensors=8, max_elems=256, with_metadata=True):
    n = int(rng.integers(1, max_tensors + 1))
    tensors = {}
    for i in range(n):
        ndim = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
        if int(np.prod(shape)) > max_elems:
            shape = (int(rng.integers(1, max_elems)),)
        data = rng.normal(size=shape).astype(np.float32)
        tensors[f"t{i}.w"] = data
    metadata = (
        {"pft.arch_id": "toy_vit", "pft.seed": str(int(rng.integers(0, 99)))}
        if with_metadata and rng.random() < 0.7
        else {}
    )
    return Checkpoint(tensors, metadata)


class TestRead:
    def test_minimal_valid_file(self, tmp_path):
        payload = np.array([1.0, 2.0], dtype="<f4").tobytes()
        blob = build_file(
            {"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, payload
        )
        p = tmp_path / "one.ckpt"
        p.write_bytes(blob)
        ckpt = read_checkpoint(p)
        assert list(ckpt.tensors) == ["w"]
        assert np.array_equal(ckpt.tensors["w"], [1.0, 2.0])

    def test_header_length_exceeding_file(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(struct.pack("<Q", 10_000) + b"{}")
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "tiny.ckpt"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_malformed_json(self, tmp_path):
        raw = b"{not json"
        p = tmp_path / "bad.ckpt"
        p.write_bytes(struct.pack("<Q", len(raw)) + raw)
        with pytest.raises(FormatError):
            read_checkpoint(p)

    def test_unsupported_dtype(self, tmp_path):
        blob = build_file(
            {"w": {"dtype": "BF16", "shape": [2], "data_offsets": [0, 4]}},
            b"\x00" * 4,
        )
        p = tmp_path / "bf16.ckpt"
        p.write_bytes(blob)
        with pytest.raises(UnsupportedDtype):
            read_checkpoint(p)

    def test_offset_gap(self, tmp_path):
        payload = b"\x00" * 12
        blob = build_file(
            {
                "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
                "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
            },
            payload,
        )
        p = tmp_path / "gap.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_offset_overlap(self, tmp_path):
        payload = b"\x00" * 8
        blob = build_file(
            {
                "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
                "b": {"dtype": "F32", "shape": [1], "data_offsets": [2, 6]},
            },
            payload,
        )
        p = tmp_path / "overlap.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_out_of_bounds(self, tmp_path):
        blob = build_file(
            {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}},
            b"\x00" * 8,
        )
        p = tmp_path / "oob.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_size_shape_mismatch(self, tmp_path):
        blob = build_file(
            {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
            b"\x00" * 8,
        )
        p = tmp_path / "mismatch.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CorruptFile):
            read_checkpoint(p)

    def test_element_count_is_exact(self, tmp_path):
        # 2**64 elements: an int64 product wraps to 0 and would match the empty span
        blob = build_file(
            {"x": {"dtype": "F32", "shape": [2**32, 2**32], "data_offsets": [0, 0]}}, b""
        )
        p = tmp_path / "huge.ckpt"
        p.write_bytes(blob)
        with pytest.raises(CorruptFile, match=r"tensor 'x' spans 0 bytes but shape "
                           r"\[4294967296, 4294967296\] with dtype F32 needs 73786976294838206464"):
            CheckpointReader(p)

    def test_duplicate_names(self, tmp_path):
        raw = b'{"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},"a":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}'
        p = tmp_path / "dup.ckpt"
        p.write_bytes(struct.pack("<Q", len(raw)) + raw + b"\x00" * 4)
        with pytest.raises(FormatError):
            read_checkpoint(p)

    def test_nan_payload_rejected(self, tmp_path):
        payload = np.array([np.nan], dtype="<f4").tobytes()
        blob = build_file(
            {"w": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}, payload
        )
        p = tmp_path / "nan.ckpt"
        p.write_bytes(blob)
        # a stored non-finite value is bad data (exit 2), not a numerical failure
        with pytest.raises(CorruptFile, match="nan.ckpt: tensor w contains non-finite values"):
            read_checkpoint(p)

    def test_f16_and_f64_converted_exactly(self, tmp_path):
        f16 = np.array([0.5, -2.0, 1.25], dtype="<f2")
        f64 = np.array([3.0, 0.1], dtype="<f8")
        blob = build_file(
            {
                "half": {"dtype": "F16", "shape": [3], "data_offsets": [0, 6]},
                "wide": {"dtype": "F64", "shape": [2], "data_offsets": [6, 22]},
            },
            f16.tobytes() + f64.tobytes(),
        )
        p = tmp_path / "mixed.ckpt"
        p.write_bytes(blob)
        ckpt = read_checkpoint(p)
        assert np.array_equal(ckpt.tensors["half"], f16.astype(np.float32))
        assert np.array_equal(ckpt.tensors["wide"], f64.astype(np.float32))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_short_read_is_io_error(self, tmp_path, monkeypatch):
        # the file shrinks once its header is read, so the header still holds
        # and the payload ends early
        p = tmp_path / "shrunk.ckpt"
        write_checkpoint(random_checkpoint(np.random.default_rng(5)), p)
        parse = checkpoint._parse_header

        def parse_then_shrink(*args):
            parsed = parse(*args)
            os.truncate(p, p.stat().st_size - 4)
            return parsed

        monkeypatch.setattr(checkpoint, "_parse_header", parse_then_shrink)
        with pytest.raises(IoError, match="short read"):
            read_checkpoint(p)

    def test_tensors_are_read_only_arrays_of_their_own(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(7), max_tensors=8)
        p = tmp_path / "arrays.ckpt"
        write_checkpoint(ckpt, p)
        again = read_checkpoint(p)

        def owner(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        for t in again.tensors.values():
            assert t.dtype == np.float32
            assert t.flags.c_contiguous
            assert not t.flags.writeable
            # no tensor keeps the whole file in memory
            assert owner(t).nbytes == t.nbytes < p.stat().st_size

    def test_overwriting_the_file_leaves_loaded_values(self, tmp_path):
        p = tmp_path / "reused.ckpt"
        ckpt = Checkpoint({"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
        write_checkpoint(ckpt, p)
        again = read_checkpoint(p)
        with open(p, "r+b") as fh:  # same inode, new payload
            fh.write(Checkpoint({"w": -np.ones((2, 3))}).canonical_bytes())
        assert np.array_equal(again.tensors["w"], ckpt.tensors["w"])
        assert again.content_hash == ckpt.content_hash
        assert again.canonical_bytes() == ckpt.canonical_bytes()


W = np.array([1.5, -2.0], dtype="<f4")
V = np.array([0.25], dtype="<f4")
# canonical layout of {"v": V, "w": W}: payload in name order
V_ENTRY = {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}
W_ENTRY = {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]}
PAYLOAD = V.tobytes() + W.tobytes()
CANONICAL_JSON = {"separators": (",", ":"), "sort_keys": True}

# files that read the same tensors as a canonical file but differ in bytes;
# each differs from the canonical layout in one respect
NON_CANONICAL = {
    "f16_payload": lambda: build_file(
        {"w": {"dtype": "F16", "shape": [2], "data_offsets": [0, 4]}},
        W.astype("<f2").tobytes(),
    ),
    "f64_payload": lambda: build_file(
        {"w": {"dtype": "F64", "shape": [2], "data_offsets": [0, 16]}},
        W.astype("<f8").tobytes(),
    ),
    "payload_not_in_name_order": lambda: build_file(
        {
            "v": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
            "w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        },
        W.tobytes() + V.tobytes(),
    ),
    "header_whitespace": lambda: raw_file(
        json.dumps({"v": V_ENTRY, "w": W_ENTRY}, sort_keys=True), PAYLOAD
    ),
    "header_keys_unsorted": lambda: raw_file(
        json.dumps({"w": W_ENTRY, "v": V_ENTRY}, separators=(",", ":")), PAYLOAD
    ),
    "empty_metadata": lambda: build_file(
        {"v": V_ENTRY, "w": W_ENTRY, "__metadata__": {}}, PAYLOAD
    ),
    "raw_utf8_metadata": lambda: raw_file(
        json.dumps(
            {"v": V_ENTRY, "w": W_ENTRY, "__metadata__": {"note": "caf\u00e9"}},
            ensure_ascii=False,
            **CANONICAL_JSON,
        ),
        PAYLOAD,
    ),
}


def raw_file(header_text: str, payload: bytes) -> bytes:
    raw = header_text.encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw + payload


class TestCheckpoint:
    """What an in-memory checkpoint holds for the values it is built from."""

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidValue, match="^tensor w contains non-finite values$"):
            Checkpoint({"w": [1.0, float("nan")]})
        with pytest.raises(InvalidValue, match="^tensor b contains non-finite values$"):
            Checkpoint({"a": [1.0], "b": np.array([float("inf"), 0.0])})

    def test_zero_extent_shape(self):
        ckpt = Checkpoint({"w": np.zeros((0, 3), dtype=np.float32)})
        assert ckpt.tensors["w"].shape == (0, 3)
        assert ckpt.tensors["w"].size == 0
        assert ckpt.shapes == {"w": (0, 3)}

    def test_immutable(self):
        ckpt = Checkpoint({"w": [1.0, 2.0]})
        with pytest.raises(ValueError):
            ckpt.tensors["w"][0] = 5.0
        with pytest.raises(TypeError):
            ckpt.tensors["w"] = np.zeros(2, dtype=np.float32)

    def test_storage_is_contiguous_float32(self):
        # a list, a transposed float64 array and a strided int array
        for data in ([0.1, 0.2], np.arange(6.0).reshape(2, 3).T, np.arange(8)[::2]):
            arr = Checkpoint({"w": data}).tensors["w"]
            assert arr.dtype == np.float32
            assert arr.flags.c_contiguous
            assert not arr.flags.writeable
            assert np.array_equal(arr, np.asarray(data, dtype=np.float32))

    def test_contiguous_float32_is_not_copied(self):
        data = np.zeros((2, 3), dtype=np.float32)
        arr = Checkpoint({"w": data}).tensors["w"]
        assert np.shares_memory(arr, data)
        assert not arr.flags.writeable

    def test_view_is_copied(self):
        # freezing a view would not freeze its base, whose writes would
        # change the tensor under its hash
        base = np.zeros((2, 4), dtype=np.float32)
        ckpt = Checkpoint({"w": base[0]})
        digest = ckpt.content_hash
        base[0, 0] = 1.0
        assert not np.shares_memory(ckpt.tensors["w"], base)
        assert np.array_equal(ckpt.tensors["w"], np.zeros(4, dtype=np.float32))
        assert Checkpoint({"w": np.zeros(4, dtype=np.float32)}).content_hash == digest
        assert base.flags.writeable


class TestContentHashSource:
    def test_canonical_file_hash_is_file_sha256(self, tmp_path):
        blob = build_file(
            {"v": V_ENTRY, "w": W_ENTRY, "__metadata__": {"note": "caf\u00e9"}}, PAYLOAD
        )
        p = tmp_path / "canonical.ckpt"
        p.write_bytes(blob)
        again = read_checkpoint(p)
        assert again.content_hash == hashlib.sha256(blob).hexdigest()
        rebuilt = Checkpoint(
            {"v": V, "w": W}, {"note": "caf\u00e9"}
        )
        assert rebuilt.canonical_bytes() == blob

    @pytest.mark.parametrize("case", sorted(NON_CANONICAL))
    def test_non_canonical_file_is_reserialized(self, tmp_path, case):
        blob = NON_CANONICAL[case]()
        p = tmp_path / f"{case}.ckpt"
        p.write_bytes(blob)
        again = read_checkpoint(p)
        reserialized = again.canonical_bytes()
        assert reserialized != blob
        assert again.content_hash == hashlib.sha256(reserialized).hexdigest()
        assert again.content_hash != hashlib.sha256(blob).hexdigest()
        in_memory = Checkpoint(
            {n: t.copy() for n, t in again.tensors.items()},
            dict(again.metadata),
        )
        assert again.content_hash == in_memory.content_hash
        # writing it out makes it canonical: the file's SHA-256 is the same hash
        q = tmp_path / f"{case}.canonical.ckpt"
        assert write_checkpoint(again, q) == again.content_hash
        assert hashlib.sha256(q.read_bytes()).hexdigest() == again.content_hash


class TestReader:
    @pytest.mark.parametrize("case", ["canonical"] + sorted(NON_CANONICAL))
    def test_stream_matches_read_checkpoint(self, tmp_path, case):
        if case == "canonical":
            blob = build_file({"v": V_ENTRY, "w": W_ENTRY, "__metadata__": {"k": "v"}}, PAYLOAD)
        else:
            blob = NON_CANONICAL[case]()
        # the values each file was written from
        written = {"w": W} if case in ("f16_payload", "f64_payload") else {"v": V, "w": W}
        p = tmp_path / f"{case}.ckpt"
        p.write_bytes(blob)
        whole = read_checkpoint(p)
        with CheckpointReader(p) as reader:
            assert reader.shapes == whole.shapes == {n: a.shape for n, a in written.items()}
            assert reader.metadata == dict(whole.metadata)
            keys = []
            for name, start, chunk in reader.chunks():
                keys.append((name, start))
                assert not chunk.flags.writeable
                assert chunk.dtype == np.float32
                assert chunk.tobytes() == written[name][start : start + chunk.size].tobytes()
                flat = whole.tensors[name].reshape(-1)
                assert bits_equal(chunk, flat[start : start + chunk.size])
            assert keys == [(name, 0) for name in sorted(written)]
            assert reader.content_hash == whole.content_hash

    def test_f16_and_f64_chunks_match_read_checkpoint(self, tmp_path):
        # converted tensors of several chunks each, ragged at the end, around
        # an F32 one: the chunks join into the written values, converted, and
        # into read_checkpoint's bits and hash
        rng = np.random.default_rng(37)
        d = rng.normal(size=2 * _CHUNK + 5).astype("<f8")
        h = rng.normal(size=(3, _CHUNK // 2 + 7)).astype("<f2")
        f = rng.normal(size=_CHUNK + 1).astype("<f4")
        sources = {"d": d, "f": f, "h": h}
        parts, header, offset = [], {}, 0
        for name, values, tag in [("d", d, "F64"), ("f", f, "F32"), ("h", h, "F16")]:
            header[name] = {"dtype": tag, "shape": list(values.shape),
                            "data_offsets": [offset, offset + values.nbytes]}
            parts.append(values.tobytes())
            offset += values.nbytes
        p = tmp_path / "wide.ckpt"
        p.write_bytes(build_file(header, b"".join(parts)))
        whole = read_checkpoint(p)
        with CheckpointReader(p) as reader:
            joined = {}
            for name, start, chunk in reader.chunks():
                assert chunk.ndim == 1 and 0 < chunk.size <= _CHUNK
                assert not chunk.flags.writeable
                assert start == sum(c.size for c in joined.get(name, []))
                joined.setdefault(name, []).append(chunk.copy())
            assert [len(chunks) for chunks in joined.values()] == [3, 2, 2]
            for name, chunks in joined.items():
                expected = sources[name].astype(np.float32).tobytes()
                assert np.concatenate(chunks).tobytes() == expected
                assert whole.tensors[name].tobytes() == expected
            assert reader.content_hash == whole.content_hash

    def test_chunk_length_shares_one_budget(self):
        # two float32 buffers per source fit in the budget, down to 2^16
        lengths = {sources: chunk_length(sources) for sources in range(1, 13)}
        assert [lengths[n] for n in (1, 2, 3, 4)] == [1 << 18] * 2 + [1 << 17] * 2
        assert {lengths[n] for n in range(5, 13)} == {1 << 16}
        for sources, length in lengths.items():
            assert length % _BLOCK == 0 and length % _MEAN_BLOCK == 0
            assert sources > 8 or sources * 2 * length * 4 <= _CHUNK_BUDGET
        # zip_chunks reads every source in chunks of that length
        ckpt = Checkpoint({"w": np.arange(_CHUNK + 3, dtype=np.float32)})
        for sources in (2, 3, 5):
            starts = [start for _, start, _ in zip_chunks(*[ckpt] * sources)]
            assert starts == list(range(0, _CHUNK + 3, chunk_length(sources)))

    def test_unhashed_reader_holds_one_buffer(self, tmp_path):
        # no hash runs behind an unhashed reader, so one buffer serves
        p = tmp_path / "long.ckpt"
        write_checkpoint(Checkpoint({"w": np.ones(3 * _CHUNK)}), p)
        with CheckpointReader(p) as reader:  # starts the hash thread before tracing
            for _ in reader.chunks():
                pass
        for hashed, buffers in ((False, 1), (True, 2)):
            tracemalloc.start()
            try:
                with CheckpointReader(p, hashed=hashed) as reader:
                    for _ in reader.chunks():
                        pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert buffers * _CHUNK * 4 <= peak < (buffers + 0.5) * _CHUNK * 4

    def test_empty_tensor_is_one_empty_chunk(self, tmp_path):
        p = tmp_path / "empty.ckpt"
        ckpt = Checkpoint({"a": np.zeros((2, 0)), "b": [1.0]})
        write_checkpoint(ckpt, p)
        with CheckpointReader(p) as reader:
            got = [(name, start, chunk.size) for name, start, chunk in reader.chunks()]
            assert reader.content_hash == ckpt.content_hash
        assert got == [("a", 0, 0), ("b", 0, 1)]
        assert [(n, s, c.size) for n, s, c in ckpt.chunks()] == got

    def test_hash_of_many_tensors(self, tmp_path):
        rng = np.random.default_rng(29)
        for i in range(10):
            ckpt = random_checkpoint(rng)
            p = tmp_path / f"r{i}.ckpt"
            h = write_checkpoint(ckpt, p)
            with CheckpointReader(p) as reader:
                for _ in reader.chunks():
                    pass
                assert reader.content_hash == h
            with CheckpointReader(p, hashed=False) as reader:
                for _ in reader.chunks():
                    pass
                with pytest.raises(RuntimeError):
                    reader.content_hash

    def test_readers_on_many_threads_share_the_hash_thread(self, tmp_path):
        # more reading threads than cores, switching often: every stream's
        # updates must still reach its own digest, in order
        rng = np.random.default_rng(31)
        files = []
        for i in range(4):
            p = tmp_path / f"t{i}.ckpt"
            files.append((p, write_checkpoint(random_checkpoint(rng, max_elems=4096), p)))
        results = []

        def work(path, expected):
            for _ in range(5):
                with CheckpointReader(path) as reader:
                    for _ in reader.chunks():
                        pass
                    results.append(reader.content_hash == expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=f) for f in files * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 40

    # Python 3.12 and later warn that a multi-threaded process forks
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_hash_thread(self, tmp_path):
        # a forked child has no copy of the parent's hash thread, so a child
        # that handed its hash updates to the parent's pool would wait forever
        p = tmp_path / "fork.ckpt"
        expected = write_checkpoint(random_checkpoint(np.random.default_rng(41)), p)

        def stream_hash():
            with CheckpointReader(p) as reader:
                for _ in reader.chunks():
                    pass
            return reader.content_hash

        assert stream_hash() == expected  # the hash thread now runs
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if stream_hash() == expected else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.monotonic() < deadline:
            time.sleep(0.01)
        if done == (0, 0):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done != (0, 0), "the forked child still waits for its hash after 30 s"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    def test_no_hash_before_the_last_tensor(self, tmp_path):
        p = tmp_path / "two.ckpt"
        write_checkpoint(Checkpoint({"a": [1.0], "b": [2.0]}), p)
        with CheckpointReader(p) as reader:
            stream = reader.chunks()
            next(stream)
            with pytest.raises(RuntimeError, match="no content hash"):
                reader.content_hash

    def test_non_finite_value_is_corrupt_file(self, tmp_path):
        blob = build_file(
            {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
             "b": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}},
            np.array([1.0, np.inf], dtype="<f4").tobytes(),
        )
        p = tmp_path / "inf.ckpt"
        p.write_bytes(blob)
        with CheckpointReader(p) as reader:
            stream = reader.chunks()
            assert next(stream)[0] == "a"
            with pytest.raises(CorruptFile, match="inf.ckpt: tensor b contains non-finite"):
                next(stream)

    def test_file_truncated_after_open(self, tmp_path):
        p = tmp_path / "cut.ckpt"
        write_checkpoint(Checkpoint({"a": [1.0], "b": np.ones(64)}), p)
        with CheckpointReader(p) as reader:
            os.truncate(p, p.stat().st_size - 4)
            with pytest.raises(IoError, match="short read"):
                list(reader.chunks())

    def test_header_errors_at_open(self, tmp_path):
        q = tmp_path / "tiny.ckpt"
        q.write_bytes(b"\x01\x02")
        with pytest.raises(CorruptFile):
            CheckpointReader(q)
        with pytest.raises(IoError):
            CheckpointReader(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("blob, error", [
        (b"\x01\x02", CorruptFile),
        (struct.pack("<Q", 10_000) + b"{}", CorruptFile),
        (struct.pack("<Q", 9) + b"{not json", FormatError),
        (build_file({"w": {"dtype": "BF16", "shape": [2], "data_offsets": [0, 4]}}, b""),
         UnsupportedDtype),
        (build_file({"w": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}}, b"\0" * 4),
         CorruptFile),
    ])
    def test_header_errors_name_the_file(self, tmp_path, blob, error):
        p = tmp_path / "named.ckpt"
        p.write_bytes(blob)
        for read in (read_checkpoint, CheckpointReader):
            with pytest.raises(error, match=f"^{re.escape(str(p))}: "):
                read(p)


class TestWrite:
    def test_deterministic_bytes(self, tmp_path):
        ckpt = random_checkpoint(np.random.default_rng(3))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        h1 = write_checkpoint(ckpt, p1)
        h2 = write_checkpoint(ckpt, p2)
        assert h1 == h2 == ckpt.content_hash
        assert p1.read_bytes() == p2.read_bytes()

    def test_insertion_order_irrelevant(self, tmp_path):
        a = np.float32([1.0])
        b = np.float32([2.0])
        c1 = Checkpoint({"a": a, "b": b})
        c2 = Checkpoint({"b": b, "a": a})
        assert c1.canonical_bytes() == c2.canonical_bytes()
        assert c1.content_hash == c2.content_hash

    def test_empty_checkpoint_round_trips(self, tmp_path):
        ckpt = Checkpoint({})
        p = tmp_path / "empty.ckpt"
        write_checkpoint(ckpt, p)
        again = read_checkpoint(p)
        assert dict(again.tensors) == {}
        assert again.content_hash == ckpt.content_hash
        header_len = struct.unpack("<Q", p.read_bytes()[:8])[0]
        assert p.read_bytes()[8 : 8 + header_len] == b"{}"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_checkpoint(Checkpoint({}), tmp_path / "no" / "such" / "dir.ckpt")

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "kept.ckpt"
        write_checkpoint(random_checkpoint(np.random.default_rng(11)), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(IoError, match="replace refused"):
            write_checkpoint(random_checkpoint(np.random.default_rng(12)), p)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["kept.ckpt"]

    def test_write_leaves_no_temp_file_and_default_mode(self, tmp_path):
        p = tmp_path / "out.ckpt"
        write_checkpoint(random_checkpoint(np.random.default_rng(13)), p)
        write_checkpoint(random_checkpoint(np.random.default_rng(14)), p)
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert sorted(os.listdir(tmp_path)) == ["out.ckpt", "plain"]
        assert p.stat().st_mode == plain.stat().st_mode

    def test_write_streams_without_serializing(self, tmp_path, monkeypatch):
        ckpt = random_checkpoint(np.random.default_rng(15))
        expected = ckpt.canonical_bytes()

        def refuse(self):
            raise AssertionError("canonical_bytes called")

        monkeypatch.setattr(Checkpoint, "canonical_bytes", refuse)
        p = tmp_path / "streamed.ckpt"
        h = write_checkpoint(ckpt, p)
        assert p.read_bytes() == expected
        assert h == hashlib.sha256(expected).hexdigest() == ckpt.content_hash
        assert read_checkpoint(p).content_hash == h

    def test_reserved_name_rejected(self):
        with pytest.raises(FormatError):
            Checkpoint({"__metadata__": [1.0]})

    def test_bad_names_rejected(self):
        with pytest.raises(FormatError):
            Checkpoint({"has space": [1.0]})
        with pytest.raises(FormatError):
            Checkpoint({"": [1.0]})
        with pytest.raises(FormatError):
            Checkpoint({"café": [1.0]})


class TestRoundTrip:
    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(17)
        for i in range(60):
            ckpt = random_checkpoint(rng)
            p = tmp_path / f"rt{i}.ckpt"
            h = write_checkpoint(ckpt, p)
            again = read_checkpoint(p)
            assert again.content_hash == h
            assert again.content_hash == hashlib.sha256(ckpt.canonical_bytes()).hexdigest()
            assert again.canonical_bytes() == p.read_bytes()
            assert dict(again.metadata) == dict(ckpt.metadata)
            assert set(again.tensors) == set(ckpt.tensors)
            for name in ckpt.tensors:
                assert bits_equal(again.tensors[name], ckpt.tensors[name])

    def test_large_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        data = rng.normal(size=1_000_000).astype(np.float32)
        ckpt = Checkpoint({"big": data}, {"pft.producer": "test"})
        p = tmp_path / "big.ckpt"
        write_checkpoint(ckpt, p)
        again = read_checkpoint(p)
        assert bits_equal(again.tensors["big"], ckpt.tensors["big"])
        assert again.content_hash == ckpt.content_hash

    def test_mutations_never_silent(self, tmp_path):
        rng = np.random.default_rng(23)
        ckpt = random_checkpoint(rng)
        p = tmp_path / "orig.ckpt"
        original_hash = write_checkpoint(ckpt, p)
        blob = bytearray(p.read_bytes())
        for trial in range(60):
            pos = int(rng.integers(0, len(blob)))
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << int(rng.integers(0, 8))
            q = tmp_path / "mut.ckpt"
            q.write_bytes(bytes(mutated))
            try:
                again = read_checkpoint(q)
            except (CorruptFile, FormatError, UnsupportedDtype, InvalidValue):
                continue
            assert again.content_hash != original_hash, f"silent mutation at byte {pos}"

    def test_metadata_changes_hash(self):
        t = np.float32([1.0, 2.0])
        c1 = Checkpoint({"w": t}, {"pft.seed": "1"})
        c2 = Checkpoint({"w": t}, {"pft.seed": "2"})
        assert c1.content_hash != c2.content_hash
