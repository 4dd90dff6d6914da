"""Bit-exact checkpoint reading, writing and hashing.

Container layout (single file, zero-copy friendly):

* bytes 0-7: unsigned 64-bit little-endian header length ``N``
* bytes 8..8+N: UTF-8 JSON object mapping tensor name to
  ``{"dtype": "F16"|"F32"|"F64", "shape": [...], "data_offsets": [begin, end)}``
  with offsets relative to byte ``8+N``, plus an optional ``"__metadata__"``
  string map
* remainder: contiguous little-endian row-major tensor payload

Writes are canonical: tensor entries sorted lexicographically by name, JSON
keys sorted, no insignificant whitespace, payload in name order, dtype always
F32. Identical checkpoints therefore produce byte-identical files, and the
content hash is the SHA-256 of those canonical bytes (lowercase hex). A
checkpoint hashes (or writes) its header and then each tensor's bytes in
canonical order, without assembling the whole serialization.

Every file is read by ``CheckpointReader``: it yields each tensor as flat
float32 chunks through two reusable buffers, and SHA-256 of the canonical
bytes runs on one helper thread while the caller works on a chunk and the
next one is read (an unhashed reader needs one buffer). Files read in step by
``zip_chunks`` share one budget of chunk buffers: the more files, the shorter
the chunks (:func:`chunk_length`). Memory is bounded by that budget, not by
the tensor, the file or the number of files. ``read_checkpoint`` puts an
unhashed reader's chunks together into one array per tensor.

Writes go to a temporary file beside the target, which then replaces it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CorruptFile, FormatError, InvalidValue, IoError, UnsupportedDtype
from .tensors import all_finite

__all__ = [
    "Checkpoint",
    "CheckpointReader",
    "read_checkpoint",
    "read_text",
    "write_checkpoint",
    "write_atomic",
    "write_all",
    "canonical_header",
    "chunk_length",
    "zip_chunks",
]

_READ_DTYPES = {"F16": np.dtype("<f2"), "F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_F32 = _READ_DTYPES["F32"]
_METADATA_KEY = "__metadata__"
# Elements in a streamed chunk: a power of two from _MIN_CHUNK to _CHUNK
# (256 KB to 1 MB of float32). Each is a multiple of the block lengths of
# ``tensors.pair_stats`` and ``tensors.mean_arrays``, so a sum over a tensor's
# chunks has the blocks, and so the bits, of a sum over the tensor.
_MIN_CHUNK = 1 << 16
_CHUNK = 1 << 18
# Bytes of float32 chunk buffers that the sources of one ``zip_chunks`` share.
_CHUNK_BUDGET = 4 << 20


def chunk_length(sources: int) -> int:
    """Elements in a chunk of each of ``sources`` streams read in step: the
    longest power of two from 2^16 to 2^18 at which two float32 buffers per
    source fit in the 4 MB budget. One or two sources get 2^18, three or four
    2^17, and five or more 2^16 (over the budget from nine on)."""
    length = _CHUNK
    while length > _MIN_CHUNK and sources * 2 * length * _F32.itemsize > _CHUNK_BUDGET:
        length //= 2
    return length


def _chunk_starts(size: int, length: int) -> range:
    """Offsets of the chunks of ``length`` elements of a tensor of ``size``
    elements; a tensor with no elements has one empty chunk, so that every
    name is seen."""
    return range(0, max(size, 1), length)


def _validate_name(name) -> str:
    if not isinstance(name, str) or not name:
        raise FormatError(f"tensor name must be a non-empty string, got {name!r}")
    if not name.isascii() or any(c.isspace() for c in name):
        raise FormatError(f"tensor name must be ASCII without whitespace: {name!r}")
    if name == _METADATA_KEY:
        raise FormatError(f"tensor name {_METADATA_KEY!r} is reserved")
    return name


def canonical_header(shapes: Iterable[tuple[str, tuple[int, ...]]], metadata) -> bytes:
    """Length prefix plus compact sorted JSON header for F32 tensors in name order."""
    header: dict[str, object] = {}
    offset = 0
    for name, shape in sorted(shapes):
        nbytes = math.prod(shape) * _F32.itemsize
        header[name] = {
            "dtype": "F32",
            "shape": list(shape),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    if metadata:
        header[_METADATA_KEY] = dict(sorted(metadata.items()))
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<Q", len(raw)) + raw


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _payload_view(array: np.ndarray) -> np.ndarray:
    """A tensor's little-endian float32 bytes as a flat uint8 view (no copy on LE hosts)."""
    return array.astype(_F32, copy=False).reshape(-1).view(np.uint8)


class Checkpoint:
    """An immutable named map of tensors plus a string metadata map.

    Each tensor is a read-only, C-contiguous float32 array holding no NaN and
    no infinity. The constructor converts any array-like to one; an array that
    already is contiguous float32 and owns its memory is not copied, but is
    made read-only. A view is copied: freezing it would not freeze the array
    it views, whose writes would change the tensor under its hash. An owning
    array is frozen in place, so a view of it made before the checkpoint was
    built stays writeable; such a view must not be written through.

    Toolkit producers namespace their metadata keys as ``pft.*``
    (``pft.arch_id``, ``pft.seed``, ``pft.epoch``, ``pft.producer``, ...).
    """

    __slots__ = ("_tensors", "_metadata", "_hash")

    def __init__(
        self,
        tensors: Mapping[str, object],
        metadata: Mapping[str, str] | None = None,
    ):
        clean: dict[str, np.ndarray] = {}
        for name, data in tensors.items():
            _validate_name(name)
            array = np.ascontiguousarray(data, dtype=np.float32)
            if not array.flags.owndata:
                array = array.copy()
            if not all_finite(array):
                raise InvalidValue(f"tensor {name} contains non-finite values")
            array.setflags(write=False)
            clean[name] = array
        meta: dict[str, str] = {}
        for k, v in (metadata or {}).items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise FormatError(f"metadata must map str to str, got {k!r}: {v!r}")
            meta[k] = v
        self._tensors = clean
        self._metadata = meta
        self._hash: str | None = None

    @property
    def tensors(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType(self._tensors)

    @property
    def metadata(self) -> Mapping[str, str]:
        return MappingProxyType(self._metadata)

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Tensor shapes in name order, as :class:`CheckpointReader` has them."""
        return {name: self._tensors[name].shape for name in sorted(self._tensors)}

    def chunks(self, length: int = _CHUNK) -> Iterator[tuple[str, int, np.ndarray]]:
        """(name, start, chunk) in the order :meth:`CheckpointReader.chunks`
        yields them; each chunk is a flat view of the tensor."""
        for name in sorted(self._tensors):
            flat = self._tensors[name].reshape(-1)
            for start in _chunk_starts(flat.size, length):
                yield name, start, flat[start : start + length]

    def _canonical_parts(self) -> list:
        """The canonical serialization as buffers, in order, without copying payloads."""
        header = canonical_header(self.shapes.items(), self._metadata)
        return [header] + [_payload_view(self._tensors[n]) for n in sorted(self._tensors)]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization; the basis of both files and hashes."""
        return b"".join(self._canonical_parts())

    @property
    def content_hash(self) -> str:
        if self._hash is None:
            self._hash = _sha256(self._canonical_parts())
        return self._hash

    def __repr__(self):
        return f"Checkpoint({len(self._tensors)} tensors, hash={self.content_hash[:12]})"


def read_text(path) -> str:
    """A UTF-8 text file: ``OSError`` becomes ``IoError`` and undecodable bytes
    ``FormatError``, so every text input the toolkit reads is a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


@contextmanager
def write_atomic(path):
    """An unbuffered binary file, open for reading and writing, whose content
    replaces ``path`` all at once when the block ends, or not at all.

    The file is a temporary one in the target's directory; ``os.replace``
    puts it in place, so readers see the old file or the new one, never a
    partial write. If the block raises, the temporary file is removed, and
    ``OSError`` becomes ``IoError``. (There is no fsync: a crash of the whole
    machine may still lose the new file.)
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    try:
        with open(fd, "r+b", buffering=0) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def write_all(fh, part) -> None:
    """Write one C-contiguous buffer to an unbuffered file, however many calls that takes."""
    view = memoryview(part)
    if view.nbytes:  # an empty view cannot be cast
        view = view.cast("B")
        while view:
            view = view[fh.write(view):]


def write_checkpoint(ckpt: Checkpoint, path) -> str:
    """Write the canonical serialization to ``path``; returns the content hash."""
    with write_atomic(path) as fh:
        for part in ckpt._canonical_parts():
            write_all(fh, part)
    return ckpt.content_hash


def _parse_header(blob: bytes, payload_size: int):
    """Metadata and entries of a raw header, checked against the payload size."""

    def reject_duplicates(pairs):
        seen = set()
        out = {}
        for k, v in pairs:
            if k in seen:
                raise FormatError(f"duplicate header key {k!r}")
            seen.add(k)
            out[k] = v
        return out

    try:
        header = json.loads(blob.decode("utf-8"), object_pairs_hook=reject_duplicates)
    except ValueError as exc:  # not UTF-8, not JSON, or an int of too many digits
        raise FormatError(f"malformed header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")

    metadata: dict[str, str] = {}
    entries: dict[str, tuple[np.dtype, tuple[int, ...], int, int]] = {}
    for name, value in header.items():
        if name == _METADATA_KEY:
            if not isinstance(value, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in value.items()
            ):
                raise FormatError("__metadata__ must be a string map")
            metadata = dict(value)
            continue
        _validate_name(name)
        if not isinstance(value, dict) or set(value) != {
            "dtype",
            "shape",
            "data_offsets",
        }:
            raise FormatError(
                f"entry {name!r} must have exactly dtype/shape/data_offsets"
            )
        dtype_tag = value["dtype"]
        if not isinstance(dtype_tag, str):
            raise FormatError(f"entry {name!r} has a non-string dtype")
        if dtype_tag not in _READ_DTYPES:
            raise UnsupportedDtype(f"tensor {name!r} has unsupported dtype {dtype_tag!r}")
        dtype = _READ_DTYPES[dtype_tag]
        shape = value["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in shape
        ):
            raise FormatError(f"entry {name!r} has an invalid shape {shape!r}")
        offsets = value["data_offsets"]
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) for o in offsets)
        ):
            raise FormatError(f"entry {name!r} has invalid data_offsets {offsets!r}")
        begin, end = offsets
        if begin < 0 or begin > end or end > payload_size:
            raise CorruptFile(
                f"tensor {name!r} offsets [{begin}, {end}) out of bounds "
                f"for payload of {payload_size} bytes"
            )
        expected = math.prod(shape) * dtype.itemsize
        if end - begin != expected:
            raise CorruptFile(
                f"tensor {name!r} spans {end - begin} bytes but shape {shape} "
                f"with dtype {dtype_tag} needs {expected}"
            )
        entries[name] = (dtype, tuple(shape), begin, end)

    # payload must be tiled exactly: no gaps, no overlaps, no trailing bytes
    cursor = 0
    for name, (_, _, begin, end) in sorted(
        entries.items(), key=lambda item: (item[1][2], item[1][3])
    ):
        if begin != cursor:
            kind = "overlap" if begin < cursor else "gap"
            raise CorruptFile(f"payload {kind} at byte {begin} (tensor {name!r})")
        cursor = end
    if cursor != payload_size:
        raise CorruptFile(
            f"payload has {payload_size - cursor} trailing bytes not covered by any tensor"
        )
    return metadata, entries


def _read_into(fh, buf, offset: int, path) -> None:
    """Fill ``buf`` with the bytes of an unbuffered file from ``offset`` on.

    A file that ends first is an ``IoError``, and so is an ``OSError``.
    """
    view = memoryview(buf)
    filled = 0
    try:
        fh.seek(offset)
        while filled < view.nbytes:
            got = fh.readinto(view[filled:])
            if not got:
                break
            filled += got
    except OSError as exc:
        raise IoError(f"cannot read checkpoint from {path}: {exc}") from exc
    if filled < view.nbytes:
        raise IoError(f"short read from {path}: {filled} of {view.nbytes} bytes at byte {offset}")


def _file_size(fh, path) -> int:
    try:
        return os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise IoError(f"cannot read checkpoint from {path}: {exc}") from exc


def _open(path):
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise IoError(f"cannot read checkpoint from {path}: {exc}") from exc


_hash_pool = None
_hash_pool_lock = threading.Lock()


def _hasher():
    """The one helper thread on which every reader's SHA-256 updates run, in
    the order they are submitted."""
    # imported here: concurrent.futures brings in logging, about 1 MB of
    # memory that commands which never stream a file need not pay
    from concurrent.futures import ThreadPoolExecutor

    global _hash_pool
    with _hash_pool_lock:
        if _hash_pool is None:
            _hash_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fapft-hash")
        return _hash_pool


def _forget_hasher() -> None:
    global _hash_pool
    _hash_pool = None  # a forked child has no helper thread; it starts its own


os.register_at_fork(after_in_child=_forget_hasher)


class CheckpointReader:
    """A checkpoint file read in chunks, in name order.

    Opening it reads and validates the header; ``shapes`` (in name order)
    and ``metadata`` are then known. :meth:`chunks` reads every tensor once
    and yields it in flat read-only float32 chunks; F16 and F64 payloads are
    converted to float32 (exactly, where the value is representable). Each
    tensor is checked to be finite, and the canonical header and float32
    bytes go to SHA-256 on one helper thread shared by all readers
    (``hashlib`` releases the GIL), so once every chunk has been taken,
    ``content_hash`` equals ``read_checkpoint(path).content_hash``, whether
    or not the file is canonical; ``hashed=False`` skips the hash. Close it,
    or use it as a context manager.
    """

    def __init__(self, path, hashed: bool = True):
        self.path = path
        self._hashed = hashed
        self._fh = _open(path)
        try:
            size = _file_size(self._fh, path)
            if size < 8:
                raise CorruptFile(
                    f"{path}: file is {size} bytes; need at least an 8-byte header length"
                )
            prefix = bytearray(8)
            _read_into(self._fh, prefix, 0, path)
            (header_len,) = struct.unpack("<Q", prefix)
            if 8 + header_len > size:
                raise CorruptFile(f"{path}: header length {header_len} exceeds file size {size}")
            header = bytearray(header_len)
            _read_into(self._fh, header, 8, path)
            try:
                self.metadata, self._entries = _parse_header(bytes(header), size - 8 - header_len)
            except (FormatError, CorruptFile, UnsupportedDtype) as exc:
                raise type(exc)(f"{path}: {exc}") from exc
        except BaseException:
            self._fh.close()
            raise
        self._start = 8 + header_len
        self.shapes = {name: self._entries[name][1] for name in sorted(self._entries)}
        self._hash: str | None = None

    def chunks(self, length: int = _CHUNK) -> Iterator[tuple[str, int, np.ndarray]]:
        """(name, start, chunk) for every tensor in name order, and within a
        tensor in offset order; ``start`` counts elements, and a chunk holds
        at most ``length``.

        A chunk stays valid until the next one is taken. A hashed reader has
        two buffers that take turns, so the next chunk is read while the hash
        of the last one runs; a buffer is refilled only once the hash of the
        chunk it last held is done. An unhashed reader has one buffer. A
        tensor that holds a non-finite value raises ``CorruptFile`` when its
        last chunk is taken.
        """
        digest = None
        if self._hashed:
            # before the buffers: building the header JSON takes more memory
            # than the header, for a moment
            digest = hashlib.sha256(canonical_header(self.shapes.items(), self.metadata))
        filled = min(length, max(map(math.prod, self.shapes.values()), default=0))
        buffers = [np.empty(filled, np.float32) for _ in range(2 if self._hashed else 1)]
        # F16 and F64 chunks are read here, then converted into a buffer
        wide = max((d.itemsize for d, *_ in self._entries.values() if d != _F32), default=0)
        stored = np.empty(filled * wide, np.uint8)
        updates: list = [None, None]
        turn = 0
        for name, shape in self.shapes.items():
            dtype, _, begin, _ = self._entries[name]
            size = math.prod(shape)
            finite = True
            for start in _chunk_starts(size, length):
                if updates[turn] is not None:
                    updates[turn].result()
                values = buffers[turn][: min(length, size - start)]
                offset = self._start + begin + start * dtype.itemsize
                if dtype == _F32:
                    _read_into(self._fh, values, offset, self.path)
                else:
                    raw = stored[: values.size * dtype.itemsize]
                    _read_into(self._fh, raw, offset, self.path)
                    values[...] = raw.view(dtype)
                finite = finite and all_finite(values)
                if not finite and start + values.size == size:
                    # a stored value that is not finite is bad data, not a numerical failure
                    raise CorruptFile(f"{self.path}: tensor {name} contains non-finite values")
                values = values.view()
                values.setflags(write=False)
                if digest is not None:
                    updates[turn] = _hasher().submit(digest.update, values)
                yield name, start, values
                turn = (turn + 1) % len(buffers)
        if digest is not None:
            for update in updates:
                if update is not None:
                    update.result()
            self._hash = digest.hexdigest()

    @property
    def content_hash(self) -> str:
        if self._hash is None:
            raise RuntimeError(f"{self.path}: no content hash before every tensor is read")
        return self._hash

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint file: the chunks of an unhashed
    :class:`CheckpointReader`, put together into one float32 array per
    tensor. F16 and F64 payloads are converted to float32 (exactly, where the
    value is representable), and a non-finite value is a ``CorruptFile``."""
    with CheckpointReader(path, hashed=False) as reader:
        arrays = {name: np.empty(shape, np.float32) for name, shape in reader.shapes.items()}
        for name, start, chunk in reader.chunks():
            arrays[name].reshape(-1)[start : start + chunk.size] = chunk
    return Checkpoint(arrays, reader.metadata)


def zip_chunks(*sources) -> Iterator[tuple[str, int, list]]:
    """Every (name, start) of the chunks of ``sources`` (checkpoints or
    readers) in order, with each source's chunk there, or None where it has
    none: (name, start, chunks). Chunks hold ``chunk_length(len(sources))``
    elements at most.

    A source's next chunk is taken only when the caller asks for the next
    key, so a reader never refills a buffer under a chunk still in use.
    """
    length = chunk_length(len(sources))
    streams = [source.chunks(length) for source in sources]
    heads: list = [None] * len(streams)
    taken = range(len(streams))
    while True:
        for i in taken:
            heads[i] = next(streams[i], None)
        keys = [head[:2] for head in heads if head is not None]
        if not keys:
            return
        key = min(keys)
        taken = [i for i, head in enumerate(heads) if head is not None and head[:2] == key]
        yield *key, [heads[i][2] if i in taken else None for i in range(len(heads))]
