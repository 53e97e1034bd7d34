"""On-disk formats and the synthetic correlated-bag generator.

Bag files hold one app's instance embeddings as 32-bit floats (widened to
64-bit on load); the dataset manifest is a header-bearing CSV of
(app_id, label, date, path) records.  The generator produces labeled bags
in which positive bags contain at least one shifted "witness" instance,
optionally mixing a shared per-bag latent into every instance so that
instances are correlated rather than independent.  All generation is a
pure function of the config: same seed, byte-identical files.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import os
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Bag, all_finite
from .seeding import derive_rng

BAG_MAGIC = b"DBMB"
BAG_VERSION = 1


class BagFormatError(ValueError):
    """Base class for malformed bag files."""


class BagMagicError(BagFormatError):
    pass


class BagVersionError(BagFormatError):
    pass


class BagTruncatedError(BagFormatError):
    pass


class BagEmptyError(BagFormatError):
    pass


class ManifestError(ValueError):
    pass


def write_bag(bag: Bag, path):
    """Serialize the bag's embeddings (32-bit little-endian, row-major)."""
    n, d = bag.embeddings.shape
    with open(path, "wb") as f:
        f.write(BAG_MAGIC)
        f.write(struct.pack("<III", BAG_VERSION, n, d))
        f.write(np.ascontiguousarray(bag.embeddings, dtype="<f4"))


def _read_header(f, path) -> tuple[int, int]:
    """Check a bag file's header against the file's size; returns (n, d).

    The payload size it declares is checked before anything reads it, so a
    header cannot size an allocation beyond the file.
    """
    magic = f.read(4)
    if len(magic) < 4 or magic != BAG_MAGIC:
        raise BagMagicError(f"{path}: bad magic {magic!r}")
    header = f.read(12)
    if len(header) != 12:
        raise BagTruncatedError(f"{path}: file ends inside the header")
    version, n, d = struct.unpack("<III", header)
    if version != BAG_VERSION:
        raise BagVersionError(f"{path}: unsupported version {version}")
    if n == 0:
        raise BagEmptyError(f"{path}: bag declares zero instances")
    if d == 0:
        raise BagEmptyError(f"{path}: bag declares zero-width embeddings")
    size, available = n * d * 4, os.fstat(f.fileno()).st_size - f.tell()
    if size > available:
        raise BagTruncatedError(f"{path}: expected {size} payload bytes, found {available}")
    if size < available:
        raise BagFormatError(f"{path}: trailing bytes after payload")
    return n, d


def bag_width(path) -> int:
    """The embedding width ``d`` of a bag file, after every header check of :func:`read_bag`."""
    with open(path, "rb") as f:
        return _read_header(f, path)[1]


# payload bytes per chunk that read_bag widens to float64 at a time
READ_CHUNK_BYTES = 1 << 15


def read_bag(path, app_id: str = "", label: int = 0, date: dt.date | None = None) -> Bag:
    """Load a bag file; metadata fields come from the caller (the manifest).

    The float32 payload is read and widened ``READ_CHUNK_BYTES`` at a time
    into the one float64 array the bag keeps, and each chunk is checked
    for non-finite values as it arrives.
    """
    with open(path, "rb") as f:
        n, d = _read_header(f, path)
        values = np.empty((n, d))
        step = max(1, READ_CHUNK_BYTES // (4 * d))
        for start in range(0, n, step):
            rows = values[start:start + step]
            raw = f.read(rows.size * 4)
            if len(raw) != rows.size * 4:
                raise BagTruncatedError(f"{path}: expected {n * d * 4} payload bytes, found fewer")
            rows[...] = np.frombuffer(raw, dtype="<f4").reshape(rows.shape)
            if not all_finite(rows):
                raise BagFormatError(f"{path}: embeddings contain non-finite values")
    return Bag(app_id=app_id, label=label, date=date, embeddings=values)


@dataclass(slots=True)
class ManifestRecord:
    app_id: str
    label: int
    date: dt.date
    path: Path


MANIFEST_HEADER = ("app_id", "label", "date", "path")


def read_text(path, error) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise ``error`` naming ``path:line``."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_rows(path, header, error):
    """Yield (line number, stripped fields) for each non-blank row after a UTF-8 CSV's ``header``.

    Each row must have one field per header name.  Any failure, the csv
    module's own included, raises ``error`` naming ``path:line``.
    """
    rows = csv.reader(io.StringIO(read_text(path, error), newline=""))
    try:
        first = [c.strip() for c in next(rows, [])]
        if first != list(header):
            raise error(f"{path}:1: header must be {','.join(header)!r}, got {','.join(first)!r}")
        for row in rows:
            if not row:
                continue
            where = f"{path}:{rows.line_num}"
            if len(row) != len(header):
                raise error(f"{where}: expected {len(header)} fields, got {len(row)}")
            yield rows.line_num, [c.strip() for c in row]
    except csv.Error as exc:
        raise error(f"{path}:{rows.line_num}: {exc}") from None


def write_rows(path, header, rows):
    """Write a UTF-8 CSV of ``header`` and then ``rows``, as :func:`read_rows` reads it back.

    A cell is quoted only where it holds a comma, a quote or a ``\\n``, and
    every line ends at ``\\n``.  Every CSV file the package writes goes
    through here.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_manifest(manifest: list[ManifestRecord], path):
    """Write the manifest CSV, each bag path relative to the manifest's directory."""
    root = Path(path).parent
    write_rows(path, MANIFEST_HEADER, (
        [rec.app_id, rec.label, rec.date.isoformat(), Path(rec.path).relative_to(root).as_posix()]
        for rec in manifest
    ))


def load_manifest(path) -> list[ManifestRecord]:
    """Parse and validate a manifest CSV into its records, in file order.

    Relative bag paths are resolved against the manifest's directory.
    Errors carry the 1-based line number of the offending record.
    """
    path = Path(path)
    records = []
    seen_ids = {}
    for lineno, (app_id, label_s, date_s, rel) in read_rows(path, MANIFEST_HEADER, ManifestError):
        if not app_id:
            raise ManifestError(f"{path}:{lineno}: empty app_id")
        # write_rows would leave a lone \r unquoted (its lines end at \n), so such an id
        # would not read back from the split and scores files
        if "\r" in app_id or "\n" in app_id:
            raise ManifestError(f"{path}:{lineno}: app_id {app_id!r} holds a line break")
        if app_id in seen_ids:
            raise ManifestError(
                f"{path}:{lineno}: duplicate app_id {app_id!r} "
                f"(first seen on line {seen_ids[app_id]})"
            )
        seen_ids[app_id] = lineno
        if label_s not in ("0", "1"):
            raise ManifestError(f"{path}:{lineno}: label must be 0 or 1, got {label_s!r}")
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: bad ISO date {date_s!r}") from None
        # an absolute bag path replaces the directory
        records.append(ManifestRecord(app_id, int(label_s), date, path.parent / rel))
    return records


class BagFiles(Sequence):
    """Read-only bags backed by their files: each access reads that one bag.

    Indexing or iterating goes through :func:`read_bag`, with all of its
    checks, and keeps nothing, so memory is set by the bag in use,
    not by the number of bags; a malformed file fails when it is first read.
    """

    def __init__(self, records):
        self.records = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i: int) -> Bag:
        rec = self.records[i]
        return read_bag(rec.path, app_id=rec.app_id, label=rec.label, date=rec.date)


def load_bags(manifest: list[ManifestRecord], indices) -> BagFiles:
    """The manifest's bags at ``indices``, in that order, read from disk on access."""
    return BagFiles(manifest[i] for i in indices)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Settings for the correlated-bag generator."""

    num_bags: int = 100
    d: int = 32
    bag_size_min: int = 20
    bag_size_max: int = 200
    witness_rate: float = 0.05
    signal_shift: float = 10.0
    correlation_strength: float = 0.2
    positive_fraction: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.num_bags < 1:
            raise ValueError("num_bags must be >= 1")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not 1 <= self.bag_size_min <= self.bag_size_max:
            raise ValueError("need 1 <= bag_size_min <= bag_size_max")
        if not math.isfinite(self.signal_shift):
            raise ValueError(f"signal_shift must be finite, got {self.signal_shift}")
        if not 0.0 < self.witness_rate <= 1.0:
            raise ValueError("witness_rate must be in (0, 1]")
        if not 0.0 <= self.correlation_strength <= 1.0:
            raise ValueError("correlation_strength must be in [0, 1]")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ValueError("positive_fraction must be in (0, 1)")


def signal_direction(config: SynthConfig) -> np.ndarray:
    """The fixed unit vector along which witness instances are shifted."""
    v = derive_rng(config.seed, "signal-direction").standard_normal(config.d)
    return v / np.linalg.norm(v)


def synth_app_id(index: int) -> str:
    return f"synth-{index:06d}"


def synth_date(index: int) -> dt.date:
    """Half the bags are dated 2019 (even indices), half 2020 (odd)."""
    year = 2019 if index % 2 == 0 else 2020
    return dt.date(year, 1 + (index // 2) % 12, 1 + (index // 2) % 28)


def synth_bag(config: SynthConfig, index: int):
    """Generate one bag; returns (Bag, witness_count).

    Benign bags have zero witnesses by construction.  Positive bags mark
    each instance as a witness with probability ``witness_rate`` and, if
    none was drawn, promote one instance so the bag-labeling rule (a bag
    is positive iff it has at least one positive instance) holds exactly.
    Instances mix iid noise with a shared per-bag latent weighted by
    ``correlation_strength``; witnesses are shifted by ``signal_shift``
    along the dataset's fixed signal direction.
    """
    rng = derive_rng(config.seed, "bag", index)
    size = int(rng.integers(config.bag_size_min, config.bag_size_max + 1))
    label = 1 if rng.random() < config.positive_fraction else 0
    latent = rng.standard_normal(config.d)
    emb = rng.standard_normal((size, config.d))  # the noise, scaled and shifted in place
    c = config.correlation_strength
    emb *= math.sqrt(1.0 - c * c)
    emb += c * latent
    witness_count = 0
    if label == 1:
        mask = rng.random(size) < config.witness_rate
        if not mask.any():
            mask[int(rng.integers(size))] = True
        emb[mask] += config.signal_shift * signal_direction(config)
        witness_count = int(mask.sum())
    # round-trip through the storage precision so in-memory bags match files
    emb[...] = emb.astype(np.float32)
    bag = Bag(app_id=synth_app_id(index), label=label, date=synth_date(index), embeddings=emb)
    return bag, witness_count


def gen_synthetic(config: SynthConfig, out_dir) -> list[ManifestRecord]:
    """Write bag files plus ``manifest.csv`` under ``out_dir``.

    Output is byte-identical across runs and platforms for a fixed config
    (the per-bag random streams are derived by name from the seed, using
    the PCG64 generator).
    """
    out_dir = Path(out_dir)
    bags_dir = out_dir / "bags"
    bags_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(config.num_bags):
        bag, _ = synth_bag(config, i)
        bag_path = bags_dir / f"{bag.app_id}.dbmb"
        write_bag(bag, bag_path)
        records.append(
            ManifestRecord(app_id=bag.app_id, label=bag.label, date=bag.date, path=bag_path)
        )
    save_manifest(records, out_dir / "manifest.csv")
    return records


def dataset_stats(manifest: list[ManifestRecord]) -> dict:
    """Label and year counts."""
    if not manifest:
        raise ValueError("manifest has no records")
    by_label = {0: 0, 1: 0}
    by_year: dict[int, int] = {}
    for rec in manifest:
        by_label[rec.label] += 1
        by_year[rec.date.year] = by_year.get(rec.date.year, 0) + 1
    return {
        "num_apps": len(manifest),
        "benign": by_label[0],
        "malware": by_label[1],
        "by_year": dict(sorted(by_year.items())),
    }
