"""Feature records, the .slf container format, manifests, and synthetic data.

A record (FeatureSequence) holds its n frames as row-aligned arrays: hand
shape (n x 126), arm points (n x 12) and lip shape (n x 120) as float32,
plus each hand's normalized image center (n x 2 x 2) and a detection mask
(n x 2) that feed the distance/angle stream. Records live on disk as
little-endian binary .slf files referenced from a JSON manifest, and load
with one np.frombuffer; an all-zero sub-vector is the canonical "feature
unavailable" encoding. A seeded synthetic generator stands in for recorded
data so the full pipeline can be exercised end to end.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, CorruptRecordError, FormatError

HAND_DIM = 126
ARM_DIM = 12
LIP_DIM = 120
EMBED_DIM = 300
# Manifests record the fixed per-frame widths; a reader rejects any others.
_FEATURE_DIMS = {"hand_shape": HAND_DIM, "arm_points": ARM_DIM, "lip_shape": LIP_DIM}

SPLITS = ("train", "val", "test")

_MAGIC = b"SLF1"
_VERSION = 1
_FLAG_LABEL = 1
_NO_LABEL = 0xFFFFFFFF
_HEADER = struct.Struct("<4sHHIII")

# Packed per-frame payload: features as f32, then per hand a presence byte
# and the (cx, cy) center. itemsize must stay 1050 bytes.
_FRAME_DTYPE = np.dtype(
    [
        ("hand", "<f4", (HAND_DIM,)),
        ("arm", "<f4", (ARM_DIM,)),
        ("lip", "<f4", (LIP_DIM,)),
        ("p0", "u1"),
        ("c0", "<f4", (2,)),
        ("p1", "u1"),
        ("c1", "<f4", (2,)),
    ]
)


@dataclass(frozen=True)
class FeatureSequence:
    """A labeled (or unlabeled) record of n >= 1 frames from one signer.

    Per-frame features are float32 arrays: hand (n,126), arm (n,12) and
    lip (n,120). centers (n,2,2) holds each hand's normalized image center
    (x, y), left hand first, and present (n,2) is false where that hand was
    not detected; absent center slots are zero. gloss is display metadata
    carried by the manifest's class table; it is not stored in the record
    file and is excluded from equality.
    """

    hand: np.ndarray
    arm: np.ndarray
    lip: np.ndarray
    centers: np.ndarray
    present: np.ndarray
    label_id: Optional[int] = None
    signer_id: int = 0
    gloss: Optional[str] = None

    def __post_init__(self):
        present = np.asarray(self.present, dtype=bool)
        n = present.shape[0] if present.ndim else 0
        if n < 1:
            raise ValueError("FeatureSequence needs at least one frame")
        for name, arr, shape in (
            ("hand", np.asarray(self.hand, np.float32), (n, HAND_DIM)),
            ("arm", np.asarray(self.arm, np.float32), (n, ARM_DIM)),
            ("lip", np.asarray(self.lip, np.float32), (n, LIP_DIM)),
            ("centers", np.asarray(self.centers, np.float32), (n, 2, 2)),
            ("present", present, (n, 2)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        centers = np.where(present[..., None], self.centers, np.float32(0.0))
        if not ((centers >= 0.0) & (centers <= 1.0)).all():
            raise ValueError("a present hand center lies outside [0,1]^2")
        object.__setattr__(self, "centers", centers)

    def __len__(self) -> int:
        return self.present.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(hand, arm, lip, centers, present): the per-frame arrays, row-aligned."""
        return (self.hand, self.arm, self.lip, self.centers, self.present)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return (
            self.label_id == other.label_id
            and self.signer_id == other.signer_id
            and all(np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays()))
        )


def save_record(seq: FeatureSequence, path) -> None:
    """Write seq to path in the .slf container format."""
    flags = _FLAG_LABEL if seq.label_id is not None else 0
    label = seq.label_id if seq.label_id is not None else _NO_LABEL
    header = _HEADER.pack(_MAGIC, _VERSION, flags, len(seq), label, seq.signer_id)
    payload = np.zeros(len(seq), dtype=_FRAME_DTYPE)
    payload["hand"], payload["arm"], payload["lip"] = seq.hand, seq.arm, seq.lip
    payload["p0"], payload["p1"] = seq.present[:, 0], seq.present[:, 1]
    payload["c0"], payload["c1"] = seq.centers[:, 0], seq.centers[:, 1]
    Path(path).write_bytes(header + payload.tobytes())


def load_record(path) -> FeatureSequence:
    """Read a .slf file; inverse of save_record on everything it stores."""
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise CorruptRecordError(f"{path}: file shorter than header")
    magic, version, flags, n, label, signer = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise CorruptRecordError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n < 1:
        raise CorruptRecordError(f"{path}: record has no frames")
    expected = _HEADER.size + n * _FRAME_DTYPE.itemsize
    if len(buf) != expected:
        raise CorruptRecordError(f"{path}: expected {expected} bytes, found {len(buf)}")
    payload = np.frombuffer(buf, dtype=_FRAME_DTYPE, count=n, offset=_HEADER.size)
    for field in ("hand", "arm", "lip"):
        if not np.isfinite(payload[field]).all():
            raise CorruptRecordError(f"{path}: non-finite value in {field}")
    # save_record writes zeros for an absent hand, so every center slot is checked
    centers = np.stack([payload["c0"], payload["c1"]], axis=1)
    if not ((centers >= 0.0) & (centers <= 1.0)).all():
        raise CorruptRecordError(f"{path}: hand center outside [0,1] or not finite")
    presence = np.stack([payload["p0"], payload["p1"]], axis=1)
    if (presence > 1).any():
        raise CorruptRecordError(f"{path}: hand presence byte other than 0 or 1")
    present = presence == 1
    label_id = None if not (flags & _FLAG_LABEL) else int(label)
    return FeatureSequence(
        payload["hand"], payload["arm"], payload["lip"], centers, present, label_id, int(signer)
    )


# ---------------------------------------------------------------------------
# Manifest and embedding table


@dataclass(frozen=True)
class RecordEntry:
    path: str
    signer_id: int
    label_id: int
    split: str

    def __post_init__(self):
        if not isinstance(self.path, str):
            raise ConfigurationError(f"record path {self.path!r} is not a string")
        if self.split not in SPLITS:
            raise ConfigurationError(f"unknown split tag {self.split!r}")


@dataclass(frozen=True)
class DatasetManifest:
    """Class table plus the record index of one dataset."""

    classes: tuple[str, ...]
    records: tuple[RecordEntry, ...]
    embeddings_path: str = "embeddings.json"

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "records", tuple(self.records))
        if not isinstance(self.embeddings_path, str) or not all(isinstance(c, str) for c in self.classes):
            raise ConfigurationError("class names and the embeddings path must be strings")
        for r in self.records:
            if not (0 <= r.label_id < len(self.classes)):
                raise ConfigurationError(f"label {r.label_id} outside class table")
        self._check_disjoint()

    def _check_disjoint(self):
        signers = {s: {r.signer_id for r in self.records if r.split == s} for s in SPLITS}
        for a in SPLITS:
            for b in SPLITS:
                if a < b and signers[a] & signers[b]:
                    raise ConfigurationError(
                        f"signers {sorted(signers[a] & signers[b])} appear in both {a} and {b}"
                    )

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "classes": list(self.classes),
            "records": [
                {"path": r.path, "signer": r.signer_id, "label": r.label_id, "split": r.split}
                for r in self.records
            ],
            "embeddings": self.embeddings_path,
            "feature_dims": dict(_FEATURE_DIMS),
        }

    @staticmethod
    def from_json(doc: dict) -> "DatasetManifest":
        try:
            records = tuple(
                RecordEntry(r["path"], int(r["signer"]), int(r["label"]), r["split"])
                for r in doc["records"]
            )
            if doc.get("feature_dims", _FEATURE_DIMS) != _FEATURE_DIMS:
                raise FormatError(f"malformed manifest: feature_dims must be {_FEATURE_DIMS}")
            embeddings = doc.get("embeddings", "embeddings.json")
            if not isinstance(doc["classes"], list):
                raise FormatError("malformed manifest: classes must be a JSON list of strings")
            return DatasetManifest(tuple(doc["classes"]), records, embeddings)
        except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
            raise FormatError(f"malformed manifest: {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=1) + "\n")

    @staticmethod
    def load(path) -> "DatasetManifest":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        return DatasetManifest.from_json(doc)


class EmbeddingTable:
    """class_id -> 300-dimensional word vector, stored as a JSON mapping."""

    def __init__(self, vectors: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != EMBED_DIM:
            raise ConfigurationError(f"embedding table must be (K, {EMBED_DIM}), got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ConfigurationError("embedding table contains non-finite values")
        if np.any(np.all(vectors == 0.0, axis=1)):
            raise ConfigurationError("embedding table contains an all-zero vector")
        self.vectors = vectors

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, class_id: int) -> np.ndarray:
        return self.vectors[class_id]

    def save(self, path) -> None:
        doc = {str(i): [float(x) for x in row] for i, row in enumerate(self.vectors)}
        Path(path).write_text(json.dumps(doc) + "\n")

    @staticmethod
    def load(path, num_classes: Optional[int] = None) -> "EmbeddingTable":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: embedding table root must be an object")
        n = num_classes if num_classes is not None else len(doc)
        vectors = np.zeros((n, EMBED_DIM))
        seen = set()
        for key, row in doc.items():
            try:
                i = int(key)
                vec = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad embedding entry {key!r}: {exc}") from exc
            if vec.shape != (EMBED_DIM,) or not np.all(np.isfinite(vec)) or not vec.any():
                raise FormatError(
                    f"{path}: embedding {key!r} is not {EMBED_DIM} finite numbers, not all zero"
                )
            if not (0 <= i < n):
                raise FormatError(f"{path}: embedding class id {i} outside 0..{n - 1}")
            if i in seen:
                raise FormatError(f"{path}: embedding class id {i} appears twice")
            vectors[i] = vec
            seen.add(i)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise FormatError(f"{path}: embedding table missing classes {missing}")
        return EmbeddingTable(vectors)


@dataclass
class Dataset:
    """In-memory dataset: manifest, loaded sequences (manifest order), embeddings."""

    manifest: DatasetManifest
    sequences: list[FeatureSequence]
    embeddings: EmbeddingTable

    def split(self, tag: str) -> list[FeatureSequence]:
        return [s for s, r in zip(self.sequences, self.manifest.records) if r.split == tag]

    @property
    def num_classes(self) -> int:
        return self.manifest.num_classes


def write_dataset(dataset: Dataset, out_dir) -> None:
    """Materialize a dataset under out_dir (records/, manifest.json, embeddings)."""
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    for seq, entry in zip(dataset.sequences, dataset.manifest.records):
        save_record(seq, out / entry.path)
    dataset.embeddings.save(out / dataset.manifest.embeddings_path)
    dataset.manifest.save(out / "manifest.json")


def load_dataset(manifest_path) -> Dataset:
    manifest = DatasetManifest.load(manifest_path)
    root = Path(manifest_path).parent
    sequences = []
    for entry in manifest.records:
        seq = load_record(root / entry.path)
        if seq.label_id != entry.label_id or seq.signer_id != entry.signer_id:
            raise CorruptRecordError(f"{entry.path}: record header disagrees with manifest")
        sequences.append(replace(seq, gloss=manifest.classes[entry.label_id]))
    embeddings = EmbeddingTable.load(root / manifest.embeddings_path, manifest.num_classes)
    return Dataset(manifest, sequences, embeddings)


# ---------------------------------------------------------------------------
# Synthetic generation

_SIGNER_OFFSET_SIGMA = 0.05
_CENTER_DROPOUT = 0.05
_N_ANCHORS = 4
_FEAT_DIM = HAND_DIM + ARM_DIM + LIP_DIM


def _interp_rows(anchors: np.ndarray, length: int) -> np.ndarray:
    """Linearly interpolate anchor rows to `length` evenly spaced samples."""
    pos = np.linspace(0.0, anchors.shape[0] - 1.0, length)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, anchors.shape[0] - 1)
    frac = (pos - lo)[:, None]
    return anchors[lo] * (1.0 - frac) + anchors[hi] * frac


def generate_synthetic_dataset(
    n_classes: int,
    n_per_signer_class: int = 10,
    n_signers: int = 5,
    length_range: tuple[int, int] = (21, 116),
    noise_sigma: float = 0.05,
    seed: int = 0,
) -> Dataset:
    """Build a deterministic synthetic word dataset.

    Each class owns a fixed set of anchor keyframes (features plus smooth hand
    center trajectories). A record interpolates the anchors over a random
    length from length_range, shifted by a per-signer constant offset, with
    i.i.d. Gaussian noise of scale noise_sigma on features and a proportional
    jitter on hand centers. Hand centers drop out on ~5% of frames so the
    downstream fallbacks get exercised; with noise_sigma == 0 all perturbation
    (including dropout) is disabled and same-length records are identical.

    Splits are signer-disjoint: the last two signers become the validation and
    test signers, everything else trains. The same (arguments, seed) pair
    always produces a byte-identical dataset.
    """
    if n_classes < 2:
        raise ConfigurationError("need at least 2 classes")
    if n_signers < 3:
        raise ConfigurationError("signer-disjoint splits need at least 3 signers")
    lo, hi = int(length_range[0]), int(length_range[1])
    if not (1 <= lo <= hi <= 200):
        raise ConfigurationError(f"length_range {length_range} outside [1, 200]")

    rng = np.random.default_rng(seed)
    anchors = rng.normal(0.0, 1.0, (n_classes, _N_ANCHORS, _FEAT_DIM))
    center_ctrl = rng.uniform(0.1, 0.9, (n_classes, _N_ANCHORS, 2, 2))
    signer_offsets = rng.normal(0.0, _SIGNER_OFFSET_SIGMA, (n_signers, _FEAT_DIM))
    emb = rng.normal(0.0, 1.0, (n_classes, EMBED_DIM))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)

    dropout = _CENTER_DROPOUT if noise_sigma > 0 else 0.0
    classes = tuple(f"word{c:03d}" for c in range(n_classes))
    entries: list[RecordEntry] = []
    sequences: list[FeatureSequence] = []
    for s in range(n_signers):
        split = "train" if s < n_signers - 2 else ("val" if s == n_signers - 2 else "test")
        for c in range(n_classes):
            for i in range(n_per_signer_class):
                length = int(rng.integers(lo, hi + 1))
                feats = _interp_rows(anchors[c], length)
                feats = feats + signer_offsets[s] + rng.normal(0.0, noise_sigma, (length, _FEAT_DIM))
                centers = _interp_rows(center_ctrl[c].reshape(_N_ANCHORS, 4), length).reshape(length, 2, 2)
                centers = np.clip(centers + rng.normal(0.0, 0.1 * noise_sigma, (length, 2, 2)), 0.0, 1.0)
                dropped = rng.random((length, 2)) < dropout
                sequences.append(
                    FeatureSequence(
                        feats[:, :HAND_DIM],
                        feats[:, HAND_DIM : HAND_DIM + ARM_DIM],
                        feats[:, HAND_DIM + ARM_DIM :],
                        centers,
                        ~dropped,
                        label_id=c,
                        signer_id=s,
                        gloss=classes[c],
                    )
                )
                entries.append(
                    RecordEntry(f"records/{classes[c]}_s{s:02d}_{i:02d}.slf", s, c, split)
                )
    manifest = DatasetManifest(classes, tuple(entries))
    return Dataset(manifest, sequences, EmbeddingTable(emb))


# ---------------------------------------------------------------------------
# Sentences and splits


def concat_sentence(records: Sequence[FeatureSequence]) -> tuple[FeatureSequence, list[int]]:
    """Concatenate word records back to back into one unlabeled sequence.

    Returns the joined sequence and the ordered list of word label ids.
    """
    if not records:
        raise ValueError("cannot build a sentence from zero records")
    reference = [rec.label_id for rec in records]
    if None in reference:
        raise ValueError("sentence construction needs labeled records")
    columns = zip(*(rec.arrays() for rec in records))
    sentence = FeatureSequence(
        *(np.concatenate(col) for col in columns), label_id=None, signer_id=records[0].signer_id
    )
    return sentence, reference


def build_sentences(
    dataset: Dataset,
    count: int = 20,
    min_words: int = 2,
    max_words: int = 5,
    rng: Optional[np.random.Generator] = None,
    split: str = "test",
) -> list[tuple[FeatureSequence, list[int]]]:
    """Sample `count` sentences of min_words..max_words from a split.

    Consecutive duplicate words are avoided: the windowed decoder's
    repeat-suppression cannot represent them, so they would be unrecoverable
    by construction.
    """
    rng = rng if rng is not None else np.random.default_rng()
    pool = dataset.split(split)
    if not pool:
        raise ConfigurationError(f"split {split!r} is empty")
    sentences = []
    for _ in range(count):
        n = int(rng.integers(min_words, max_words + 1))
        words: list[FeatureSequence] = []
        while len(words) < n:
            cand = pool[int(rng.integers(len(pool)))]
            if words and cand.label_id == words[-1].label_id:
                continue
            words.append(cand)
        sentences.append(concat_sentence(words))
    return sentences
