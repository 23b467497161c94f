"""Record format round-trips, the synthetic generator, and sentence assembly."""

import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from signrec.errors import ConfigurationError, CorruptRecordError, FormatError
from signrec.featurestore import (
    ARM_DIM,
    EMBED_DIM,
    HAND_DIM,
    LIP_DIM,
    DatasetManifest,
    EmbeddingTable,
    FeatureSequence,
    RecordEntry,
    build_sentences,
    concat_sentence,
    generate_synthetic_dataset,
    load_dataset,
    load_record,
    save_record,
    write_dataset,
)


def random_record(rng, n_frames=None, label_id=3, signer_id=1):
    """Random float32 features; each hand center is absent on ~30% of frames."""
    n = n_frames or int(rng.integers(1, 8))
    return FeatureSequence(
        rng.standard_normal((n, HAND_DIM)).astype(np.float32),
        rng.standard_normal((n, ARM_DIM)).astype(np.float32),
        rng.standard_normal((n, LIP_DIM)).astype(np.float32),
        rng.random((n, 2, 2)),
        rng.random((n, 2)) >= 0.3,
        label_id=label_id,
        signer_id=signer_id,
    )


# ---------------------------------------------------------------------------
# .slf record round-trips


def test_record_roundtrip_property(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(20):
        seq = random_record(rng, label_id=None if i % 4 == 0 else i % 6)
        path = tmp_path / f"r{i}.slf"
        save_record(seq, path)
        assert load_record(path) == seq
        # serialization is deterministic byte for byte
        first = path.read_bytes()
        save_record(seq, path)
        assert path.read_bytes() == first


def test_record_roundtrip_zero_frame_absent_centers(tmp_path):
    seq = FeatureSequence(
        np.zeros((1, HAND_DIM)),
        np.zeros((1, ARM_DIM)),
        np.zeros((1, LIP_DIM)),
        np.zeros((1, 2, 2)),
        np.zeros((1, 2), dtype=bool),
    )
    path = tmp_path / "zero.slf"
    save_record(seq, path)
    back = load_record(path)
    assert back == seq
    assert not back.present.any() and not back.centers.any()
    assert back.label_id is None


def test_record_header_layout(tmp_path):
    # magic | version u16 | flags u16 | T u32 | label u32 | signer u32
    seq = random_record(np.random.default_rng(1), n_frames=2, label_id=None, signer_id=9)
    path = tmp_path / "h.slf"
    save_record(seq, path)
    raw = path.read_bytes()
    magic, version, flags, T, label, signer = struct.unpack_from("<4sHHIII", raw, 0)
    assert magic == b"SLF1"
    assert version == 1
    assert flags & 1 == 0  # no label
    assert T == 2
    assert label == 0xFFFFFFFF
    assert signer == 9

    labeled = random_record(np.random.default_rng(2), n_frames=1, label_id=5)
    save_record(labeled, path)
    _, _, flags, _, label, _ = struct.unpack_from("<4sHHIII", path.read_bytes(), 0)
    assert flags & 1 == 1
    assert label == 5


def test_record_bad_magic(tmp_path):
    path = tmp_path / "bad.slf"
    seq = random_record(np.random.default_rng(3), n_frames=1)
    save_record(seq, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptRecordError):
        load_record(path)
    # a corrupt record is a special case of a format problem
    with pytest.raises(FormatError):
        load_record(path)


def test_record_bad_version(tmp_path):
    path = tmp_path / "v.slf"
    save_record(random_record(np.random.default_rng(4), n_frames=1), path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_record(path)


def test_record_truncation_and_overrun(tmp_path):
    path = tmp_path / "t.slf"
    save_record(random_record(np.random.default_rng(5), n_frames=3), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CorruptRecordError):
        load_record(path)
    path.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(CorruptRecordError):
        load_record(path)
    path.write_bytes(raw[:10])  # shorter than the fixed header
    with pytest.raises(CorruptRecordError):
        load_record(path)
    header = bytearray(raw[:20])
    header[8:12] = struct.pack("<I", 0)  # a header that declares zero frames
    path.write_bytes(bytes(header))
    with pytest.raises(CorruptRecordError):
        load_record(path)


def test_frame_features_validation():
    n = 3
    arrays = dict(
        hand=np.zeros((n, HAND_DIM)),
        arm=np.zeros((n, ARM_DIM)),
        lip=np.zeros((n, LIP_DIM)),
        centers=np.full((n, 2, 2), 0.5),
        present=np.ones((n, 2), dtype=bool),
    )
    for name, bad in (
        ("hand", np.zeros((n, 10))),
        ("arm", np.zeros((n + 1, ARM_DIM))),
        ("lip", np.zeros(LIP_DIM)),
        ("centers", np.zeros((n, 2))),
        ("present", np.ones((n, 1), dtype=bool)),
    ):
        with pytest.raises(ValueError):
            FeatureSequence(**{**arrays, name: bad})
    outside = arrays["centers"].copy()
    outside[1, 0] = (1.5, 0.5)
    with pytest.raises(ValueError):
        FeatureSequence(**{**arrays, "centers": outside})
    # an absent hand's center slot is zeroed, whatever it held
    present = arrays["present"].copy()
    present[1, 0] = False
    seq = FeatureSequence(**{**arrays, "centers": outside, "present": present})
    assert seq.centers[1, 0].tolist() == [0.0, 0.0] and seq.centers[1, 1].tolist() == [0.5, 0.5]
    assert seq.hand.dtype == seq.centers.dtype == np.float32
    with pytest.raises(ValueError):
        FeatureSequence(**{k: v[:0] for k, v in arrays.items()})


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_determinism():
    a = generate_synthetic_dataset(3, 2, 3, length_range=(5, 9), noise_sigma=0.05, seed=21)
    b = generate_synthetic_dataset(3, 2, 3, length_range=(5, 9), noise_sigma=0.05, seed=21)
    assert a.manifest.to_json() == b.manifest.to_json()
    assert a.sequences == b.sequences
    npt.assert_array_equal(a.embeddings.vectors, b.embeddings.vectors)
    c = generate_synthetic_dataset(3, 2, 3, length_range=(5, 9), noise_sigma=0.05, seed=22)
    assert a.sequences != c.sequences


def test_generator_split_structure(tiny_dataset):
    ds = tiny_dataset
    splits = {tag: ds.split(tag) for tag in ("train", "val", "test")}
    assert all(splits.values())
    signers = {tag: {r.signer_id for r in recs} for tag, recs in splits.items()}
    assert signers["train"] == {0}
    assert signers["val"] == {1}
    assert signers["test"] == {2}
    assert len(ds.sequences) == 4 * 3 * 3
    assert ds.num_classes == 4
    assert ds.embeddings.vectors.shape == (4, EMBED_DIM)
    # generator embeds classes as unit vectors
    npt.assert_allclose(np.linalg.norm(ds.embeddings.vectors, axis=1), 1.0, atol=1e-12)


def test_generator_rejects_too_few_signers():
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(3, 2, 2, length_range=(5, 9), noise_sigma=0.05, seed=0)
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(1, 2, 3, length_range=(5, 9), noise_sigma=0.05, seed=0)
    with pytest.raises(ConfigurationError):
        generate_synthetic_dataset(3, 2, 3, length_range=(5, 900), noise_sigma=0.05, seed=0)


def test_generator_zero_noise_degeneracy():
    # equal-length records of one (class, signer) collapse onto the template
    ds = generate_synthetic_dataset(3, 4, 3, length_range=(9, 9), noise_sigma=0.0, seed=5)
    by_key = {}
    for r in ds.sequences:
        by_key.setdefault((r.label_id, r.signer_id), []).append(r)
    for group in by_key.values():
        assert len(group) == 4
        for other in group[1:]:
            assert other == group[0]


def test_generator_centroid_separability():
    """Nearest centroid on time-averaged features solves the train split."""
    ds = generate_synthetic_dataset(10, 5, 5, noise_sigma=0.05, seed=0)
    train = ds.split("train")

    def featurize(r):
        return np.concatenate([r.hand, r.arm, r.lip], axis=1).mean(axis=0)

    X = np.stack([featurize(r) for r in train])
    y = np.array([r.label_id for r in train])
    centroids = np.stack([X[y == k].mean(axis=0) for k in range(10)])
    pred = np.argmin(((X[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert (pred == y).mean() >= 0.80


# ---------------------------------------------------------------------------
# manifests, embeddings, datasets on disk


def test_manifest_roundtrip_and_validation(tmp_path):
    entries = (
        RecordEntry("records/a.slf", 0, 0, "train"),
        RecordEntry("records/b.slf", 1, 1, "val"),
    )
    man = DatasetManifest(("hello", "thanks"), entries)
    path = tmp_path / "manifest.json"
    man.save(path)
    back = DatasetManifest.load(path)
    assert back.to_json() == man.to_json()

    with pytest.raises(ConfigurationError):
        DatasetManifest(("only",), (RecordEntry("x.slf", 0, 3, "train"),))
    with pytest.raises(ConfigurationError):
        # signer 0 cannot sit in two splits
        DatasetManifest(
            ("a", "b"),
            (RecordEntry("x.slf", 0, 0, "train"), RecordEntry("y.slf", 0, 1, "test")),
        )
    with pytest.raises(ConfigurationError):
        RecordEntry("x.slf", 0, 0, "dev")

    path.write_text("{not json")
    with pytest.raises(FormatError):
        DatasetManifest.load(path)
    path.write_text(json.dumps({"classes": ["a"]}))
    with pytest.raises(FormatError):
        DatasetManifest.load(path)


def test_embedding_table_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    table = EmbeddingTable(rng.standard_normal((3, EMBED_DIM)))
    path = tmp_path / "emb.json"
    table.save(path)
    back = EmbeddingTable.load(path, 3)
    npt.assert_array_equal(back.vectors, table.vectors)

    with pytest.raises(ConfigurationError):
        EmbeddingTable(np.zeros((2, EMBED_DIM)))
    with pytest.raises(ConfigurationError):
        EmbeddingTable(rng.standard_normal((2, 10)))
    with pytest.raises(ConfigurationError):
        EmbeddingTable(np.full((2, EMBED_DIM), np.nan))
    with pytest.raises(FormatError):
        EmbeddingTable.load(path, 5)  # classes 3,4 missing
    with pytest.raises(FormatError):
        EmbeddingTable.load(path, 2)  # class 2 outside 0..1
    path.write_text("[")
    with pytest.raises(FormatError):
        EmbeddingTable.load(path, 3)


def test_dataset_roundtrip_on_disk(tmp_path, tiny_dataset):
    root = tmp_path / "ds"
    write_dataset(tiny_dataset, root)
    back = load_dataset(root / "manifest.json")
    assert back.sequences == tiny_dataset.sequences
    npt.assert_array_equal(back.embeddings.vectors, tiny_dataset.embeddings.vectors)
    assert back.manifest.to_json() == tiny_dataset.manifest.to_json()
    assert all(r.gloss for r in back.sequences)

    # header/manifest disagreement is caught on load
    entry = back.manifest.records[0]
    victim = root / entry.path
    raw = bytearray(victim.read_bytes())
    raw[12:16] = struct.pack("<I", (entry.label_id + 1) % 4)
    victim.write_bytes(bytes(raw))
    with pytest.raises(CorruptRecordError):
        load_dataset(root / "manifest.json")


# ---------------------------------------------------------------------------
# sentences and splits


def test_concat_sentence_additivity():
    rng = np.random.default_rng(8)
    parts = [random_record(rng, n_frames=n, label_id=i) for i, n in enumerate((30, 40, 25))]
    sent, refs = concat_sentence(parts)
    assert len(sent) == 95
    assert refs == [0, 1, 2]
    assert sent.label_id is None
    # order preserved: frame boundaries line up with the inputs
    for (start, stop), part in zip(((0, 30), (30, 70), (70, 95)), parts):
        for got, want in zip(sent.arrays(), part.arrays()):
            npt.assert_array_equal(got[start:stop], want)

    single, refs1 = concat_sentence(parts[:1])
    assert single == FeatureSequence(*parts[0].arrays(), signer_id=1) and refs1 == [0]

    with pytest.raises(ValueError):
        concat_sentence([])
    with pytest.raises(ValueError):
        concat_sentence([random_record(rng, n_frames=2, label_id=None)])


def test_build_sentences(tiny_dataset):
    sents = build_sentences(tiny_dataset, count=12, rng=np.random.default_rng(3))
    assert len(sents) == 12
    test_labels = {r.label_id for r in tiny_dataset.split("test")}
    for seq, ref in sents:
        assert 2 <= len(ref) <= 5
        assert all(a != b for a, b in zip(ref, ref[1:]))
        assert set(ref) <= test_labels
        assert seq.label_id is None and len(seq) >= 2
    # deterministic under the rng seed
    again = build_sentences(tiny_dataset, count=12, rng=np.random.default_rng(3))
    assert [ref for _, ref in again] == [ref for _, ref in sents]
    with pytest.raises(ConfigurationError):
        build_sentences(tiny_dataset, count=2, split="nonesuch")
