"""Walk through the record container and the synthetic generator.

Generates a small signer-disjoint dataset, round-trips one record through
the on-disk format, and prints what the header actually stores.
"""

import struct
import tempfile
from pathlib import Path

from signrec.featurestore import generate_synthetic_dataset, load_record, save_record

dataset = generate_synthetic_dataset(
    n_classes=4, n_per_signer_class=2, n_signers=3, length_range=(15, 40), seed=0
)
manifest = dataset.manifest
print(f"{len(dataset.sequences)} records, classes: {manifest.classes}")

counts = {}
for entry in manifest.records:
    counts[entry.split] = counts.get(entry.split, 0) + 1
print(f"signer-disjoint splits: {counts}")

seq = dataset.sequences[0]
print(f"\nfirst record: gloss={seq.gloss!r} label={seq.label_id} signer={seq.signer_id} "
      f"frames={len(seq)}")
print(f"arrays: hand {seq.hand.shape}, arm {seq.arm.shape}, lip {seq.lip.shape}, "
      f"centers {seq.centers.shape}, present {seq.present.shape}")
print(f"frame 0 centers (left, right): {seq.centers[0].tolist()}, present {seq.present[0].tolist()}")
print(f"frames with a hand not detected: {int((~seq.present).any(axis=1).sum())} of {len(seq)}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "word.slf"
    save_record(seq, path)
    raw = path.read_bytes()
    magic, version, flags, n, label, signer = struct.unpack_from("<4sHHIII", raw)
    print(f"\nheader: magic={magic} version={version} flags={flags:#x} "
          f"frames={n} label={label} signer={signer}  ({len(raw)} bytes total)")
    back = load_record(path)
    print(f"round-trip identical: {back == seq}")
