"""End-to-end command-line pipeline and its error taxonomy.

Everything runs in-process through main(argv) so exit codes and artifact
bytes are asserted directly, without subprocess overhead.
"""

import json
import shutil
import struct

import pytest

from signrec.cli import main
from signrec.ensemble_ga import load_ensemble
from signrec.errors import FormatError
from signrec.model import load_model


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> train -> ga -> ensemble -> eval -> decode run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    manifest = data / "manifest.json"
    cfg = root / "run.json"
    cfg.write_text(
        json.dumps({"train": {"epochs": 1, "batch_size": 8}, "ga": {"parents_per_generation": 2}})
    )

    assert run(
        "synth", "--classes", 4, "--per-class", 2, "--signers", 3,
        "--min-len", 8, "--max-len", 14, "--seed", 7, "--out", data,
    ) == 0
    assert run(
        "train", "--data", manifest, "--arch", "late", "--config", cfg,
        "--seed", 1, "--log", root / "late.log", "--out", root / "late.ckpt",
    ) == 0
    assert run(
        "train", "--data", manifest, "--arch", "early", "--config", cfg,
        "--seed", 2, "--out", root / "early.ckpt",
    ) == 0
    assert run(
        "ga", "--data", manifest, "--early", root / "early.ckpt", "--late", root / "late.ckpt",
        "--config", cfg, "--population", 4, "--generations", 2, "--budget-epochs", 1,
        "--seed", 0, "--history", root / "ga.log", "--out", root / "best.json",
    ) == 0
    assert run(
        "ensemble", "--data", manifest, "--early", root / "early.ckpt",
        "--late", root / "late.ckpt", "--chromosome", "1,8", "--epochs", 1,
        "--seed", 3, "--out", root / "ens.ckpt",
    ) == 0
    assert run(
        "eval", "--data", manifest, "--model", root / "late.ckpt",
        "--split", "val", "--out", root / "late_eval.json",
    ) == 0
    assert run(
        "eval", "--data", manifest, "--model", root / "ens.ckpt",
        "--split", "test", "--out", root / "ens_eval.json",
    ) == 0
    assert run(
        "sentences", "--data", manifest, "--count", 2, "--seed", 0, "--out", root / "sent",
    ) == 0
    assert run(
        "decode", "--model", root / "ens.ckpt", "--sentences", root / "sent",
        "--traces", "--out", root / "report.json",
    ) == 0
    return {"root": root, "data": data, "manifest": manifest, "cfg": cfg}


def test_synth_writes_dataset(pipeline):
    data = pipeline["data"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(manifest["records"]) == 24  # 4 classes x 2 repeats x 3 signers
    assert len(manifest["classes"]) == 4
    assert (data / "embeddings.json").exists()
    assert len(list((data / "records").glob("*.slf"))) == 24


def test_train_log_and_checkpoint_meta(pipeline):
    root = pipeline["root"]
    rows = [json.loads(line) for line in (root / "late.log").read_text().splitlines()]
    assert len(rows) == 1
    assert set(rows[0]) == {"epoch", "train_loss", "val_top1", "val_top5"}
    _, meta = load_model(root / "late.ckpt")
    assert meta["arch"] == "late"
    assert meta["epoch"] == 1
    assert meta["train_config"]["epochs"] == 1
    assert meta["train_config"]["batch_size"] == 8
    assert meta["train_config"]["seed"] == 1


def test_eval_report_shape(pipeline):
    doc = json.loads((pipeline["root"] / "late_eval.json").read_text())
    assert set(doc) == {"model", "split", "count", "top1", "top5", "confusion"}
    assert doc["model"] == "late"
    assert doc["split"] == "val"
    assert doc["count"] == 8  # one signer's worth
    assert len(doc["confusion"]) == 4 and len(doc["confusion"][0]) == 4
    assert sum(sum(r) for r in doc["confusion"]) == 8
    assert 0.0 <= doc["top1"] <= doc["top5"] <= 1.0


def test_eval_ensemble_report(pipeline):
    doc = json.loads((pipeline["root"] / "ens_eval.json").read_text())
    assert doc["model"] == "ensemble"
    assert doc["count"] == 8


def test_eval_output_is_reproducible(pipeline):
    root = pipeline["root"]
    again = root / "late_eval_again.json"
    assert run(
        "eval", "--data", pipeline["manifest"], "--model", root / "late.ckpt",
        "--split", "val", "--out", again,
    ) == 0
    assert again.read_bytes() == (root / "late_eval.json").read_bytes()


def test_ga_artifacts(pipeline):
    root = pipeline["root"]
    best = json.loads((root / "best.json").read_text())
    assert set(best) == {"chromosome", "widths", "fitness"}
    assert len(best["chromosome"]) == 9
    assert best["widths"] == [w for w in best["chromosome"][1 : 1 + best["chromosome"][0]]]
    history = [json.loads(line) for line in (root / "ga.log").read_text().splitlines()]
    assert [h["generation"] for h in history] == [1, 2]
    assert history[1]["best_fitness"] >= history[0]["best_fitness"]


def test_ensemble_from_chromosome_file(pipeline):
    root = pipeline["root"]
    assert run(
        "ensemble", "--data", pipeline["manifest"], "--early", root / "early.ckpt",
        "--late", root / "late.ckpt", "--chromosome-file", root / "best.json",
        "--epochs", 1, "--seed", 3, "--out", root / "ens2.ckpt",
    ) == 0
    assert (root / "ens2.ckpt").exists()


def test_sentences_artifacts(pipeline):
    sent = pipeline["root"] / "sent"
    index = json.loads((sent / "sentences.json").read_text())
    assert len(index["sentences"]) == 2
    for entry in index["sentences"]:
        assert (sent / entry["path"]).exists()
        assert 2 <= len(entry["reference"]) <= 5
        assert len(entry["glosses"]) == len(entry["reference"])


def test_decode_report(pipeline):
    doc = json.loads((pipeline["root"] / "report.json").read_text())
    assert doc["model"] == "ensemble"
    assert doc["decode_config"] == {"window": 40, "step": 5, "threshold": 0.2}
    assert len(doc["sentences"]) == 2
    assert len(doc["traces"]) == 2
    assert "average_total_errors" in doc


def test_decode_prints_table(pipeline, capsys):
    root = pipeline["root"]
    assert run(
        "decode", "--model", root / "ens.ckpt", "--sentences", root / "sent",
        "--out", root / "report2.json",
    ) == 0
    out = capsys.readouterr().out
    assert "hypothesis vs reference" in out
    assert out.splitlines()[-1].startswith("avg")


# ---------------------------------------------------------------------------
# failure modes


def test_unknown_top_level_config_key(pipeline, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"optimizer": "adam"}))
    rc = run(
        "train", "--data", pipeline["manifest"], "--arch", "late",
        "--config", cfg, "--out", tmp_path / "x.ckpt",
    )
    assert rc == 1
    assert "optimizer" in capsys.readouterr().err


def test_unknown_nested_config_key(pipeline, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"train": {"learning_rat": 0.1}}))
    rc = run(
        "train", "--data", pipeline["manifest"], "--arch", "late",
        "--config", cfg, "--out", tmp_path / "x.ckpt",
    )
    assert rc == 1
    assert "learning_rat" in capsys.readouterr().err


def test_missing_dataset_exits_2(pipeline, tmp_path):
    rc = run(
        "eval", "--data", tmp_path / "nope" / "manifest.json",
        "--model", pipeline["root"] / "late.ckpt", "--out", tmp_path / "m.json",
    )
    assert rc == 2


def test_corrupt_record_exits_2(pipeline, tmp_path, capsys):
    broken = tmp_path / "data"
    shutil.copytree(pipeline["data"], broken)
    victim = sorted((broken / "records").glob("*.slf"))[0]
    raw = bytearray(victim.read_bytes())
    raw[0] ^= 0xFF
    victim.write_bytes(bytes(raw))
    rc = run(
        "eval", "--data", broken / "manifest.json",
        "--model", pipeline["root"] / "late.ckpt", "--out", tmp_path / "m.json",
    )
    assert rc == 2
    assert "bad magic" in capsys.readouterr().err


def _drop(key):
    return lambda header: header["tensors"][0].pop(key)


@pytest.mark.parametrize(
    "source, edit",
    [
        ("late.ckpt", lambda header: header.pop("tensors")),
        ("late.ckpt", _drop("name")),
        ("late.ckpt", _drop("shape")),
        ("late.ckpt", _drop("offset")),
        ("late.ckpt", lambda header: header["tensors"][0].update(shape=[-1])),
        ("ens.ckpt", lambda header: header["tensors"][0].update(name="mid.x")),
    ],
    ids=["no-tensors", "no-name", "no-shape", "no-offset", "negative-dim", "unknown-prefix"],
)
def test_malformed_checkpoint_header_exits_2(pipeline, tmp_path, capsys, source, edit):
    raw = (pipeline["root"] / source).read_bytes()
    (hlen,) = struct.unpack_from("<I", raw)
    header = json.loads(raw[4 : 4 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    bad = tmp_path / source
    bad.write_bytes(struct.pack("<I", len(text)) + text + raw[4 + hlen :])
    with pytest.raises(FormatError):
        (load_ensemble if source == "ens.ckpt" else load_model)(bad)
    rc = run(
        "eval", "--data", pipeline["manifest"], "--model", bad,
        "--split", "test", "--out", tmp_path / "m.json",
    )
    assert rc == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("text", ["3,10,20", "10,1,2,3,4,5,6,7,8,9", "2,a,b", ""])
def test_bad_chromosome_exits_1(pipeline, tmp_path, text):
    root = pipeline["root"]
    rc = run(
        "ensemble", "--data", pipeline["manifest"], "--early", root / "early.ckpt",
        "--late", root / "late.ckpt", "--chromosome", text,
        "--out", tmp_path / "e.ckpt",
    )
    assert rc == 1


def test_ensemble_requires_a_chromosome(pipeline, tmp_path, capsys):
    root = pipeline["root"]
    rc = run(
        "ensemble", "--data", pipeline["manifest"], "--early", root / "early.ckpt",
        "--late", root / "late.ckpt", "--out", tmp_path / "e.ckpt",
    )
    assert rc == 1
    assert "chromosome" in capsys.readouterr().err


def test_stream_ablation_recorded_in_meta(pipeline, tmp_path):
    ckpt = tmp_path / "handonly.ckpt"
    assert run(
        "train", "--data", pipeline["manifest"], "--arch", "late",
        "--config", pipeline["cfg"], "--seed", 1, "--streams", "A", "--out", ckpt,
    ) == 0
    _, meta = load_model(ckpt)
    assert meta["train_config"]["stream_toggles"] == [True, False, False]


def test_invalid_stream_letter_exits_1(pipeline, tmp_path, capsys):
    rc = run(
        "eval", "--data", pipeline["manifest"], "--model", pipeline["root"] / "late.ckpt",
        "--streams", "Q", "--out", tmp_path / "m.json",
    )
    assert rc == 1
    assert "A,B,C" in capsys.readouterr().err


def test_stream_ablation_rejected_for_ensemble(pipeline, tmp_path, capsys):
    rc = run(
        "eval", "--data", pipeline["manifest"], "--model", pipeline["root"] / "ens.ckpt",
        "--streams", "A", "--out", tmp_path / "m.json",
    )
    assert rc == 1
    assert "single models" in capsys.readouterr().err


def test_usage_errors_exit_1():
    assert run("train") == 1  # missing required --out
    assert run("no-such-command") == 1
