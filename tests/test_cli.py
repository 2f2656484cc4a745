"""End-to-end CLI tests, run in process through main(argv)."""
import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from hogrn import cli
from hogrn.cli import main, parse_config_file
from hogrn.kgdata import load_dataset
from hogrn.model import HoGRN
from hogrn.training import TrainConfig

SIX_TRAIN = [
    ("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d"), ("d", "r1", "e"),
    ("e", "r2", "f"), ("a", "r3", "c"), ("b", "r1", "d"), ("f", "r3", "a"),
]
SIX_VALID = [("a", "r2", "d"), ("b", "r3", "e")]
SIX_TEST = [("c", "r1", "f"), ("d", "r2", "a")]

FAST_TRAIN = ["--seed", "0", "--dim", "4", "--num-layers", "1", "--lr", "0.05",
              "--batch-size", "16", "--max-epochs", "10", "--patience", "99"]


@pytest.fixture
def six_dir(write_dataset):
    return write_dataset(SIX_TRAIN, SIX_VALID, SIX_TEST)


def manifest_of(path):
    with np.load(path) as npz:
        return json.loads(str(npz["manifest"][()]))


def test_stats_prints_counts(six_dir, capsys):
    assert main(["stats", str(six_dir)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"entities\s+6", out)
    assert re.search(r"relations\s+3", out)
    assert re.search(r"train\s+8", out)
    assert re.search(r"total\s+12", out)
    assert "avg_out_degree" in out and "median_out_degree" in out


def test_stats_prints_coverage_missing_from_train(write_dataset, capsys):
    data = write_dataset(SIX_TRAIN, SIX_VALID + [("a", "r9", "b")], SIX_TEST + [("g", "r1", "a")])
    assert main(["stats", str(data)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^entities_missing_from_train\s+1$", out, re.M)
    assert re.search(r"^relations_missing_from_train\s+1$", out, re.M)
    assert re.search(r"^valid_triples_with_missing\s+1$", out, re.M)
    assert re.search(r"^test_triples_with_missing\s+1$", out, re.M)


def test_stats_env_fallback(six_dir, capsys, monkeypatch):
    monkeypatch.setenv("HOGRN_DATA", str(six_dir))
    assert main(["stats"]) == 0
    assert "entities" in capsys.readouterr().out


def test_positional_dir_beats_env(six_dir, capsys, monkeypatch):
    monkeypatch.setenv("HOGRN_DATA", "/nonexistent/place")
    assert main(["stats", str(six_dir)]) == 0


def test_missing_dir_is_user_error(capsys, monkeypatch):
    monkeypatch.delenv("HOGRN_DATA", raising=False)
    assert main(["stats", "/nonexistent/place"]) == 1
    assert "dataset directory not found" in capsys.readouterr().err
    assert main(["stats"]) == 1
    assert "HOGRN_DATA" in capsys.readouterr().err


def test_sparsify_writes_loadable_dataset(six_dir, tmp_path, capsys):
    out = tmp_path / "reduced"
    assert main(["sparsify", str(six_dir), "--keep", "0.5",
                 "--seed", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kept_train                    4" in text
    assert "dropped_train                 4" in text
    assert f"written to {out}" in text
    store, vocab = load_dataset(out)
    assert store.train.shape == (4, 3)
    assert store.valid.shape[0] == 2 and store.test.shape[0] == 2
    assert vocab.num_entities == 6


def test_train_writes_checkpoint_and_log(six_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", str(six_dir), *FAST_TRAIN, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "best val MRR" in stdout
    assert f"checkpoint written to {out / 'checkpoint.npz'}" in stdout
    log_lines = (out / "train_log.txt").read_text().splitlines()
    assert len(log_lines) == 10
    assert all(line.startswith("epoch") for line in log_lines)
    manifest = manifest_of(out / "checkpoint.npz")
    assert manifest["extra"].keys() == {"best_val_mrr", "best_epoch", "epochs_run"}
    assert manifest["extra"]["epochs_run"] == 10
    assert manifest["train_config"]["dim"] == 4


def test_train_quiet_still_writes_log(six_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", str(six_dir), *FAST_TRAIN, "--quiet", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert not any(line.startswith("epoch") for line in stdout.splitlines())
    assert "best val MRR" in stdout
    assert len((out / "train_log.txt").read_text().splitlines()) == 10


def test_train_flag_overrides_config_file(six_dir, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("dim = 4  # overridden below\nlr = 0.05\nmax_epochs = 3\n")
    out = tmp_path / "run"
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(cfg),
                 "--dim", "6", "--out", str(out)]) == 0
    manifest = manifest_of(out / "checkpoint.npz")
    assert manifest["train_config"]["dim"] == 6
    assert manifest["train_config"]["lr"] == 0.05
    assert manifest["train_config"]["max_epochs"] == 3


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "lr must be positive, got nan"),
    ("--lr", "inf", "lr must be positive, got inf"),
    ("--lambda-rel", "inf", "lambda_rel must be non-negative, got inf"),
    ("--temperature", "nan", "temperature must be positive, got nan"),
])
def test_train_refuses_non_finite_options(six_dir, tmp_path, capsys, flag, value, message):
    out = tmp_path / "run"
    assert main(["train", str(six_dir), *FAST_TRAIN, flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_file_errors(six_dir, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(bad)]) == 1
    assert "unknown option 'volume'" in capsys.readouterr().err

    bad.write_text("seed = 1\n")
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(bad)]) == 1
    assert "seed must be given with --seed" in capsys.readouterr().err

    bad.write_text("just some words\n")
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(bad)]) == 1
    assert "expected key=value" in capsys.readouterr().err

    bad.write_text("use_reasoning = maybe\n")
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(bad)]) == 1
    assert "expected a boolean" in capsys.readouterr().err


def test_parse_config_file_types(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# a comment\ndim=8\nlr=0.3\nuse_reasoning=false\nhead=transe\n")
    options = parse_config_file(cfg)
    assert options == {"dim": 8, "lr": 0.3, "use_reasoning": False, "head": "transe"}


def test_every_training_option_has_a_train_flag(six_dir, tmp_path, capsys):
    # each value differs from the TrainConfig default, so a dropped flag shows
    values = {"dim": 3, "num_layers": 1, "head": "transe", "lr": 0.02, "batch_size": 5,
              "max_epochs": 2, "patience": 7, "mask_ratio": 0.2, "lambda_rel": 0.3,
              "temperature": 0.5, "use_reasoning": False, "direction": "tail",
              "valid_every": 2}
    assert set(values) == {f.name for f in fields(TrainConfig)} - {"seed"}
    argv = ["train", str(six_dir), "--seed", "4", "--quiet", "--out", str(tmp_path)]
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else "--no-" + flag[2:])
        else:
            argv += [flag, str(value)]
    assert main(argv) == 0
    recorded = manifest_of(tmp_path / "checkpoint.npz")["train_config"]
    assert recorded == {**asdict(TrainConfig()), **values, "seed": 4}


def test_train_rejects_bad_option_values(six_dir, capsys):
    assert main(["train", str(six_dir), "--seed", "0", "--head", "bogus"]) == 1
    assert "head must be one of" in capsys.readouterr().err
    assert main(["train", str(six_dir), "--seed", "0", "--direction", "sideways"]) == 1
    assert "direction must be one of" in capsys.readouterr().err


def test_train_requires_seed(six_dir, capsys):
    assert main(["train", str(six_dir)]) == 1


def test_ablation_flag(six_dir, tmp_path, capsys):
    # HoGRN-R, the ablation without relation reasoning
    out = tmp_path / "run"
    assert main(["train", str(six_dir), *FAST_TRAIN, "--no-use-reasoning",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    with np.load(out / "checkpoint.npz") as npz:
        params = sorted(k for k in npz.files if k.startswith("param/"))
    assert params == ["param/entity_embedding", "param/relation_embedding"]
    manifest = manifest_of(out / "checkpoint.npz")
    assert "ablation" not in manifest["extra"]
    assert manifest["train_config"]["use_reasoning"] is False
    # the alias that duplicated --no-use-reasoning is gone
    assert main(["train", str(six_dir), *FAST_TRAIN, "--ablation", "hogrn-r",
                 "--out", str(out)]) == 1


def test_eval_reports_perfect_mrr_when_filter_removes_all_rivals(write_dataset, tmp_path, capsys):
    # after filtering b (train) and a (valid), c is the only candidate tail left
    data = write_dataset([("a", "r", "b")], [("a", "r", "a")], [("a", "r", "c")])
    out = tmp_path / "run"
    assert main(["train", str(data), "--seed", "0", "--dim", "4", "--num-layers", "1",
                 "--max-epochs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.npz"), str(data),
                 "--split", "test", "--direction", "tail"]) == 0
    stdout = capsys.readouterr().out
    assert "split:    test" in stdout
    assert re.search(r"MRR:\s+100\.00", stdout)
    assert re.search(r"Hits@1:\s+100\.00", stdout)


def test_eval_empty_split_is_user_error(write_dataset, tmp_path, capsys):
    data = write_dataset([("a", "r", "b")], [("a", "r", "b")], [])
    out = tmp_path / "run"
    assert main(["train", str(data), "--seed", "0", "--dim", "4", "--num-layers", "1",
                 "--max-epochs", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", str(out / "checkpoint.npz"), str(data), "--split", "test"]) == 1
    assert "'test' is empty" in capsys.readouterr().err


def test_train_and_eval_warn_once_naming_the_first_triple_unseen_in_training(
        write_dataset, tmp_path, capsys):
    # valid row 2 uses relation r9 and test row 2 entity g (rows from 0); train has neither
    data = write_dataset(SIX_TRAIN, SIX_VALID + [("a", "r9", "b")],
                         SIX_TEST + [("g", "r1", "a")])
    out = tmp_path / "run"
    assert main(["train", str(data), *FAST_TRAIN[:6], "--max-epochs", "1", "--quiet",
                 "--out", str(out)]) == 0
    want = ("warning: 1 valid and 1 test triples use entities or relations absent from "
            "training; the first is valid row 2: (a, r9, b)\n")
    assert capsys.readouterr().err == want
    assert main(["eval", str(out / "checkpoint.npz"), str(data)]) == 0
    assert capsys.readouterr().err == want


def test_train_and_eval_do_not_warn_when_training_covers_every_triple(six_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", str(six_dir), *FAST_TRAIN[:6], "--max-epochs", "1", "--quiet",
                 "--out", str(out)]) == 0
    assert main(["eval", str(out / "checkpoint.npz"), str(six_dir)]) == 0
    assert capsys.readouterr().err == ""


def test_the_unseen_warning_names_a_test_row_when_valid_is_covered(write_dataset, tmp_path, capsys):
    data = write_dataset(SIX_TRAIN, SIX_VALID, [("g", "r1", "a"), *SIX_TEST])
    assert main(["train", str(data), *FAST_TRAIN[:6], "--max-epochs", "1", "--quiet",
                 "--out", str(tmp_path / "run")]) == 0
    err = capsys.readouterr().err
    assert "0 valid and 1 test triples" in err and "the first is test row 0: (g, r1, a)" in err
    assert main(["stats", str(data)]) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def trained_six(tmp_path_factory):
    """One 2-layer checkpoint on the six-entity dataset, shared by explain tests."""
    root = tmp_path_factory.mktemp("sixrun")
    data = root / "data"
    data.mkdir()
    for fname, rows in (("train.txt", SIX_TRAIN), ("valid.txt", SIX_VALID),
                        ("test.txt", SIX_TEST)):
        with (data / fname).open("w") as fh:
            for h, r, t in rows:
                fh.write(f"{h}\t{r}\t{t}\n")
    out = root / "run"
    rc = main(["train", str(data), "--seed", "0", "--dim", "4", "--num-layers", "2",
               "--max-epochs", "3", "--quiet", "--out", str(out)])
    assert rc == 0
    return data, out / "checkpoint.npz"


def test_explain_prints_ranked_paths(trained_six, tmp_path, capsys):
    data, ckpt = trained_six
    dot_path = tmp_path / "paths.dot"
    json_path = tmp_path / "paths.json"
    assert main(["explain", str(ckpt), str(data), "--source", "a", "--target", "c",
                 "--dot", str(dot_path), "--json", str(json_path)]) == 0
    stdout = capsys.readouterr().out
    path_lines = [l for l in stdout.splitlines() if " a -[" in l]
    assert path_lines, stdout
    assert re.match(r"\d\.\d{6}  a -\[r\d", path_lines[0])
    scores = [float(l.split()[0]) for l in path_lines]
    assert scores == sorted(scores, reverse=True)
    assert dot_path.read_text().startswith("digraph")
    records = json.loads(json_path.read_text())
    assert isinstance(records, list) and records
    assert records[0]["hops"][0]["source"] == "a"


def test_explain_source_equals_target(trained_six, capsys):
    data, ckpt = trained_six
    assert main(["explain", str(ckpt), str(data), "--source", "a", "--target", "a"]) == 0
    assert capsys.readouterr().out.startswith("no paths from a to a")


def test_explain_unknown_entity(trained_six, capsys):
    data, ckpt = trained_six
    assert main(["explain", str(ckpt), str(data), "--source", "zzz", "--target", "a"]) == 1
    assert "unknown entity: 'zzz'" in capsys.readouterr().err


def test_explain_checks_top_k_and_max_len_before_the_forward(trained_six, monkeypatch, capsys):
    data, ckpt = trained_six

    def refuse(*_args, **_kwargs):
        raise AssertionError("the costly step ran before the arguments were checked")

    monkeypatch.setattr(HoGRN, "eval_states", refuse)
    monkeypatch.setattr(cli, "load_dataset", refuse)
    assert main(["explain", str(ckpt), str(data), "--source", "a", "--target", "c",
                 "--top-k", "0"]) == 1
    assert capsys.readouterr().err == "error: top_k must be positive, got 0\n"
    monkeypatch.undo()
    monkeypatch.setattr(HoGRN, "eval_states", refuse)
    for max_len in ("3", "0"):
        assert main(["explain", str(ckpt), str(data), "--source", "a", "--target", "c",
                     "--max-len", max_len]) == 1
        assert capsys.readouterr().err == (
            f"error: max_len must be in 1..2 (the checkpoint's num_layers), got {max_len}\n")


def test_eval_refuses_a_train_config_with_missing_or_unknown_keys(trained_six, tmp_path, capsys):
    data, ckpt = trained_six
    with np.load(ckpt) as npz:
        arrays = {k: npz[k] for k in npz.files}
    manifest = manifest_of(ckpt)
    settings = manifest["train_config"]
    edited = tmp_path / "edited.npz"
    for stored, message in ((settings | {"width": 3}, "missing [], unknown ['width']"),
                            ({k: v for k, v in settings.items() if k != "dim"},
                             "missing ['dim'], unknown []")):
        arrays["manifest"] = np.array(json.dumps(manifest | {"train_config": stored}))
        with open(edited, "wb") as fh:
            np.savez(fh, **arrays)
        assert main(["eval", str(edited), str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint train_config does not match TrainConfig")
        assert message in err


def test_eval_refuses_a_train_config_value_of_the_wrong_type(trained_six, tmp_path, capsys):
    data, ckpt = trained_six
    with np.load(ckpt) as npz:
        arrays = {k: npz[k] for k in npz.files}
    manifest = manifest_of(ckpt)
    edited = tmp_path / "edited.npz"
    for value in ("4", True):
        stored = manifest["train_config"] | {"dim": value}
        arrays["manifest"] = np.array(json.dumps(manifest | {"train_config": stored}))
        with open(edited, "wb") as fh:
            np.savez(fh, **arrays)
        assert main(["eval", str(edited), str(data)]) == 1
        assert capsys.readouterr().err == (
            f"error: checkpoint train_config field 'dim' must be of type int, got {value!r}\n")


def test_selfcheck_passes_clean(capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "rank oracle: ok (0 mismatched instances)" in out


def test_selfcheck_catches_injected_fault(capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2", "--fault-scale", "0.5"]) == 2
    assert "fault injection active" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("stats", "sparsify", "train", "eval", "explain", "selfcheck"):
        assert re.search(rf"^\s+{command}\s", out, re.M), command


def test_unknown_subcommand_is_user_error(capsys):
    assert main(["frobnicate"]) == 1
