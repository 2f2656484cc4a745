"""End-to-end CLI tests, run in process through main(argv)."""
import json
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from hogrn import cli, evaluation, scoring
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


def test_stats_names_the_file_and_line_of_a_byte_that_is_not_utf8(six_dir, capsys):
    train = six_dir / "train.txt"
    train.write_bytes(b"a\tr1\tb\nb\tr\xff\tc\n")
    assert main(["stats", str(six_dir)]) == 1
    assert capsys.readouterr().err == f"error: {train}:2: not UTF-8 (invalid start byte)\n"


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


def test_sparsify_refuses_a_fraction_that_keeps_no_triple(six_dir, tmp_path, capsys):
    out = tmp_path / "reduced"
    assert main(["sparsify", str(six_dir), "--keep", "0.1", "--seed", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: keep_fraction 0.1 keeps no triple of the 8 training triples\n"
    assert "kept_train" not in captured.out
    assert not out.exists()


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


def test_train_creates_out_before_it_trains(six_dir, tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran before --out was created")

    monkeypatch.setattr("hogrn.cli.fit", no_fit)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["train", str(six_dir), *FAST_TRAIN, "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_os_errors_are_user_errors(six_dir, tmp_path, capsys):
    # a directory where the checkpoint should be, and an existing file named as --out
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["eval", str(tmp_path), str(six_dir)],
                 ["train", str(six_dir), *FAST_TRAIN, "--out", str(taken)],
                 ["sparsify", str(six_dir), "--keep", "0.5", "--seed", "3", "--out", str(taken)]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: "), argv


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


def test_a_config_file_that_is_not_utf8_names_its_file_and_line(six_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"dim = 4\nlr = 0.\xff1\n")
    assert main(["train", str(six_dir), "--seed", "0", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: not UTF-8 (invalid start byte)\n"


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


def test_eval_refuses_an_empty_split_before_restoring(write_dataset, tmp_path, monkeypatch,
                                                      capsys):
    data = write_dataset([("a", "r", "b")], [("a", "r", "b")], [])

    def refuse(*_args, **_kwargs):
        raise AssertionError("the checkpoint was restored before the split was checked")

    monkeypatch.setattr(cli, "restore_model", refuse)
    assert main(["eval", str(tmp_path / "never-read.npz"), str(data), "--split", "test"]) == 1
    assert capsys.readouterr().err == "error: split 'test' is empty\n"


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


def test_explain_looks_up_the_entities_before_restoring(trained_six, monkeypatch, capsys):
    data, ckpt = trained_six

    def refuse(*_args, **_kwargs):
        raise AssertionError("the checkpoint was restored before the entities were looked up")

    monkeypatch.setattr(cli, "restore_model", refuse)
    assert main(["explain", str(ckpt), str(data), "--source", "zzz", "--target", "a"]) == 1
    assert capsys.readouterr().err == "error: unknown entity: 'zzz'\n"


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


def test_eval_refuses_a_malformed_checkpoint_naming_the_file_and_key(trained_six, tmp_path,
                                                                     capsys):
    data, ckpt = trained_six
    with np.load(ckpt) as npz:
        arrays = {k: npz[k] for k in npz.files}
    manifest = manifest_of(ckpt)
    no_manifest = {k: v for k, v in arrays.items() if k != "manifest"}
    no_digest = arrays | {"manifest": np.array(json.dumps(
        {k: v for k, v in manifest.items() if k != "vocab_digest"}))}
    listed_config = arrays | {"manifest": np.array(json.dumps(
        manifest | {"train_config": list(manifest["train_config"].items())}))}
    for name, contents, key in (("no_manifest", no_manifest, "'manifest'"),
                                ("no_digest", no_digest, "'vocab_digest'"),
                                ("listed_config", listed_config, "'train_config' object")):
        edited = tmp_path / f"{name}.npz"
        with open(edited, "wb") as fh:
            np.savez(fh, **contents)
        assert main(["eval", str(edited), str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed checkpoint {edited}: "), err
        assert key in err


def test_eval_refuses_adam_moments_that_do_not_match_the_parameters(trained_six, tmp_path,
                                                                    capsys):
    data, ckpt = trained_six
    with np.load(ckpt) as npz:
        arrays = {k: npz[k] for k in npz.files}
    misshaped = arrays | {"adam_m/entity_embedding": arrays["adam_m/entity_embedding"][1:]}
    missing = {k: v for k, v in arrays.items() if k != "adam_v/relation_embedding"}
    for contents, message in ((misshaped, "shape mismatch for adam_m/entity_embedding"),
                              (missing, "missing=['adam_v/relation_embedding']")):
        edited = tmp_path / "edited.npz"
        with open(edited, "wb") as fh:
            np.savez(fh, **contents)
        assert main(["eval", str(edited), str(data)]) == 1
        assert message in capsys.readouterr().err


def test_selfcheck_passes_clean(capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "rank oracle: ok (0 mismatched instances)" in out


def test_selfcheck_catches_injected_fault(capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2", "--fault-scale", "0.5"]) == 2
    assert "fault injection active" in capsys.readouterr().out


def test_selfcheck_checks_both_heads(monkeypatch, capsys):
    def summaries(out):
        return dict(re.findall(r"^(\w+): gradient check: 20 coordinates, .* -> (.+)$", out, re.M))

    assert main(["selfcheck", "--seed", "0", "--coords", "2", "--fault-scale", "0.5"]) == 2
    assert summaries(capsys.readouterr().out) == {"distmult": "20 failure(s)",
                                                  "transe": "20 failure(s)"}
    # a wrong TransE tail adjoint fails the command while DistMult still passes
    adjoints = scoring._l1_adjoints

    def doubled_tail(*args):
        d_query, d_tail = adjoints(*args)
        return d_query, 2.0 * d_tail

    monkeypatch.setattr(scoring, "_l1_adjoints", doubled_tail)
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 2
    got = summaries(capsys.readouterr().out)
    assert got["distmult"] == "ok" and got["transe"].endswith("failure(s)")


def test_selfcheck_refuses_coords_below_one_before_building_a_model(monkeypatch, capsys):
    # --coords 0 checked no coordinate and passed, even with --fault-scale 0.5
    def refuse(*_args, **_kwargs):
        raise AssertionError("a model was built before --coords was checked")

    monkeypatch.setattr(cli, "rule_composition_kg", refuse)
    for coords in ("0", "-1"):
        assert main(["selfcheck", "--coords", coords, "--fault-scale", "0.5"]) == 1
        assert capsys.readouterr().err == f"error: --coords must be positive, got {coords}\n"


def test_selfcheck_checks_the_loss_cells_against_scipy(monkeypatch, capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    line = re.search(r"^loss cells: ok \(max (\d+) ulp over (\d+) cells\)$",
                     capsys.readouterr().out, re.M)
    assert line and int(line[1]) <= 4 and int(line[2]) > 100_000

    def no_min_term(s, positive, cells):
        # -log1p(exp(-|x|)) alone: wrong for every x below 0
        np.log1p(np.exp(-np.abs(s)), out=cells)
        return np.negative(cells, out=cells)

    monkeypatch.setattr(cli, "_bce_cells", no_min_term)
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 2
    assert re.search(r"^loss cells: FAILED \(max \d+ ulp over \d+ cells\)$",
                     capsys.readouterr().out, re.M)


def test_selfcheck_checks_block_ranks_against_the_oracle(monkeypatch, capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    assert re.search(r"^block ranks: ok \(0 of \d+ ranks differ from the oracle; workers 1",
                     capsys.readouterr().out, re.M)

    def zero_band(query, gold_norm, max_norm):
        # near-ties decided on the GEMM's bits: only exact GEMM ties are re-scored
        return np.zeros(query.shape[0])

    def pairwise_rescore(query, h, rows, ids):
        # numpy's pairwise row sum, not the oracle's coordinate order
        return (query[rows] * h[ids]).sum(axis=1)

    for name, mutant in (("_distmult_band", zero_band), ("_ordered_scores", pairwise_rescore)):
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, name, mutant)
            assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 2
        assert re.search(r"^block ranks: FAILED \([1-9]\d* of \d+ ranks differ",
                         capsys.readouterr().out, re.M), name


def test_selfcheck_checks_the_l1_adjoint_against_the_sign_cube(monkeypatch, capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    assert re.search(r"^l1 adjoint: ok \(0 of \d+ values differ from the sign cube; workers 1",
                     capsys.readouterr().out, re.M)
    # a tie fold that drops the ties counts each tied pair as -1, not as 0
    monkeypatch.setattr(scoring, "_tie_sums", lambda *args: None)
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 2
    assert re.search(r"^l1 adjoint: FAILED \([1-9]\d* of \d+ values differ from the sign cube",
                     capsys.readouterr().out, re.M)


def test_selfcheck_checks_the_row_order_of_the_sparse_scatter(monkeypatch, capsys):
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 0
    assert re.search(r"^row sums: ok \(1 \+ 1e16 - 1e16 in two scatters gave 0\.0,",
                     capsys.readouterr().out, re.M)

    def fresh_product(out, matrix, operand):
        # adds a fresh product: 1 + (1e16 - 1e16) = 1 instead of the column-order 0
        out += matrix @ operand

    monkeypatch.setattr(cli, "add_product", fresh_product)
    assert main(["selfcheck", "--seed", "0", "--coords", "2"]) == 2
    assert re.search(r"^row sums: FAILED \(1 \+ 1e16 - 1e16 in two scatters gave 1\.0,",
                     capsys.readouterr().out, re.M)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("stats", "sparsify", "train", "eval", "explain", "selfcheck"):
        assert re.search(rf"^\s+{command}\s", out, re.M), command


def test_unknown_subcommand_is_user_error(capsys):
    assert main(["frobnicate"]) == 1
