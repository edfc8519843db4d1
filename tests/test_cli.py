import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import log_probs, lstm_gate_matrices
from nnlm.artifact import (ArtifactError, build_model, load_artifact,
                           save_artifact, vocab_sha256)
from nnlm import cli
from nnlm.cli import main
from nnlm.config import (KEYS, ConfigError, RunConfig, parse_config,
                         serialize_config)
from nnlm.corpus import build_vocabulary
from nnlm.models import model_arrays

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TEXT = """the cat sat on the mat
the dog sat on the log
a cat and a dog
the mat and the log

the second document starts here
it has two sentences
"""


@pytest.fixture
def corpus(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(TEXT, encoding="utf-8")
    return p


def small_config(corpus, **overrides):
    cfg = RunConfig()
    cfg.corpus_path = str(corpus)
    cfg.arch = "rnn"
    cfg.strategy = "full"
    cfg.m = 6
    cfg.n_h = 8
    cfg.n_train = 18
    cfg.n_valid = 5
    cfg.max_epochs = 2
    cfg.alpha = 0.1
    for key, value in overrides.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


class TestConfigFormat:
    def test_parse_serialize_parse_is_fixed_point(self):
        cfg = RunConfig()
        cfg.arch = "fnn"
        cfg.lam = 0.7
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        assert text == again
        assert parse_config(again) == parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# experiment\n\nmodel.arch = rnn  # inline\n")
        assert cfg.arch == "rnn"

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*model\.depth"):
            parse_config("model.arch = rnn\nmodel.depth = 3\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config("model.bias = yes\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="model.n_h"):
            parse_config("model.n_h = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("model.arch rnn\n")

    def test_validation_catches_bad_combinations(self):
        with pytest.raises(ConfigError, match="importance"):
            parse_config("model.arch = lstm\ntrain.mode = importance\n")

    def test_defaults_round_trip_types(self):
        cfg = parse_config(serialize_config(RunConfig()))
        assert isinstance(cfg.beta, float) and isinstance(cfg.n_h, int)
        assert isinstance(cfg.peepholes, bool)

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_every_key_survives_a_round_trip(self, key):
        """Each key, set to a value other than its default, is read into its
        own field and written back as it was given."""
        line = f"{key} = {NON_DEFAULT[key]}"
        cfg = parse_config(NEEDS.get(key, "") + line + "\n")
        assert getattr(cfg, KEYS[key].name) != KEYS[key].default
        text = serialize_config(cfg)
        assert line in text.splitlines()
        assert parse_config(text) == cfg

    def test_readme_tables_every_key_with_its_default_and_flag(self):
        rows = {}
        for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
            if line.startswith("| `") and line.count("|") == 5:
                key, default, _, flag = (c.strip() for c in line.split("|")[1:5])
                rows[key.strip("`")] = (default.strip("`"), flag.strip("`"))
        defaults = dict(line.split(" = ") for line in
                        serialize_config(RunConfig()).splitlines())
        assert set(rows) == set(KEYS)
        for key, f in KEYS.items():
            assert rows[key] == (defaults[key], f.metadata["flag"] or "")


# a valid value other than the default for every key, and the settings a
# value needs beside it
NON_DEFAULT = {
    "model.arch": "fnn", "model.n": "3", "model.m": "7", "model.n_h": "9",
    "model.direct": "true", "model.bias": "true", "model.peepholes": "false",
    "output.strategy": "hier", "output.classes": "4", "output.levels": "2",
    "output.assign": "uniform", "output.energy": "true",
    "corpus.path": "data/brown.txt", "corpus.lowercase": "false",
    "corpus.min_count": "2", "corpus.n_train": "1000", "corpus.n_valid": "100",
    "corpus.reverse": "true",
    "train.alpha": "0.25", "train.beta": "0.001", "train.max_epochs": "4",
    "train.decay": "0.75", "train.improve": "-0.5", "train.patience": "2",
    "train.clip": "1.5", "train.seed": "42", "train.mode": "importance",
    "train.block_size": "10", "train.min_ess": "5.5", "train.max_samples": "20",
    "eval.mode": "dynamic", "eval.alpha_dyn": "0.5", "eval.beta_dyn": "0.125",
    "cache.lambda": "0.5", "cache.length": "7", "cache.decay": "exponential",
    "cache.gamma": "0.5", "cache.mode": "class", "cache.carryover": "true",
}
NEEDS = {"train.mode": "model.arch = fnn\noutput.strategy = full\n"
                       "output.energy = true\n"}


# header corruptions a length check cannot see -> the error they must raise
CORRUPT_HEADERS = {
    "manifest-not-json": "unreadable artifact manifest",
    "manifest-without-tensors": r"manifest lacks \['tensors'\]",
    "unknown-dtype-code": "malformed header in tensor block",
}


def _duplicate_first_word(partition):
    partition.order[1] = partition.order[0]
    return partition


def _last_bound_past_k(partition):
    partition.levels[0][-1] += 1
    return partition


def _bounds_reversed(partition):
    partition.levels[0] = partition.levels[0][::-1].copy()
    return partition


def _inner_level_drops_an_outer_offset(partition):
    outer, inner = partition.levels
    partition.levels[1] = inner[inner != outer[1]]
    return partition


def _only_the_order(partition):
    return SimpleNamespace(order=partition.order, levels=[])


CLASS = dict(strategy="class")
HIER = dict(strategy="hier", assign="uniform", levels=2)
# partition -> (settings, the partition saved in its place, the error)
NONSENSE_PARTITIONS = {
    "class-order-not-a-permutation": (CLASS, _duplicate_first_word,
                                      r"tensor struct\.order is not a permutation"),
    "class-last-bound-past-k": (CLASS, _last_bound_past_k,
                                r"tensor struct\.bounds does not run"),
    "class-bounds-reversed": (CLASS, _bounds_reversed,
                              r"tensor struct\.bounds does not run"),
    "class-without-bounds": (CLASS, _only_the_order,
                             r"lacks tensor 'struct\.bounds'"),
    "hier-order-not-a-permutation": (HIER, _duplicate_first_word,
                                     r"tensor struct\.order is not a permutation"),
    "hier-levels-not-nested": (HIER, _inner_level_drops_an_outer_offset,
                               r"tensor struct\.level2 lacks an offset of level1"),
    "hier-without-levels": (HIER, _only_the_order,
                            r"lacks tensor 'struct\.level1'"),
}


class TestArtifact:
    def _build(self, corpus, **overrides):
        cfg = small_config(corpus, **overrides)
        vocab = build_vocabulary([["a", "b", "c"], ["b", "c", "d"]])
        core, strategy, partition = build_model(cfg, vocab)
        return cfg, vocab, core, strategy, partition

    def test_round_trip_restores_parameters(self, corpus, tmp_path):
        cfg, vocab, core, strategy, partition = self._build(corpus)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        cfg2, vocab2, core2, strategy2, _ = load_artifact(path)
        assert vocab2.words == vocab.words
        assert serialize_config(cfg2) == serialize_config(cfg)
        loaded = model_arrays(core2, strategy2)
        for name, arr in model_arrays(core, strategy).items():
            np.testing.assert_array_equal(loaded[name], arr)

    def test_save_load_save_is_byte_identical(self, corpus, tmp_path):
        cfg, vocab, core, strategy, partition = self._build(corpus,
                                                            strategy="class")
        a, b = tmp_path / "a.nnlm", tmp_path / "b.nnlm"
        save_artifact(a, cfg, vocab, core, strategy, partition)
        cfg2, vocab2, core2, strategy2, part2 = load_artifact(a)
        save_artifact(b, cfg2, vocab2, core2, strategy2, part2)
        assert a.read_bytes() == b.read_bytes()

    def test_class_partition_survives_round_trip(self, corpus, tmp_path):
        cfg, vocab, core, strategy, partition = self._build(corpus,
                                                            strategy="class")
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        _, _, _, strategy2, part2 = load_artifact(path)
        np.testing.assert_array_equal(part2.order, partition.order)
        np.testing.assert_array_equal(part2.levels, partition.levels)
        state = np.random.default_rng(0).normal(size=cfg.n_h)
        np.testing.assert_allclose(log_probs(strategy2, state),
                                   log_probs(strategy, state), rtol=0, atol=1e-12)

    def test_flipped_byte_detected(self, corpus, tmp_path):
        cfg, vocab, core, strategy, partition = self._build(corpus)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        blob = bytearray(path.read_bytes())
        blob[-30] ^= 0xFF  # inside the last tensor block's data
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(path)

    def test_every_truncation_and_a_trailing_byte_rejected(self, corpus,
                                                           tmp_path):
        """Cut anywhere (in the magic, a length field, the manifest or a
        tensor block) or padded by one byte, a class-RNN artifact fails to
        load with ArtifactError and nothing else."""
        cfg, vocab, core, strategy, partition = self._build(
            corpus, strategy="class", bias=True, m=3, n_h=4, seed=7)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        blob = path.read_bytes()
        bad = tmp_path / "bad.nnlm"
        for variant in [blob[:n] for n in range(len(blob))] + [blob + b"\0"]:
            bad.write_bytes(variant)
            with pytest.raises(ArtifactError):
                load_artifact(bad)

    @pytest.mark.parametrize("case", sorted(CORRUPT_HEADERS))
    def test_corrupt_header_rejected(self, case, corpus, tmp_path):
        cfg, vocab, core, strategy, partition = self._build(corpus)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        blob = path.read_bytes()
        (mlen,) = struct.unpack("<I", blob[8:12])
        manifest, rest = blob[12:12 + mlen], blob[12 + mlen:]
        if case == "manifest-not-json":
            manifest = b"[" + manifest[1:]
        elif case == "manifest-without-tensors":
            fields = json.loads(manifest)
            del fields["tensors"]
            manifest = json.dumps(fields).encode()
        else:   # the byte after the first block's name is its dtype code
            (name_len,) = struct.unpack("<H", rest[:2])
            rest = rest[:2 + name_len] + b"\x09" + rest[3 + name_len:]
        path.write_bytes(blob[:8] + struct.pack("<I", len(manifest)) + manifest
                         + rest)
        with pytest.raises(ArtifactError, match=CORRUPT_HEADERS[case]):
            load_artifact(path)

    @pytest.mark.parametrize("case", sorted(NONSENSE_PARTITIONS))
    def test_nonsense_partition_rejected(self, case, corpus, tmp_path):
        """A partition saved whole, with valid checksums, still loads only if
        it splits the vocabulary; the error names the tensor."""
        settings, spoil, message = NONSENSE_PARTITIONS[case]
        cfg, vocab, core, strategy, partition = self._build(corpus, **settings)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, spoil(partition))
        with pytest.raises(ArtifactError, match=message):
            load_artifact(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.nnlm"
        path.write_bytes(b"NOTANART" + b"\x00" * 32)
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_artifact(path)

    def test_vocab_hash_depends_on_content(self):
        a = build_vocabulary([["x", "y"]])
        b = build_vocabulary([["x", "z"]])
        assert vocab_sha256(a) != vocab_sha256(b)


def save_per_gate_lstm(path, corpus):
    """An LSTM artifact under the tensor names of the per-gate layout
    (``w_in_i``, ``w_rec_i``, ``w_peep_i``, ``b_i``, ...), which stored one
    matrix per gate."""
    cfg = small_config(corpus, arch="lstm", bias=True)
    vocab = build_vocabulary([["a", "b", "c"], ["b", "c", "d"]])
    core, strategy, partition = build_model(cfg, vocab)
    arrays = {"emb": core.params.emb, **lstm_gate_matrices(core.params)}
    per_gate = SimpleNamespace(params=SimpleNamespace(arrays=lambda: arrays))
    save_artifact(path, cfg, vocab, per_gate, strategy, partition)


# sha256 of artifacts from build_model at seed 7 with m=3, n_h=4 on the
# vocabulary of [["a", "b", "c"], ["b", "c", "d", "e"]]: the bytes that
# models of every arch have always been saved as, which pins the order in
# which a seed's draws fill the core and output-layer weights.
PINNED_ARTIFACTS = {
    "fnn-full": (dict(arch="fnn", strategy="full", direct=True, bias=True),
                 "355b90c425a1f47b8f0ecc2b9c236a71bfa8062c2ba985e0d369e59411d222b7"),
    "rnn-class": (dict(arch="rnn", strategy="class", bias=True),
                  "ce5cd093a3b7e0714f254318a636556d7a87f7d077ec033833540a5322cceaa8"),
    "rnn-full": (dict(arch="rnn", strategy="full", direct=True, bias=True),
                 "64969eff7b564c084810233a3e118e57e83f160c7a3a5adb96b350539c5be7ab"),
    "lstm-full": (dict(arch="lstm", strategy="full", direct=True, bias=True),
                  "a64dcd4652bebc3edd437005baf0baf2274e28e89d552d905d47c47bf20122d6"),
    "lstm-hier": (dict(arch="lstm", strategy="hier", bias=True, levels=2,
                       assign="uniform"),
                  "9fc2e3264c86b7bbee54331b4cfa615614a97e81cbd90501a21c391858b16243"),
    "fnn-class": (dict(arch="fnn", strategy="class", bias=False),
                  "232f1453d863ffb00a93af962d0598ff48e8f79321d671fa3697e9744167b23f"),
}


class TestArtifactLayout:
    @pytest.mark.parametrize("case", sorted(PINNED_ARTIFACTS))
    def test_fnn_and_rnn_bytes_unchanged(self, case, tmp_path):
        settings, sha = PINNED_ARTIFACTS[case]
        cfg = RunConfig()
        cfg.m, cfg.n_h, cfg.seed = 3, 4, 7
        for key, value in settings.items():
            setattr(cfg, key, value)
        cfg.validate()
        vocab = build_vocabulary([["a", "b", "c"], ["b", "c", "d", "e"]])
        core, strategy, partition = build_model(cfg, vocab)
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    def test_per_gate_lstm_artifact_rejected(self, corpus, tmp_path):
        path = tmp_path / "old.nnlm"
        save_per_gate_lstm(path, corpus)
        with pytest.raises(ArtifactError, match="lacks tensor 'w_x'"):
            load_artifact(path)


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCliTrainEval:
    def _train(self, corpus, tmp_path, **overrides):
        cfg = small_config(corpus, **overrides)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
        outdir = tmp_path / "out"
        assert run_cli("train", cfg_path, "--outdir", outdir, "--quiet") == 0
        return outdir

    def test_train_writes_expected_files(self, corpus, tmp_path, capsys):
        outdir = self._train(corpus, tmp_path)
        assert (outdir / "model.nnlm").exists()
        assert (outdir / "vocab.tsv").exists()
        log = (outdir / "epochs.tsv").read_text()
        assert "# corpus_sha256:" in log and "# seed:" in log
        assert "epoch\t" in log

    def test_eval_static_runs(self, corpus, tmp_path, capsys):
        outdir = self._train(corpus, tmp_path)
        assert run_cli("eval", outdir / "model.nnlm", corpus) == 0
        out = capsys.readouterr().out
        assert "PPL=" in out

    def test_eval_report_file(self, corpus, tmp_path):
        outdir = self._train(corpus, tmp_path)
        report = tmp_path / "report.tsv"
        assert run_cli("eval", outdir / "model.nnlm", corpus,
                       "--out", report) == 0
        assert "ppl" in report.read_text()

    def test_cache_lambda_one_matches_plain_eval(self, corpus, tmp_path, capsys):
        outdir = self._train(corpus, tmp_path)
        capsys.readouterr()
        assert run_cli("eval", outdir / "model.nnlm", corpus) == 0
        plain = capsys.readouterr().out
        assert run_cli("eval", outdir / "model.nnlm", corpus,
                       "--cache-lambda", "1.0") == 0
        cached = capsys.readouterr().out
        # words/s varies run to run; the scored probabilities must not
        assert plain.split("PPL=")[1].split()[0] == cached.split("PPL=")[1].split()[0]
        assert plain.split("tokens=")[1].split()[0] == cached.split("tokens=")[1].split()[0]

    def test_dynamic_zero_rate_matches_static(self, corpus, tmp_path, capsys):
        outdir = self._train(corpus, tmp_path)
        assert run_cli("eval", outdir / "model.nnlm", corpus) == 0
        static = capsys.readouterr().out.replace("mode=static", "")
        assert run_cli("eval", outdir / "model.nnlm", corpus, "--mode",
                       "dynamic", "--alpha-dyn", "0", "--beta-dyn", "0") == 0
        dynamic = capsys.readouterr().out.replace("mode=dynamic", "")
        # words/s differs between runs; compare the PPL field
        assert static.split("PPL=")[1].split()[0] == dynamic.split("PPL=")[1].split()[0]

    @pytest.mark.parametrize("setting,flags", [
        (dict(lam=0.9), ["--cache-lambda", "0.9"]),
        (dict(eval_mode="reversed"), ["--mode", "reversed"]),
        (dict(carryover=True), ["--carryover"]),
    ], ids=["cache.lambda", "eval.mode", "cache.carryover"])
    def test_eval_defaults_to_artifact_settings(self, setting, flags, corpus,
                                                tmp_path):
        """With no flags, ``nnlm eval`` scores as the artifact's eval.* and
        cache.* keys say: as the matching flags do on the same weights saved
        under the default keys, and unlike those weights without flags."""
        outdir = self._train(corpus, tmp_path, **setting)
        cfg, vocab, core, strategy, partition = load_artifact(outdir / "model.nnlm")
        plain = tmp_path / "plain.nnlm"
        save_artifact(plain, small_config(corpus), vocab, core, strategy, partition)
        report = tmp_path / "report.tsv"

        def log2_total(artifact, *extra):
            assert run_cli("eval", artifact, corpus, "--out", report, *extra) == 0
            return report.read_text().splitlines()[-1].split("\t")[1]

        default = log2_total(outdir / "model.nnlm")
        assert default == log2_total(plain, *flags)
        assert default != log2_total(plain)

    def test_reversed_mode_runs(self, corpus, tmp_path, capsys):
        outdir = self._train(corpus, tmp_path, reverse=True)
        assert run_cli("eval", outdir / "model.nnlm", corpus,
                       "--mode", "reversed") == 0
        assert "PPL=" in capsys.readouterr().out


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("model.arch = transformer\n", encoding="utf-8")
        assert run_cli("train", cfg_path) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "train.clip = -5", "train.clip = 0", "train.min_ess = nan",
        "train.alpha = 0", "train.max_samples = 0",
        "model.m = 0", "model.n_h = 0", "output.classes = -3",
        "output.levels = 0",
        "output.strategy = hier\noutput.assign = freq\noutput.levels = 3",
        "eval.alpha_dyn = -1.0", "eval.alpha_dyn = nan", "eval.beta_dyn = 1.0",
        "train.alpha = nan", "train.alpha = inf", "train.beta = inf",
        "train.beta = 1.5", "train.decay = 0", "train.decay = 1.5",
        "train.patience = 0", "train.max_epochs = 0", "train.improve = nan",
        "train.seed = -1", "corpus.n_valid = 0", "train.min_ess = -1",
        "train.min_ess = 0", "model.n = 0",
    ])
    def test_nonsense_training_setting_exits_2(self, setting, tmp_path,
                                               capsys):
        """Rejected with the configuration, before the corpus is read: the
        corpus named here does not exist, which would otherwise exit 1.
        The message names the last key set."""
        cfg = small_config(tmp_path / "no-such-corpus.txt")
        cfg_path = tmp_path / "bad.cfg"
        # a later line overrides an earlier one
        cfg_path.write_text(serialize_config(cfg) + setting + "\n",
                            encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        key = setting.splitlines()[-1].split(" =")[0]
        named = "train: " if key.startswith("train.") else key
        assert err.startswith(f"configuration error: {named}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "cache.lambda = 1.5", "cache.lambda = -0.5", "cache.length = 0",
        "cache.decay = cubic", "cache.mode = bigram", "cache.gamma = nan",
        "cache.gamma = 7.0",
    ])
    def test_nonsense_cache_setting_exits_2(self, setting, tmp_path, capsys):
        """Every cache key is checked with the configuration, also while
        cache.lambda = 1 leaves the cache off: a model trained under a
        nonsense cache setting would otherwise be saved and scored."""
        cfg = small_config(tmp_path / "no-such-corpus.txt")
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(serialize_config(cfg) + setting + "\n",
                            encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: cache: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["--cache-lambda", "-0.5"], ["--cache-lambda", "1.5"],
        ["--cache-length", "0"], ["--gamma", "nan"], ["--gamma", "7"],
        ["--gamma", "0"], ["--gamma", "-0.5"],
    ], ids=["lambda-negative", "lambda-above-one", "length-zero", "gamma-nan",
            "gamma-above-one", "gamma-zero", "gamma-negative"])
    def test_nonsense_cache_flag_exits_2(self, flags, corpus, tmp_path,
                                         capsys):
        """``nnlm eval`` checks the configuration again once its flags
        override the artifact's keys."""
        cfg = small_config(corpus)
        vocab = build_vocabulary([["a", "b", "c"]])
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, *build_model(cfg, vocab))
        assert run_cli("eval", path, corpus, *flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: cache: ")

    @pytest.mark.parametrize("flag,value", [
        ("--alpha-dyn", "-1"), ("--alpha-dyn", "nan"), ("--alpha-dyn", "inf"),
        ("--beta-dyn", "1"), ("--beta-dyn", "-0.1"), ("--beta-dyn", "nan"),
    ])
    def test_nonsense_dynamic_flag_exits_2(self, flag, value, corpus, tmp_path,
                                           capsys):
        """A negative or non-finite dynamic learning rate, or a dynamic decay
        outside [0, 1), is a configuration error that names the key, not a
        score."""
        cfg = small_config(corpus)
        vocab = build_vocabulary([["a", "b", "c"]])
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, *build_model(cfg, vocab))
        assert run_cli("eval", path, corpus, "--mode", "dynamic", flag, value) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        key = "eval." + flag[2:].replace("-", "_")
        assert err.startswith(f"configuration error: {key} ")

    @pytest.mark.parametrize("command,flags,key", [
        ("eval", ["--gamma", "abc"], "cache.gamma"),
        ("eval", ["--cache-length", "1.5"], "cache.length"),
        ("eval", ["--mode", "bogus"], "eval.mode"),
        ("reproduce", ["--m", "x"], "model.m"),
    ], ids=["gamma-text", "length-fraction", "mode-unknown", "m-text"])
    def test_unparsable_flag_exits_2(self, command, flags, key, corpus,
                                     tmp_path, capsys):
        """A flag's value is parsed and checked as its key's value in a
        config file is, and a bad one ends as one line naming the key."""
        cfg = small_config(corpus)
        vocab = build_vocabulary([["a", "b", "c"]])
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, *build_model(cfg, vocab))
        argv = (["eval", path, corpus] if command == "eval"
                else ["reproduce", "1", "--outdir", tmp_path / "rep"])
        assert run_cli(*argv, *flags) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: {key}")

    def test_nan_perplexity_exits_1(self, corpus, tmp_path, capsys):
        """A model whose scores are NaN reports no perplexity."""
        cfg = small_config(corpus)
        vocab = build_vocabulary([["the", "cat"]])
        core, strategy, partition = build_model(cfg, vocab)
        strategy.w_out[:] = np.nan
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, core, strategy, partition)
        assert run_cli("eval", path, corpus) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: perplexity is not finite")

    def test_out_of_memory_exits_1(self, corpus, tmp_path, capsys,
                                   monkeypatch):
        """A model too large to allocate ends as one error line, not a
        MemoryError traceback."""
        def refuse(cfg, vocab, partition=None):
            raise MemoryError("Unable to allocate 8.94 GiB for an array")

        monkeypatch.setattr(cli, "build_model", refuse)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(serialize_config(small_config(corpus)),
                            encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: out of memory: Unable to allocate")

    def test_module_run_prints_one_error_line(self, corpus, tmp_path):
        """``python -m nnlm.cli`` prints only its own error, with no runpy
        warning before it."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "nnlm.cli", "eval",
             str(tmp_path / "missing.nnlm"), str(corpus)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: ")

    def test_more_classes_than_words_exits_2(self, corpus, tmp_path, capsys):
        cfg = small_config(corpus, strategy="class", classes=500)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: output.classes = 500 ")

    def test_truncated_artifact_exits_1(self, corpus, tmp_path, capsys):
        cfg = small_config(corpus)
        vocab = build_vocabulary([["a", "b", "c"]])
        path = tmp_path / "model.nnlm"
        save_artifact(path, cfg, vocab, *build_model(cfg, vocab))
        path.write_bytes(path.read_bytes()[:-3])
        assert run_cli("eval", path, corpus) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: artifact is truncated")

    def test_stale_reproduce_artifact_exits_2(self, tmp_path, capsys):
        """A reproduce run reuses a model it trained before only under the
        same configuration; under another it stops and names the file."""
        root = tmp_path / "corpora"
        root.mkdir()
        (root / "brown.txt").write_text(TEXT * 4, encoding="utf-8")
        args = ["reproduce", "3", "--corpus-root", root, "--outdir",
                tmp_path / "rep", "--n-h", 4, "--n-train", 40, "--n-valid", 10,
                "--max-epochs", 1]
        assert run_cli(*args, "--m", 3) in (0, 3)
        capsys.readouterr()
        assert run_cli(*args, "--m", 7) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(tmp_path / "rep" / "baseline" / "model.nnlm") in err

    def test_missing_artifact_exits_1(self, corpus, tmp_path, capsys):
        assert run_cli("eval", tmp_path / "missing.nnlm", corpus) == 1

    def test_non_finite_gradient_exits_1(self, corpus, tmp_path, capsys,
                                         recwarn):
        # a learning rate this large overflows the weights after the first
        # update, so a later sentence's gradient is NaN
        cfg = small_config(corpus, alpha=1e300)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: non-finite gradient in ")
        # a real process prints numpy's warnings to stderr too
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("output", ["full", "class", "hier"])
    @pytest.mark.parametrize("arch", ["fnn", "rnn", "lstm"])
    def test_diverged_model_exits_1(self, arch, output, corpus, tmp_path,
                                    capsys, recwarn):
        """A learning rate this large leaves every gradient finite but drives
        the validation log-probability so low that its perplexity does not
        fit in a float."""
        cfg = small_config(corpus, arch=arch, strategy=output, alpha=1e10)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(serialize_config(cfg), encoding="utf-8")
        assert run_cli("train", cfg_path, "--outdir", tmp_path / "out",
                       "--quiet") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: perplexity 2^")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_per_gate_lstm_artifact_exits_1(self, corpus, tmp_path, capsys):
        path = tmp_path / "old.nnlm"
        save_per_gate_lstm(path, corpus)
        assert run_cli("eval", path, corpus) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: artifact lacks tensor 'w_x'")

    @pytest.mark.parametrize("spoil", ["corpus-replaced", "log-without-epochs"])
    def test_stale_reproduce_directory_exits_2(self, spoil, tmp_path, capsys):
        """A reproduce run reuses a model only if its epoch log is headed by
        this corpus's provenance and records an epoch; otherwise it stops
        and names the directory instead of scoring a stale model."""
        root = tmp_path / "corpora"
        root.mkdir()
        (root / "brown.txt").write_text(TEXT * 4, encoding="utf-8")
        args = ["reproduce", "3", "--corpus-root", root, "--outdir",
                tmp_path / "rep", "--m", 3, "--n-h", 4, "--n-train", 40,
                "--n-valid", 10, "--max-epochs", 1]
        assert run_cli(*args) in (0, 3)
        capsys.readouterr()
        baseline = tmp_path / "rep" / "baseline"
        if spoil == "corpus-replaced":   # not one word in common
            (root / "brown.txt").write_text(TEXT.upper().replace(" ", "X ") * 4,
                                            encoding="utf-8")
        else:
            log = baseline / "epochs.tsv"
            log.write_text("".join(log.read_text().splitlines(True)[:-1]))
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: {baseline} ")

    def test_unknown_table_exits_2(self, tmp_path, capsys):
        """The table id is checked first, before the corpus is looked for."""
        assert run_cli("reproduce", "99", "--corpus-root", tmp_path,
                       "--outdir", tmp_path / "rep") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: unknown table id '99'")

    def test_reproduce_without_corpus_exits_2(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.delenv("NNLM_CORPUS_ROOT", raising=False)
        assert run_cli("reproduce", "1", "--outdir", tmp_path / "rep") == 2
        assert "corpus" in capsys.readouterr().err


def zipf_corpus(seed=0, n_words=80, n_tokens=2000) -> str:
    """Newline-delimited sentences of Zipf-distributed words, about
    ``n_tokens`` tokens in all."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()
    lines, total = [], 0
    while total < n_tokens:
        n = int(rng.integers(3, 15))
        lines.append(" ".join(f"w{i}" for i in rng.choice(n_words, size=n, p=p)))
        total += n
    return "\n".join(lines) + "\n"


# table id -> the row labels its report prints
REPRODUCE_ROWS = {
    "1": ["FNN", "RNN", "LSTM"],
    "2": ["uniform l=1", "uniform l=3", "uniform l=5", "PPL monotone in depth",
          "freq l=1", "sqrt_freq l=1", "sqrt-freq <= freq",
          "class/full train speed"],
    "3": ["carryover", "baseline"],
    "4": ["reversed"],
    "dynamic": ["dynamic", "static"],
}


@pytest.fixture(scope="module")
def reproduce_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reproduce")
    (root / "brown.txt").write_text(zipf_corpus(), encoding="utf-8")
    return root, root / "out"


class TestReproduceSmoke:
    """Every ``nnlm reproduce`` table runs end to end on a small synthetic
    corpus; the bands are not checked, since a model this small misses
    them."""

    @pytest.mark.parametrize("table", list(REPRODUCE_ROWS))
    def test_table_runs_and_writes_its_report(self, table, reproduce_dirs,
                                              capsys):
        root, outdir = reproduce_dirs
        code = run_cli("reproduce", table, "--corpus-root", root, "--outdir",
                       outdir, "--m", 4, "--n-h", 6, "--n-train", 120,
                       "--n-valid", 20, "--max-epochs", 1)
        assert code in (0, 3)
        out = capsys.readouterr().out
        report = (outdir / f"table_{table}.md").read_text(encoding="utf-8")
        assert report.startswith("| run | reference | measured | band | status |\n")
        assert out.endswith(report + "\n")
        labels = [row.split(" | ")[0].removeprefix("| ")
                  for row in report.splitlines()[2:]]
        assert labels == REPRODUCE_ROWS[table]
