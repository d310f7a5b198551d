"""Command surface: formats, exit codes, determinism, round-trips."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from longspan import attention, costmodel, mcs, metrics
from longspan import selection as sel
from longspan.checkpoint import load_tensors, save_tensors
from longspan.cli import INFERENCE_GROUP, build_parser, main
from longspan.corpus import Document, Example, load_corpus, make_synthetic_corpus, write_corpus
from longspan.selection import select

from test_attention import brute_force_mean_distance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--report", "json")
    return code, json.loads(out)


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    examples = make_synthetic_corpus(8, seed=7, n_sentences=(4, 6),
                                     words_per_sentence=(3, 5))
    write_corpus(path, examples)
    return path


def train_tiny(capsys, corpus_path, tmp_path, steps="60", seed="3"):
    ckpt = tmp_path / "model.lsnt"
    code, _ = run(
        capsys, "train-mcs", "--input", str(corpus_path), "--output", str(ckpt),
        "--steps", steps, "--warmup", "20", "--lr-scale", "0.05", "--seed", seed,
        "--embed-dim", "8", "--hidden-dim", "8", "--word-layers", "1",
        "--sent-layers", "1", "--dropout", "0.0", "--max-sentences", "8",
        "--max-words", "6", "--max-target", "10", "--val-fraction", "0.2",
        "--val-every", "30",
    )
    assert code == 0
    return ckpt


class TestCostModel:
    def test_bart_published_total(self, capsys):
        code, report = run_json(capsys, "cost-model", "--kind", "bart",
                                "-N", "1024", "-M", "144")
        assert code == 0
        assert abs(report["total_gib"] - 8.88) < 0.05

    def test_lobart_published_total(self, capsys):
        code, report = run_json(capsys, "cost-model", "--kind", "lobart",
                                "-N", "4096", "-M", "144", "-W", "1024")
        assert code == 0
        assert abs(report["total_gib"] - 21.94) < 0.05

    def test_hier_published_total(self, capsys):
        code, report = run_json(capsys, "cost-model", "--kind", "hier",
                                "-N1", "1000", "-N2", "50")
        assert code == 0
        assert round(report["total_gib"], 2) == 2.53

    def test_twelve_gib_budget_grid(self, capsys):
        code, report = run_json(
            capsys, "cost-model", "--kind", "bart", "-N", "1024", "-M", "144",
            "--budget", "12", "--grid", "1024:full,2048:full",
        )
        assert code == 0
        feasible = {(p["n"], p["window"]): p["feasible"] for p in report["grid"]}
        assert feasible[(1024, None)] is True
        assert feasible[(2048, None)] is False

    def test_thirty_two_gib_budget_grid(self, capsys):
        code, report = run_json(
            capsys, "cost-model", "--kind", "lobart", "-N", "8192", "-M", "144",
            "-W", "512", "--budget", "32", "--grid", "8192:512,8192:full",
        )
        assert code == 0
        feasible = {(p["n"], p["window"]): p["feasible"] for p in report["grid"]}
        assert feasible[(8192, 512)] is True
        assert feasible[(8192, None)] is False

    @pytest.mark.parametrize("kind,given,missing", [
        ("bart", ["-M", "144"], "-N"),
        ("lobart", ["-N", "4096", "-M", "144"], "-W"),
        ("hier", ["-N", "4096"], "-N1, -N2"),
    ], ids=["bart", "lobart", "hier"])
    def test_missing_args_usage_error(self, capsys, kind, given, missing):
        with pytest.raises(SystemExit) as exc:
            main(["cost-model", "--kind", kind, *given])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {kind} model needs {missing}\n")

    @pytest.mark.parametrize("flag", ["-N", "-M", "-W", "-N1", "-N2", "-B", "--batch"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_sizes_below_one_are_usage_errors(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["cost-model", "--kind", "lobart", "-N", "1024", "-M", "144", "-W", "32",
                  "-N1", "8", "-N2", "6", flag, value])
        assert exc.value.code == 2
        name = "-B/--batch" if flag in ("-B", "--batch") else flag
        assert f"argument {name}: must be >= 1" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["cost-model", "--kind", "bart", "--bogus", "1"])
        assert exc.value.code == 2

    def test_custom_coefficient_file(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("c_b_1 = 1.0\nc_b_2 = 0\nc_b_3 = 0\nc_b_4 = 0\n"
                        "c_b_5 = 0\nc_b_6 = 0\n")
        code, report = run_json(capsys, "cost-model", "--kind", "bart",
                                "-N", "10", "-M", "10", "--coeff-file", str(path))
        assert code == 0 and report["total_gib"] == 1.0

    def test_grid_loads_only_the_kinds_it_uses(self, capsys, tmp_path):
        bundled = Path(costmodel.__file__).with_name("data") / "memory_coefficients.txt"
        bart_only = tmp_path / "bart_only.txt"
        bart_only.write_text("".join(line for line in bundled.read_text().splitlines(True)
                                     if line.startswith("c_b_")))
        code, report = run_json(capsys, "cost-model", "--kind", "bart", "-N", "1024",
                                "-M", "144", "--grid", "1024:full",
                                "--coeff-file", str(bart_only))
        assert code == 0
        assert [(p["n"], p["window"]) for p in report["grid"]] == [(1024, None)]
        assert "breakeven_width" not in report  # needs the banded kind the file lacks
        code = main(["cost-model", "--kind", "bart", "-N", "1024", "-M", "144",
                     "--grid", "1024:full,1024:256", "--coeff-file", str(bart_only)])
        assert code == 1
        assert "c_l_1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def coeff_files(tmp_path_factory):
    """Coefficient files of each kind a --coeff-file may name; ``missing`` is absent."""
    root = tmp_path_factory.mktemp("coeffs")
    bundled = Path(costmodel.__file__).with_name("data") / "memory_coefficients.txt"
    (root / "valid").write_text(bundled.read_text())
    (root / "bart-only").write_text("".join(line for line in bundled.read_text().splitlines(True)
                                            if line.startswith("c_b_")))
    (root / "malformed").write_text("c_b_1 6.0\n")
    (root / "not-utf8").write_bytes(b"c_b_1 = \xff\xfe\n")
    (root / "directory").mkdir()
    return root


def _reject_non_finite(constant):
    raise AssertionError(f"{constant} is not valid JSON")


class TestArgumentFuzz:
    """cost-model and analyze-attention end with exit 0, 1 or 2 and no traceback."""

    junk = st.sampled_from(["", "abc", "1.5", "1e3", "full", "FULL", "-", " 7", "0x10", "9:"])
    value = st.integers(-3, 5000).map(str) | st.integers().map(str) | junk | st.text(max_size=4)
    grid_item = st.tuples(value, st.sampled_from(["", ":"]), value | st.just("full")).map("".join)
    grid = st.lists(grid_item, max_size=3).map(",".join) | junk
    cost_model = st.tuples(
        st.sampled_from(["bart", "lobart", "hier"]),
        st.fixed_dictionaries({}, optional={"-N": value, "-M": value, "-W": value, "-N1": value,
                                            "-N2": value, "-B": value, "--budget": value,
                                            "--grid": grid}),
    ).map(lambda kv: ["cost-model", "--kind", kv[0], *(x for kv2 in kv[1].items() for x in kv2)])
    # probe lengths in 49..4096 are valid and only cost time (dense N x N maps)
    probe_length = (st.integers(-5, 48) | st.integers(min_value=4097)).map(str) | junk
    analyze = st.fixed_dictionaries(
        {}, optional={"-N": probe_length, "--window": value, "--seed": value},
    ).map(lambda opts: ["analyze-attention", *(x for kv in opts.items() for x in kv)])

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cost_model | analyze,
           coeff=st.sampled_from([None, "missing", "valid", "bart-only", "malformed",
                                  "not-utf8", "directory"]))
    @example(argv=["analyze-attention", "--window", "abc"], coeff=None)
    @example(argv=["analyze-attention", "-N", "-5"], coeff=None)
    @example(argv=["analyze-attention", "-N", str(10**30)], coeff=None)
    @example(argv=["analyze-attention", "--seed", "-1"], coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5", "--grid", "100:x"],
             coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5", "--grid", "abc"],
             coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5"], coeff="missing")
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5"], coeff="not-utf8")
    @example(argv=["cost-model", "--kind", "bart", "-N", str(10**400), "-M", "5"], coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5", "--budget", "nan"],
             coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5", "--budget", "inf"],
             coeff=None)
    @example(argv=["cost-model", "--kind", "bart", "-N", "10", "-M", "5", "--budget", "-1"],
             coeff=None)
    def test_exit_code_and_no_traceback(self, capsys, coeff_files, argv, coeff):
        if coeff is not None and argv[0] == "cost-model":
            argv = argv + ["--coeff-file", str(coeff_files / coeff)]
        try:
            code = main(argv + ["--report", "json"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out, parse_constant=_reject_non_finite)
        if code == 1:
            assert err.startswith("error: ")
        if argv[0] == "cost-model" and coeff in ("missing", "not-utf8", "directory") \
                and code != 2:
            assert code == 1 and err.startswith("error: cannot read")


@pytest.mark.parametrize("flag", ["--steps", "--batch-size", "--val-every", "--warmup",
                                  "--patience"])
def test_train_counts_below_one_are_usage_errors(capsys, corpus_path, tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        main(["train-mcs", "--input", str(corpus_path), "--output", str(tmp_path / "m.lsnt"),
              flag, "0"])
    assert exc.value.code == 2
    assert f"{flag[2:].replace('-', '_')} must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--lr-scale", "-1"), ("--lr-scale", "0"), ("--lr-scale", "nan"), ("--lr-scale", "inf"),
    ("--val-fraction", "nan"), ("--val-fraction", "-0.5"), ("--val-fraction", "1"),
])
def test_train_rates_out_of_range_are_usage_errors(capsys, corpus_path, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["train-mcs", "--input", str(corpus_path), "--output", str(tmp_path / "m.lsnt"),
              "--steps", "2", flag, value])
    assert exc.value.code == 2
    assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
    assert not (tmp_path / "m.lsnt").exists()


def test_train_flags_default_to_the_config_dataclasses():
    fields = [f for f in dataclasses.fields(mcs.McsConfig) if f.name != "vocab_size"]
    fields += dataclasses.fields(mcs.TrainSettings)
    assert len(fields) == 17
    required = ["train-mcs", "--input", "c.jsonl", "--output", "m.lsnt"]
    implicit = build_parser().parse_args(required)
    explicit = build_parser().parse_args(
        required + [x for f in fields for x in ("--" + f.name.replace("_", "-"), str(f.default))])
    for f in fields:
        assert getattr(implicit, f.name) == getattr(explicit, f.name) == f.default, f.name


_FLAG = st.integers(-1, 3).map(str)
# per subcommand: its required flags, and optional flags with values valid or not
_PARSER_COMMANDS = {
    "cost-model": ([("--kind", st.sampled_from(["bart", "lobart", "hier"]))],
                   {"-N": _FLAG, "-W": _FLAG, "--budget": _FLAG, "--grid": st.just("8:2,8:full")}),
    "select": ([("--input", st.just("c.jsonl")), ("--output", st.just("s.jsonl")),
                ("--method", st.sampled_from(["trc", "orc-pad-rand", "mcs"])), ("--budget", _FLAG)],
               {"--seed": _FLAG, "--checkpoint": st.just("m.lsnt")}),
    "analyze-attention": ([], {"-N": _FLAG, "--window": _FLAG | st.just("full"), "--seed": _FLAG}),
    "train-mcs": ([("--input", st.just("c.jsonl")), ("--output", st.just("m.lsnt"))],
                  {"--steps": _FLAG, "--dropout": st.just("0.5"), "--embed-dim": _FLAG}),
    "score": ([("--input", st.just("c.jsonl")), ("--checkpoint", st.just("m.lsnt")),
               ("--output", st.just("s.jsonl"))], {}),
    "evaluate": ([("--input", st.just("p.jsonl"))], {}),
    "make-corpus": ([("--output", st.just("c.jsonl"))], {"--docs": _FLAG, "--seed": _FLAG}),
}
_INVALID = st.sampled_from([None, "no-input", ("--window", "0"), ("--method", "bogus"),
                            ("--budget", "-1")])


def _assemble(command, required, optional, report, invalid):
    pairs = [*required, *optional.items(), ("--report", report)]
    if invalid == "no-input":
        pairs = [kv for kv in pairs if kv[0] != "--input"]
    elif invalid is not None:
        pairs.append(invalid)
    return [command, *(x for kv in pairs for x in kv)]


def _parser_argv(command):
    required, optional = _PARSER_COMMANDS[command]
    return st.tuples(
        st.tuples(*(st.tuples(st.just(name), value) for name, value in required)),
        st.fixed_dictionaries({}, optional=optional), st.sampled_from(["text", "json"]), _INVALID,
    ).map(lambda parts: _assemble(command, *parts))


class TestCachedParser:
    """``main`` builds its parser once per process; a parse leaves nothing behind for the next."""

    @staticmethod
    def parse(parser, argv):
        """``vars`` of the namespace, or the exit code and stderr of a usage error."""
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code, err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(argvs=st.lists(st.sampled_from(sorted(_PARSER_COMMANDS)).flatmap(_parser_argv),
                          min_size=1, max_size=6))
    def test_a_parse_is_the_fresh_parser_s_parse(self, argvs):
        cached = build_parser()
        for argv in argvs:
            again, fresh = self.parse(cached, argv), self.parse(build_parser.__wrapped__(), argv)
            assert build_parser() is cached
            if isinstance(fresh, dict):
                assert isinstance(again, dict), (argv, again)
                assert again.pop("func") is fresh.pop("func")
                assert again == fresh
            else:
                assert fresh[0] == 2 and again == fresh

    def test_main_builds_the_parser_once(self, capsys):
        build_parser.cache_clear()
        for _ in range(3):
            assert main(["cost-model", "--kind", "bart", "-N", "1024", "-M", "144"]) == 0
        assert capsys.readouterr().out
        assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 2)


@pytest.mark.parametrize("flag,value", [
    ("--hidden-dim", "0"), ("--hidden-dim", "5"), ("--gamma", "nan"), ("--dropout", "1"),
    ("--max-target", "-1"), ("--embed-dim", "0"), ("--gamma", "1.5"), ("--dropout", "-0.1"),
])
def test_train_model_flags_are_checked_before_the_corpus_is_read(capsys, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["train-mcs", "--input", str(tmp_path / "missing.jsonl"),
              "--output", str(tmp_path / "m.lsnt"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag[2:].replace("-", "_") in err
    assert "cannot read" not in err


def test_diverging_training_reports_only_its_error(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    write_corpus(corpus, make_synthetic_corpus(6, seed=7))
    code = main(["train-mcs", "--input", str(corpus), "--output", str(tmp_path / "m.lsnt"),
                 "--steps", "5", "--warmup", "1", "--lr-scale", "1e308"])
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: loss became nan at step ")
    assert not (tmp_path / "m.lsnt").exists()


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_select_budget_below_one_is_usage_error(capsys, corpus_path, tmp_path, budget):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--input", str(corpus_path), "--output", str(tmp_path / "s.jsonl"),
              "--method", "trc", "--budget", budget])
    assert exc.value.code == 2
    assert "argument --budget: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "s.jsonl").exists()


class TestSelect:
    def test_trc_all_fit_reproduces_documents(self, capsys, tmp_path, corpus_path):
        out = tmp_path / "sel.jsonl"
        code, _ = run(capsys, "select", "--input", str(corpus_path),
                      "--output", str(out), "--method", "trc", "--budget", "10000")
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        originals = [json.loads(line) for line in corpus_path.read_text().splitlines()]
        for rec, orig in zip(records, originals):
            assert rec["kept_indices"] == list(range(len(orig["sentences"])))

    def test_seeded_rand_padding_is_byte_identical(self, capsys, tmp_path, corpus_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code, _ = run(capsys, "select", "--input", str(corpus_path),
                          "--output", str(out), "--method", "orc-pad-rand",
                          "--budget", "12", "--seed", "11")
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.jsonl.report.json").read_bytes() == \
            (tmp_path / "b.jsonl.report.json").read_bytes()

    def test_malformed_line_reported_and_run_continues(self, capsys, tmp_path, corpus_path):
        broken = tmp_path / "broken.jsonl"
        lines = corpus_path.read_text().splitlines()
        lines.insert(1, "this is not json")
        broken.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sel.jsonl"
        code, _ = run(capsys, "select", "--input", str(broken),
                      "--output", str(out), "--method", "trc", "--budget", "20")
        assert code == 1
        report = json.loads((tmp_path / "sel.jsonl.report.json").read_text())
        assert report["failed_lines"] == 1
        assert report["errors"][0]["line"] == 2
        assert report["documents"] == len(lines) - 1
        out_lines = out.read_text().splitlines()
        assert len(out_lines) == len(lines)  # one output line per input line

    def test_mcs_requires_checkpoint(self, corpus_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["select", "--input", str(corpus_path),
                  "--output", str(tmp_path / "x.jsonl"),
                  "--method", "mcs", "--budget", "10"])
        assert exc.value.code == 2

    def test_oracle_recall_is_total_when_planted_set_fits(self, capsys, tmp_path):
        # relevant runs are 3 words over >= 2 sentences; budget 40 covers them
        path = tmp_path / "wide.jsonl"
        write_corpus(path, make_synthetic_corpus(6, seed=9, n_sentences=(4, 5),
                                                 words_per_sentence=(3, 4)))
        out = tmp_path / "sel.jsonl"
        code, report = run_json(capsys, "select", "--input", str(path),
                                "--output", str(out), "--method", "orc-no-pad",
                                "--budget", "40")
        assert code == 0
        assert report["pct_recall"] == 100.0


ORACLE_METHODS = [sel.METHOD_ORC_NO_PAD, sel.METHOD_ORC_PAD_LEAD, sel.METHOD_ORC_PAD_RAND]


class TestSelectReport:
    """The select report's oracle statistics come from one similarity pass per document."""

    @pytest.fixture()
    def mixed(self, capsys, tmp_path, corpus_path):
        examples = make_synthetic_corpus(5, seed=12, n_sentences=(3, 6),
                                         words_per_sentence=(2, 5))
        examples[1].reference = None
        examples[3].reference = ["topic01"]  # one token: no bigram, every similarity 0
        path = tmp_path / "mixed.jsonl"
        write_corpus(path, examples)
        return path, load_corpus(path), train_tiny(capsys, corpus_path, tmp_path)

    @pytest.mark.parametrize("method", ["trc", "mcs", *ORACLE_METHODS])
    def test_report_is_the_library_statistics_of_one_pass(self, capsys, tmp_path, monkeypatch,
                                                          mixed, method):
        path, examples, ckpt = mixed
        passes, sentences = [], []

        def counted_pass(candidates, reference, n):
            passes.append(len(candidates))
            return real_pass(candidates, reference, n)

        def counted_matches(candidate, ref, n):
            sentences.append(candidate)
            return real_matches(candidate, ref, n)

        real_pass, real_matches = metrics.ngram_recalls, metrics._clipped_matches
        monkeypatch.setattr(sel, "ngram_recalls", counted_pass)
        monkeypatch.setattr(metrics, "_clipped_matches", counted_matches)
        out = tmp_path / f"{method}.jsonl"
        extra = ["--checkpoint", str(ckpt)] if method == "mcs" else []
        code, report = run_json(capsys, "select", "--input", str(path), "--output", str(out),
                                "--method", method, "--budget", "9", "--seed", "2", *extra)
        monkeypatch.undo()

        referenced = [ex for ex in examples if ex.reference]
        assert passes == [ex.doc.n_sentences for ex in referenced]
        # each sentence matched once; a one-token reference has no bigram to match
        assert sentences == [s for ex in referenced if len(ex.reference) > 1
                             for s in ex.doc.sentences]
        lines = read_jsonl(out)
        assert code == (1 if method in ORACLE_METHODS else 0)  # the doc with no reference
        picked = [(ex, sel.Selection(line["kept_indices"], line["words_used"]))
                  for ex, line in zip(examples, lines) if "error" not in line and ex.reference]
        assert len(picked) == len(referenced)
        assert report["pct_aggressive_oracle"] == 100.0 * sel.aggressive_fraction(
            [ex for ex, _ in picked], 9)
        assert report["pct_recall"] == mcs.recall_rate(
            [s for _, s in picked], [ex.doc for ex, _ in picked], [ex.reference for ex, _ in picked])


class TestAnalyzeAttention:
    def test_report_structure_and_bounds(self, capsys):
        code, report = run_json(capsys, "analyze-attention", "-N", "48",
                                "--window", "9", "--seed", "1")
        assert code == 0
        n = report["n"]
        expected_uniform = (n * n - 1) / (3 * n)
        assert abs(report["uniform_reference"] - expected_uniform) < 1e-9
        for layer in report["layers"]:
            for d in layer["per_head"]:
                assert 0.0 <= d <= n - 1

    def test_checkpoint_round_trip(self, capsys, tmp_path):
        model = attention.ToySeq2Seq.init(seed=5)
        ckpt = tmp_path / "toy.lsnt"
        model.save(ckpt)
        code, report = run_json(capsys, "analyze-attention", "--checkpoint",
                                str(ckpt), "-N", "32", "--window", "full")
        assert code == 0
        assert len(report["layers"]) == model.config.enc_layers

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 24), window=st.just(attention.FULL) | st.integers(1, 50),
           layers=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_per_head_is_the_brute_force_distance_of_each_map(self, capsys, tmp_path, n,
                                                              window, layers, seed):
        """Without --checkpoint the probe model is a seeded init with max_src = N."""
        argv = ["analyze-attention", "-N", str(n), "--window", str(window), "--seed", str(seed)]
        if layers is None:
            config = attention.ToyModelConfig(window=window, max_src=n)
            model = attention.ToySeq2Seq.init(config, seed=seed)
        else:
            stored = attention.ToySeq2Seq.init(
                attention.ToyModelConfig(enc_layers=layers, max_src=24), seed=seed)
            stored.save(tmp_path / "toy.lsnt")
            argv += ["--checkpoint", str(tmp_path / "toy.lsnt")]
            model = attention.ToySeq2Seq(dataclasses.replace(stored.config, window=window),
                                         stored.params)
        code, report = run_json(capsys, *argv)
        assert code == 0
        tokens = np.random.default_rng(seed).integers(0, model.config.vocab, size=n)
        _, maps = model.encoder_forward(tokens)
        assert len(report["layers"]) == len(maps)
        for layer, attn_map in zip(report["layers"], maps):
            want = [brute_force_mean_distance(head) for head in attn_map.data]
            assert layer["per_head"] == pytest.approx(want, rel=1e-12, abs=1e-12)
            if window != attention.FULL:
                assert max(layer["per_head"]) <= window // 2 + 1e-12


class TestTrainScoreEvaluate:
    def test_train_emits_decreasing_curve(self, capsys, tmp_path, corpus_path):
        ckpt = train_tiny(capsys, corpus_path, tmp_path, steps="120")
        curve = [json.loads(line)
                 for line in (tmp_path / "model.lsnt.losses.jsonl").read_text().splitlines()]
        assert [c["step"] for c in curve] == list(range(1, len(curve) + 1))
        first = np.mean([c["train_loss"] for c in curve[:10]])
        last = np.mean([c["train_loss"] for c in curve[-10:]])
        assert last < first

    def test_score_select_roundtrip_matches_in_process(self, capsys, tmp_path, corpus_path):
        from longspan import mcs
        from longspan.corpus import load_corpus
        from longspan.selection import rank_model, select

        ckpt = train_tiny(capsys, corpus_path, tmp_path)
        scores_path = tmp_path / "scores.jsonl"
        code, _ = run(capsys, "score", "--input", str(corpus_path),
                      "--checkpoint", str(ckpt), "--output", str(scores_path))
        assert code == 0

        sel_path = tmp_path / "sel.jsonl"
        code, _ = run(capsys, "select", "--input", str(corpus_path),
                      "--output", str(sel_path), "--method", "mcs",
                      "--budget", "12", "--checkpoint", str(ckpt))
        assert code == 0

        by_doc: dict[str, list] = {}
        for line in scores_path.read_text().splitlines():
            rec = json.loads(line)
            by_doc.setdefault(rec["id"], []).append(rec)

        model = mcs.McsModel.load(ckpt)
        examples = load_corpus(corpus_path)
        selections = [json.loads(line) for line in sel_path.read_text().splitlines()]
        for ex, sel_rec in zip(examples, selections):
            dumped = sorted(by_doc[ex.doc.id], key=lambda r: r["sentence_index"])
            fused = [r["fused"] for r in dumped]
            expected_order = sorted(range(len(fused)), key=lambda i: (-fused[i], i))
            assert rank_model(ex.doc, model.fused_scores).indices == expected_order
            in_process = select(ex.doc, "model", 12, scorer=lambda d: fused)
            assert sel_rec["kept_indices"] == in_process.indices

    def test_evaluate_identity_pairs(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text(
            '\n'.join(
                json.dumps({"candidate": text, "reference": text})
                for text in ("alpha beta gamma", "one two three four")
            ) + "\n"
        )
        code, report = run_json(capsys, "evaluate", "--input", str(path))
        assert code == 0
        for key in ("r1", "r2", "rl"):
            assert report[key]["f1"] == 1.0
            assert report[key]["recall"] == 1.0

    def test_evaluate_known_pair(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text(json.dumps({"candidate": "a b c", "reference": "a b d"}) + "\n")
        code, report = run_json(capsys, "evaluate", "--input", str(path))
        assert code == 0
        assert abs(report["r2"]["recall"] - 0.5) < 1e-12


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


class TestGroupedInference:
    """score and select --method mcs score documents INFERENCE_GROUP at a time, in order."""

    @pytest.fixture()
    def setup(self, capsys, tmp_path, corpus_path):
        ckpt = train_tiny(capsys, corpus_path, tmp_path, steps="20")
        many = tmp_path / "many.jsonl"   # more than one group, past both clipping limits
        write_corpus(many, make_synthetic_corpus(INFERENCE_GROUP + 5, seed=13,
                                                 n_sentences=(2, 10), words_per_sentence=(2, 8)))
        return ckpt, many

    def select_mcs(self, capsys, src, out, ckpt):
        return run(capsys, "select", "--input", str(src), "--output", str(out),
                   "--method", "mcs", "--budget", "12", "--checkpoint", str(ckpt))[0]

    def test_select_is_the_walk_over_the_score_dump(self, capsys, tmp_path, setup):
        ckpt, many = setup
        scores, picked = tmp_path / "scores.jsonl", tmp_path / "picked.jsonl"
        assert run(capsys, "score", "--input", str(many), "--checkpoint", str(ckpt),
                   "--output", str(scores))[0] == 0
        assert self.select_mcs(capsys, many, picked, ckpt) == 0
        by_doc: dict[str, list] = {}
        for row in read_jsonl(scores):
            by_doc.setdefault(row["id"], []).append(row["fused"])
        examples = load_corpus(many)
        lines = read_jsonl(picked)
        assert len(lines) == len(examples) > INFERENCE_GROUP
        for ex, line in zip(examples, lines):
            fused = by_doc[ex.doc.id]
            assert len(fused) == ex.doc.n_sentences
            walk = select(ex.doc, "model", 12, scorer=lambda d, s=fused: s)
            assert line == walk.to_record(ex.doc)

    @pytest.mark.parametrize("bad", ["nope", '{"sentences": []}'])
    def test_malformed_line_fails_alone(self, capsys, tmp_path, setup, bad):
        ckpt, many = setup
        lines = many.read_text().splitlines()
        middle = len(lines) // 2
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:middle] + [bad] + lines[middle:]) + "\n")
        clean_out, broken_out = tmp_path / "clean.jsonl", tmp_path / "broken-out.jsonl"
        assert self.select_mcs(capsys, many, clean_out, ckpt) == 0
        assert self.select_mcs(capsys, broken, broken_out, ckpt) == 1
        out = broken_out.read_text().splitlines(keepends=True)
        error = json.loads(out.pop(middle))
        assert error["line"] == middle + 1 and error["error"].startswith(f"line {middle + 1}: ")
        assert "".join(out) == clean_out.read_text()

    def test_empty_input_gives_empty_output(self, capsys, tmp_path, setup):
        ckpt, _ = setup
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out.jsonl"
        empty.write_text("")
        assert run(capsys, "score", "--input", str(empty), "--checkpoint", str(ckpt),
                   "--output", str(out))[0] == 0
        assert out.read_bytes() == b""
        assert self.select_mcs(capsys, empty, out, ckpt) == 0
        assert out.read_bytes() == b""


def check_scores_and_selection(corpus_path, ckpt, scores_path, sel_path, budget):
    """One score row per sentence, equal to the whole document's scores alone (sentences past
    the training limits included); each select line the walk over its fused scores."""
    model = mcs.McsModel.load(ckpt)
    rows = read_jsonl(scores_path)
    examples = load_corpus(corpus_path)
    for ex, picked in zip(examples, read_jsonl(sel_path)):
        mine = [r for r in rows if r["id"] == ex.doc.id]
        assert [r["sentence_index"] for r in mine] == list(range(ex.doc.n_sentences))
        [alone] = model.inference_scores(ex.doc)
        assert np.abs([r["z_hat"] for r in mine] - alone.z_hat).max() <= 1e-12
        assert np.abs([r["attn_mass"] for r in mine] - alone.attn_mass).max() <= 1e-12
        fused = [r["fused"] for r in mine]
        assert fused == alone.fused.tolist()
        assert picked == select(ex.doc, "model", budget, scorer=lambda d: fused).to_record(ex.doc)
    assert len(rows) == sum(ex.doc.n_sentences for ex in examples)


class TestClippingContract:
    def test_readme_pipeline(self, capsys, tmp_path):
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.lsnt"
        scores, picked = tmp_path / "scores.jsonl", tmp_path / "picked.jsonl"
        assert run(capsys, "make-corpus", "--output", str(corpus), "--docs", "20",
                   "--seed", "7")[0] == 0
        code, report = run_json(
            capsys, "train-mcs", "--input", str(corpus), "--output", str(ckpt),
            "--steps", "20", "--warmup", "10", "--gamma", "0.2", "--seed", "3",
            "--embed-dim", "16", "--hidden-dim", "16", "--max-sentences", "8",
            "--max-words", "6", "--max-target", "12")
        assert code == 0 and report["steps_run"] == 20
        docs = [ex.doc.sentences for ex in load_corpus(corpus)]
        assert max(map(len, docs)) > 8
        assert report["clipped_documents"] == sum(
            len(doc) > 8 or any(len(s) > 6 for s in doc[:8]) for doc in docs)
        assert report["dropped_sentences"] == sum(max(len(doc) - 8, 0) for doc in docs)
        assert report["cut_sentences"] == sum(len(s) > 6 for doc in docs for s in doc[:8])
        assert run(capsys, "score", "--input", str(corpus), "--checkpoint", str(ckpt),
                   "--output", str(scores))[0] == 0
        code, report = run_json(capsys, "select", "--input", str(corpus),
                                "--output", str(picked), "--method", "mcs",
                                "--budget", "14", "--checkpoint", str(ckpt))
        assert code == 0 and report["failed_lines"] == 0
        check_scores_and_selection(corpus, ckpt, scores, picked, 14)

    sentence = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "eps"]),
                        min_size=1, max_size=5)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(docs=st.lists(st.lists(sentence, min_size=1, max_size=6), min_size=2, max_size=4))
    def test_documents_around_the_limits(self, capsys, docs):
        # limits of 3 sentences and 3 words: drawn documents fall on both sides of each.
        # select's %Recall needs one sentence with a reference bigram somewhere.
        docs[0] = [["alpha", "beta"]] + docs[0]
        examples = [Example(Document(sentences, id=f"d{i}"), ["alpha", "beta"])
                    for i, sentences in enumerate(docs)]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            corpus, ckpt = tmp / "corpus.jsonl", tmp / "model.lsnt"
            write_corpus(corpus, examples)
            code, report = run_json(
                capsys, "train-mcs", "--input", str(corpus), "--output", str(ckpt),
                "--steps", "2", "--warmup", "1", "--embed-dim", "4", "--hidden-dim", "4",
                "--word-layers", "1", "--sent-layers", "1", "--max-sentences", "3",
                "--max-words", "3", "--max-target", "4")
            assert code == 0 and report["steps_run"] == 2
            assert run(capsys, "score", "--input", str(corpus), "--checkpoint", str(ckpt),
                       "--output", str(tmp / "scores.jsonl"))[0] == 0
            code, report = run_json(capsys, "select", "--input", str(corpus),
                                    "--output", str(tmp / "picked.jsonl"),
                                    "--method", "mcs", "--budget", "6",
                                    "--checkpoint", str(ckpt))
            assert code == 0 and report["failed_lines"] == 0
            check_scores_and_selection(corpus, ckpt, tmp / "scores.jsonl",
                                       tmp / "picked.jsonl", 6)


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("spoil", ["config", "truncate"])
    def test_score_exits_1_without_traceback(self, capsys, tmp_path, corpus_path, spoil):
        ckpt = train_tiny(capsys, corpus_path, tmp_path, steps="2")
        if spoil == "config":
            tensors, meta = load_tensors(ckpt)
            meta["config"]["bogus"] = 1
            save_tensors(ckpt, tensors, meta)
        else:
            ckpt.write_bytes(ckpt.read_bytes()[:-3])
        code = main(["score", "--input", str(corpus_path), "--checkpoint", str(ckpt),
                     "--output", str(tmp_path / "scores.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_finite_tensor_fails_every_reader(self, capsys, tmp_path, corpus_path):
        toy = tmp_path / "toy.lsnt"
        attention.ToySeq2Seq.init(seed=5).save(toy)
        selector = train_tiny(capsys, corpus_path, tmp_path, steps="2")
        for path, name in ((toy, "enc.0.attn.wq"), (selector, "cls.w")):
            tensors, meta = load_tensors(path)
            tensors[name].flat[0] = np.nan
            save_tensors(path, tensors, meta)
        output = tmp_path / "out.jsonl"
        readers = [
            ("enc.0.attn.wq", ["analyze-attention", "--checkpoint", str(toy), "-N", "8"]),
            ("cls.w", ["score", "--input", str(corpus_path), "--checkpoint", str(selector),
                       "--output", str(output)]),
            ("cls.w", ["select", "--input", str(corpus_path), "--checkpoint", str(selector),
                       "--output", str(output), "--method", "mcs", "--budget", "6"]),
        ]
        for name, argv in readers:
            code = main(argv + ["--report", "json"])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert f"tensor {name} holds a non-finite value" in err
            assert not list(tmp_path.glob("out.jsonl*"))


FUZZ_WORDS = ["alpha", "beta", "gamma", "delta"]


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    corpus, ckpt = tmp / "corpus.jsonl", tmp / "model.lsnt"
    write_corpus(corpus, [Example(Document([FUZZ_WORDS[:2], FUZZ_WORDS[1:]]), FUZZ_WORDS[:2])])
    code = main(["train-mcs", "--input", str(corpus), "--output", str(ckpt), "--steps", "1",
                 "--embed-dim", "4", "--hidden-dim", "4", "--word-layers", "1",
                 "--sent-layers", "1", "--val-fraction", "0", "--report", "json"])
    assert code == 0
    return ckpt


class TestInputFuzz:
    """Every subcommand that reads --input ends with exit 0, 1 or 2 and no traceback."""

    words = st.lists(st.sampled_from(FUZZ_WORDS), min_size=1, max_size=4)
    text = words.map(" ".join)
    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                     max_size=3),
        max_leaves=5)
    document = st.fixed_dictionaries({"sentences": st.lists(text | words, min_size=1, max_size=4),
                                      "reference": text | words},
                                     optional={"id": st.text(max_size=3)})
    pair = st.fixed_dictionaries({"candidate": text, "reference": text})
    # a valid record with one field replaced by any JSON value
    wrong_type = st.tuples(document | pair, json_value).flatmap(
        lambda rv: st.sampled_from(sorted(rv[0])).map(lambda key: {**rv[0], key: rv[1]}))
    line = st.one_of(
        (document | pair | wrong_type).map(json.dumps),
        json_value.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
        st.sampled_from(["{", "nope", '{"sentences": [', "[1,", "{'id': 1}"]),
    )

    @staticmethod
    def argv(command, src, tmp, ckpt):
        out = ["--output", str(tmp / "out.jsonl")]
        return {
            "select": ["select", "--input", src, *out, "--method", "orc-pad-rand",
                       "--budget", "3"],
            "select-mcs": ["select", "--input", src, *out, "--method", "mcs", "--budget", "3",
                           "--checkpoint", str(ckpt)],
            "evaluate": ["evaluate", "--input", src],
            "train-mcs": ["train-mcs", "--input", src, "--output", str(tmp / "m.lsnt"),
                          "--steps", "1", "--embed-dim", "2", "--hidden-dim", "2",
                          "--word-layers", "1", "--sent-layers", "1", "--val-fraction", "0"],
            "score": ["score", "--input", src, "--checkpoint", str(ckpt), *out],
        }[command] + ["--report", "json"]

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["select", "select-mcs", "evaluate", "train-mcs", "score"]),
           lines=st.lists(line, min_size=1, max_size=4), missing=st.booleans())
    @example(command="evaluate", lines=['{"candidate": "a", "reference": "a"}', "5"],
             missing=False)
    @example(command="evaluate", lines=['{"candidate": 3, "reference": "a b"}'], missing=False)
    @example(command="select", lines=['{"sentences": ["alpha"], "reference": "beta"}'],
             missing=False)
    @example(command="train-mcs", lines=["{}"], missing=True)
    def test_exit_code_and_no_traceback(self, capsys, fuzz_checkpoint, command, lines, missing):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            src = tmp / ("absent.jsonl" if missing else "input.jsonl")
            if not missing:
                src.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                code = main(self.argv(command, str(src), tmp, fuzz_checkpoint))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            out, err = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error: ") or command.startswith("select")
        if command == "evaluate" and code == 1 and not missing:
            assert err.startswith("error: line ")
        if missing:
            assert code == 1 and err.startswith("error: cannot read")
        elif command.startswith("select"):
            # every line is selected or reported; exit 1 only for failed lines
            report = json.loads(out)
            assert report["documents"] + report["failed_lines"] == len(lines)
            assert code == (1 if report["failed_lines"] else 0)

    def test_select_without_overlap_reports_no_recall(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, [Example(Document([["alpha"], ["beta"]], id="a"), ["gamma", "delta"]),
                            Example(Document([["gamma"]], id="b"), ["alpha"])])
        code, report = run_json(capsys, "select", "--input", str(path), "--output",
                                str(tmp_path / "out.jsonl"), "--method", "orc-pad-rand",
                                "--budget", "3")
        assert code == 0 and report["documents"] == 2
        assert "pct_recall" not in report and "pct_aggressive_oracle" in report
        code, text = run(capsys, "select", "--input", str(path), "--output",
                         str(tmp_path / "out.jsonl"), "--method", "orc-pad-rand", "--budget", "3")
        assert code == 0 and "%AgORC" in text and "%Recall" not in text


class TestMakeCorpusAndReproducibility:
    def test_seeded_corpus_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code, _ = run(capsys, "make-corpus", "--output", str(path),
                          "--docs", "6", "--seed", "13")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("low, high", [("--min-sentences", "--max-sentences"),
                                           ("--min-words", "--max-words")])
    def test_inverted_or_empty_range_exits_1(self, capsys, tmp_path, low, high):
        code = main(["make-corpus", "--output", str(tmp_path / "c.jsonl"), low, "5", high, "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "1 <= min <= max" in err

    @pytest.mark.parametrize("flag", ["--docs", "--min-sentences", "--max-sentences",
                                      "--min-words", "--max-words"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_are_usage_errors(self, capsys, tmp_path, flag, value):
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["make-corpus", "--output", str(out), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_full_pipeline_byte_identical(self, capsys, tmp_path):
        def pipeline(stem: str):
            corpus = tmp_path / f"{stem}.jsonl"
            ckpt = tmp_path / f"{stem}.lsnt"
            scores = tmp_path / f"{stem}.scores.jsonl"
            sel_file = tmp_path / f"{stem}.sel.jsonl"
            run(capsys, "make-corpus", "--output", str(corpus), "--docs", "6",
                "--seed", "21", "--min-sentences", "4", "--max-sentences", "5",
                "--min-words", "3", "--max-words", "4")
            run(capsys, "train-mcs", "--input", str(corpus), "--output", str(ckpt),
                "--steps", "40", "--warmup", "10", "--lr-scale", "0.05",
                "--seed", "2", "--embed-dim", "8", "--hidden-dim", "8",
                "--word-layers", "1", "--sent-layers", "1", "--dropout", "0.1",
                "--max-sentences", "8", "--max-words", "6", "--max-target", "8",
                "--val-fraction", "0.2", "--val-every", "20")
            run(capsys, "score", "--input", str(corpus), "--checkpoint", str(ckpt),
                "--output", str(scores))
            run(capsys, "select", "--input", str(corpus), "--output", str(sel_file),
                "--method", "mcs", "--budget", "10", "--checkpoint", str(ckpt),
                "--seed", "4")
            return [p.read_bytes() for p in
                    (corpus, ckpt, scores, sel_file,
                     tmp_path / f"{stem}.lsnt.losses.jsonl",
                     tmp_path / f"{stem}.sel.jsonl.report.json")]

        assert pipeline("run1") == pipeline("run2")
