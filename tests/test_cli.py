"""Command surface: formats, exit codes, determinism, round-trips."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from longspan import costmodel
from longspan.checkpoint import load_tensors, save_tensors
from longspan.cli import main
from longspan.corpus import Document, Example, make_synthetic_corpus, write_corpus


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

    def test_missing_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cost-model", "--kind", "lobart", "-N", "4096", "-M", "144"])
        assert exc.value.code == 2

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
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--lr-scale", "-1"), ("--lr-scale", "0"), ("--lr-scale", "nan"), ("--lr-scale", "inf"),
    ("--val-fraction", "nan"), ("--val-fraction", "-0.5"), ("--val-fraction", "1"),
])
def test_train_rates_out_of_range_are_usage_errors(capsys, corpus_path, tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["train-mcs", "--input", str(corpus_path), "--output", str(tmp_path / "m.lsnt"),
              "--steps", "2", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
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
        from longspan import attention

        model = attention.ToySeq2Seq.init(seed=5)
        ckpt = tmp_path / "toy.lsnt"
        model.save(ckpt)
        code, report = run_json(capsys, "analyze-attention", "--checkpoint",
                                str(ckpt), "-N", "32", "--window", "full")
        assert code == 0
        assert len(report["layers"]) == model.config.enc_layers


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


def check_scores_and_selection(corpus_path, scores_path, sel_path, max_sentences):
    """One score row per sentence, clipped ones ranked last; no failed select line."""
    rows = read_jsonl(scores_path)
    docs = read_jsonl(corpus_path)
    for doc, picked in zip(docs, read_jsonl(sel_path)):
        mine = [r for r in rows if r["id"] == doc["id"]]
        assert [r["sentence_index"] for r in mine] == list(range(len(doc["sentences"])))
        fused = [r["fused"] for r in mine]
        for i in range(max_sentences, len(fused)):
            assert mine[i]["z_hat"] == mine[i]["attn_mass"] == 0.0
            assert fused[i] < min(fused[:max_sentences])
            assert fused[i] < min(fused[max_sentences:i], default=np.inf)
        assert "error" not in picked
    assert len(rows) == sum(len(doc["sentences"]) for doc in docs)


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
        assert max(len(doc["sentences"]) for doc in read_jsonl(corpus)) > 8
        assert run(capsys, "score", "--input", str(corpus), "--checkpoint", str(ckpt),
                   "--output", str(scores))[0] == 0
        code, report = run_json(capsys, "select", "--input", str(corpus),
                                "--output", str(picked), "--method", "mcs",
                                "--budget", "14", "--checkpoint", str(ckpt))
        assert code == 0 and report["failed_lines"] == 0
        check_scores_and_selection(corpus, scores, picked, 8)

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
            check_scores_and_selection(corpus, tmp / "scores.jsonl", tmp / "picked.jsonl", 3)


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
        for lo, hi in (("5", "2"), ("0", "2")):
            code = main(["make-corpus", "--output", str(tmp_path / "c.jsonl"), low, lo, high, hi])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error: ") and "1 <= min <= max" in err

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
