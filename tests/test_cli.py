"""Driver tests, run in-process through main(argv).

Exit code contract: 0 all checks pass, 1 semantic failure recorded in
the outputs, 2 usage or parse error.
"""

import json

import pytest

from godellab.cli import DEFAULTS, build_parser, main, read_config, resolve_config


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# config plumbing


def test_read_config(tmp_path):
    p = tmp_path / "lab.cfg"
    p.write_text("# comment\nindex_bound = 40\ncap=99\n\n")
    assert read_config(str(p)) == {"index_bound": 40, "cap": 99}


def test_read_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "lab.cfg"
    p.write_text("speed=11\n")
    with pytest.raises(ValueError, match="lab.cfg:1"):
        read_config(str(p))


def test_flags_override_file_which_overrides_defaults(tmp_path):
    p = tmp_path / "lab.cfg"
    p.write_text("cap=99\nwindow=5\n")
    args = build_parser().parse_args(
        ["enumerate", "0", "0", "--config", str(p), "--cap", "123"])
    values = resolve_config(args)
    assert values["cap"] == 123
    assert values["window"] == 5
    assert values["index_bound"] == DEFAULTS["index_bound"]


# ---------------------------------------------------------------------------
# commands


def test_enumerate_prints_known_rows(capsys):
    assert run("enumerate", 0, 2) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("0\t(empty)\t0,1,2")
    assert rows[1].startswith("1\tZ 0\t0,0,0")
    assert rows[2].startswith("2\tS 0\t1,2,3")


def test_enumerate_window_is_inclusive(capsys):
    assert run("enumerate", 2, 2, "--window", 3) == 0
    row = capsys.readouterr().out.strip()
    assert row == "2\tS 0\t1,2,3,4"


def test_corpus_gen_then_learn_enum(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run("corpus-gen", "total-programs", "--size", 6, "--seed", 1,
               "--out-dir", out) == 0
    corpus = out / "total-programs.corpus"
    assert corpus.exists()
    capsys.readouterr()

    rundir = tmp_path / "run"
    assert run("learn", "--learner", "enum-full", "--corpus", corpus,
               "--out-dir", rundir) == 0
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["convergence_rate"] == 1.0
    assert summary["verification_rate"] == 1.0
    assert (rundir / "trace_0000.csv").read_text().startswith(
        "step,guess,mind_change_flag")
    manifest = json.loads((rundir / "manifest.json").read_text())
    assert manifest["command"] == "learn"
    assert manifest["inputs"] == [str(corpus)]


def test_learn_enum_total_seeds_the_loop_library(tmp_path):
    gen = tmp_path / "gen"
    run("corpus-gen", "total-programs", "--size", 8, "--seed", 2,
        "--out-dir", gen)
    rundir = tmp_path / "run"
    assert run("learn", "--learner", "enum-total",
               "--corpus", gen / "total-programs.corpus",
               "--out-dir", rundir) == 0
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["convergence_rate"] == 1.0
    assert summary["verification_rate"] == 1.0


def test_learn_is_reproducible(tmp_path):
    gen = tmp_path / "gen"
    run("corpus-gen", "total-programs", "--size", 5, "--seed", 3,
        "--out-dir", gen)
    corpus = gen / "total-programs.corpus"
    a, b = tmp_path / "a", tmp_path / "b"
    for rundir in (a, b):
        run("learn", "--learner", "enum-full", "--corpus", corpus,
            "--out-dir", rundir)
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "trace_0002.csv").read_bytes() == (b / "trace_0002.csv").read_bytes()


def test_learn_records_per_instance_failures_and_continues(tmp_path):
    corpus = tmp_path / "mix.corpus"
    # add-two's least index is 9; its surviving pocket dovetails past the
    # emission ceiling, which must become a row, not a crash
    corpus.write_text("lit tail=const:0\ngen index=9 budget=30\n")
    rundir = tmp_path / "run"
    assert run("learn", "--learner", "amalgamation", "--corpus", corpus,
               "--out-dir", rundir) == 1
    rows = json.loads((rundir / "summary.json").read_text())["runs"]
    assert rows[0]["verified"] is True and rows[0]["m"] == 1
    assert rows[1]["verified"] is False and "error" in rows[1]


def test_malformed_corpus_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "bad.corpus"
    corpus.write_text("lit tail=const:0\nwhat even is this\n")
    assert run("learn", "--learner", "enum-full", "--corpus", corpus,
               "--out-dir", tmp_path / "r") == 2
    assert "line 2" in capsys.readouterr().err


def test_kolmogorov_table(tmp_path, capsys):
    corpus = tmp_path / "k.corpus"
    corpus.write_text("lit tail=const:0\ngen index=0 budget=4\n")
    rundir = tmp_path / "run"
    assert run("kolmogorov", "--corpus", corpus, "--out-dir", rundir) == 0
    rows = (rundir / "kolmogorov.csv").read_text().strip().splitlines()
    assert rows[0] == "instance,min_index,verified"
    assert rows[1] == "lit tail=const:0,1,True"
    assert rows[2] == "gen index=0 budget=4,0,True"


def test_reduce_check_pass_and_mutant(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("corpus-gen", "literal-sequences", "--size", 5, "--seed", 9,
        "--out-dir", gen)
    corpus = gen / "literal-sequences.corpus"
    good = tmp_path / "good"
    assert run("reduce-check", "--reduction", "cn_limn", "--corpus", corpus,
               "--out-dir", good) == 0
    report = json.loads((good / "report.json").read_text())
    assert report["pass"] is True
    assert all(not inst["witnesses"] for inst in report["instances"])

    bad = tmp_path / "bad"
    assert run("reduce-check", "--reduction", "cn_limn", "--corpus", corpus,
               "--mutant", "constant_h", "--out-dir", bad) == 1
    report = json.loads((bad / "report.json").read_text())
    assert report["pass"] is False
    assert any(inst["witnesses"] for inst in report["instances"])


def test_reduce_check_families(tmp_path, capsys):
    gen = tmp_path / "gen"
    run("corpus-gen", "families", "--size", 4, "--seed", 4, "--out-dir", gen)
    rundir = tmp_path / "run"
    assert run("reduce-check", "--reduction", "gstar_g",
               "--corpus", gen / "families.corpus", "--out-dir", rundir) == 0


def test_unknown_reduction_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.corpus"
    corpus.write_text("lit tail=const:0\n")
    assert run("reduce-check", "--reduction", "nope", "--corpus", corpus,
               "--out-dir", tmp_path / "r") == 2
    assert "unknown reduction" in capsys.readouterr().err
