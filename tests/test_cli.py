"""Driver tests, run in-process through main(argv).

Exit code contract: 0 all checks pass, 1 semantic failure recorded in
the outputs, 2 usage or parse error.
"""

import hashlib
import json
import time

import pytest

from godellab import cli
from godellab.cli import DEFAULTS, build_parser, main, read_config, resolve_config
from godellab.numbering import Copy, Inc, Loop, clear_eval_cache, compile_loop
from godellab.oracles import clear_oracle_cache


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


def test_config_values_are_ascii_digits(tmp_path, capsys):
    # "²" and "١٢" are digits to str.isdigit; int() refuses the first and
    # reads the second as 12
    p = tmp_path / "lab.cfg"
    for value in ("²", "١٢"):
        p.write_text(f"window=5\ncap={value}\n", encoding="utf-8")
        assert run("enumerate", "0", "0", "--config", p) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {p}:2: expected <known key>=<nat>")
    p.write_text("window=05\ncap=99\n")
    assert read_config(str(p)) == {"window": 5, "cap": 99}


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


@pytest.mark.parametrize("argv,message", [
    (("enumerate", -1, 0), "error: start must be at least 0, got -1"),
    (("enumerate", 0, 1, "--window", -1), "error: window must be at least 0, got -1"),
    (("enumerate", 0, 1, "--cap", 0), "error: cap must be at least 1, got 0"),
])
def test_enumerate_refuses_bad_bounds(argv, message, capsys):
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_enumerate_window_zero_prints_one_cell(capsys):
    assert run("enumerate", 0, 1, "--window", 0) == 0
    assert capsys.readouterr().out.splitlines() == ["0\t(empty)\t0", "1\tZ 0\t0"]


def test_enumerate_listing_is_pinned(capsys):
    # the text form and the cells of indices 0..2000 at the default cap
    # 400 and window 8, held as one digest of the whole listing
    assert run("enumerate", 0, 2000) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "02f1e9733ef1cd9c3a2f147293a061fc5371e57b2ab560e3e48057e7fcd26046"


def _past(most):
    return (most + 1, f"error: size must be at most {most}, got {most + 1}: "
                      f"there are no more distinct entries to draw")


@pytest.mark.parametrize("kind,size,message", [
    ("families", -1, "error: size must be at least 0, got -1"),
    ("families", *_past(36)),
    ("bounded-monotone", *_past(93)),
    ("total-programs", *_past(1141)),
    ("lpo-mixed", *_past(1981)),
    ("literal-sequences", *_past(124444320)),
])
def test_corpus_gen_refuses_sizes_it_cannot_draw(tmp_path, capsys, kind, size,
                                                 message):
    rundir = tmp_path / "r"
    t0 = time.monotonic()
    assert run("corpus-gen", kind, "--size", size, "--out-dir", rundir) == 2
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
    assert not rundir.exists()


def test_corpus_gen_default_size_is_50_or_every_entry(tmp_path, capsys):
    def lines(kind, *size):
        out = tmp_path / f"{kind}{''.join(map(str, size))}"
        assert run("corpus-gen", kind, *size, "--out-dir", out) == 0
        return (out / f"{kind}.corpus").read_text().splitlines()

    # the families draw space holds 36 entries, lpo-mixed's 1981
    assert len(set(lines("families"))) == 36
    assert lines("families") == lines("families", "--size", 36)
    assert lines("lpo-mixed") == lines("lpo-mixed", "--size", 50)
    capsys.readouterr()
    assert run("corpus-gen", "families", "--size", 50,
               "--out-dir", tmp_path / "r") == 2
    assert capsys.readouterr().err.startswith(
        "error: size must be at most 36, got 50")


@pytest.mark.parametrize("kind", ["families", "total-programs"])
def test_corpus_gen_refuses_a_negative_window(tmp_path, capsys, kind):
    rundir = tmp_path / "r"
    assert run("corpus-gen", kind, "--size", 2, "--window", -3,
               "--out-dir", rundir) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: window must be at least 0, got -3\n"
    assert not rundir.exists()


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    assert run("enumerate", 2, 2) == 0
    assert run("enumerate", 2, 2, "--window", 3) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.splitlines() == ["2\tS 0\t1,2,3,4,5,6,7,8,9",
                                                    "2\tS 0\t1,2,3,4"]
    assert built[0].format_help() == build_parser().format_help()


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


def test_enum_total_ignores_loops_compiled_earlier(tmp_path):
    doubling = compile_loop([Loop(0, (Inc(1), Inc(1))), Copy(1, 0)])
    corpus = tmp_path / "dbl.corpus"
    corpus.write_text(f"gen index={doubling} budget=400\n")
    argv = ("learn", "--learner", "enum-total", "--corpus", corpus, "--out-dir")
    assert run(*argv, tmp_path / "before") == 0
    # a second doubling loop, whose index sorts below the standard one,
    # must not join enum-total's class
    assert compile_loop([Loop(0, (Inc(0),))]) < doubling
    assert run(*argv, tmp_path / "after") == 0
    assert (tmp_path / "before" / "summary.json").read_bytes() == \
        (tmp_path / "after" / "summary.json").read_bytes()


def test_enum_total_class_indices_are_frozen():
    # the standard loops compile to these indices in any process history
    class_ = sorted(compile_loop(stmts) for stmts in cli._STANDARD_LOOPS)
    assert class_[:-1] == [0, 1, 2, 6, 9, 55, 65]
    assert class_[-1].bit_length() == 776
    assert class_[-1] % 10**12 == 607205465204


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


@pytest.mark.parametrize("learner,key", [("amalgamation", "m"),
                                         ("bounded-min", "k")])
def test_learn_refuses_a_bound_above_index_bound(tmp_path, learner, key):
    # the learners build the universe 0..bound, so a bound of 10^9 would
    # allocate a billion-element set; only that entry fails
    corpus = tmp_path / "bound.corpus"
    corpus.write_text(f"lit tail=const:0 {key}=41\nlit tail=const:0 {key}=1\n")
    rundir = tmp_path / "run"
    t0 = time.monotonic()
    assert run("learn", "--learner", learner, "--corpus", corpus,
               "--index-bound", 40, "--out-dir", rundir) == 1
    assert time.monotonic() - t0 < 1.0
    rows = json.loads((rundir / "summary.json").read_text())["runs"]
    assert rows[0] == {"instance": f"lit tail=const:0 {key}=41",
                       "learner": learner, "converged": False,
                       "verified": False,
                       "error": f"{key}=41 is above index_bound 40"}
    assert rows[1]["verified"] is True and rows[1][key] == 1


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


def test_reduce_check_report_is_the_same_after_other_commands(tmp_path):
    # the evaluator memo and the universe tables outlive a command; what
    # learn and kolmogorov leave in them must not change a report
    gen = tmp_path / "gen"
    run("corpus-gen", "families", "--size", 4, "--seed", 4, "--out-dir", gen)
    corpus = tmp_path / "mix.corpus"
    corpus.write_text("lit tail=const:0\ngen index=2 budget=40\n")
    check = ("reduce-check", "--reduction", "ghat_g",
             "--corpus", gen / "families.corpus", "--out-dir")
    clear_eval_cache()
    clear_oracle_cache()
    assert run("learn", "--learner", "amalgamation", "--corpus", corpus,
               "--out-dir", tmp_path / "learn") == 0
    assert run("kolmogorov", "--corpus", corpus, "--out-dir", tmp_path / "kol") == 0
    assert run(*check, tmp_path / "after") == 0
    clear_eval_cache()
    clear_oracle_cache()
    assert run(*check, tmp_path / "cleared") == 0
    assert (tmp_path / "after" / "report.json").read_bytes() == \
        (tmp_path / "cleared" / "report.json").read_bytes()


def test_unknown_reduction_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.corpus"
    corpus.write_text("lit tail=const:0\n")
    assert run("reduce-check", "--reduction", "nope", "--corpus", corpus,
               "--out-dir", tmp_path / "r") == 2
    assert "unknown reduction" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the one error path: a ValueError from any command is exit 2 with
# "error: ..." on stderr, before a run directory is made


@pytest.mark.parametrize("argv", [
    ["learn", "--learner", "enum-full"],
    ["kolmogorov"],
    ["reduce-check", "--reduction", "cn_limn"],
])
def test_missing_corpus_is_a_usage_error(tmp_path, capsys, argv):
    corpus, rundir = tmp_path / "absent.corpus", tmp_path / "r"
    assert run(*argv, "--corpus", corpus, "--out-dir", rundir) == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}: ")
    assert not rundir.exists()


@pytest.mark.parametrize("argv", [
    ["enumerate", "0", "0"],
    ["learn", "--learner", "enum-full", "--corpus", "c.corpus"],
    ["kolmogorov", "--corpus", "c.corpus"],
    ["reduce-check", "--reduction", "cn_limn", "--corpus", "c.corpus"],
    ["corpus-gen", "families"],
])
def test_unreadable_config_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "c.corpus").write_text("lit tail=const:0\n")
    rundir = tmp_path / "r"
    argv = [str(tmp_path / a) if a.endswith(".corpus") else a for a in argv]
    if argv[0] != "enumerate":
        argv += ["--out-dir", rundir]
    undecodable = tmp_path / "binary.cfg"
    undecodable.write_bytes(b"\xff\xfe=1\n")
    # under a non-UTF-8 locale the bytes decode and fail to parse, which
    # names the path as "<path>:1: "
    for config in (tmp_path / "absent.cfg", undecodable):
        assert run(*argv, "--config", config) == 2
        assert capsys.readouterr().err.startswith(f"error: {config}:")
        assert not rundir.exists()


def test_family_without_which_is_a_usage_error(tmp_path, capsys):
    corpus, rundir = tmp_path / "fam.corpus", tmp_path / "r"
    corpus.write_text("gen index=0 budget=4 width=2\n")
    assert run("reduce-check", "--reduction", "ghat_g", "--corpus", corpus,
               "--out-dir", rundir) == 2
    assert capsys.readouterr().err == \
        f"error: {corpus}: ghat_g instances need which=\n"
    assert not rundir.exists()


# ---------------------------------------------------------------------------
# each command takes only the flags it reads, and its manifest lists
# exactly the files it wrote

SHARED_FLAGS = ("config", "seed", "out-dir", "index-bound", "cap", "window",
                "stability-window")
READS = {
    "enumerate": ("config", "cap", "window"),
    "learn": ("config", "out-dir", "index-bound", "cap", "window",
              "stability-window"),
    "kolmogorov": ("config", "out-dir", "index-bound", "cap", "window"),
    "reduce-check": ("config", "out-dir", "index-bound", "cap", "window"),
    "corpus-gen": ("config", "seed", "out-dir", "window"),
}
BASE_ARGV = {
    "enumerate": ["enumerate", "0", "0"],
    "learn": ["learn", "--learner", "enum-full", "--corpus", "c"],
    "kolmogorov": ["kolmogorov", "--corpus", "c"],
    "reduce-check": ["reduce-check", "--reduction", "cn_limn", "--corpus", "c"],
    "corpus-gen": ["corpus-gen", "families"],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_rejects_the_flags_it_does_not_read(command, capsys):
    for flag in SHARED_FLAGS:
        argv = BASE_ARGV[command] + [f"--{flag}", "1"]
        if flag in READS[command]:
            build_parser().parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_each_manifest_lists_exactly_the_files_written(tmp_path, capsys):
    corpus = tmp_path / "mix.corpus"
    # the second line's amalgamation run refuses, so it writes no trace
    corpus.write_text("lit tail=const:0\ngen index=9 budget=30\n")
    runs = {
        "corpus-gen": ["corpus-gen", "families", "--size", 2],
        "learn": ["learn", "--learner", "amalgamation", "--corpus", corpus],
        "kolmogorov": ["kolmogorov", "--corpus", corpus],
        "reduce-check": ["reduce-check", "--reduction", "cn_limn",
                         "--corpus", corpus],
    }
    for command, argv in runs.items():
        rundir = tmp_path / command
        run(*argv, "--out-dir", rundir)
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["command"] == command
        written = sorted(str(p) for p in rundir.iterdir()
                         if p.name != "manifest.json")
        assert sorted(manifest["outputs"]) == written
    assert sorted(p.name for p in (tmp_path / "learn").iterdir()) == [
        "manifest.json", "summary.json", "trace_0000.csv"]
