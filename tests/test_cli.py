"""Driver tests, run in-process through main(argv).

Exit code contract: 0 all checks pass, 1 semantic failure recorded in
the outputs, 2 usage or parse error, or an output that cannot be written.
"""

import hashlib
import json
import pathlib
import runpy
import time

import pytest

from godellab import cli, numbering
from godellab.cli import (
    DEFAULTS, build_parser, main, problem_config, read_config, resolve_config)
from godellab.corpus import (
    CORPUS_KINDS, CorpusEntry, parse_corpus_line, write_corpus)
from godellab.numbering import Copy, Inc, Loop, clear_eval_cache, compile_loop
from godellab.oracles import clear_oracle_cache
from godellab.reductions import MUTATION_MODES, reduction_registry
from godellab.spaces import Generated, descriptor_get


def run(*argv):
    return main([str(a) for a in argv])


def _script(name):
    """The globals of scripts/<name>, loaded without running its cli()."""
    return runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent
                              / "scripts" / name))


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


def test_enumerate_decodes_each_index_once(monkeypatch, capsys):
    # indices 0..10 hold no EVB; each runs as the program decoded for its
    # text column, under a record keyed by its codes alone
    calls = []
    real = numbering.decode_list

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(numbering, "decode_list", counting)
    clear_eval_cache()
    assert run("enumerate", 0, 10) == 0
    assert sorted(calls) == list(range(11))
    assert all(type(key) is tuple for key in numbering._records)
    clear_eval_cache()


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


_DOUBLING = compile_loop([Loop(0, (Inc(1), Inc(1))), Copy(1, 0)])

# entries whose window values, m and k repeat: `learn` runs each
# distinct (values, m, k) once, and every entry must still read as if it
# had been learned alone
REPEATS = (
    # budget variants of constant 0, and literal paddings of the same
    "gen index=1 budget=3", "gen index=1 budget=90",
    "lit tail=const:0", "lit prefix=0,0,0 tail=const:0",
    # budget variants of successor
    "gen index=2 budget=3", "gen index=2 budget=77",
    # constant 0 under other bounds, the last two above index_bound 40
    "lit tail=const:0 m=1 k=1", "lit prefix=0 tail=const:0 m=3 k=3",
    "lit tail=const:0 m=41 k=41", "gen index=1 budget=5 m=41 k=41",
    # the doubling loop, partial from position 4 at both budgets
    f"gen index={_DOUBLING} budget=20", f"gen index={_DOUBLING} budget=23",
    # add two, whose pocket and set dovetail past the emission ceiling
    "gen index=9 budget=30", "gen index=9 budget=31",
)


def _window_key(e, window=8):
    """(window values before the first partial position, m, k) of an entry."""
    values = []
    for n in range(window + 1):
        v = descriptor_get(e.descriptor, n)
        if v is None:
            break
        values.append(v)
    return tuple(values), e.m, e.k


def _learn_files(corpus, rundir, learner):
    """A cold `learn` run: its summary rows and every trace file's bytes."""
    clear_eval_cache()
    clear_oracle_cache()
    run("learn", "--learner", learner, "--corpus", corpus,
        "--index-bound", 40, "--out-dir", rundir)
    rows = json.loads((rundir / "summary.json").read_text())["runs"]
    traces = {p.name: p.read_bytes() for p in rundir.glob("trace_*.csv")}
    return rows, traces


@pytest.mark.parametrize("learner", cli.LEARNERS)
def test_learn_runs_each_window_key_once_and_matches_lone_runs(
        tmp_path, monkeypatch, learner):
    keys = [_window_key(parse_corpus_line(line)) for line in REPEATS]
    assert len(set(keys)) == 7 < len(keys)
    learned = []
    learn_one = cli._learn_one

    def spy(d, m, k, *rest):
        learned.append(_window_key(CorpusEntry(d, m, k)))
        return learn_one(d, m, k, *rest)

    monkeypatch.setattr(cli, "_learn_one", spy)
    corpus = tmp_path / "repeats.corpus"
    corpus.write_text("".join(line + "\n" for line in REPEATS))
    rows, traces = _learn_files(corpus, tmp_path / "all", learner)
    # one learner run per distinct key, none twice
    assert len(learned) == 7 and set(learned) == set(keys)

    lone_traces = {}
    for idx, line in enumerate(REPEATS):
        lone = tmp_path / f"lone{idx}.corpus"
        lone.write_text(line + "\n")
        [row], trace = _learn_files(lone, tmp_path / f"lone{idx}", learner)
        assert rows[idx] == row, line
        if trace:
            lone_traces[f"trace_{idx:04d}.csv"] = trace["trace_0000.csv"]
    assert traces == lone_traces
    assert len(traces) > 0


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


def test_kolmogorov_writes_a_partial_row_and_goes_on(tmp_path, capsys):
    # index 7 (J 0 0 0) never halts, so the second entry is partial at
    # position 0 under its own budget, whatever the cap
    corpus = tmp_path / "k.corpus"
    corpus.write_text("gen index=0 budget=5\ngen index=7 budget=5\n")
    rundir = tmp_path / "run"
    assert run("kolmogorov", "--corpus", corpus, "--out-dir", rundir) == 1
    assert (rundir / "kolmogorov.csv").read_text() == (
        "instance,min_index,verified\n"
        "gen index=0 budget=5,0,True\n"
        "gen index=7 budget=5,PARTIAL,False\n")


def test_kolmogorov_caps_reads_a_partial_row_at_both_caps(tmp_path, monkeypatch,
                                                         capsys):
    monkeypatch.setitem(CORPUS_KINDS, "total-programs", lambda *_: [
        CorpusEntry(Generated(0, 5)), CorpusEntry(Generated(7, 5))])
    compare = _script("kolmogorov_caps.py")["compare"]
    assert compare("total-programs", 2, 0, (2, 400), tmp_path) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "gen", "index=7", "budget=5", "PARTIAL", "PARTIAL"]


def test_kolmogorov_caps_stops_on_a_usage_error(tmp_path, capsys):
    compare = _script("kolmogorov_caps.py")["compare"]
    # cap 0 is refused before any table is written
    assert compare("total-programs", 2, 0, (0, 400), tmp_path) == 2
    assert not (tmp_path / "cap0" / "kolmogorov.csv").exists()
    assert not (tmp_path / "cap400").exists()


def test_learning_sweep_stops_on_a_usage_error(tmp_path, capsys):
    run_sweep = _script("learning_sweep.py")["run_sweep"]
    # the first learner's run directory is a file, which learn refuses
    # before it writes a summary
    (tmp_path / "enum_full").write_text("")
    assert run_sweep("literal-sequences", 1, 1, tmp_path) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "exit=" not in out
    assert not (tmp_path / "enum_total").exists()


def test_learning_sweep_digests_a_learner_with_no_finished_row(tmp_path, capsys):
    # the one literal of this corpus has no index inside the universe, so
    # both promise learners write only failure rows and no mean
    run_sweep = _script("learning_sweep.py")["run_sweep"]
    assert run_sweep("literal-sequences", 1, 1, tmp_path) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(cli.LEARNERS)
    assert [row[-1] for row in rows if row[0] in ("amalgamation", "bounded-min")] == [
        "mind_changes=-", "mind_changes=-"]


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


# sha256 of report.json for the mutation modes the catalog does not
# declare on the component reductions, over `corpus-gen families --size 4
# --seed 4`; each exits 1.  The catalog declares feed_zero and drop_k for
# these two, and CATALOG_REPORTS pins those on the same corpus, so this
# runs the other three: offset_h adds 1 to a composed index
# (`"outer": "#bits=214"` is its first witness on ghat_g)
COMPONENT_MUTANT_REPORTS = {
    ("ghat_g", "constant_h"): "a64b60481c19bb2fb7d4928f6700cff50d1a9abe0c79c071ce8b313099f324de",
    ("ghat_g", "offset_h"): "75ea9d3a8b0536ca5002514d85538cece57513bda9d117de99f85f217b060696",
    ("ghat_g", "collapse_k"): "a24bdb32262fa4c694c4606a9a36f888259287d79ed52c315309a3cd0df82b29",
    ("gstar_g", "constant_h"): "0aa8a14d1b38296c20a6f0976b2f0a8962d2571c8e005fbeab7966ab1cc78129",
    ("gstar_g", "offset_h"): "8a7bc5784d87f22136686b5b275b5760112eba435273c7deb51412e14d970e7c",
    ("gstar_g", "collapse_k"): "6ac57e11c3c6719232bf6350c15b6e209d7908c9e954769ff92b9e1c95b5b59a",
}


def test_every_mutant_of_the_component_reductions_is_pinned(tmp_path):
    gen = tmp_path / "gen"
    run("corpus-gen", "families", "--size", 4, "--seed", 4, "--out-dir", gen)
    # with the catalog's table, every mode of both reductions is pinned
    assert set(COMPONENT_MUTANT_REPORTS) | set(CATALOG_REPORTS) >= {
        (name, mode) for name in ("ghat_g", "gstar_g") for mode in MUTATION_MODES}
    for (name, mode), digest in COMPONENT_MUTANT_REPORTS.items():
        out = tmp_path / name / mode
        assert run("reduce-check", "--reduction", name, "--mutant", mode,
                   "--corpus", gen / "families.corpus", "--out-dir", out) == 1
        report = (out / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest, (name, mode)
    report = (tmp_path / "ghat_g" / "offset_h" / "report.json").read_text()
    assert '"outer": "#bits=214"' in report


# sha256 of report.json for every catalog reduction's base run and its
# declared mutants, over the corpora `scripts/reduction_audit.py` builds
# at its default seed 19, each reduction on the corpus the script assigns
# it; the family corpus is `corpus-gen families --size 4 --seed 4`.
# Every base exits 0 and every mutant 1
CATALOG_REPORTS = {
    ("b_kolgeq", "base"): "7d08c73b0d1805a9e2e98fce6143d6b33dfaa3b3975cec44652d2b471ce269e9",
    ("b_kolgeq", "constant_h"): "b359a8189696825de5219c0b8092e7be649324b17c14ff3ea4ac67bd029e18b1",
    ("b_kolgeq", "collapse_k"): "f4d00fdb8ce68aab3b8dfa61376fab9fe57d55139d3e1faa292b4199a2d92afa",
    ("cn_limn", "base"): "bc89d36053a9a5c2f6d5ec957f61a9ae2dce2064ed1505924b3ac7b8226c8eb4",
    ("cn_limn", "constant_h"): "55dd13f2facaf22e3e72e79a36edb425b415a964478385502ac07564f4831ba1",
    ("cn_limn", "offset_h"): "57c7d66edeeca6d520c71b5aaa408d33ffe40016669594ff3331c18957f7448b",
    ("ghat_g", "base"): "7921e2779f17e3e1a8b1de4c9650ac5114d6fa9789ac93a00f534aa5bd44aeb8",
    ("ghat_g", "feed_zero"): "c322ee3fcbb1625bd107ad4247df56d90de23a50dc7aaa59d8f84c4ef8b5fb59",
    ("ghat_g", "drop_k"): "15b8a6745cb37b97637fb580ed2f6c1db3340e1343e62bd21a41ef24f51aa5c2",
    ("gstar_g", "base"): "00fb538a9d579135501baf9582fe23a3b1275bdbf84fe5915b70d6d70968e4ae",
    ("gstar_g", "feed_zero"): "ecc2ae20e9cca5b54051d09d2a381ad22a69b658877d9bb65f4b6ad355ff4044",
    ("gstar_g", "drop_k"): "7287cb024698df70dff538895996689b92b682ae21e1494659c10bfcdd00c02a",
    ("inf_cn", "base"): "4121c1b9c586408e0c58dcca18996d3db3fbf679bbaeb9b5b1d01c848bdae80b",
    ("inf_cn", "constant_h"): "322007a63c1ce1296f7758110f9e2f43ba1c4b03583c2d5056deb9e8bf4efce9",
    ("inf_cn", "offset_h"): "c97caff11aa29affdaf94dec72e98ef2b08de439da82b19fd72864697a6f2844",
    ("kol_limn", "base"): "410af93c4ec5c36ddecdf8311dbde0ef2f752503d9cdbc9d6f641c909338b36c",
    ("kol_limn", "constant_h"): "26c1d2407370322290414c5cb096b4040301fbbd6ed85aaa61ffab5a6f7c1d18",
    ("kol_limn", "offset_h"): "b08328a3f8d6e476210375deda349f8807143f2bbbcc4498054e5d644aefde10",
    ("kolgeq_b", "base"): "7312360b75f7b2ec1760e479c9063baabc31613999e24d238ea8f526db290345",
    ("kolgeq_b", "constant_h"): "bcae26bf8bcbb4e6c2ef302caff2a308fc019ca04453fadc5fa635dfe30e6f4e",
    ("kolgeq_b", "collapse_k"): "a331cb5cd40903b90de8e35ab8517c636839b92ae433dab42f09d180f61907f5",
    ("liminf_minhat", "base"): "58201a2fda9e5a58cac627aabbd8a2142ecf4498b52f3290a47bf36d162880e5",
    ("liminf_minhat", "constant_h"): "f01dfa5b24a46e93b6affcc29a7d599331a3fa60459b71578d430d3a41bde893",
    ("liminf_minhat", "offset_h"): "2c07ddc206cf4d5f180ed6d3592c8abd155d3b250bae5e522691a09b0a0598c7",
    ("limn_cn", "base"): "5fe95735f58e85fe262ef1d359e8535ffef2b7b25c189a99ddf37f9994594009",
    ("limn_cn", "constant_h"): "7c27c2c00f84fd3eff6b9e979751698cc397df5ee2bb18052ce7e24e22facd77",
    ("limn_cn", "offset_h"): "f5ccb05da3521bf65a00ac608682f94ef21dbb1508d1aaada49b464770ee6291",
    ("limn_g", "base"): "f13d6750ce6d551853d82595e6d11f59b9c2fd8a863cb3c90ce84735ce9eaf47",
    ("limn_g", "constant_h"): "33f223a6caefe090ebd50b56818eecbb2fdd310e29b63ba2fc77698dc9b8ff24",
    ("limn_g", "offset_h"): "0ef94a47ff7fc039408b540592426f125cb53e4da72d209f0288490f0bdac2d5",
    ("lpo_kol", "base"): "c7adb0928f76458f1e9d875944a3b5a847243bd07fdffca94dd6581e9fe2f9db",
    ("lpo_kol", "constant_h"): "a8cf8a0057f87217b73bfbe939307fa6d4252cbc72fdbf770197ffffdb6d08ce",
    ("lpo_kol", "drop_k"): "99aec373efcb33ddaa468e5c494a53c87abf14ddbd7f8664e2bb7ef90e634a28",
}


def test_every_catalog_reduction_and_declared_mutant_is_pinned(tmp_path):
    audit = _script("reduction_audit.py")
    run("corpus-gen", "families", "--size", 4, "--seed", 4, "--out-dir", tmp_path)
    paths = {"fam": tmp_path / "families.corpus"}
    for key, entries in audit["corpora"](19).items():
        if key != "fam":
            paths[key] = tmp_path / f"{key}.corpus"
            write_corpus(paths[key], entries)
    registry = reduction_registry(problem_config(DEFAULTS))
    assert set(CATALOG_REPORTS) == {
        (name, mode) for name, case in registry.items()
        for mode in ("base",) + case.mutant_modes}
    for (name, mode), digest in CATALOG_REPORTS.items():
        out = tmp_path / name / mode
        argv = ["reduce-check", "--reduction", name,
                "--corpus", paths[audit["CORPUS_FOR"][name]], "--out-dir", out]
        if mode != "base":
            argv += ["--mutant", mode]
        assert run(*argv) == (0 if mode == "base" else 1), (name, mode)
        report = (out / "report.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == digest, (name, mode)


# sha256 of each result file of the promise learners over
# `corpus-gen total-programs --size 8 --seed 1`: six entries each verify
# their dovetailer, and the two whose pocket or set overruns the emission
# ceiling (entries 3 and 7) become failure rows with no trace, so each
# run exits 1
PROMISE_LEARNER_FILES = {
    "amalgamation": {
        "summary.json": "6feed453c5b698e2ad1d54ebbf34ae30d05a83678a9f477d23d158ef4abb869f",
        "trace_0000.csv": "3aef8f6feac5e0379ef6947df1388ca10593c2e18aade31e2e853d3096c13d96",
        "trace_0001.csv": "ae2e64c0ac18f2651a9d4e725b8d920b91d4d65fa66e12cca112c9af09cd5b7a",
        "trace_0002.csv": "deb3bd2cac278adefd3add782c419e84ca84808d4dae862850d9d0a69dbb4d3a",
        "trace_0004.csv": "6d646ee83ec1ef72e3654eacd3ddea99eb584fcc7247e469c8813b3cccbd5f90",
        "trace_0005.csv": "6d646ee83ec1ef72e3654eacd3ddea99eb584fcc7247e469c8813b3cccbd5f90",
        "trace_0006.csv": "deb3bd2cac278adefd3add782c419e84ca84808d4dae862850d9d0a69dbb4d3a",
    },
    "bounded-min": {
        "summary.json": "eb8f37f2966a157eb04f0b5c961918f4f4d4a54149294bef290c62a515c00422",
        "trace_0000.csv": "809d8f17494e7fc86c7fddbb018c40edcd4ddc6e7e9a5a8aa7012bbfe5c626fb",
        "trace_0001.csv": "443420d5266f72e6b479c1665b8ae5fc3775b5a76b3537b768d6efdfcbf1d417",
        "trace_0002.csv": "90ac5de01eaaecbd2b4697386a79cdb0f4de9462f944c0d3a3a8bd1d6c7bfd7d",
        "trace_0004.csv": "7792e93c727e26cd20dd68a29ba4b0c0d6b43f611d295b78d6eedb652e18586a",
        "trace_0005.csv": "7792e93c727e26cd20dd68a29ba4b0c0d6b43f611d295b78d6eedb652e18586a",
        "trace_0006.csv": "90ac5de01eaaecbd2b4697386a79cdb0f4de9462f944c0d3a3a8bd1d6c7bfd7d",
    },
}


def test_the_promise_learners_result_files_are_pinned(tmp_path):
    gen = tmp_path / "gen"
    run("corpus-gen", "total-programs", "--size", 8, "--seed", 1, "--out-dir", gen)
    for learner, digests in PROMISE_LEARNER_FILES.items():
        out = tmp_path / learner
        assert run("learn", "--learner", learner, "--corpus",
                   gen / "total-programs.corpus", "--out-dir", out) == 1
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert written == set(digests), learner
        for name, digest in digests.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest, (learner, name)


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


@pytest.mark.parametrize("argv", [
    ["corpus-gen", "families", "--size", "3"],
    ["kolmogorov", "--corpus", "c.corpus"],
])
def test_an_unwritable_out_dir_is_a_usage_error(tmp_path, capsys, argv):
    # an --out-dir under a regular file cannot be made: no traceback and
    # no exit 1, which is kept for a semantic failure
    (tmp_path / "c.corpus").write_text("lit tail=const:0\n")
    argv = [str(tmp_path / a) if a.endswith(".corpus") else a for a in argv]
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(*argv, "--out-dir", blocker / "r") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "r") in err
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


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


# ---------------------------------------------------------------------------
# result writes: whole or not at all, and a file that already holds the
# command's bytes is left as it is


def _files(rundir):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in rundir.iterdir()}


def test_a_rerun_leaves_identical_result_files_untouched(tmp_path):
    corpus = tmp_path / "mix.corpus"
    corpus.write_text("lit tail=const:0\ngen index=2 budget=9\n")
    runs = {
        "corpus-gen": ["corpus-gen", "families", "--size", 2],
        "learn": ["learn", "--learner", "enum-full", "--corpus", corpus],
        "kolmogorov": ["kolmogorov", "--corpus", corpus],
        "reduce-check": ["reduce-check", "--reduction", "cn_limn",
                         "--corpus", corpus],
    }
    for command, argv in runs.items():
        rundir = tmp_path / command
        code = run(*argv, "--out-dir", rundir)
        before = _files(rundir)
        assert run(*argv, "--out-dir", rundir) == code
        after = _files(rundir)
        # os.replace gives the manifest a new inode; a kept file keeps its own
        assert before.pop("manifest.json")[0] != after.pop("manifest.json")[0]
        assert after == before and before, command
        manifest = json.loads((rundir / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == sorted(str(rundir / name)
                                                     for name in before)


# what a result path may hold that is not the command's bytes
STALE = {
    "prefix": lambda good: good[:len(good) // 2],
    "longer": lambda good: good + b"lit tail=const:1,1,True\n",
    "crlf": lambda good: good.replace(b"\n", b"\r\n"),
    "undecodable": lambda good: b"\xff\xfe" + good[2:],
    "empty": lambda good: b"",
}


@pytest.mark.parametrize("stale", sorted(STALE))
def test_a_result_file_holding_other_bytes_is_replaced(tmp_path, stale):
    corpus = tmp_path / "k.corpus"
    corpus.write_text("lit tail=const:0\ngen index=0 budget=4\n")
    argv = ["kolmogorov", "--corpus", corpus]
    assert run(*argv, "--out-dir", tmp_path / "fresh") == 0
    good = (tmp_path / "fresh" / "kolmogorov.csv").read_bytes()
    table = tmp_path / "run" / "kolmogorov.csv"
    table.parent.mkdir()
    table.write_bytes(STALE[stale](good))
    inode = table.stat().st_ino
    assert run(*argv, "--out-dir", table.parent) == 0
    assert table.read_bytes() == good and table.stat().st_ino != inode
    assert sorted(p.name for p in table.parent.iterdir()) == [
        "kolmogorov.csv", "manifest.json"]


def test_a_directory_at_a_result_path_is_a_usage_error(tmp_path, capsys):
    corpus = tmp_path / "k.corpus"
    corpus.write_text("lit tail=const:0\n")
    rundir = tmp_path / "run"
    (rundir / "kolmogorov.csv").mkdir(parents=True)
    assert run("kolmogorov", "--corpus", corpus, "--out-dir", rundir) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # no temporary file is left beside it
    assert [p.name for p in rundir.iterdir()] == ["kolmogorov.csv"]
