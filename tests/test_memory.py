"""Bounded process state: a lab imported again frees the old copy, and the
evaluator's and the oracles' stores keep to their caps without changing
an answer or a result byte.

The caps are patched small here, so that every store evicts; with the
shipped caps the benchmark and the tests evict nothing.
"""

import gc
import hashlib
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import weakref
from pathlib import Path

import godellab
from godellab import numbering, oracles
from godellab.cli import main
from godellab.numbering import Halted, clear_eval_cache, evaluate
from godellab.oracles import (
    OracleConfig, clear_oracle_cache, min_index, universe, verified_indices)
from godellab.spaces import Generated

ROOT = Path(__file__).resolve().parent.parent
SMALL_CAP = 64


def _fresh_lab_refs() -> list:
    """Import every godellab module afresh, fill the evaluator and oracle
    stores, and return weak references to the modules and to every
    function and class they define (each function holds its module's
    namespace)."""
    names = ["godellab"] + [f"godellab.{m.name}"
                            for m in pkgutil.iter_modules(godellab.__path__)]
    mods = [importlib.import_module(name) for name in names]
    lab = {name.rpartition(".")[2]: mod for name, mod in zip(names, mods)}
    cfg = lab["oracles"].OracleConfig(cap=40, window=3, index_bound=20)
    lab["oracles"].verified_indices(lab["spaces"].Generated(2, 40), cfg)
    lab["numbering"].compile_loop((lab["numbering"].Inc(0),))
    assert lab["numbering"]._records and lab["oracles"]._universes
    return [weakref.ref(obj) for mod in mods
            for obj in [mod, *vars(mod).values()]
            if obj is mod or getattr(obj, "__module__", None) == mod.__name__
            and (isinstance(obj, type) or callable(obj))]


def test_a_replaced_import_of_the_lab_is_collected():
    # a module-level typing.Union of lab classes once kept every copy of
    # numbering and spaces, with its `_records`, in typing's cache
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "godellab" or name.startswith("godellab.")}
    try:
        for name in saved:
            del sys.modules[name]
        refs = _fresh_lab_refs()
        assert len(refs) > 100
        for name in [n for n in sys.modules if n.startswith("godellab")]:
            del sys.modules[name]
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        assert alive == []
    finally:
        for name in [n for n in sys.modules if n.startswith("godellab")]:
            del sys.modules[name]
        sys.modules.update(saved)


# ---------------------------------------------------------------------------
# the evaluator's cap


def _store_is_consistent() -> int:
    """The number of records; checks that `_order` and the keys of
    `_records` name the same records, each under its codes and its index."""
    records = {id(rec): rec for rec in numbering._records.values()}
    assert sorted(records) == sorted(id(rec) for _, rec in numbering._order)
    for codes, rec in numbering._order:
        assert numbering._records[codes] is rec
        if rec.index is not None:
            assert numbering._records[rec.index] is rec
    return len(records)


def test_a_capped_evaluator_keeps_its_cap_and_its_outcomes(monkeypatch):
    # indices 0..400 hold EVB programs (11 is EVB 0 0 0 0) whose steps
    # reach records evicted long before; every cell must read as it does
    # uncapped, and the store must be within the cap after every call
    cells = [(i, n, cap) for cap in (400, 10**4) for i in range(401)
             for n in range(9)]
    clear_eval_cache()
    want = [evaluate(*cell) for cell in cells]
    made = _store_is_consistent()
    assert made > 4 * SMALL_CAP
    monkeypatch.setattr(numbering, "_RECORD_CAP", SMALL_CAP)
    clear_eval_cache()
    most = 0
    for cell, out in zip(cells, want):
        assert evaluate(*cell) == out, cell
        most = max(most, len(numbering._order))
    assert most == SMALL_CAP and _store_is_consistent() == SMALL_CAP
    # the Program path, one window at a time, and the emitters' records
    for i in range(300, 401):
        got = numbering.evaluate_window(numbering.decode(i), 8, 400)
        assert got == want[9 * i:9 * i + 9]
        assert _store_is_consistent() <= SMALL_CAP
    numbering.s_const(2, 1)
    numbering.precompose_affine(98, 2, 1)
    assert _store_is_consistent() <= SMALL_CAP
    clear_eval_cache()


def test_an_evicted_record_leaves_no_cycle_for_the_collector(monkeypatch):
    # the scan of test_clear_eval_cache_leaves_no_record_for_the_collector,
    # whose 62 programs run themselves on their own index and so hold their
    # own record: with the collector off, every record still allocated is
    # in the store or on a chain that a stored entry's key holds
    monkeypatch.setattr(numbering, "_RECORD_CAP", SMALL_CAP)
    gc.collect()
    gc.disable()
    try:
        clear_eval_cache()
        for i in range(2000):
            for n in (*range(17), i):
                evaluate(i, n, 400)
        stored = {rec for _, rec in numbering._order}
        reachable = stored | {r for rec in stored for key in rec.outcomes
                              if type(key) is tuple for r, _ in key[1]}
        allocated = [o for o in gc.get_objects() if type(o) is numbering._Record]
        assert len(stored) == SMALL_CAP and len(allocated) == len(reachable)
        assert set(allocated) == reachable
        clear_eval_cache()
    finally:
        gc.enable()


def test_no_record_is_evicted_while_a_run_is_open(monkeypatch):
    # the program runs 11 (EVB 0 0 0 0, which runs the empty program),
    # making records below it, then itself on its own index, which the
    # re-entrance cut answers 0; had a record made below evicted the
    # program's own, the second step would run a new record of it, which
    # is on no chain, and read more
    program = numbering.parse_program(
        "\n".join(["S 1"] * 11 + ["EVB 1 2 0 3", "EVB 0 0 0 3", "T 3 0"]))
    clear_eval_cache()
    index = numbering.index_of(program)
    want = evaluate(index, index, 20)
    assert want == Halted(0, 14)
    monkeypatch.setattr(numbering, "_RECORD_CAP", 1)
    for run in (lambda: evaluate(index, index, 20),
                lambda: evaluate(program, index, 20)):
        clear_eval_cache()
        numbering.index_of(program)
        assert run() == want
    clear_eval_cache()


def test_a_hit_evicts_nothing_and_a_new_record_trims(monkeypatch):
    clear_eval_cache()
    first = [evaluate(i, 3, 50) for i in (12, 13)]
    monkeypatch.setattr(numbering, "_RECORD_CAP", 1)
    assert [evaluate(i, 3, 50) for i in (12, 13)] == first
    assert len(numbering._order) == 2
    evaluate(14, 3, 50)
    assert [rec.index for _, rec in numbering._order] == [14]
    assert set(numbering._records) == {14, numbering.decode(14).codes}
    clear_eval_cache()


# ---------------------------------------------------------------------------
# the oracles' caps


def test_capped_oracle_stores_keep_their_caps_and_their_answers(monkeypatch):
    configs = [OracleConfig(cap=cap, window=5, index_bound=40) for cap in (30, 60, 90)]
    queries = [(Generated(i, b), cfg) for cfg in configs
               for i in (2, 3, 9, 12, 17, 55) for b in (20, 40)]

    def answers():
        got = []
        for d, cfg in queries + queries[::-1]:
            try:
                got.append((min_index(d, cfg), verified_indices(d, cfg)))
            except ValueError as err:
                got.append(str(err))
        return got

    clear_oracle_cache()
    want = answers()
    assert max(len(t.prefixes) for t in oracles._universes.values()) > 4
    monkeypatch.setattr(oracles, "_TABLE_CAP", 2)
    monkeypatch.setattr(oracles, "_QUERY_CAP", 4)
    clear_oracle_cache()
    assert answers() == want
    assert len(oracles._universes) == 2
    assert all(len(t.prefixes) <= 4 and len(t.answers) <= 4
               for t in oracles._universes.values())
    # the config slot serves only a kept table
    last_cfg, last_table = oracles._last
    assert oracles._universes[last_cfg] is last_table is universe(last_cfg)
    clear_oracle_cache()


# ---------------------------------------------------------------------------
# result files: capped and in one process, against fresh processes


def _commands(tmp_path) -> list[list[str]]:
    main(["corpus-gen", "families", "--size", "4", "--seed", "4",
          "--out-dir", str(tmp_path)])
    main(["corpus-gen", "total-programs", "--size", "8", "--seed", "1",
          "--out-dir", str(tmp_path)])
    literal = tmp_path / "lit.corpus"
    literal.write_text("lit prefix=3,1 tail=const:0\nlit tail=per:1,2\n"
                       "lit prefix=0,0,0 tail=const:1\n")
    total, fam = str(tmp_path / "total-programs.corpus"), str(tmp_path / "families.corpus")
    return [
        ["learn", "--learner", "amalgamation", "--corpus", total],
        ["learn", "--learner", "liminf", "--corpus", total],
        ["learn", "--learner", "enum-total", "--corpus", total, "--cap", "300"],
        ["kolmogorov", "--corpus", total],
        ["kolmogorov", "--corpus", total, "--cap", "40"],
        ["reduce-check", "--reduction", "ghat_g", "--corpus", fam],
        ["reduce-check", "--reduction", "kol_limn", "--corpus", total],
        ["reduce-check", "--reduction", "inf_cn", "--corpus", str(literal)],
    ]


def _results(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_capped_commands_in_one_process_write_what_fresh_processes_do(
        tmp_path, monkeypatch):
    commands = _commands(tmp_path)
    order = list(range(len(commands)))
    random.Random(35).shuffle(order)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    fresh = {}
    for k, argv in enumerate(commands):
        out = tmp_path / f"fresh{k}"
        proc = subprocess.run([sys.executable, "-m", "godellab.cli", *argv,
                               "--out-dir", str(out)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        fresh[k] = proc.returncode, _results(out)
    monkeypatch.setattr(numbering, "_RECORD_CAP", SMALL_CAP)
    monkeypatch.setattr(oracles, "_TABLE_CAP", 1)
    monkeypatch.setattr(oracles, "_QUERY_CAP", 4)
    clear_eval_cache()
    clear_oracle_cache()
    most = 0
    for k in order + order:
        out = tmp_path / f"one{k}"
        code = main([*commands[k], "--out-dir", str(out)])
        assert (code, _results(out)) == fresh[k], commands[k]
        most = max(most, len(numbering._order))
    assert most == SMALL_CAP
    clear_eval_cache()
    clear_oracle_cache()
