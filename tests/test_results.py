"""Result bytes, pinned: every file the three scripts write but the
manifests, with their exit codes and stdout, the `corpus-gen` matrix and
the `enumerate 0 20000` listing, by sha256 against `result_digests.json`.

Each check runs cold, from cleared evaluator and oracle stores, and then
warm in the same process, which must write the same bytes; the scripts
run once more with the evaluator's cap patched small, so that the store
is emptied under the pins.
"""

import hashlib
import io
import json
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from godellab import numbering
from godellab.cli import main
from godellab.corpus import CORPUS_KINDS
from godellab.numbering import clear_eval_cache
from godellab.oracles import clear_oracle_cache

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads(Path(__file__).with_name("result_digests.json").read_text())
SCRIPTS = ("kolmogorov_caps.py", "learning_sweep.py", "reduction_audit.py")
WINDOWS = (0, 3, 8)
# stands for the run directory in a script's stdout
RUN_DIR = "<run-dir>"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(call) -> tuple[object, str]:
    with redirect_stdout(io.StringIO()) as out:
        value = call()
    return value, out.getvalue()


def _script_result(name: str, out: Path) -> dict:
    """Exit code, stdout digest and file digests of scripts/<name> run
    in-process with --out-dir `out` and its other flags at their
    defaults."""
    cli = runpy.run_path(str(ROOT / "scripts" / name))["cli"]
    argv, sys.argv = sys.argv, [name, "--out-dir", str(out)]
    try:
        code, text = _stdout(cli)
    finally:
        sys.argv = argv
    files = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
             for p in sorted(out.rglob("*"))
             if p.is_file() and p.name != "manifest.json"}
    return {"exit": code, "stdout": _sha256(text.replace(str(out), RUN_DIR).encode()),
            "files": files}


def _corpus_gen_results(out: Path) -> dict:
    """kind/window -> [exit code, corpus digest] over five kinds at
    windows 0, 3 and 8, size 30 and seed 3."""
    got = {}
    for kind in sorted(CORPUS_KINDS):
        for window in WINDOWS:
            rdir = out / f"{kind}-{window}"
            code, _ = _stdout(lambda: main(
                ["corpus-gen", kind, "--size", "30", "--seed", "3",
                 "--window", str(window), "--out-dir", str(rdir)]))
            corpus = rdir / f"{kind}.corpus"
            got[f"{kind}/{window}"] = [code, _sha256(corpus.read_bytes())]
    return got


def _enumerate_result() -> list:
    code, text = _stdout(lambda: main(["enumerate", "0", "20000"]))
    return [code, _sha256(text.encode())]


def _cold_then_warm(check) -> None:
    clear_eval_cache()
    clear_oracle_cache()
    check("cold")
    check("warm")


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_results_are_pinned(name, tmp_path, monkeypatch):
    def check(run):
        assert _script_result(name, tmp_path / run) == DIGESTS["scripts"][name], run

    _cold_then_warm(check)
    # a capped store is emptied between runs, never changing a byte
    emptied = []
    monkeypatch.setattr(numbering, "clear_eval_cache",
                        lambda: emptied.append(1) or clear_eval_cache())
    monkeypatch.setattr(numbering, "_KEY_CAP", 64)
    clear_eval_cache()
    clear_oracle_cache()
    check("capped")
    assert emptied
    clear_eval_cache()


def test_corpus_gen_matrix_is_pinned(tmp_path):
    def check(run):
        assert _corpus_gen_results(tmp_path / run) == DIGESTS["corpus_gen"], run

    _cold_then_warm(check)


def test_enumerate_listing_to_20000_is_pinned():
    def check(run):
        assert _enumerate_result() == DIGESTS["enumerate 0 20000"], run

    _cold_then_warm(check)
    clear_eval_cache()
