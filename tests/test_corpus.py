"""Corpus file grammar and generator contracts."""

import runpy
import time
from pathlib import Path

import pytest

from godellab.corpus import (
    CORPUS_KINDS,
    CorpusEntry,
    format_entry,
    gen_bounded_monotone,
    gen_families,
    gen_lpo_mixed,
    gen_total_programs,
    parse_corpus_line,
    read_corpus,
    to_reduction_instance,
    write_corpus,
)
from godellab.oracles import OracleConfig, min_index
from godellab.spaces import (
    Constant,
    Generated,
    Literal,
    descriptor_get,
    literal_is_zero,
)

ORACLE = OracleConfig(cap=400, window=8, index_bound=120)


def test_entry_round_trip():
    e = CorpusEntry(Literal((0, 1), Constant(2)), m=3)
    assert format_entry(e) == "lit prefix=0,1 tail=const:2 m=3"
    assert parse_corpus_line(format_entry(e)) == e
    e = CorpusEntry(Generated(55, 400), width=2, which=1)
    assert parse_corpus_line(format_entry(e)) == e


def test_annotations_are_validated():
    with pytest.raises(ValueError):
        parse_corpus_line("lit tail=const:0 m=1 m=2")
    with pytest.raises(ValueError):
        parse_corpus_line("lit tail=const:0 k=minus")
    with pytest.raises(ValueError):
        parse_corpus_line("lit tail=const:0 frobnicate=1")


def test_annotations_are_ascii_digits():
    for value in ("²", "١"):
        with pytest.raises(ValueError, match="line 2: annotation m= needs a natural"):
            read_corpus(["lit tail=const:0 m=1", f"lit tail=const:0 m={value}"])
    assert parse_corpus_line("lit tail=const:0 m=01").m == 1


def test_read_corpus_skips_noise_and_names_bad_lines():
    lines = ["# header", "", "lit tail=const:0", "gen index=2 budget=9 which=0"]
    entries = read_corpus(lines)
    assert len(entries) == 2
    assert entries[1].which == 0
    with pytest.raises(ValueError, match="line 3"):
        read_corpus(["lit tail=const:0", "", "lit tail="])


def test_write_then_read(tmp_path):
    entries = gen_lpo_mixed(6, seed=3)
    path = tmp_path / "x.corpus"
    write_corpus(path, entries)
    assert read_corpus(path.read_text().splitlines()) == entries


def test_an_interrupted_write_keeps_the_old_corpus(tmp_path):
    path = tmp_path / "x.corpus"
    old = gen_lpo_mixed(6, seed=3)
    write_corpus(path, old)

    def entries():
        yield from gen_lpo_mixed(4, seed=5)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_corpus(path, entries())
    assert read_corpus(path.read_text().splitlines()) == old
    assert [p.name for p in tmp_path.iterdir()] == ["x.corpus"]


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("kind", sorted(CORPUS_KINDS))
def test_generators_are_deterministic_and_sized(kind):
    a = CORPUS_KINDS[kind](12, 7, 8)
    b = CORPUS_KINDS[kind](12, 7, 8)
    assert a == b
    assert len(a) == 12
    assert len(set(map(format_entry, a))) == 12


def test_total_programs_live_inside_the_universe():
    for e in gen_total_programs(30, seed=2):
        assert min_index(e.descriptor, ORACLE) is not None


def test_bounded_monotone_is_monotone():
    for e in gen_bounded_monotone(25, seed=5):
        d = e.descriptor
        vals = list(d.prefix) + [d.tail.value]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_lpo_mixed_has_both_flavors():
    entries = gen_lpo_mixed(10, seed=1)
    zeros = [e for e in entries if literal_is_zero(e.descriptor)]
    assert zeros and len(zeros) < len(entries)


def test_lpo_mixed_scales_past_the_short_zero_pool():
    # zero names differ only in prefix length; a large request must not
    # starve the alternating draw loop
    entries = gen_lpo_mixed(100, seed=66)
    assert len(entries) == 100
    zeros = [e for e in entries if literal_is_zero(e.descriptor)]
    assert len(zeros) == 50


def test_families_are_window_total_and_tagged():
    for e in gen_families(8, seed=4, window=8):
        assert e.width in (1, 2) and e.which < e.width
        for n in range(9):
            assert descriptor_get(e.descriptor, n) is not None


def test_reduction_instance_shaping():
    e = CorpusEntry(Generated(9, 20), width=2, which=1)
    assert to_reduction_instance(e, "gstar_g") == (2, Generated(9, 20), 1)
    assert to_reduction_instance(e, "ghat_g") == (Generated(9, 20), 1)
    assert to_reduction_instance(e, "cn_limn") == Generated(9, 20)
    with pytest.raises(ValueError):
        to_reduction_instance(CorpusEntry(Generated(9, 20)), "gstar_g")


def test_audit_constants_refuse_past_their_draw_space():
    script = Path(__file__).resolve().parent.parent / "scripts" / "reduction_audit.py"
    constants = runpy.run_path(str(script))["_constants"]
    # two values, each after a prefix of 0..7 copies: 16 distinct literals
    assert len({e.descriptor for e in constants(16, 0, (0, 1))}) == 16
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="size must be at most 16, got 17"):
        constants(17, 0, (0, 1))
    assert time.monotonic() - t0 < 1.0
