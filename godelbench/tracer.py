"""Layer spans recorded from outside the lab.

`Tracer.install` wraps each layer's public functions in the benchmark's
own code and rebinds every module attribute of the lab that refers to
them, so a call made through any importing module (`learners`,
`problems`, `reductions`, `cli`, ...) is recorded.  Nothing inside the
lab changes.

For each span name the tracer keeps calls, inclusive seconds and self
seconds (the span minus the part covered by child spans).  Nested calls
of one name count once in the inclusive time.  Spans are aggregated per
call path in memory; `write` puts them in a JSON file when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
import time

# (module, function) pairs wrapped as spans, in layer order.
SPANS = (
    ("numbering", "encode"),
    ("numbering", "decode_list"),
    ("numbering", "pair"),
    ("numbering", "unpair"),
    ("numbering", "evaluate"),
    ("numbering", "s_const"),
    ("numbering", "precompose_affine"),
    ("numbering", "first_value_program"),
    ("numbering", "stride_tuple_program"),
    ("spaces", "compile_literal"),
    ("spaces", "descriptor_get"),
    ("oracles", "min_index"),
    ("oracles", "window_verify"),
    ("oracles", "compatible"),
    ("oracles", "in_R"),
    ("oracles", "search_R"),
    ("learners", "enum_learner"),
    ("learners", "build_pockets"),
    ("learners", "amalgamation_learn"),
    ("learners", "bounded_min_learner"),
    ("learners", "kol_liminf_enumerator"),
    ("reductions", "check_reduction"),
    ("corpus", "read_corpus"),
    ("corpus", "write_corpus"),
    ("cli", "main"),
)

# every corpus generator is recorded under one name
GENERATORS = ("gen_total_programs", "gen_literal_sequences",
              "gen_bounded_monotone", "gen_lpo_mixed", "gen_families")

EMITTERS = ("numbering.s_const", "numbering.precompose_affine",
            "numbering.first_value_program", "numbering.stride_tuple_program",
            "spaces.compile_literal")

# spec factories whose ProblemSpecs get a recorded enumerate_answers
SPEC_FACTORIES = (
    ("problems", "problem_registry"),
    ("reductions", "make_ghat_spec"),
    ("reductions", "make_gstar_spec"),
    ("reductions", "make_family_g_spec"),
)

COUNTERS = ("numbering.encode.bits", "numbering.decode_list.bits",
            "numbering.evaluate.halted", "numbering.emit.refused",
            "oracles.window_verify.true", "problems.answers",
            "reductions.answers_tried")


# emitters no workload reaches (their only callers are the lab's tests):
# their call counts are reported, their times would read 0 on every run
UNTIMED = ("numbering.s_const", "spaces.compile_literal")


def span_names() -> list[str]:
    names = [f"{m}.{f}" for m, f in SPANS]
    return names + ["corpus.gen", "problems.enumerate_answers"]


def metric_names() -> list[str]:
    """Every figure `totals` reports, in order."""
    out = []
    for name in span_names():
        out.append(f"{name}.calls")
        if name not in UNTIMED:
            out += [f"{name}.s", f"{name}.self_s"]
    return out + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.reset()

    def reset(self) -> None:
        """Forget every span and zero the counters; call it between
        passes, when no span is open."""
        # call path -> [calls, inclusive seconds, self seconds, name]
        self.paths: dict[tuple, list] = {}
        for key in self.counts:
            self.counts[key] = 0
        self._stack: list = []   # frames [name, path, start, child seconds]
        self._open: dict[str, int] = {}  # name -> open frames (recursion)

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else ()
        frame = [name, parent + (name,), time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def _leave(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[2]
        self._stack.pop()
        name = frame[0]
        self._open[name] -= 1
        agg = self.paths.get(frame[1])
        if agg is None:
            agg = self.paths[frame[1]] = [0, 0.0, 0.0, name]
        agg[0] += 1
        if not self._open[name]:
            agg[1] += elapsed
        agg[2] += elapsed - frame[3]
        if self._stack:
            self._stack[-1][3] += elapsed

    def _wrap(self, name: str, fn, on_result=None):
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
            if on_result is not None:
                on_result(args, out)
            return out

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, mods) -> None:
        """Wrap the layer functions of one imported lab (a namespace of
        its modules) and rebind every reference to them."""
        counts = self.counts
        halted_type = mods.numbering.Halted

        def count(key, amount):
            counts[key] += amount

        hooks = {
            "numbering.encode": lambda a, out: count("numbering.encode.bits",
                                                     out.bit_length()),
            "numbering.decode_list": lambda a, out: count(
                "numbering.decode_list.bits", a[0].bit_length()),
            "numbering.evaluate": lambda a, out: count(
                "numbering.evaluate.halted", type(out) is halted_type),
            "oracles.window_verify": lambda a, out: count(
                "oracles.window_verify.true", out is True),
            "reductions.check_reduction": lambda a, out: count(
                "reductions.answers_tried",
                sum(len(rec.tried) for rec in out.records)),
        }
        replaced = {}   # id(original) -> wrapper
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(getattr(mods, mod_name), fn_name)
            wrapped = self._wrap(name, fn, hooks.get(name))
            if name in EMITTERS:
                wrapped = self._count_refusals(wrapped)
            replaced[id(fn)] = wrapped
        for fn_name in GENERATORS:
            fn = getattr(mods.corpus, fn_name)
            replaced[id(fn)] = self._wrap("corpus.gen", fn)
        for mod_name, fn_name in SPEC_FACTORIES:
            fn = getattr(getattr(mods, mod_name), fn_name)
            replaced[id(fn)] = self._spec_factory(fn)
        for module in mods.all():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def _count_refusals(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ValueError:
                counts["numbering.emit.refused"] += 1
                raise

        return wrapper

    def _spec_factory(self, factory):
        counts = self.counts

        def traced(spec):
            def on_answers(args, out):
                counts["problems.answers"] += len(out)

            return dataclasses.replace(spec, enumerate_answers=self._wrap(
                "problems.enumerate_answers", spec.enumerate_answers, on_answers))

        def wrapper(*args, **kwargs):
            made = factory(*args, **kwargs)
            if isinstance(made, dict):
                return {k: traced(v) for k, v in made.items()}
            return traced(made)

        return wrapper

    # -- read-out -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        counters."""
        out = dict.fromkeys(metric_names(), 0)
        for calls, incl, self_s, name in self.paths.values():
            out[f"{name}.calls"] += calls
            if name not in UNTIMED:
                out[f"{name}.s"] += incl
                out[f"{name}.self_s"] += self_s
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        rows = [{"path": "/".join(p), "calls": calls, "s": incl, "self_s": self_s}
                for p, (calls, incl, self_s, _) in sorted(self.paths.items())]
        with open(path, "w") as fh:
            json.dump({"paths": rows, "counts": self.counts}, fh, indent=1)
            fh.write("\n")
