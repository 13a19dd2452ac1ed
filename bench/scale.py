"""Large-instance pipelines of the `scale` workload.

Each pipeline generates or builds one large instance, runs it through the
polynomial reductions, `validate`, a serialize/parse round trip and the
polynomial oracles, and returns a canonical text: one line per produced
object with a hash of its serialization, its size, and each verdict. The
text is what the golden files pin. No exponential oracle runs here.

Random 2sat3 formulas normalize to the empty formula, so the formula
reductions get inputs built here from the seed: an implication cycle
through every variable (each variable once per polarity) plus one extra
clause per disjoint pair of variables, giving each a third occurrence.
Such formulas are already normalized, so they survive `normalize_2sat3`
unchanged.
"""

from __future__ import annotations

import hashlib
import random

from redlab import harness, instances, oracles, reductions
from redlab.instances import CnfFormula

# Pipeline -> factor on the workload size knob. The gadget and the
# 3XCE2 chain multiply the instance size (|X| = 3|V|+2 and 6.5 m_vbl), so
# they start smaller to keep every stage in the same range.
PIPELINES = {
    "gen_2sat3": 1.0,
    "sat_gadgets": 1.0,
    "sat_xce_chain": 0.25,
    "xce": 1.0,
    "dstcon_gadget": 0.5,
    "degree": 1.0,
    "ap2dm": 1.0,
    "lin": 1.0,
}

SIZES = (250, 500, 1000)
WARMUP_SIZE = 32


def _digest(obj) -> str:
    return hashlib.sha256(instances.serialize(obj).encode()).hexdigest()[:16]


def _leading_draws_large(problem: str, rng, knob: int, max_rows: int) -> bool:
    """Whether a generator's leading draws from `rng` are all at least 90%
    of their range: its size first, then the count its cost grows with.

    These replay the first draws of the harness generators, in their
    order: size n, then for lin_* the row count; for xor and ap2dm the
    constraint count or pair attempts; for xce and digraph4 the planted
    coin (which must come up unplanted, so that the next draw is the count)
    and then the extra-set count, or s, t and the edge attempts.
    """
    n = rng.randint(1, knob)
    if n < 0.9 * knob:
        return False
    if problem.startswith("lin_"):
        return rng.randint(0, max_rows) >= 0.9 * max_rows
    if problem in ("xor", "ap2dm"):
        return rng.randint(0, 2 * n) >= 0.9 * 2 * n
    if rng.chance(0.5):  # planted
        return False
    if problem == "xce":
        return rng.randint(0, n) >= 0.9 * n
    rng.randint(1, n)  # s
    rng.randint(1, n)  # t
    return rng.randint(0, 2 * n) >= 0.9 * 2 * n


def _pick_trial(problem: str, seed: int, knob: int, max_rows: int) -> int:
    """First trial whose leading draws are all large, so that instance size
    and cost vary little from one seed to the next."""
    t = 0
    while not _leading_draws_large(problem, harness.SplitMix64(seed + t), knob, max_rows):
        t += 1
    return t


def build_normalized_2sat3(n: int, seed: int) -> CnfFormula:
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    clauses = [(-order[i], order[(i + 1) % n]) for i in range(n)]
    extra = list(range(1, n + 1))
    rng.shuffle(extra)
    for a, b in zip(extra[0::2], extra[1::2]):
        clauses.append((a if rng.random() < 0.5 else -a, b if rng.random() < 0.5 else -b))
    rng.shuffle(clauses)
    return CnfFormula(n, tuple(clauses))


class _Log:
    def __init__(self):
        self.lines: list[str] = []

    def obj(self, label: str, obj):
        sizes = " ".join(f"{p}={instances.size_param(obj, p)}"
                         for p in instances.size_param_names(obj))
        self.lines.append(f"{label}\t{type(obj).__name__}\t{sizes}\t{_digest(obj)}")

    def val(self, label: str, value):
        self.lines.append(f"{label}\t{value}")

    def roundtrip(self, label: str, obj):
        back = instances.parse(instances.serialize(obj))
        self.val(label + ".roundtrip", back == obj)

    def violations(self, label: str, obj, tags=None):
        self.val(label + ".violations", len(instances.validate(obj, tags)))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _random_instance(problem: str, knob: int, seed: int, **extra):
    spec = harness.GenSpec(problem, max_size=knob, seed=seed, **extra)
    return harness.generate(spec, _pick_trial(problem, seed, knob, spec.max_rows))


def run_pipeline(name: str, size: int, seed: int) -> str:
    """Run one pipeline at workload size `size`; returns its canonical text."""
    n = max(4, int(PIPELINES[name] * size))
    log = _Log()
    if name == "gen_2sat3":
        f = harness.generate(harness.GenSpec("2sat3", max_size=n, clauses=n, seed=seed))
        log.obj("raw", f)
        log.violations("raw", f, {"occ_bound": 3})
        log.roundtrip("raw", f)
        log.obj("normalized", reductions.normalize_2sat3(f))
        log.val("raw.sat", oracles.solve_2sat(f)[0])
    elif name == "sat_gadgets":
        f = build_normalized_2sat3(n, seed)
        log.obj("built", f)
        log.val("built.normalize_unchanged", reductions.normalize_2sat3(f) == f)
        g, rep = reductions.sat2_to_2cvc3(f)
        log.obj("2cvc3", g)
        log.val("2cvc3.short", rep.shortness_ok)
        log.violations("2cvc3", g, {"deg_bound": 3})
        log.roundtrip("2cvc3", g)
        h, rep = reductions.cvc3_to_sat2(g)
        log.obj("back", h)
        log.val("back.short", rep.shortness_ok)
        log.val("built.sat", oracles.solve_2sat(f)[0])
        log.val("back.sat", oracles.solve_2sat(h)[0])
    elif name == "sat_xce_chain":
        f = build_normalized_2sat3(n, seed)
        x, rep = reductions.sat2_to_3xce2(f)
        log.obj("3xce2", x)
        log.val("3xce2.short", rep.shortness_ok)
        log.violations("3xce2", x)
        lp, rep = reductions.xce2_to_2lp(x)
        log.obj("2lp", lp)
        log.val("2lp.short", rep.shortness_ok)
        log.violations("2lp", lp)
        log.roundtrip("2lp", lp)
    elif name == "xce":
        x = _random_instance("xce", n, seed)
        log.obj("raw", x)
        log.violations("raw", x)
        lp, rep = reductions.xce2_to_2lp(x)
        log.obj("2lp", lp)
        log.val("2lp.short", rep.shortness_ok)
        log.violations("2lp", lp)
        log.roundtrip("2lp", lp)
    elif name == "dstcon_gadget":
        g = _random_instance("digraph4", n, seed, deg_bound=3)
        log.obj("raw", g)
        log.val("raw.reach", oracles.solve_dstcon(g)[0])
        gn, rep = reductions.normalize_dstcon(g)
        log.obj("normalized", gn)
        log.val("normalized.short", rep.shortness_ok)
        log.val("normalized.reach", oracles.solve_dstcon(gn)[0])
        a, rep = reductions.dstcon_to_ap2dm(gn)
        log.obj("ap2dm", a)
        log.val("ap2dm.short", rep.shortness_ok)
        log.violations("ap2dm", a, {"overlap_bound": 4})
        log.roundtrip("ap2dm", a)
    elif name == "degree":
        g = _random_instance("digraph4", n, seed, deg_bound=4)
        log.obj("raw", g)
        out, rep = reductions.reduce_degree_dstcon(g)
        log.obj("deg3", out)
        log.val("deg3.short", rep.shortness_ok)
        log.violations("deg3", out, {"deg_bound": 3})
        log.roundtrip("deg3", out)
        log.val("raw.reach", oracles.solve_dstcon(g)[0])
        log.val("deg3.reach", oracles.solve_dstcon(out)[0])
    elif name == "ap2dm":
        a = _random_instance("ap2dm", n, seed)
        log.obj("raw", a)
        log.violations("raw", a, {"overlap_bound": 4})
        log.roundtrip("raw", a)
    elif name == "lin":
        rows = max(1, n // 4)
        geq = _random_instance("lin_geq", n, seed, max_rows=rows)
        band, rep = reductions.lp_to_2lp(geq)
        log.obj("lp_to_2lp", band)
        log.val("lp_to_2lp.short", rep.shortness_ok)
        log.violations("lp_to_2lp", band)
        src = _random_instance("lin_band", n, seed + 1, max_rows=rows)
        geq2, rep = reductions.twolp_to_lp(src)
        log.obj("twolp_to_lp", geq2)
        log.val("twolp_to_lp.short", rep.shortness_ok)
        log.violations("twolp_to_lp", geq2)
        eq = _random_instance("lin_eq", n, seed + 2, max_rows=rows)
        xs, rep = reductions.le_to_xor2sat(eq)
        log.obj("le_to_xor2sat", xs)
        log.val("le_to_xor2sat.short", rep.shortness_ok)
        log.val("le_to_xor2sat.sat", oracles.solve_xor2sat(xs))
        log.roundtrip("le_to_xor2sat", xs)
        xr = _random_instance("xor", n, seed + 3)
        log.obj("xor", xr)
        log.val("xor.sat", oracles.solve_xor2sat(xr))
    else:
        raise ValueError(f"unknown pipeline {name!r}")
    return log.text()


def pipeline_seed(workload_seed: int, name: str, size: int) -> int:
    """Distinct generator seed per (pipeline, size) so inputs never share draws."""
    return workload_seed * 1_000_003 + list(PIPELINES).index(name) * 100_000 + size


def run_task(task: tuple[str, int, int]) -> str:
    """Pool entry point: (pipeline, size, workload seed) -> canonical text."""
    name, size, workload_seed = task
    return run_pipeline(name, size, pipeline_seed(workload_seed, name, size))
