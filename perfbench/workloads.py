"""The three benchmark workloads: inputs, timed operations and output checks.

Every workload is a fixed cycle of slots.  A slot is one kind of
operation (a universe size, a quantale, a sentence form or a law-suite
cell); one cycle runs each slot once, so every whole cycle has the same
mix of work and the run always stops at a cycle boundary.  The seed
chooses where in each slot's pool of cases the run starts.

The program under test receives only generated inputs: lexicon dicts
through `load_lexicon`, sentences through the evaluators, and index
sets, lattices and crisp relations through the law checkers.

Output checks use references outside the code under test:
  * restricted_sweep: direct and categorical agree on QuantSubject and
    QuantObject; crisp truth equals `value == 1.0` from the Boolean
    pipeline on the same forms; the other forms match reference.json;
  * exhaustive_join: every value matches reference.json, whose |P| = 9
    entries the tests confirm by brute force without `vrel.compose`;
  * law_check: every law passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import quantrel as qr
from quantrel import sampling

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
TOLERANCE = 1e-9

FORMS = ("BareIntransitive", "QuantSubject", "BareTransitive",
         "QuantObject", "DoubleQuant")
CHECKED_FORMS = ("QuantSubject", "QuantObject")

NOUNS = ("cats", "dogs", "birds")
NPS = ("john", "mary", "sue")
VPS = ("sleep", "run")
VERBS = ("see", "chase")
FUZZY = {
    "several": [[0, 0], [0.4, 1], [1, 0]],
    "most": [[0, 0], [0.5, 0], [1, 1]],
    "few": [[0, 0], [0.1, 1], [0.3, 1], [0.6, 0], [1, 0]],
}
GRADED_DETS = ("several", "most", "few", "every", "some")
CRISP_DETS = ("every", "some", "no", "exactly2")
# "no" and "exactly" have no proportional reading, so the restricted
# DoubleQuant procedure (a determiner argmax) rejects them.
CRISP_DOUBLE_DETS = ("every", "some")

GRADES10 = tuple(round(i / 9, 4) for i in range(10))
REAL_QUANTALES = ("godel", "product", "lukasiewicz")


@dataclass
class Op:
    """One timed call into the library plus the check of its outputs."""

    slot: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when the outputs are right
    recorded: Callable[[object], object] = lambda out: None   # reference entry


@dataclass
class Slot:
    name: str
    size: int            # |U| for restricted_sweep, |P| otherwise
    make_op: Callable[[int], Op]


class Workload:
    """A cycle of slots; `cycle(i)` gives the ops of the i-th cycle.

    Cycle i runs every slot on case (offset + i) mod pool of its pool,
    with one seed-chosen offset for all slots, so any `pool` consecutive
    cycles evaluate every case once.  A run stops only after a multiple
    of `period` cycles.
    """

    def __init__(self, name: str, slots: List[Slot], pool: int, seed: int,
                 period: int = 1):
        self.name = name
        self.slots = slots
        self.pool = pool
        self.period = period
        self.offset = random.Random(f"{name}:{seed}").randrange(pool)

    def cycle(self, i: int) -> List[Op]:
        j = (self.offset + i) % self.pool
        return [slot.make_op(j) for slot in self.slots]

    def smaller(self, max_size: int) -> "Workload":
        """The same workload restricted to slots of at most max_size."""
        out = Workload.__new__(Workload)
        out.__dict__.update(self.__dict__)
        out.slots = [s for s in self.slots if s.size <= max_size]
        return out


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _case_rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _draw_set(universe, pool, rng) -> Dict[str, float]:
    while True:
        grades = {u: rng.choice(pool) for u in universe}
        if any(g > 0.0 for g in grades.values()):
            return {u: g for u, g in grades.items() if g > 0.0}


def lexicon_dict(n: int, grades: Sequence[float], quantale: str,
                 rng: random.Random, crisp_dets: bool = False) -> dict:
    """A lexicon over n elements whose grades are drawn from `grades`."""
    universe = [f"e{i}" for i in range(n)]
    positive = [g for g in grades if g > 0.0]
    verbs = {}
    for verb in VERBS:
        triples = []
        for x in universe:
            row = [[x, y, rng.choice(grades)] for y in universe]
            if all(t[2] == 0.0 for t in row):
                rng.choice(row)[2] = rng.choice(positive)
            triples += [t for t in row if t[2] > 0.0]
        verbs[verb] = triples
    if crisp_dets:
        quantifiers = {"every": {"kind": "every"}, "some": {"kind": "some"},
                       "no": {"kind": "no"}, "exactly2": {"kind": "exactly", "n": 2}}
    else:
        quantifiers = {w: {"kind": "fuzzy", "breakpoints": b} for w, b in FUZZY.items()}
        quantifiers.update({"every": {"kind": "every"}, "some": {"kind": "some"}})
    return {
        "universe": universe,
        "quantale": quantale,
        "grades": list(grades),
        "threshold": 0.0,
        "nouns": {w: _draw_set(universe, grades, rng) for w in NOUNS},
        "nps": {w: _draw_set(universe, grades, rng) for w in NPS},
        "vps": {w: _draw_set(universe, grades, rng) for w in VPS},
        "verbs": verbs,
        "quantifiers": quantifiers,
    }


def sentence(form: str, rng: random.Random, dets: Sequence[str]) -> str:
    """A sentence of the given form over the benchmark vocabulary."""
    slots = {
        "BareIntransitive": (NPS, VPS),
        "QuantSubject": (dets, NOUNS, VPS),
        "BareTransitive": (NPS, VERBS, NPS),
        "QuantObject": (NPS, VERBS, dets, NOUNS),
        "DoubleQuant": (dets, NOUNS, VERBS, dets, NOUNS),
    }[form]
    return " ".join(rng.choice(words) for words in slots)


def digest(values: Sequence) -> str:
    """Short fingerprint of values printed at nine decimals, as the CLI does."""
    text = " ".join(f"{float(v):.9f}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


# -- restricted_sweep -------------------------------------------------------

RESTRICTED_SIZES = (3, 10, 30)
RESTRICTED_POOL = 256


def _restricted_slot(name: str, n: int, template, crisp: bool,
                     reference: Optional[List[str]]) -> Slot:
    dets = CRISP_DETS if crisp else GRADED_DETS

    def make_op(j: int) -> Op:
        rng = _case_rng("restricted_sweep", name, j)
        sentences = [sentence(f, rng, CRISP_DOUBLE_DETS if crisp and f == "DoubleQuant" else dets)
                     for f in FORMS]
        model_seed = rng.getrandbits(64)

        if crisp:
            def call():
                model = sampling.randomize_model(template, random.Random(model_seed), crisp=True)
                out = []
                for s in sentences:
                    tree = qr.parse(qr.tokenize(s, model))
                    out.append((str(qr.classify(tree)), qr.eval_crisp_truth(tree, model),
                                qr.eval_categorical(tree, model)))
                return out
        else:
            def call():
                model = sampling.randomize_model(template, random.Random(model_seed))
                out = []
                for s in sentences:
                    report = qr.degree_of_truth(s, model, method="both")
                    out.append((str(report.form), report.values["direct"],
                                report.values["categorical"]))
                return out

        def recorded(out) -> str:
            """Digest of the forms that have no independent cross-check."""
            return digest([v for form, (_, a, b) in zip(FORMS, out)
                           if form not in CHECKED_FORMS for v in (a, b)])

        def check(out) -> Optional[str]:
            for form, s, (got, a, b) in zip(FORMS, sentences, out):
                if got != form:
                    return f"{s!r} classified as {got}, expected {form}"
                if form not in CHECKED_FORMS:
                    continue
                if crisp and (b == 1.0) != a:
                    return f"{s!r}: crisp truth {a} but Boolean pipeline {b!r}"
                if not crisp and not abs(a - b) <= TOLERANCE:
                    return f"{s!r}: direct {a!r} but categorical {b!r}"
            if reference is not None and recorded(out) != reference[j]:
                return f"case {j} ({'; '.join(sentences)}) differs from the recorded reference"
            return None

        return Op(name, call, check, recorded)

    return Slot(name, n, make_op)


def restricted_sweep(seed: int, reference: Optional[dict]) -> Workload:
    slots = []
    for n in RESTRICTED_SIZES:
        for qname in REAL_QUANTALES + ("boolean",):
            crisp = qname == "boolean"
            grades = (0.0, 1.0) if crisp else GRADES10
            data = lexicon_dict(n, grades, qname, _case_rng("template", n, qname),
                                crisp_dets=crisp)
            template = qr.load_lexicon(data)
            name = f"u{n}.{qname}"
            refs = None if reference is None else reference["restricted_sweep"][name]
            slots.append(_restricted_slot(name, n, template, crisp, refs))
    return Workload("restricted_sweep", slots, RESTRICTED_POOL, seed)


# -- exhaustive_join --------------------------------------------------------

# (universe size, grade lattice, quantales, forms), |P| = 9, 16, 27, 64.
# Object forms stop at |P| = 27, and there only under Lukasiewicz, whose
# sparse tensor keeps them near 0.5 s (Godel and product take 1-1.3 s).
# Object forms at |P| = 64 are left out: they pass the exponent guard of
# eval_categorical and then run for about 21 s before the entry guard
# raises EnumerationLimitError.
EXHAUSTIVE_CELLS = (
    (2, (0.0, 0.5, 1.0), REAL_QUANTALES, FORMS),
    (2, (0.0, 0.25, 0.75, 1.0), REAL_QUANTALES, FORMS[:4]),
    (3, (0.0, 0.5, 1.0), REAL_QUANTALES, FORMS[:2]),
    (3, (0.0, 0.5, 1.0), ("lukasiewicz",), ("BareTransitive", "QuantObject")),
    (3, (0.0, 0.25, 0.75, 1.0), REAL_QUANTALES, FORMS[:2]),
)
# Case costs vary up to 8x within one slot (the support of the state and
# determiner tables decides them), and a 30 s run has room for only about
# 8 ops per slot.  A run that stopped part-way through the pool would
# leave out a seed-dependent group of cases.  So a run stops only after
# whole passes over the pool: every run, and every commit however fast,
# measures the same mix.  A pass of 4 cycles takes about 17 s on a
# shared 2-vCPU machine, so a 30 s run makes 2 passes there.
EXHAUSTIVE_POOL = 4


def _exhaustive_op(name: str, model, text: str, ref) -> Op:
    def call():
        return qr.eval_categorical(qr.parse(qr.tokenize(text, model)), model,
                                   mode="exhaustive")

    def check(value) -> Optional[str]:
        if ref is not None and not abs(value - ref) <= TOLERANCE:
            return f"{name} {text!r}: exhaustive value {value!r}, reference {ref!r}"
        return None

    return Op(name, call, check, recorded=lambda value: value)


def exhaustive_cases(n: int, grades, qname: str, form: str) -> List[Tuple[dict, str]]:
    """The pool of (lexicon dict, sentence) cases of one exhaustive slot."""
    out = []
    for j in range(EXHAUSTIVE_POOL):
        rng = _case_rng("exhaustive_join", n, len(grades), qname, form, j)
        out.append((lexicon_dict(n, grades, qname, rng), sentence(form, rng, GRADED_DETS)))
    return out


def exhaustive_slot_name(n: int, grades, qname: str, form: str) -> str:
    return f"p{len(grades) ** n}.{qname}.{form}"


def exhaustive_join(seed: int, reference: Optional[dict]) -> Workload:
    slots = []
    for n, grades, quantales, forms in EXHAUSTIVE_CELLS:
        for qname in quantales:
            for form in forms:
                name = exhaustive_slot_name(n, grades, qname, form)
                refs = None if reference is None else reference["exhaustive_join"][name]
                cases = [(qr.load_lexicon(data), text)
                         for data, text in exhaustive_cases(n, grades, qname, form)]

                def make_op(j, name=name, cases=cases, refs=refs):
                    model, text = cases[j]
                    return _exhaustive_op(name, model, text,
                                          None if refs is None else refs[j])

                slots.append(Slot(name, len(grades) ** n, make_op))
    return Workload("exhaustive_join", slots, EXHAUSTIVE_POOL, seed,
                    period=EXHAUSTIVE_POOL)


# -- law_check --------------------------------------------------------------

# (universe size, number of grades): |P| = 8, 16, 27, 32, 36 under every
# quantale, and one |P| = 64 cell per cycle.  A cycle then takes about
# 10 s and holds 21 ops, so a 30 s run makes 3 or 4 cycles.  For any
# count from 2 to 4, op_tail_ms is the same percentile (p75), and it and
# the median fall inside cells rather than between two cells of very
# different cost.
LAW_CELLS = ((3, 2), (4, 2), (3, 3), (5, 2), (2, 6))
LAW_BIG_CELL = (3, 4, "godel")
LAW_POOL = 64
FUNCTORIALITY_TRIALS = 20


def _lattice(k: int, rng: random.Random) -> Tuple[float, ...]:
    inner = sorted(rng.sample(range(1, 1000), k - 2))
    return (0.0,) + tuple(i / 1000 for i in inner) + (1.0,)


def _random_crisp(a, b, rng: random.Random):
    pairs = [(x, y) for x in a.elements for y in b.elements if rng.random() < 0.4]
    return qr.CrispRel(a, b, pairs)


def _law_slot(n: int, k: int, qname: str) -> Slot:
    q = qr.by_name(qname)
    name = f"p{k ** n}.{qname}"

    def make_op(j: int) -> Op:
        rng = _case_rng("law_check", name, j)
        universe = qr.IndexSet([f"u{i}" for i in range(n)])
        lattice = qr.GradeLattice(_lattice(k, rng))
        pairs = []
        for _ in range(FUNCTORIALITY_TRIALS):
            sets = [qr.IndexSet([f"x{i}_{m}" for m in range(rng.randint(1, 4))])
                    for i in range(3)]
            pairs.append((_random_crisp(sets[0], sets[1], rng),
                          _random_crisp(sets[1], sets[2], rng)))

        def call():
            obj = qr.PowersetObject(universe, lattice)
            laws = list(zip(("snake.left", "snake.right"),
                            qr.snake_identities(obj.index, q)))
            for group, report in (("bialgebra", qr.check_bialgebra(obj, q)),
                                  ("comonoid", qr.check_comonoid(obj, q)),
                                  ("monoid", qr.check_monoid(obj, q))):
                laws += [(f"{group}.{law}", ok) for law, ok in report.laws]
            functorial = all(
                qr.compose(qr.include(r, q), qr.include(s, q)).equal(qr.include(r.compose(s), q))
                for r, s in pairs)
            laws.append(("inclusion.functoriality", functorial))
            return laws

        def check(laws) -> Optional[str]:
            failed = [law for law, ok in laws if not ok]
            if len(laws) != 13:
                return f"{name}: expected 13 laws, got {len(laws)}"
            return f"{name}: laws failed: {', '.join(failed)}" if failed else None

        return Op(name, call, check)

    return Slot(name, k ** n, make_op)


def law_check(seed: int, reference: Optional[dict]) -> Workload:
    slots = [_law_slot(n, k, qname)
             for n, k in LAW_CELLS
             for qname in REAL_QUANTALES + ("boolean",)]
    slots.append(_law_slot(*LAW_BIG_CELL))
    return Workload("law_check", slots, LAW_POOL, seed)


WORKLOADS = {
    "restricted_sweep": restricted_sweep,
    "exhaustive_join": exhaustive_join,
    "law_check": law_check,
}


def build(name: str, seed: int, reference: Optional[dict]) -> Workload:
    """Set up a workload: load its templates and generate its inputs.

    With reference None the outputs are not compared with recorded
    values; record_reference.py builds workloads that way.
    """
    return WORKLOADS[name](seed, reference)
