"""The tests' one brute-force oracle for the exhaustive categorical join.

Each form's function takes the max, over every assignment of a graded
subset to each wire, of the tensor of its factors in diagram order:

    BareIntransitive  np vp        np(A) ⊗ vp(A)
    QuantSubject      d n vp       (n(A) ⊗ vp(B)) ⊗ d(A, A∧B)
    BareTransitive    np v np'     (np(A) ⊗ v(A, B)) ⊗ np'(B)
    QuantObject       np v d n     ((np(A) ⊗ v(A, B)) ⊗ n(C)) ⊗ d(C, C∧B)
    DoubleQuant       d n v d' n'  ((n(A) ⊗ v(B, D)) ⊗ n'(C)) ⊗ (d(A, A∧B) ⊗ d'(C, C∧D))

A word's factor is the state row of its denotation, a verb's at A that
of A's image, and d(A, G) is `entry(d, A, G)`; the state is `point`
over the Boolean quantale and `proportion` over the real ones.  The
QuantSubject reading "d n v np" takes as vp the set x ↦ max_y min(v(x, y),
np(y)).  QuantObject joins over A before it meets n and d, as the
evaluator's verb layer does (a flat join over 64^3 triples takes
seconds).  Every tensor is monotone, in floats too (tests/test_quantale.py
pins it, the float Łukasiewicz unit shortcut included), so it
distributes over max and the early join gives the flat join's value
bit for bit in either arithmetic.

The oracle reads only the model's data (grade tuples, `verb.rows`, the
quantale, the threshold, a determiner's `kind`, `n` and `breakpoints`)
and calls no quantrel kernel.  `num` is the arithmetic: with `float`
each step is the evaluator's float, so values match it with ==; with
`fractions.Fraction` each step is exact, as every grade is a binary
float and tensors, sigma-count ratios and distributions are exact.
"""

from bisect import bisect_right
from itertools import product

from quantrel import (EvaluationError, FuzzyQuantifier, SentenceForm, classify, parse,
                      tokenize)


def _lukasiewicz(a, b):
    # max(0, a + b - 1) with the unit law kept exact, as quantrel keeps
    # it.  Integer 0 and 1 keep a Fraction exact (Fraction + 1.0 is a float).
    if a == 1:
        return b
    if b == 1:
        return a
    return max(0, a + b - 1)


TENSORS = {"godel": min, "boolean": min, "product": lambda a, b: a * b,
           "lukasiewicz": _lukasiewicz}


def proportion(bs, a, t):
    """The state row of the denotation a over the subsets bs: the
    proportion sigma_t(a ∧ b) / sigma_t(a) of each b inside a, bottom
    when sigma_t(a) is 0."""
    denom = sum(g for g in a if g >= t)
    return [sum(m for m in map(min, a, b) if m >= t) / denom if denom else 0 for b in bs]


def point(bs, a, t):
    """The point state row: the unit at the denotation a itself."""
    return [1 if b == a else 0 for b in bs]


def image(rows, a):
    """Max-min image of subset a through a verb's rows."""
    out = [0] * len(rows)
    for ax, row in zip(a, rows):
        for y, g in row:
            out[y] = max(out[y], min(ax, g))
    return tuple(out)


def entry(d, a, b, t=0, num=float):
    """The determiner's grade at restrictor a and scope b: a graded one's
    piecewise-linear distribution at the proportion of b in a, on the
    segment `bisect_right` picks (bottom when sigma_t(a) is 0), a crisp
    one's set condition read pointwise."""
    if isinstance(d, FuzzyQuantifier):
        if not sum(g for g in a if g >= t):
            return num(0)
        p = proportion((b,), a, t)[0]
        points = [(num(x), num(v)) for x, v in d.breakpoints]
        i = bisect_right([x for x, _ in points], p) - 1
        if i >= len(points) - 1:
            return points[i][1]
        (p0, v0), (p1, v1) = points[i], points[i + 1]
        return v0 + (p - p0) * (v1 - v0) / (p1 - p0)
    if d.kind == "every":
        holds = all(x <= y for x, y in zip(a, b) if x >= t)
    elif d.kind == "some":
        holds = any(m > 0 and m >= t for m in map(min, a, b))
    elif d.kind == "no":
        holds = all(min(x, y) == 0 for x, y in zip(a, b))
    elif any(g not in (0, 1) for g in a + b):
        raise EvaluationError("'exactly' requires crisp membership tuples")
    else:
        holds = sum(x == y == 1 for x, y in zip(a, b)) == d.n
    return num(1 if holds else 0)


class _Factors:
    """One model's factors over its graded subsets, each tabulated once."""

    def __init__(self, model, num):
        self.model, self.num, self.t = model, num, num(model.threshold)
        self.state = point if model.quantale.carrier == "boolean" else proportion
        self.tensor = TENSORS[model.quantale.name]
        self.members = [tuple(map(num, m))
                        for m in product(model.grades, repeat=len(model.universe))]
        self.idx = range(len(self.members))

    def word(self, group, word):
        a = tuple(map(self.num, getattr(self.model, group)[word].grades))
        return self.state(self.members, a, self.t)

    def vp(self, word, np=None):
        """A verb phrase's state row: the word's own, or for a transitive
        verb and its object np that of x ↦ max_y min(v(x, y), np(y))."""
        if np is None:
            return self.word("vps", word)
        obj = tuple(map(self.num, self.model.nps[np].grades))
        a = tuple(max((min(self.num(g), obj[y]) for y, g in row), default=self.num(0))
                  for row in self.model.verbs[word].rows)
        return self.state(self.members, a, self.t)

    def verb(self, word):
        """v(A, B), indexed [A][B]: one state row per distinct image."""
        rows = [[(y, self.num(g)) for y, g in row] for row in self.model.verbs[word].rows]
        images = [image(rows, a) for a in self.members]
        table = {i: self.state(self.members, i, self.t) for i in set(images)}
        return [table[i] for i in images]

    def det(self, word):
        """d(A, A∧B), indexed [A][B]."""
        d, m = self.model.quantifiers[word], self.members
        return [[entry(d, a, tuple(map(min, a, b)), self.t, self.num) for b in m] for a in m]


def bare_intransitive(f, np, vp):
    s, v = f.word("nps", np), f.word("vps", vp)
    return max(f.tensor(s[a], v[a]) for a in f.idx)


def quant_subject(f, det, noun, *vp):
    d, n, v = f.det(det), f.word("nouns", noun), f.vp(*vp)
    return max(f.tensor(f.tensor(n[a], v[b]), d[a][b]) for a in f.idx for b in f.idx)


def bare_transitive(f, np, verb, np2):
    s, v, o = f.word("nps", np), f.verb(verb), f.word("nps", np2)
    return max(f.tensor(f.tensor(s[a], v[a][b]), o[b]) for a in f.idx for b in f.idx)


def quant_object(f, np, verb, det, noun):
    s, v, d, n = f.word("nps", np), f.verb(verb), f.det(det), f.word("nouns", noun)
    left = [max(f.tensor(s[a], v[a][b]) for a in f.idx) for b in f.idx]
    return max(f.tensor(f.tensor(left[b], n[c]), d[c][b]) for b in f.idx for c in f.idx)


def double_quant(f, det, noun, verb, det2, noun2):
    d, n, v = f.det(det), f.word("nouns", noun), f.verb(verb)
    d2, n2 = f.det(det2), f.word("nouns", noun2)
    # A term with a bottom factor is bottom on every quantale: skip it.
    return max((f.tensor(f.tensor(f.tensor(n[a], v[b][e]), n2[c]), f.tensor(d[a][b], d2[c][e]))
                for a, b, c, e in product(f.idx, repeat=4) if n[a] and d[a][b] and d2[c][e]),
               default=0)


FORMS = {SentenceForm.BARE_INTRANSITIVE: bare_intransitive,
         SentenceForm.QUANT_SUBJECT: quant_subject, SentenceForm.BARE_TRANSITIVE: bare_transitive,
         SentenceForm.QUANT_OBJECT: quant_object, SentenceForm.DOUBLE_QUANT: double_quant}


def score(model, sentence, num=float):
    """The oracle's value of a sentence in the arithmetic `num`."""
    tree = parse(tokenize(sentence, model))
    return num(FORMS[classify(tree)](_Factors(model, num), *tree.leaves()))
