import hashlib
import random
from pathlib import Path

import pytest

import quantrel as qr
from quantrel.sampling import _draw, randomize_model

LEXICONS = Path(__file__).resolve().parent.parent / "lexicons"


def _fingerprint(template: qr.Model, seed: int, crisp: bool, draws: int) -> str:
    """sha256 over `draws` redraws from one stream, then one more number
    from that stream, so both the grades drawn and the count of draws
    consumed are pinned."""
    rng = random.Random(seed)
    lines = []
    for _ in range(draws):
        model = randomize_model(template, rng, crisp=crisp)
        for name, fs in model.iter_sets():
            lines.append(f"{name} {fs.grades!r}")
        for name, rel in sorted(model.verbs.items()):
            lines.append(f"{name} {sorted(rel.pairs.items())!r}")
    lines.append(repr(rng.random()))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# Digests recorded with an earlier sampler, which drew each grade by
# rng.choice, built every |U|^2 pair and dropped the zero grades only in
# the FuzzyRelation constructor.  The sampler now draws through `_draw`
# and builds each verb row from its positive grades; the draws, their
# order and the models are the same, and so are the digests.  The
# crisp pool leaves a verb row all zero one time in eight at |U| = 3
# (crisp.json) and one in four at |U| = 2 (small.json), so the rescue
# draw (a target element, then a positive grade) runs many times in 60
# redraws.
@pytest.mark.parametrize("lexicon, crisp, digest", [
    ("demo.json", False,
     "7808d2130ca92b81597bcd33899e4d9428a1bf8799a993218351b3456246dd2b"),
    ("crisp.json", True,
     "1a46d428a8b0c542d2fce83f2c687c6cd9b0546a67f323737714e122224bb553"),
    ("small.json", True,
     "14ada8b1a4bfb320c9440afd700c2fe28d46b6aeaa05cf57aaa93153abf1a99a"),
])
def test_randomize_model_draw_stream(lexicon, crisp, digest):
    template = qr.load_lexicon(str(LEXICONS / lexicon))
    assert _fingerprint(template, seed=7, crisp=crisp, draws=60) == digest


def _template(n: int, grades, quantale: str) -> qr.Model:
    """A template over n elements: randomize_model keeps its vocabulary
    and lattice and redraws every grade, so one pair per word will do."""
    labels = [f"e{i}" for i in range(n)]
    one = {labels[0]: 1}
    return qr.load_lexicon({
        "universe": labels, "quantale": quantale, "grades": list(grades),
        "nouns": {"cats": one, "dogs": one, "birds": one},
        "nps": {"john": one, "mary": one}, "vps": {"sleep": one, "run": one},
        "verbs": {"see": [[labels[0], labels[1], 1]], "chase": [[labels[1], labels[0], 1]]},
        "quantifiers": {"every": {"kind": "every"}, "some": {"kind": "some"}}})


GRADES10 = [round(i / 9, 4) for i in range(10)]


# |U| = 30 digests, recorded with the sampler that drew each grade by
# rng.choice and built each verb from a label-keyed dict of pairs: a
# 10-grade Goedel template and a crisp one.
@pytest.mark.parametrize("grades, quantale, crisp, digest", [
    (GRADES10, "godel", False,
     "24c3ae4b8f2b8fe16ffd6f365ec40cf31fa05868634de1add0789049bd05fde2"),
    ([0, 1], "boolean", True,
     "3e284a40cc07dc3fd8d8a680028f4d430f2d6fa927884f98fdcc4b6180c7201e"),
])
def test_randomize_model_draw_stream_at_size(grades, quantale, crisp, digest):
    template = _template(30, grades, quantale)
    assert _fingerprint(template, seed=11, crisp=crisp, draws=20) == digest


@pytest.mark.parametrize("size", [1, 2, 3, 9, 10, 16, 17, 37])
@pytest.mark.parametrize("as_range", [False, True])
@pytest.mark.parametrize("count", [0, 1, 50])
def test_draw_equals_random_choice(size, as_range, count):
    """Python promises a reproducible stream only for random(), so this
    pins choice's algorithm: the same elements, and the same number of
    words consumed, since the next random() must match too."""
    pool = range(size) if as_range else [f"x{i}" for i in range(size)]
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _draw(pool, count, ours) == [theirs.choice(pool) for _ in range(count)]
        assert ours.random() == theirs.random()


def test_draw_from_an_empty_pool_raises_as_choice_does():
    with pytest.raises(IndexError):
        random.Random(0).choice([])
    with pytest.raises(IndexError):
        _draw([], 1, random.Random(0))
    assert _draw([], 0, random.Random(0)) == []


SAMPLED = [(qr.load_lexicon(str(LEXICONS / name)), crisp)
           for name in ("demo.json", "small.json", "crisp.json") for crisp in (False, True)]
SAMPLED += [(_template(30, GRADES10, "godel"), False), (_template(30, [0, 1], "boolean"), True)]


@pytest.mark.parametrize("template, crisp", SAMPLED)
def test_sampled_models_pass_the_checked_constructors(template, crisp):
    """The sampler builds relations and sets without the per-grade
    checks; each must be what the checked constructors build."""
    rng = random.Random(3)
    for _ in range(10):
        model = randomize_model(template, rng, crisp=crisp)
        model.validate()
        u = model.universe
        for name, rel in model.verbs.items():
            assert type(rel.rows) is tuple and len(rel.rows) == len(u), name
            assert all(type(row) is tuple for row in rel.rows), name
            assert qr.FuzzyRelation(u, rel.pairs).rows == rel.rows, name
            # The round trip keeps the order of `pairs`, so pin the
            # ascending positions `__init__` gives pairs in universe order.
            assert all(list(row) == sorted(row) for row in rel.rows), name
            assert all(row for row in rel.rows), name
        for name, fs in model.iter_sets():
            assert type(fs.grades) is tuple, name
            assert qr.FuzzySet(u, fs.grades).grades == fs.grades, name
            assert not fs.is_empty(), name
