import hashlib
import random
from pathlib import Path

import pytest

import quantrel as qr
from quantrel.sampling import randomize_model

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


# Digests recorded with the sampler that built every |U|^2 pair and
# dropped the zero grades only in the FuzzyRelation constructor.  The
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
