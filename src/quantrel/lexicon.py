"""JSON lexicon files.

Schema (all membership grades are decimals in [0, 1]; every grade,
threshold and breakpoint coordinate is a JSON number, never a string
or true/false):

    {
      "universe":  ["u1", "u2", ...],
      "quantale":  "godel" | "lukasiewicz" | "product" | "boolean",
      "grades":    [0, 0.5, 1],              // optional grade lattice
      "threshold": 0.0,                      // optional sigma-count cutoff
      "nouns":  {"cats":  {"u1": 0.2, ...}},
      "nps":    {"mice":  {...}},
      "vps":    {"sleep": {...}},
      "verbs":  {"eat":   [["u1", "u2", 0.5], ...]},
      "quantifiers": {
        "every":   {"kind": "every"},
        "exactly2":{"kind": "exactly", "n": 2},
        "several": {"kind": "fuzzy", "breakpoints": [[0,0],[0.4,1],[1,0]]}
      }
    }

The universe is a non-empty JSON list of distinct strings.  Omitted
"grades" defaults to every grade appearing in the file plus 0 and 1.
Grades outside [0, 1] are rejected, never clamped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from .bialgebra import GradeLattice
from .errors import LexiconFormatError, QuantrelError
from .fuzzyset import FuzzyRelation, FuzzySet
from .quantale import by_name
from .quantifier import CrispQuantifier, FuzzyQuantifier
from .semantics import Model
from .vrel import IndexSet

_SET_GROUPS = ("nouns", "nps", "vps")


def load_lexicon(source: Union[str, Path, dict]) -> Model:
    """Read a lexicon file (or an already-decoded dict) into a Model."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise LexiconFormatError(f"{source}: not valid JSON: {exc}") from exc
    else:
        data = source
    try:
        return _build_model(data)
    except (QuantrelError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, LexiconFormatError):
            raise
        raise LexiconFormatError(str(exc)) from exc


def _number(value, what: str) -> float:
    """A JSON number that is not a bool, as a float; anything else, a
    string or true/false included, is a LexiconFormatError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise LexiconFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _object(value, what: str) -> dict:
    """A JSON object; anything else, a list or a number included, is a
    LexiconFormatError."""
    if not isinstance(value, dict):
        raise LexiconFormatError(f"{what} must be a JSON object, got {value!r:.60}")
    return value


def _group(data: dict, group: str) -> dict:
    """The lexicon's group of words, {} when it is omitted."""
    return _object(data.get(group, {}), f"{group!r}")


def _grades_in(data: dict):
    for group in _SET_GROUPS:
        for name, mapping in _group(data, group).items():
            yield from _object(mapping, f"{group} entry {name!r}").values()
    for name, triples in _group(data, "verbs").items():
        for triple in triples:
            if len(triple) != 3:
                raise LexiconFormatError(
                    f"verb {name!r}: each entry is [subject, object, grade]")
            yield triple[2]


def _build_model(data: dict) -> Model:
    _object(data, "a lexicon")
    labels = data.get("universe")
    if not isinstance(labels, list) or not labels:
        raise LexiconFormatError("lexicon needs a non-empty 'universe' list")
    for u in labels:
        if not isinstance(u, str):
            raise LexiconFormatError(f"universe element {u!r:.60} is not a string")
    if len(set(labels)) != len(labels):
        raise LexiconFormatError("universe elements must be distinct")
    universe = IndexSet(labels)

    for g in _grades_in(data):
        if not 0.0 <= _number(g, "grade") <= 1.0:
            raise LexiconFormatError(f"grade {g!r} outside [0, 1]")

    quantale = by_name(str(data.get("quantale", "godel")))
    if "grades" in data:
        grades = GradeLattice([_number(g, "lattice grade") for g in data["grades"]])
    else:
        grades = GradeLattice({0.0, 1.0} | {float(g) for g in _grades_in(data)})
    threshold = _number(data.get("threshold", 0.0), "threshold")
    if not 0.0 <= threshold <= 1.0:
        raise LexiconFormatError("threshold must lie in [0, 1]")

    model = Model(universe=universe, quantale=quantale, grades=grades,
                  threshold=threshold)
    for group in _SET_GROUPS:
        target = getattr(model, group)
        for name, mapping in _group(data, group).items():
            target[str(name).lower()] = FuzzySet.from_dict(
                universe, {str(k): float(v) for k, v in mapping.items()})
    for name, triples in _group(data, "verbs").items():
        pairs: Dict[tuple, float] = {}
        for s, o, g in triples:  # each of length 3, as _grades_in checked
            pairs[(str(s), str(o))] = float(g)
        model.verbs[str(name).lower()] = FuzzyRelation(universe, pairs)
    for name, desc in _group(data, "quantifiers").items():
        model.quantifiers[str(name).lower()] = _parse_quantifier(str(name).lower(), desc)

    model.validate()
    return model


def _parse_quantifier(name: str, desc: dict):
    kind = _object(desc, f"quantifier {name!r}").get("kind")
    if kind == "fuzzy":
        bps = desc.get("breakpoints")
        if not bps:
            raise LexiconFormatError(f"quantifier {name!r}: fuzzy kind needs breakpoints")
        what = f"quantifier {name!r}: breakpoint coordinate"
        return FuzzyQuantifier(name, tuple((_number(p, what), _number(v, what))
                                           for p, v in bps))
    if kind in ("every", "some", "no"):
        return CrispQuantifier(kind)
    if kind == "exactly":
        n = desc.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise LexiconFormatError(
                f"quantifier {name!r}: exactly needs an integer count n, got {n!r}")
        return CrispQuantifier("exactly", n)
    raise LexiconFormatError(f"quantifier {name!r}: unknown kind {kind!r}")


def dump_lexicon(model: Model) -> dict:
    """JSON-ready dict; loading it back reproduces the model."""
    data: dict = {
        "universe": list(model.universe.elements),
        "quantale": model.quantale.name,
        "grades": list(model.grades.grades),
        "threshold": model.threshold,
    }
    for group in _SET_GROUPS:
        entries = getattr(model, group)
        data[group] = {
            name: {u: g for u, g in fs.as_dict().items() if g > 0.0}
            for name, fs in sorted(entries.items())
        }
    data["verbs"] = {
        name: [[s, o, g] for (s, o), g in sorted(rel.pairs.items())]
        for name, rel in sorted(model.verbs.items())
    }
    quants = {}
    for name, d in sorted(model.quantifiers.items()):
        if isinstance(d, FuzzyQuantifier):
            quants[name] = {"kind": "fuzzy",
                            "breakpoints": [list(bp) for bp in d.breakpoints]}
        elif d.kind == "exactly":
            quants[name] = {"kind": "exactly", "n": d.n}
        else:
            quants[name] = {"kind": d.kind}
    data["quantifiers"] = quants
    return data
