"""Command-line front end.

    quantrel eval LEXICON "sentence" [--method ...] [--mode ...]
    quantrel eval LEXICON --sentences-file FILE
    quantrel laws [--quantale ...] [--universe-size N] [--grades ...]
    quantrel oracle LEXICON [--trials N] [--seed N] [--mode ...]

Every report line is a stable "key: value" pair; grades print with nine
decimal places.  Exit codes: 0 success, 1 parse or evaluation failure,
2 unreadable input or a size guard.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from .bialgebra import (GradeLattice, PowersetObject, check_bialgebra,
                        check_comonoid, check_monoid)
from .errors import (EnumerationLimitError, EvaluationError,
                     LexiconFormatError, QuantrelError)
from .lexicon import dump_lexicon, load_lexicon
from .quantale import by_name
from .sampling import (available_forms, crisp_determiners, graded_determiners,
                       randomize_model, sample_sentence)
from .semantics import degree_of_truth, eval_categorical, eval_crisp_truth
from .grammar import parse as parse_sentence
from .grammar import tokenize
from .vrel import CrispRel, IndexSet, compose, include, snake_identities

DEVIATION_TOLERANCE = 1e-9


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.9f}"


def _print_report(report) -> None:
    print(f"sentence: {report.sentence}")
    print(f"tree: {report.tree}")
    print(f"form: {report.form}")
    print(f"method: {report.method}")
    if report.method != "crisp":
        print(f"mode: {report.mode}")
    for key in ("crisp", "direct", "categorical"):
        if key in report.values:
            print(f"{key}: {_fmt(report.values[key])}")
    if report.diff is not None:
        print(f"diff: {_fmt(report.diff)}")


def cmd_eval(args) -> int:
    model = load_lexicon(args.lexicon)
    if (args.sentence is None) == (args.sentences_file is None):
        print("error: give exactly one of a sentence or --sentences-file",
              file=sys.stderr)
        return 2
    if args.sentence is not None:
        _print_report(degree_of_truth(args.sentence, model, method=args.method,
                                      mode=args.mode))
        return 0
    with open(args.sentences_file, "r", encoding="utf-8") as handle:
        sentences = [line.strip() for line in handle if line.strip()]
    failed = 0
    for i, sentence in enumerate(sentences):
        if i:
            print()
        try:
            report = degree_of_truth(sentence, model, method=args.method,
                                     mode=args.mode)
        except QuantrelError as exc:
            print(f"sentence: {sentence}")
            print(f"error: {exc}")
            failed += 1
            continue
        _print_report(report)
    return 1 if failed else 0


def _law_lines(name: str, report) -> List[str]:
    return [f"{name}.{law}: {'pass' if ok else 'fail'}" for law, ok in report.laws]


def cmd_laws(args) -> int:
    quantale = by_name(args.quantale)
    grades = GradeLattice([float(g) for g in args.grades.split(",")])
    universe = IndexSet([f"u{i + 1}" for i in range(args.universe_size)])
    obj = PowersetObject(universe, grades)
    # Run every law before printing, so a size guard leaves no partial report.
    lines: List[str] = []
    left, right = snake_identities(obj.index, quantale)
    lines.append(f"snake.left: {'pass' if left else 'fail'}")
    lines.append(f"snake.right: {'pass' if right else 'fail'}")
    lines += _law_lines("bialgebra", check_bialgebra(obj, quantale))
    lines += _law_lines("comonoid", check_comonoid(obj, quantale))
    lines += _law_lines("monoid", check_monoid(obj, quantale))

    rng = random.Random(args.seed)
    functorial = _functoriality_sample(quantale, rng, trials=20)
    lines.append(f"inclusion.functoriality: {'pass' if functorial else 'fail'}")

    ok = all(line.endswith("pass") for line in lines)
    print(f"quantale: {quantale.name}")
    print(f"universe_size: {len(universe)}")
    print(f"grades: {','.join(f'{g:g}' for g in grades)}")
    print(f"object_size: {len(obj)}")
    for line in lines:
        print(line)
    print(f"result: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _functoriality_sample(quantale, rng: random.Random, trials: int) -> bool:
    """Composition preservation of the crisp-to-graded inclusion on
    random relation pairs."""
    for _ in range(trials):
        sizes = [rng.randint(1, 4) for _ in range(3)]
        sets = [IndexSet([f"x{i}_{j}" for j in range(n)]) for i, n in enumerate(sizes)]
        r = _random_crisp(sets[0], sets[1], rng)
        s = _random_crisp(sets[1], sets[2], rng)
        direct = include(r.compose(s), quantale)
        staged = compose(include(r, quantale), include(s, quantale))
        if not staged.equal(direct):
            return False
    return True


def _random_crisp(a: IndexSet, b: IndexSet, rng: random.Random) -> CrispRel:
    pairs = [(x, y) for x in a.elements for y in b.elements if rng.random() < 0.4]
    return CrispRel(a, b, pairs)


def cmd_oracle(args) -> int:
    template = load_lexicon(args.lexicon)
    rng = random.Random(args.seed)
    forms = available_forms(template)
    if not forms:
        raise EvaluationError("template vocabulary cannot build any test sentence")
    print(f"lexicon: {args.lexicon}")
    print(f"trials: {args.trials}")
    print(f"seed: {args.seed}")
    print(f"mode: {args.mode}")

    graded = graded_determiners(template)
    crisp = crisp_determiners(template)
    max_dev = 0.0
    mismatches = 0
    counterexample = None

    if graded and template.quantale.carrier != "boolean":
        for trial in range(args.trials):
            model = randomize_model(template, rng)
            form = forms[trial % len(forms)]
            sentence = sample_sentence(model, form, rng, graded)
            report = degree_of_truth(sentence, model, method="both", mode=args.mode)
            if report.diff > max_dev:
                max_dev = report.diff
                if report.diff > DEVIATION_TOLERANCE and counterexample is None:
                    counterexample = (sentence, model)
        print(f"direct_vs_categorical.max_abs_deviation: {max_dev:.9f}")

    if crisp:
        for trial in range(args.trials):
            model = randomize_model(template, rng, crisp=True)
            form = forms[trial % len(forms)]
            sentence = sample_sentence(model, form, rng, crisp)
            tokens = tokenize(sentence, model)
            tree = parse_sentence(tokens)
            truth = eval_crisp_truth(tree, model)
            value = eval_categorical(tree, model, mode=args.mode)
            if (value == 1.0) != truth:
                mismatches += 1
                if counterexample is None:
                    counterexample = (sentence, model)
        print(f"crisp_vs_boolean_categorical.mismatches: {mismatches}")

    if counterexample is None:
        print("counterexample: none")
    else:
        sentence, model = counterexample
        print(f"counterexample.sentence: {sentence}")
        print(f"counterexample.lexicon: {json.dumps(dump_lexicon(model), sort_keys=True)}")

    gated = args.mode == "restricted"
    ok = (not gated) or (max_dev <= DEVIATION_TOLERANCE and mismatches == 0)
    print(f"result: {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantrel",
        description="Degrees of truth for a small quantified fragment of English.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate sentences against a lexicon")
    p_eval.add_argument("lexicon")
    p_eval.add_argument("sentence", nargs="?", default=None)
    p_eval.add_argument("--sentences-file", default=None,
                        help="evaluate every non-blank line of this file")
    p_eval.add_argument("--method", default="both",
                        choices=("crisp", "direct", "categorical", "both"))
    p_eval.add_argument("--mode", default="restricted",
                        choices=("restricted", "exhaustive"))
    p_eval.set_defaults(func=cmd_eval)

    p_laws = sub.add_parser("laws", help="check snake, bialgebra and (co)monoid laws")
    p_laws.add_argument("--quantale", default="godel")
    p_laws.add_argument("--universe-size", type=int, default=2)
    p_laws.add_argument("--grades", default="0,1")
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.set_defaults(func=cmd_laws)

    p_oracle = sub.add_parser("oracle", help="random-model equivalence sweep")
    p_oracle.add_argument("lexicon")
    p_oracle.add_argument("--trials", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--mode", default="restricted",
                          choices=("restricted", "exhaustive"))
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LexiconFormatError, EnumerationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuantrelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
