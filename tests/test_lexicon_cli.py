import json
import subprocess
import sys
from pathlib import Path

import pytest

import quantrel as qr
from conftest import animal_lexicon, crisp_lexicon

LEXICON_DIR = Path(__file__).resolve().parent.parent / "lexicons"


# -- lexicon schema ------------------------------------------------------------


def test_load_dump_round_trip():
    model = qr.load_lexicon(animal_lexicon())
    dumped = qr.dump_lexicon(model)
    again = qr.load_lexicon(dumped)
    assert qr.dump_lexicon(again) == dumped
    assert again.universe == model.universe
    assert again.nouns == model.nouns
    assert again.verbs == model.verbs
    assert again.quantifiers == model.quantifiers
    assert again.quantale is model.quantale


def test_default_grade_lattice_collects_file_grades():
    model = qr.load_lexicon(animal_lexicon())
    for fs in list(model.nouns.values()) + list(model.vps.values()):
        assert all(g in model.grades for g in fs.grades)
    assert 0.0 in model.grades and 1.0 in model.grades


def test_rejects_out_of_range_grade():
    data = animal_lexicon()
    data["nouns"]["cats"]["c1"] = 1.3
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


def test_rejects_unknown_universe_element():
    data = animal_lexicon()
    data["nouns"]["cats"]["c9"] = 0.5
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


def test_rejects_bad_quantifier_and_duplicate_universe():
    data = animal_lexicon()
    data["quantifiers"]["odd"] = {"kind": "half"}
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)
    for n in (2.7, True, "3"):
        data = animal_lexicon()
        data["quantifiers"]["exactlyn"] = {"kind": "exactly", "n": n}
        with pytest.raises(qr.LexiconFormatError):
            qr.load_lexicon(data)
    data = animal_lexicon()
    data["universe"] = ["c1", "c1", "c3"]
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


def _set_breakpoints(bps):
    return lambda d: d["quantifiers"]["several"].update(breakpoints=bps)


def _set_verb_grade(g):
    return lambda d: d["verbs"]["see"][1].__setitem__(2, g)


@pytest.mark.parametrize("edit", [
    _set_breakpoints([["0", False], [0.4, True], ["1", 0]]),
    _set_breakpoints([[0, False], [0.4, 1], [1, 0]]),
    _set_breakpoints([[0, 0], [0.4, True], [1, 0]]),
    lambda d: d["nouns"]["men"].update(a=True),
    _set_verb_grade(True),
    _set_verb_grade("0.5"),
    lambda d: d.update(threshold="0.3"),
    lambda d: d.update(threshold=True),
    lambda d: d.update(grades=["0", 0.5, "1"]),
    lambda d: d.update(grades=[False, 0.5, True]),
], ids=["breakpoint-strings-and-bools", "breakpoint-false", "breakpoint-true",
        "noun-grade-true", "verb-grade-true", "verb-grade-string",
        "threshold-string", "threshold-true", "lattice-strings", "lattice-bools"])
def test_rejects_numbers_given_as_strings_or_bools(edit):
    """small.json loads as shipped; each edit puts a string or a bool
    where the schema wants a number, and none is coerced."""
    data = json.loads((LEXICON_DIR / "small.json").read_text())
    qr.load_lexicon(data)
    edit(data)
    with pytest.raises(qr.LexiconFormatError, match="must be a number"):
        qr.load_lexicon(data)


@pytest.mark.parametrize("edit", [
    lambda d: d["verbs"]["see"].__setitem__(1, ["b", "a"]),
    lambda d: d["quantifiers"].update(several="fuzzy"),
    lambda d: d["nouns"].update(men=5),
    lambda d: d.update(quantifiers=[]),
    lambda d: d.update(nps=[]),
    lambda d: d.update(verbs=[]),
    lambda d: d.update(universe="ab"),
    lambda d: d.update(universe=["a", "b", ["c", "d"]]),
    lambda d: d.update(universe=["a", "b", 3]),
], ids=["two-element-verb-entry", "quantifier-as-string", "noun-as-number",
        "quantifiers-as-list", "nps-as-list", "verbs-as-list", "universe-as-string",
        "universe-list-element", "universe-number-element"])
def test_rejects_malformed_structure(edit):
    """small.json loads as shipped; a verb entry without its grade, a
    group or entry that is not a JSON object, or a universe that is not
    a list of strings, is a LexiconFormatError, never a raw IndexError
    or AttributeError, and no universe element is made a string."""
    data = json.loads((LEXICON_DIR / "small.json").read_text())
    qr.load_lexicon(data)
    edit(data)
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


def test_rejects_nan_breakpoint(tmp_path):
    """A breakpoint proportion written as JSON NaN is refused on load."""
    data = json.loads((LEXICON_DIR / "small.json").read_text())
    data["quantifiers"]["several"]["breakpoints"] = [[0, 0], [float("nan"), 1], [1, 0]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    with pytest.raises(qr.LexiconFormatError, match=r"proportions must lie in \[0, 1\]"):
        qr.load_lexicon(path)


def test_rejects_explicit_lattice_missing_used_grade():
    data = animal_lexicon()
    data["grades"] = [0, 0.5, 1]
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


def test_rejects_empty_or_missing_universe():
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon({"universe": []})
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon({"nouns": {}})


def test_shipped_lexicons_load():
    demo = qr.load_lexicon(LEXICON_DIR / "demo.json")
    assert demo.quantale is qr.GODEL
    crisp = qr.load_lexicon(LEXICON_DIR / "crisp.json")
    assert crisp.quantale is qr.BOOLEAN
    assert crisp.is_crisp()


# -- CLI -----------------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "quantrel", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lex") / "demo.json"
    path.write_text(json.dumps(animal_lexicon()))
    return str(path)


@pytest.fixture(scope="module")
def crisp_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("lex") / "crisp.json"
    path.write_text(json.dumps(crisp_lexicon()))
    return str(path)


def test_cli_eval_direct(demo_path):
    proc = run_cli("eval", demo_path, "several cats sleep", "--method", "direct")
    assert proc.returncode == 0
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert lines["form"] == "QuantSubject"
    assert lines["direct"] == "0.512820513"
    assert lines["tree"] == "(S (NP (Det several) (N cats)) (VP sleep))"


def test_cli_eval_both_double_quant(demo_path):
    proc = run_cli("eval", demo_path, "several mice eat most plants", "--method", "both")
    assert proc.returncode == 0
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert lines["form"] == "DoubleQuant"
    assert lines["direct"] == "0.280000000"
    assert lines["categorical"] == "0.280000000"
    assert lines["diff"] == "0.000000000"


def test_cli_eval_crisp(crisp_path):
    proc = run_cli("eval", crisp_path, "john liked some trees", "--method", "crisp")
    assert proc.returncode == 0
    assert "crisp: true" in proc.stdout


def test_cli_eval_unknown_word(demo_path):
    proc = run_cli("eval", demo_path, "xyzzy sleeps")
    assert proc.returncode == 1
    assert "xyzzy" in proc.stderr


def test_cli_eval_missing_file():
    proc = run_cli("eval", "/nonexistent/lex.json", "several cats sleep")
    assert proc.returncode == 2


def test_non_utf8_lexicon_is_a_format_error(tmp_path):
    """A lexicon file that is not UTF-8 text is refused on load, and the
    CLI exits 2 with one error line."""
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"universe": ["caf\xe9"]}')
    with pytest.raises(qr.LexiconFormatError, match="not valid JSON"):
        qr.load_lexicon(path)
    proc = run_cli("eval", str(path), "several cats sleep")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cli_rejects_malformed_lexicon_groups(tmp_path):
    """A lexicon group that is not a JSON object exits 2 with one error
    line, not a traceback."""
    path = tmp_path / "cats.json"
    path.write_text(json.dumps({"universe": ["a"], "nouns": {"cats": 5}}))
    proc = run_cli("eval", str(path), "several cats sleep")
    assert proc.returncode == 2
    assert proc.stderr == "error: nouns entry 'cats' must be a JSON object, got 5\n"


def test_cli_eval_parse_failure(demo_path):
    proc = run_cli("eval", demo_path, "sleep")
    assert proc.returncode == 1


def test_cli_eval_sentences_file(demo_path, tmp_path):
    sentences = tmp_path / "sentences.txt"
    sentences.write_text("several cats sleep\n\nmice eat several plants\n")
    proc = run_cli("eval", demo_path, "--sentences-file", str(sentences),
                   "--method", "direct")
    assert proc.returncode == 0
    blocks = proc.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    assert "direct: 0.512820513" in blocks[0]
    assert "direct: 0.454545455" in blocks[1]

    bad = tmp_path / "bad.txt"
    bad.write_text("several cats sleep\nxyzzy sleeps\n")
    proc = run_cli("eval", demo_path, "--sentences-file", str(bad))
    assert proc.returncode == 1
    assert "error: unknown word" in proc.stdout

    both = run_cli("eval", demo_path, "several cats sleep",
                   "--sentences-file", str(sentences))
    assert both.returncode == 2

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"several cats sl\xe9ep\n")
    proc = run_cli("eval", demo_path, "--sentences-file", str(latin1))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {latin1}: not UTF-8 text")
    assert "Traceback" not in proc.stderr


def test_cli_laws_pass_and_guard():
    proc = run_cli("laws", "--quantale", "godel", "--universe-size", "2",
                   "--grades", "0,0.5,1")
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
    for fragment in ("snake.", "bialgebra.", "comonoid.", "monoid."):
        assert fragment in proc.stdout

    guard = run_cli("laws", "--universe-size", "30")
    assert guard.returncode == 2


def test_cli_laws_boolean():
    proc = run_cli("laws", "--quantale", "boolean", "--universe-size", "3",
                   "--grades", "0,1")
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout


def test_cli_oracle_crisp(crisp_path):
    proc = run_cli("oracle", crisp_path, "--trials", "60", "--seed", "5")
    assert proc.returncode == 0
    assert "crisp_vs_boolean_categorical.mismatches: 0" in proc.stdout
    assert "counterexample: none" in proc.stdout


def test_cli_oracle_fuzzy(demo_path):
    proc = run_cli("oracle", demo_path, "--trials", "120", "--seed", "7")
    assert proc.returncode == 0
    assert "direct_vs_categorical.max_abs_deviation: 0.000000000" in proc.stdout


def test_cli_output_deterministic(demo_path):
    a = run_cli("oracle", demo_path, "--trials", "40", "--seed", "3")
    b = run_cli("oracle", demo_path, "--trials", "40", "--seed", "3")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_cli_eval_exhaustive_mode():
    proc = run_cli("eval", str(LEXICON_DIR / "small.json"), "several men run",
                   "--method", "both", "--mode", "exhaustive")
    assert proc.returncode == 0
    lines = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    assert lines["mode"] == "exhaustive"
    assert float(lines["categorical"]) >= float(lines["direct"]) - 1e-9

    # the demo lattice has ten grades; the exhaustive join is guarded
    guarded = run_cli("eval", str(LEXICON_DIR / "demo.json"),
                      "several cats sleep", "--mode", "exhaustive")
    assert guarded.returncode == 2


def test_cli_laws_reports_both_snake_sides():
    proc = run_cli("laws", "--quantale", "product", "--universe-size", "1",
                   "--grades", "0,0.5,1")
    assert proc.returncode == 0
    assert "snake.left: pass" in proc.stdout
    assert "snake.right: pass" in proc.stdout


def test_cli_laws_guard_fires_before_any_output():
    proc = run_cli("laws", "--universe-size", "4", "--grades", "0,0.5,1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_cli_laws_refuses_a_huge_universe_before_building_it():
    """A universe whose subset count has more digits than Python will
    print is refused by the powerset guard with a short message."""
    proc = run_cli("laws", "--universe-size", "20000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: powerset object of 2^20000 subsets exceeds "
                           "the guard of 20000\n")


@pytest.mark.parametrize("args", [
    ("laws", "--grades", "0,abc"),
    ("laws", "--grades", "0.5,1"),
    ("laws", "--grades", "nan,0,1"),
    ("laws", "--universe-size", "-3"),
    ("laws", "--universe-size", "0"),
    ("oracle", str(LEXICON_DIR / "crisp.json"), "--trials", "0"),
    ("oracle", str(LEXICON_DIR / "crisp.json"), "--trials", "-5"),
], ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_cli_rejects_malformed_arguments_with_usage_error(args):
    """A malformed or out-of-range option is unreadable input: a usage
    error on stderr, nothing on stdout, exit 2, and no check runs."""
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
