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
    data = animal_lexicon()
    data["universe"] = ["c1", "c1", "c3"]
    with pytest.raises(qr.LexiconFormatError):
        qr.load_lexicon(data)


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


def test_cli_oracle_exhaustive_mode_is_diagnostic():
    proc = run_cli("oracle", str(LEXICON_DIR / "small.json"),
                   "--trials", "30", "--seed", "1", "--mode", "exhaustive")
    assert proc.returncode == 0
    assert "mode: exhaustive" in proc.stdout
    assert "direct_vs_categorical.max_abs_deviation:" in proc.stdout


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
