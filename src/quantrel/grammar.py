"""Tokenizer, parser and sentence-form classifier for the fragment

    S  -> NP VP
    VP -> V NP
    NP -> Det N
    NP -> lexical noun phrases (john, mice, ...)
    N  -> lexical nouns
    VP -> lexical intransitive verbs
    V  -> lexical transitive verbs
    Det -> lexical determiners

Words get all their lexicon categories at tokenization; the parser
resolves them by trying every derivation and rejects sentences with
none or more than one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, List, Tuple

from .errors import AmbiguousParseError, ParseFailureError, UnknownWordError


@dataclass(frozen=True)
class Token:
    surface: str
    categories: FrozenSet[str]


@dataclass(frozen=True)
class ParseTree:
    """Either an internal node with children or a lexical leaf."""

    label: str
    children: Tuple["ParseTree", ...] = ()
    word: str = ""

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> List[str]:
        if self.is_leaf():
            return [self.word]
        out: List[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def __str__(self) -> str:
        if self.is_leaf():
            return f"({self.label} {self.word})"
        return f"({self.label} " + " ".join(str(c) for c in self.children) + ")"


class SentenceForm(Enum):
    BARE_INTRANSITIVE = "BareIntransitive"   # np vp
    QUANT_SUBJECT = "QuantSubject"           # d n vp
    QUANT_OBJECT = "QuantObject"             # np v d n
    DOUBLE_QUANT = "DoubleQuant"             # d n v d' n'
    BARE_TRANSITIVE = "BareTransitive"       # np v np'

    def __str__(self) -> str:
        return self.value


def tokenize(text: str, lexicon) -> List[Token]:
    """Whitespace-split, lowercase, and annotate words with every category
    the lexicon lists them under.  `lexicon` is anything exposing
    categories_of(word) -> frozenset."""
    tokens = []
    for word in text.lower().split():
        cats = lexicon.categories_of(word)
        if not cats:
            raise UnknownWordError(word)
        tokens.append(Token(word, cats))
    return tokens


def _leaf(label: str, token: Token) -> ParseTree:
    return ParseTree(label, word=token.surface)


def _np_trees(tokens: List[Token], start: int) -> List[Tuple[ParseTree, int]]:
    """All NP derivations beginning at `start`, with their end positions."""
    out = []
    if start < len(tokens) and "NP" in tokens[start].categories:
        out.append((_leaf("NP", tokens[start]), start + 1))
    if (start + 1 < len(tokens)
            and "Det" in tokens[start].categories
            and "N" in tokens[start + 1].categories):
        det = _leaf("Det", tokens[start])
        noun = _leaf("N", tokens[start + 1])
        out.append((ParseTree("NP", (det, noun)), start + 2))
    return out


def _vp_trees(tokens: List[Token], start: int) -> List[Tuple[ParseTree, int]]:
    out = []
    if start < len(tokens) and "VP" in tokens[start].categories:
        out.append((_leaf("VP", tokens[start]), start + 1))
    if start < len(tokens) and "V" in tokens[start].categories:
        verb = _leaf("V", tokens[start])
        for np, end in _np_trees(tokens, start + 1):
            out.append((ParseTree("VP", (verb, np)), end))
    return out


def derivations(tokens: List[Token]) -> List[ParseTree]:
    """Every complete derivation of S over the token list."""
    out = []
    for np, mid in _np_trees(tokens, 0):
        for vp, end in _vp_trees(tokens, mid):
            if end == len(tokens):
                out.append(ParseTree("S", (np, vp)))
    return out


def parse(tokens: List[Token]) -> ParseTree:
    """The unique derivation of S, or an error.

    A failed parse reports how far the best attempt got; more than one
    derivation is reported as ambiguity rather than silently resolved.
    """
    if not tokens:
        raise ParseFailureError("empty sentence", 0)
    trees = derivations(tokens)
    if len(trees) == 1:
        return trees[0]
    if len(trees) > 1:
        raise AmbiguousParseError(
            f"{len(trees)} derivations for {' '.join(t.surface for t in tokens)!r}")
    furthest = 0
    for np, mid in _np_trees(tokens, 0):
        furthest = max(furthest, mid)
        for _vp, end in _vp_trees(tokens, mid):
            furthest = max(furthest, end)
    raise ParseFailureError("no derivation", furthest)


def _np_is_quantified(np: ParseTree) -> bool:
    return len(np.children) == 2


def classify(tree: ParseTree) -> SentenceForm:
    """Deterministic sentence form from the tree shape.

    A quantified subject with a transitive verb phrase and a bare object
    ("d n v np") counts as QUANT_SUBJECT: the verb phrase as a whole
    plays the intransitive role and its denotation is derived when the
    sentence is evaluated.
    """
    subject, vp = tree.children
    q_subj = _np_is_quantified(subject)
    if vp.is_leaf():
        return SentenceForm.QUANT_SUBJECT if q_subj else SentenceForm.BARE_INTRANSITIVE
    obj = vp.children[1]
    q_obj = _np_is_quantified(obj)
    if q_subj and q_obj:
        return SentenceForm.DOUBLE_QUANT
    if q_subj:
        return SentenceForm.QUANT_SUBJECT
    if q_obj:
        return SentenceForm.QUANT_OBJECT
    return SentenceForm.BARE_TRANSITIVE
