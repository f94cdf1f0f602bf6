"""Degrees of truth for a small quantified fragment of English.

Sentences like "several cats sleep" are parsed and scored two ways: by
the fuzzy-quantifier formulas (a possibility distribution applied to a
proportion of sigma-counts) and by compiling the parse into a pipeline
of many-valued relations and reading off its single scalar entry.  The
package also ships exhaustive checkers for the algebraic laws the
relational side rests on: compact-closure snake identities, bialgebra
interaction laws, and quantifier conservativity.
"""

from .bialgebra import (GradeLattice, LawReport, PowersetObject,
                        check_bialgebra, check_comonoid, check_monoid, delta,
                        iota, mu, zeta)
from .errors import (AmbiguousParseError, EmptyRestrictorError,
                     EnumerationLimitError, EvaluationError,
                     LexiconFormatError, ParseFailureError, QuantrelError,
                     ShapeMismatchError, UnknownWordError)
from .fuzzyset import (FuzzyRelation, FuzzySet, crisp_forward_image,
                       intersect, proportion, scale, sigma_count, verb_image)
from .grammar import (ParseTree, SentenceForm, Token, classify, derivations,
                      parse, tokenize)
from .lexicon import dump_lexicon, load_lexicon
from .quantale import (BOOLEAN, GODEL, LUKASIEWICZ, PRODUCT, Quantale,
                       by_name)
from .quantifier import (CrispQuantifier, FuzzyQuantifier, apply_distribution,
                         apply_quantifier_argmax, gq_holds, graded_entry,
                         is_conservative, quantifier_vrel)
from .semantics import (Model, MorphismPipeline, TruthReport, compile_pipeline,
                        degree_of_truth, eval_categorical, eval_crisp_truth,
                        eval_zadeh_direct, lexical_state, verb_between,
                        verb_relation, verb_state)
from .vrel import (CrispRel, IndexSet, VRel, check_snake, compose, coname,
                   epsilon, eta, identity, include, merge_effect, merge_join,
                   name, snake_identities, swap, tensor_rel)

__version__ = "0.1.0"
