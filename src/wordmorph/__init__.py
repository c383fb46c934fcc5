"""Words, uniform morphisms and pattern-preservation checks.

The package decides whether a uniform morphism maps square-free words to
square-free words (or overlap-free to overlap-free) by finite conditions on
its images, and cross-checks such verdicts by bounded brute-force search.
"""

from .certify import (
    AlignmentCase,
    AlignmentDiagnosis,
    Counterexample,
    Direction,
    SearchResult,
    certify_backward,
    certify_forward,
    classify_alignment,
    explain,
    residues,
    search_backward,
    search_forward,
)
from .morphfile import format_morphism_file, parse_morphism_file
from .morphisms import Morphism, catalog, catalog_names, iterate_prefix
from .unstackable import (
    BorderWitness,
    ConditionReport,
    EndWitness,
    ImageWitness,
    NonUniformError,
    Verdict,
    check_border_condition,
    check_image_triples,
    check_lemma_consequences,
    check_marked_ends,
    check_overlap_def,
    check_square_def,
)
from .words import (
    Alphabet,
    Occurrence,
    ParseError,
    PatternKind,
    Word,
    count_factor,
    enumerate_pattern_free,
    extend_check,
    find_pattern,
    parse_word,
)

__all__ = [
    "Alphabet",
    "AlignmentCase",
    "AlignmentDiagnosis",
    "BorderWitness",
    "ConditionReport",
    "Counterexample",
    "Direction",
    "EndWitness",
    "ImageWitness",
    "Morphism",
    "NonUniformError",
    "Occurrence",
    "ParseError",
    "PatternKind",
    "SearchResult",
    "Verdict",
    "Word",
    "catalog",
    "catalog_names",
    "certify_backward",
    "certify_forward",
    "check_border_condition",
    "check_image_triples",
    "check_lemma_consequences",
    "check_marked_ends",
    "check_overlap_def",
    "check_square_def",
    "classify_alignment",
    "count_factor",
    "enumerate_pattern_free",
    "explain",
    "extend_check",
    "find_pattern",
    "format_morphism_file",
    "iterate_prefix",
    "parse_morphism_file",
    "parse_word",
    "residues",
    "search_backward",
    "search_forward",
]

__version__ = "0.1.0"
