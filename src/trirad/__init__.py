"""Exact Rademacher symbols for triangle groups and modular-knot linking numbers."""

from trirad.exactnum import AlgebraicNumber, Field, MinPoly, SignCertificate, minpoly_2cos_pi_over, sign
from trirad.group import Element, GroupParams, LiftedElement, Matrix2, get_params
from trirad.words import GroupWord, Syllable, parse_word, render_word

__all__ = [
    "AlgebraicNumber",
    "Element",
    "Field",
    "GroupParams",
    "GroupWord",
    "LiftedElement",
    "Matrix2",
    "MinPoly",
    "SignCertificate",
    "Syllable",
    "get_params",
    "minpoly_2cos_pi_over",
    "parse_word",
    "render_word",
    "sign",
]

__version__ = "0.1.0"
