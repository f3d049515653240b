"""Linking numbers of modular knots around the (p,q)-torus knot.

Everything here is integer/rational arithmetic on top of the symbols module:
n_gamma and m_gamma from psi mod r, the lens-space linking psi/r, and the
S^3 linking psi/gcd(r, symbol of the primitive root), with the component count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from trirad.errors import DomainError, PreconditionError
from trirad.group import Element, is_primitive, primitive_root
from trirad.symbols import homogeneous_Psi_h, modified_Psi_e, psi, rademacher_Psi

# variant -> symbol; each lambda looks its function up when called, so a
# wrapper installed on this module's binding also sees these calls
_SYMBOLS = {
    "psi": lambda el: psi(el),
    "Psi": lambda el: rademacher_Psi(el),
    "Psi_h": lambda el: homogeneous_Psi_h(el),
    "Psi_e": lambda el: modified_Psi_e(el),
}
VARIANTS = tuple(_SYMBOLS)


def generic_fiber_lk(params) -> Fraction:
    """lk of a generic Seifert fiber around the knot: -pq/r."""
    return Fraction(-params.p * params.q, params.r)


def n_gamma(el: Element) -> int:
    """The level n with (gamma, n) in G_r, i.e. 2pq n = psi(gamma) mod r."""
    r = el.params.r
    if r == 1:
        return 0
    inv = pow(2 * el.params.p * el.params.q, -1, r)
    return (psi(el) * inv) % r


def m_gamma(el: Element) -> int:
    """Order of the knot's class in H_1 of the lens space: r/gcd(r, psi)."""
    r = el.params.r
    return r // math.gcd(r, psi(el))


def _symbol(variant: str):
    try:
        return _SYMBOLS[variant]
    except KeyError:
        raise DomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}") from None


def _symbol_value(el: Element, variant: str) -> int:
    cls = el.classify()
    if variant == "psi":
        if cls != "hyperbolic":
            raise PreconditionError(f"variant psi requires tr > 2 (hypotheses of the lens theorem); element is {cls}")
        if el.trace_sign() <= 0:
            raise PreconditionError("variant psi requires tr > 2")
        if el.asai() <= 0:
            raise PreconditionError("variant psi requires c > 0")
        if not is_primitive(el):
            raise PreconditionError("variant psi requires a primitive element")
    elif variant in ("Psi", "Psi_h") and cls != "hyperbolic":
        raise PreconditionError(f"variant {variant} requires a hyperbolic element; got {cls}")
    return _symbol(variant)(el)


def lk_lens(el: Element, variant: str = "Psi_e") -> Fraction:
    """Linking number around the image knot in the lens space L(r, p-1)."""
    return Fraction(_symbol_value(el, variant), el.params.r)


def _root_symbol(el: Element, variant: str) -> int:
    """Symbol value of the primitive root, feeding the S^3 gcd."""
    cls = el.classify()
    if cls == "elliptic":
        # elliptic classes are conjugate into <S> or <U>; the root is the generator
        w, _ = el.cyclic_reduce()
        gen = w.syllables[0].gen
        return -el.params.q if gen == "S" else -el.params.p
    if cls == "central":
        raise PreconditionError("central elements have no primitive root; S^3 linking undefined")
    root, _ = primitive_root(el)
    return _symbol(variant)(root)


def lk_s3(el: Element, variant: str = "Psi_e"):
    """S^3 linking number of the preimage link, plus its component count."""
    value = _symbol_value(el, variant)
    r = el.params.r
    if variant == "psi":
        g = math.gcd(r, value)
    else:
        g = math.gcd(r, _root_symbol(el, variant))
    if value % g:
        raise PreconditionError("symbol not divisible by the component count; S^3 linking undefined")
    return value // g, g


@dataclass(frozen=True)
class LinkingReport:
    r: int
    variant: str
    psi_used: int
    lk_lens: Fraction
    n_gamma: int
    m_gamma: int
    components: Optional[int]
    lk_s3: Optional[int]

    def to_dict(self):
        out = {
            "r": self.r,
            "variant": self.variant,
            "psi_used": self.psi_used,
            "lk_lens": f"{self.lk_lens.numerator}/{self.lk_lens.denominator}",
            "n_gamma": self.n_gamma,
            "m_gamma": self.m_gamma,
        }
        if self.lk_s3 is not None:
            out["lk_s3"] = self.lk_s3
            out["components"] = self.components
        return out


def linking_report(el: Element, variant: str = "Psi_e", space: str = "s3") -> LinkingReport:
    value = _symbol_value(el, variant)
    lens = Fraction(value, el.params.r)
    lk3 = comps = None
    if space == "s3":
        lk3, comps = lk_s3(el, variant)
    elif space != "lens":
        raise DomainError(f"unknown space {space!r}; expected 'lens' or 's3'")
    return LinkingReport(
        r=el.params.r,
        variant=variant,
        psi_used=value,
        lk_lens=lens,
        n_gamma=n_gamma(el),
        m_gamma=m_gamma(el),
        components=comps,
        lk_s3=lk3,
    )


def in_G_r(el: Element, level: int) -> bool:
    """Membership in G_r: 2pq * level = psi(gamma) mod r."""
    params = el.params
    return (2 * params.p * params.q * level - psi(el)) % params.r == 0
