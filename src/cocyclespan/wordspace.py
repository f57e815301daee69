"""Words over {1..ell}, scaled cocycle products, and the enumeration budget.

A word I = i_0 ... i_{n-1} indexes the product A_{i_{n-1}} ... A_{i_0}: later
symbols multiply on the left. Products are carried as (unit, logscale) with
the unit's operator norm kept in [0.5, 2] by exact power-of-two rescaling, so
arbitrarily contracting or expanding systems never underflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterator

import numpy as np

from .errors import InputError, ResourceLimitError
from .linalg import operator_norm
from .systems import GeneratorSystem

Word = tuple[int, ...]

DEFAULT_BUDGET = 20_000_000
_LN2 = math.log(2.0)


def word_str(word: Word, ell: int | None = None) -> str:
    """'1'..'9' characters for small alphabets, comma-separated otherwise."""
    if not word:
        return ""
    big = (ell or max(word)) > 9
    return ",".join(map(str, word)) if big else "".join(map(str, word))


def parse_word(text: str, ell: int) -> Word:
    text = text.strip()
    if not text:
        return ()
    parts = text.split(",") if "," in text else list(text)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"cannot parse word {text!r}") from exc
    validate_word(word, ell)
    return word


def validate_word(word: Word, ell: int) -> None:
    for s in word:
        if not 1 <= s <= ell:
            raise InputError(f"symbol {s} outside 1..{ell} in word {word_str(word)!r}")


def check_budget(count: float, budget: int = DEFAULT_BUDGET) -> None:
    if count > budget:
        raise ResourceLimitError(f"{count:.3g} words exceed the budget of {budget}")


def enumerate_words(ell: int, n: int) -> Iterator[Word]:
    """All length-n words in lexicographic order (1-based symbols)."""
    if ell < 1 or n < 0:
        raise InputError("need ell >= 1 and n >= 0")
    return _iproduct(range(1, ell + 1), repeat=n)


def word_rank(word: Word, ell: int) -> int:
    """Lexicographic rank of a word among Lambda(len(word))."""
    r = 0
    for s in word:
        r = r * ell + (s - 1)
    return r


@dataclass(frozen=True)
class ScaledProduct:
    """A matrix carried as exp(logscale) * unit with |unit| in [0.5, 2]."""

    unit: np.ndarray
    logscale: float

    @property
    def matrix(self) -> np.ndarray:
        return math.exp(self.logscale) * self.unit

    @property
    def log_norm(self) -> float:
        return self.logscale + math.log(operator_norm(self.unit))

    def norm(self) -> float:
        return math.exp(self.log_norm)

    def left_multiply(self, A: np.ndarray) -> "ScaledProduct":
        return _rescaled(A @ self.unit, self.logscale)


def _rescaled(M: np.ndarray, logscale: float) -> ScaledProduct:
    nrm = operator_norm(M)
    if nrm == 0.0:
        raise InputError("zero matrix in a scaled product")
    if 0.5 <= nrm <= 2.0:
        return ScaledProduct(unit=M, logscale=logscale)
    e = math.floor(math.log2(nrm))
    return ScaledProduct(unit=M * 2.0 ** (-e), logscale=logscale + e * _LN2)


def identity_product(d: int) -> ScaledProduct:
    return ScaledProduct(unit=np.eye(d), logscale=0.0)


def product(system: GeneratorSystem, word: Word) -> ScaledProduct:
    """Scaled cocycle product along a word; empty word gives the identity."""
    validate_word(word, system.ell)
    acc = identity_product(system.dim)
    for s in word:
        acc = acc.left_multiply(system.generator(s))
    return acc
