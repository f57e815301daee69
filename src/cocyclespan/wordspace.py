"""Words over {1..ell}, scaled cocycle products, and the enumeration budget.

A word I = i_0 ... i_{n-1} indexes the product A_{i_{n-1}} ... A_{i_0}: later
symbols multiply on the left. `product` runs the `kernels` engine on one word
and reads it canonically after every symbol: A_I = 2^exponent * unit with the
unit's largest |entry| in (0.5, 1], so contracting or expanding systems never
underflow, `ScaledProduct.matrix` is exact, and a product continued from a
prefix has the bits of the product of the whole word.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterator

import numpy as np

from .errors import InputError, ResourceLimitError
from .kernels import _LN2, _extend_level, _identity, _normalise
from .linalg import operator_norm
from .systems import GeneratorSystem

Word = tuple[int, ...]

DEFAULT_BUDGET = 20_000_000


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


def check_budget(count: int, budget: int = DEFAULT_BUDGET) -> None:
    if count > budget:
        shown = f"{count:.3g}" if count < 1e300 else f"about 2^{count.bit_length()}"
        raise ResourceLimitError(f"{shown} words exceed the budget of {budget}")


def check_sweep(ell: int, n: int, budget: int = DEFAULT_BUDGET) -> None:
    """Check a sweep of n levels over ell symbols, counted as max(ell**n, n) words.

    A lower bound on the bit length of ell**n decides first, so a count beyond
    both a float's range and the budget is refused without being built.
    """
    bits = n * (ell.bit_length() - 1)  # ell**n >= 2**bits
    if bits > max(1023, budget.bit_length()):
        raise ResourceLimitError(f"{ell}^{n} words exceed the budget of {budget}")
    check_budget(max(ell**n, n), budget)


def enumerate_words(ell: int, n: int) -> Iterator[Word]:
    """All length-n words in lexicographic order (1-based symbols)."""
    if ell < 1 or n < 0:
        raise InputError("need ell >= 1 and n >= 0")
    return _iproduct(range(1, ell + 1), repeat=n)


def word_unrank(rank: int, ell: int, n: int) -> Word:
    """The word of lexicographic rank `rank` among Lambda(n)."""
    word = []
    for _ in range(n):
        rank, s = divmod(int(rank), ell)
        word.append(s + 1)
    return tuple(reversed(word))


@dataclass(frozen=True)
class ScaledProduct:
    """A matrix carried exactly as 2^exponent * unit, the unit's largest |entry| in (0.5, 1]."""

    unit: np.ndarray
    exponent: int

    @property
    def matrix(self) -> np.ndarray:
        return np.ldexp(self.unit, self.exponent)

    @property
    def logscale(self) -> float:
        return self.exponent * _LN2

    def norm(self) -> float:
        return math.exp(self.logscale + math.log(operator_norm(self.unit)))


def product(system: GeneratorSystem, word: Word,
            start: ScaledProduct | None = None) -> ScaledProduct:
    """Scaled cocycle product along a word; empty word gives the identity.

    With `start` = A_J, the product along J followed by `word`, continued
    from J's unit and exponent with the same bits as `product` of the whole.
    """
    validate_word(word, system.ell)
    if start is None:
        units, exps = _identity(system.dim)
    else:
        units, exps = start.unit[:, :, None].copy(), np.array([float(start.exponent)])
    for s in word:
        units = _extend_level(system.generators[s - 1][None], units)
        _normalise(units, exps)
    return ScaledProduct(unit=units[:, :, 0], exponent=int(exps[0]))
