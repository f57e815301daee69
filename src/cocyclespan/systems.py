"""Generator tuples (A_1, ..., A_ell) with optional IFS translations."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import MAX_DIM, TAU_DET, as_matrix, invertible, operator_norm


@dataclass(frozen=True)
class GeneratorSystem:
    """An invertible matrix tuple generating a locally constant cocycle.

    Symbols are 1-based. ``exact`` records whether the stored doubles faithfully
    represent the user's decimal input; exact-arithmetic decision paths treat
    the stored doubles as binary rationals either way, the flag only selects
    between the exact and the tolerance-based 2x2 decision procedures.
    """

    generators: tuple[np.ndarray, ...]
    translations: tuple[np.ndarray, ...] | None = None
    exact: bool = True
    _gate = True  # class attribute, not a field: re-test invertibility on construction

    def __post_init__(self):
        if len(self.generators) == 0:  # a sequence, or an (ell, d, d) array read along its first axis
            raise InputError("a system needs at least one generator")
        try:
            stack = np.array(self.generators, dtype=float)
        except (TypeError, ValueError, OverflowError):  # ragged, or an entry no float holds
            stack = None
        if (stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]
                or not 2 <= stack.shape[1] <= MAX_DIM or not np.isfinite(stack).all()):
            # check generator by generator, to name what is wrong; once each
            # generator passes alone, only mixed dimensions fail the stack
            for A in self.generators:
                as_matrix(A)
            raise InputError("generators have mixed dimensions")
        if self._gate:
            bad = np.flatnonzero(~invertible(stack))
            if bad.size:
                raise InputError(f"generator {bad[0] + 1} not invertible "
                                 f"(|det| <= {TAU_DET:g} sigma_1^d)")
        stack.flags.writeable = False
        object.__setattr__(self, "generators", tuple(stack))  # read-only views of the stack
        object.__setattr__(self, "_stack", stack)  # not a field: `stacked` hands it out
        if self.translations is not None:
            if len(self.translations) != len(stack):
                raise InputError("translations must match the generator count")
            ts = []
            for t in self.translations:
                v = np.asarray(t, dtype=float).ravel()
                if v.size != stack.shape[1] or not np.isfinite(v).all():
                    raise InputError("translation has wrong size or non-finite entries")
                v = v.copy()
                v.flags.writeable = False
                ts.append(v)
            object.__setattr__(self, "translations", tuple(ts))

    @property
    def ell(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]

    def stacked(self) -> np.ndarray:
        """The generators as one read-only (ell, d, d) array, built once."""
        return self._stack

    def norms(self) -> list[float]:
        return [operator_norm(A) for A in self.generators]

    def is_conformal(self) -> bool:
        """True when every generator is a scalar multiple of an orthogonal matrix.

        For such systems singular values multiply exactly along products, so
        partition sums are exactly multiplicative (connector length 0, C = 1).
        """
        for A in self.generators:
            G = A.T @ A
            scale = np.trace(G) / self.dim
            if np.abs(G - scale * np.eye(self.dim)).max() > 1e-12 * max(scale, 1.0):
                return False
        return True


class _DerivedSystem(GeneratorSystem):
    """Products or compounds of a gate-passing system's generators.

    They are invertible by construction, so the conditioning re-test (which a
    long product of well-conditioned generators can fail) is skipped; shape,
    dimension-cap and finiteness checks still run.
    """

    _gate = False
