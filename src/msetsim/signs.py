"""Pointwise sign kernels: the plain sign, the five pairwise sign gates of a
sample pair, and the generalized (signed) Kronecker delta.

Each public function takes its operands by the operand rule of
:mod:`msetsim.msetops`: a finite real number, read as a float, or a
ValueError that names the operand.  :func:`_conjoint` is the gate function
without that rule, for samples a :class:`~msetsim.msetops.Signal` has
already validated.
"""

from typing import NamedTuple

from .msetops import _operands


class SignTuple(NamedTuple):
    """The five pairwise sign values at one sample pair (x, y).

    ``s_p`` and ``s_m`` are ``|sx + sy|`` and ``|sx - sy|``; ``s_hp`` and
    ``s_hm`` are their halves, gating same-sign and opposite-sign
    contributions; ``s_xy`` is the plain sign product.  Every value is an
    exact binary float (0, 0.5, 1, or 2), so identities between them hold
    under ``==`` with no tolerance.
    """

    s_p: float
    s_m: float
    s_hp: float
    s_hm: float
    s_xy: float


def sign(x: float) -> int:
    """Return -1, 0, or +1 for a finite real value; -0.0 counts as zero."""
    x = _operands(x)[0]
    return (x > 0) - (x < 0)


def conjoint_signs(x: float, y: float) -> SignTuple:
    """Evaluate the five sign gates for the pair (x, y).

    The identity s_xy == s_hp - s_hm holds for every input, zeros included.
    When both operands are nonzero the gates partition unity (s_hp + s_hm
    == 1) and s_xy == s_p - 1 == 1 - s_m; a single zero operand puts 0.5 in
    both gates.
    """
    return _conjoint(*_operands(x, y))


def _conjoint(x: float, y: float) -> SignTuple:
    """The five sign gates of a pair of floats, unchecked."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    s_p = float(abs(sx + sy))
    s_m = float(abs(sx - sy))
    return SignTuple(s_p, s_m, s_p / 2.0, s_m / 2.0, float(sx * sy))


def gen_kronecker(x: float, y: float) -> int:
    """Signed Kronecker delta: +1 when x == y != 0, -1 when x == -y != 0,
    0 at the origin and everywhere off both crests."""
    x, y = _operands(x, y)
    if x == y:
        return 1 if x != 0 else 0
    if x == -y:
        return -1
    return 0
