"""Witness-producing membership decisions for the nonnegative-commutator set.

Membership of (alpha, beta) splits by sign: the axes and the quadrant
alpha < 0 < beta always belong, alpha > 0 > beta never does, and the two
same-sign quadrants are decided by finite searches for integer parameters
placing the pair on one of the member families:

    positive:  m*alpha*beta + n*alpha = beta         m, n >= 0, not both 0
    negative:  m*alpha*beta - n*beta  = -alpha       m >= 0, n >= 1
               alpha = -q/p and -1/p <= beta < 0     p, q >= 1 coprime
               alpha = -q/p, beta = -(1/p) / (1 + (m/p + n/q - 1)/r)
                                                     m >= 0, n >= 1, r >= 2,
                                                     0 < m/p + n/q < 1

Each family condition is a linear congruence in the numerators and
denominators, so the whole decision runs on the four integer parts of the
pair, read once by two ``as_integer_ratio()`` calls, in ``_decide``: its sign
dispatch ``_witness`` returns the witness a scan in increasing m (then n)
would meet first as a tuple (kind, params), and ``_counterexample`` a
non-member's least violating breakpoint as a numerator and a denominator.
The searches and their costs:

    positive line   least m of m*(a*c) + n*(a*d) = b*c, one modular inverse
                    (``_kernels._least_representation``, shared with
                    semigroup membership and the Beatty witness)
    hyperbola       the positive line at (-beta, -alpha), n >= 1
    vertical        the test c*p <= d
    sporadic        None at once when no
                    m <= m_top = (p*(q - 1) - t_min)//q can reach r >= 2
                    (every beta <= -2/p, every q = 1); else O(m_top/G) steps,
                    one congruence in n per G-th m (``_kernels._sporadic``)
    certificate     a non-member's least violating breakpoint, closed form
                    for alpha > 0 > beta, else the least k in [1, lcm] of the
                    two numerators with a residue test, O(lcm) steps
                    (``_kernels._least_k``, shared with
                    ``integer_rounding_check``)

where alpha = a/b or -q/p and beta = c/d or -c/d in lowest terms.  The
positive and hyperbola certificates and the sporadic exit take time
polynomial in the bit length of the inputs; the sporadic scan is still linear
in m_top < p, and the non-member certificate in the lcm of the numerators.
The certificate search decides membership on its own, so a non-member's
verdict carries an x with commutator < 0, checked on the integer parts by one
``_oracle._commutator`` call before x becomes the verdict's one Fraction,
built from the checked ints by ``exact._fraction``, and no oracle runs
here; the period oracle cross-checks verdicts in the CLI and the test
suite.  This module wraps the tuples in the records below: a
member's witness record is built from its (kind, params) through one table,
and ``positive_witness`` and ``negative_witness`` add their guards to the
same searches.

Five records have a hand-written ``__init__``, because a benchmark workload
builds each once per op: ``floorfn``'s ``DilationPair`` and ``OracleReport``
(``grid``), and ``Verdict`` (``grid`` and ``bits``), ``MuNu`` and
``SigmaTau`` (``criteria``) here.  So do ``PositiveLinear`` and
``NegHyperbola``: ``bits`` builds one of them on 8 of its 20 ops, each of a
few microseconds, and the generated ``__init__`` with a ``__post_init__``
check costs about 0.5 us more per record, which moved that workload's
latencies past the benchmark's bound.  Each runs the checks and conversions, then writes each field
into the instance dict, which costs about half of the generated
``object.__setattr__`` per field.  They stay frozen dataclasses, and
``dataclasses.replace`` runs the same checks through that ``__init__``.
``NegVertical`` and ``NegSporadic``, which only ``grid`` builds, on 238 of its
16 570 ops, keep the generated ``__init__`` and check their fields in
``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import ClassVar, Union

from ._decide import _counterexample, _negative, _positive, _witness
from .exact import Rat, _fraction, as_rat, positive_rat, require_int, require_type
from .floorfn import _POSITIVE, DilationPair

_QUADRANT = "symmetries are defined on the open positive quadrant"


@dataclass(frozen=True)
class AxisZero:
    """alpha = 0 or beta = 0: both compositions vanish identically."""

    kind: ClassVar[str] = "axis_zero"


@dataclass(frozen=True)
class MixedNegPos:
    """alpha < 0 < beta: the left side dominates pointwise."""

    kind: ClassVar[str] = "mixed_neg_pos"


@dataclass(frozen=True, init=False)
class PositiveLinear:
    """m*alpha*beta + n*alpha = beta with m, n >= 0, not both zero."""

    m: int
    n: int
    kind: ClassVar[str] = "positive_linear"

    def __init__(self, m: int, n: int) -> None:
        if not type(m) is type(n) is int:
            _require_ints(m=m, n=n)
        if m < 0 or n < 0 or (m == 0 and n == 0):
            raise ValueError("need m, n >= 0, not both zero")
        state = self.__dict__
        state["m"] = m
        state["n"] = n


@dataclass(frozen=True, init=False)
class NegHyperbola:
    """m*alpha*beta - n*beta = -alpha with m >= 0, n >= 1."""

    m: int
    n: int
    kind: ClassVar[str] = "neg_hyperbola"

    def __init__(self, m: int, n: int) -> None:
        if not type(m) is type(n) is int:
            _require_ints(m=m, n=n)
        if m < 0 or n < 1:
            raise ValueError("need m >= 0 and n >= 1")
        state = self.__dict__
        state["m"] = m
        state["n"] = n


@dataclass(frozen=True)
class NegVertical:
    """alpha = -q/p in lowest terms with -1/p <= beta < 0."""

    p: int
    q: int
    kind: ClassVar[str] = "neg_vertical"

    def __post_init__(self) -> None:
        _require_ints(**vars(self))
        if self.p < 1 or self.q < 1 or gcd(self.p, self.q) != 1:
            raise ValueError("need coprime p, q >= 1")


@dataclass(frozen=True)
class NegSporadic:
    """Isolated rational solution below the vertical segment at alpha = -q/p."""

    p: int
    q: int
    m: int
    n: int
    r: int
    kind: ClassVar[str] = "neg_sporadic"

    def __post_init__(self) -> None:
        _require_ints(**vars(self))
        if self.p < 1 or self.q < 1 or gcd(self.p, self.q) != 1:
            raise ValueError("need coprime p, q >= 1")
        if self.m < 0 or self.n < 1 or self.r < 2:
            raise ValueError("need m >= 0, n >= 1, r >= 2")
        if not 0 < self.m * self.q + self.n * self.p < self.p * self.q:  # m/p + n/q, times p*q
            raise ValueError("need 0 < m/p + n/q < 1")


def _require_ints(**fields: int) -> None:
    """Refuse a witness field that is not an int (``exact.require_int``), in order: bool and float raise TypeError."""
    for name, value in fields.items():
        require_int(value, name)


Witness = Union[AxisZero, MixedNegPos, PositiveLinear, NegHyperbola, NegVertical, NegSporadic]

_RECORDS = {cls.kind: cls for cls in (AxisZero, MixedNegPos, PositiveLinear, NegHyperbola, NegVertical, NegSporadic)}


def _record(witness: tuple[str, tuple[int, ...]] | None) -> Witness | None:
    """The witness record of a ``_decide`` tuple (kind, params), or None."""
    return None if witness is None else _RECORDS[witness[0]](*witness[1])


@dataclass(frozen=True, init=False)
class Verdict:
    """Membership verdict with a certificate: a witness, or a violating point."""

    pair: DilationPair
    member: bool
    witness: Witness | None
    counterexample: Rat | None

    def __init__(self, pair: DilationPair, member: bool, witness: Witness | None, counterexample: Rat | None) -> None:
        state = self.__dict__
        state["pair"] = pair
        state["member"] = member
        state["witness"] = witness
        state["counterexample"] = counterexample


@dataclass(frozen=True, init=False)
class MuNu:
    """First-quadrant coordinates (1/alpha, beta/alpha).

    They are also the spacings of the lattice mu*Z x nu*Z of the
    enlarged-diagonal criterion (``geometry.LatticeParams``).

    Each is an int or a Fraction and is stored as a Rat; float and bool
    raise TypeError.
    """

    mu: Rat
    nu: Rat

    def __init__(self, mu: Rat | int, nu: Rat | int) -> None:
        if type(mu) is not Fraction or type(nu) is not Fraction or mu.numerator <= 0 or nu.numerator <= 0:
            mu = positive_rat(mu, "mu, nu must be positive")
            nu = positive_rat(nu, "mu, nu must be positive")
        state = self.__dict__
        state["mu"] = mu
        state["nu"] = nu


@dataclass(frozen=True, init=False)
class SigmaTau:
    """First-quadrant coordinates (alpha, alpha/beta).

    They are also the sides of the torus corner box (0, sigma) x (0, tau)
    (``geometry.CornerRect``).

    Each is an int or a Fraction and is stored as a Rat; float and bool
    raise TypeError.
    """

    sigma: Rat
    tau: Rat

    def __init__(self, sigma: Rat | int, tau: Rat | int) -> None:
        if type(sigma) is not Fraction or type(tau) is not Fraction or sigma.numerator <= 0 or tau.numerator <= 0:
            sigma = positive_rat(sigma, "sigma, tau must be positive")
            tau = positive_rat(tau, "sigma, tau must be positive")
        state = self.__dict__
        state["sigma"] = sigma
        state["tau"] = tau


def positive_witness(alpha: Rat | int, beta: Rat | int) -> PositiveLinear | None:
    """Least-m solution of m*alpha*beta + n*alpha = beta with m, n >= 0 (``_decide._positive``).

    Each factor is an int or a Fraction; float and bool raise TypeError.
    """
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return _record(_positive(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator))


def negative_witness(alpha: Rat | int, beta: Rat | int) -> NegHyperbola | NegVertical | NegSporadic | None:
    """Search the three negative-quadrant families in a fixed order (``_decide._negative``).

    Each factor is an int or a Fraction; float and bool raise TypeError.
    """
    alpha, beta = as_rat(alpha), as_rat(beta)
    if alpha.numerator >= 0 or beta.numerator >= 0:
        raise ValueError("dilation factors must be negative")
    return _record(_negative(-alpha.numerator, alpha.denominator, -beta.numerator, beta.denominator))


def is_member(pair: DilationPair) -> bool:
    """Membership by sign dispatch and witness search, without the oracle."""
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    a, b = pair.alpha.as_integer_ratio()
    c, d = pair.beta.as_integer_ratio()
    return _witness(a, b, c, d) is not None


def classify(pair: DilationPair) -> Verdict:
    """Full verdict: membership plus a witness or an explicit violating point.

    The pair's four integer parts are read once and decide everything.  A
    member carries its family witness.  A non-member carries the least
    violating breakpoint of ``_decide._counterexample``, checked in integers
    before its one Fraction is built by ``exact._fraction``; the oracle is
    not run.  The two searches decide membership independently, so a
    non-member without a certificate, or a certificate whose commutator is
    not negative, is a bug and raises RuntimeError.
    """
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    a, b = pair.alpha.as_integer_ratio()
    c, d = pair.beta.as_integer_ratio()
    witness = _witness(a, b, c, d)
    if witness is not None:
        return Verdict(pair, True, _record(witness), None)
    return Verdict(pair, False, None, _fraction(*_counterexample(a, b, c, d)))


def to_munu(alpha: Rat, beta: Rat) -> MuNu:
    """(alpha, beta) -> (1/alpha, beta/alpha), an involution of the open first quadrant."""
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return MuNu(1 / alpha, beta / alpha)


def from_munu(coords: MuNu) -> DilationPair:
    """(mu, nu) -> (1/mu, nu/mu), built from the integer products by ``exact._fraction``: mu, nu > 0."""
    if type(coords) is not MuNu:
        require_type(coords, MuNu)
    a, b = coords.mu.as_integer_ratio()
    c, d = coords.nu.as_integer_ratio()
    return DilationPair(_fraction(b, a), _fraction(c * b, d * a))


def to_sigmatau(alpha: Rat, beta: Rat) -> SigmaTau:
    """(alpha, beta) -> (alpha, alpha/beta)."""
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return SigmaTau(alpha, alpha / beta)


def from_sigmatau(coords: SigmaTau) -> DilationPair:
    """(sigma, tau) -> (sigma, sigma/tau), built from the integer products by ``exact._fraction``: tau > 0."""
    if type(coords) is not SigmaTau:
        require_type(coords, SigmaTau)
    sigma = coords.sigma
    a, b = sigma.as_integer_ratio()
    c, d = coords.tau.as_integer_ratio()
    return DilationPair(sigma, _fraction(a * d, b * c))


def _quadrant_factors(pair: DilationPair) -> tuple[Rat, Rat]:
    """(alpha, beta) of a DilationPair in the open positive quadrant; TypeError or ValueError otherwise."""
    require_type(pair, DilationPair)
    return positive_rat(pair.alpha, _QUADRANT), positive_rat(pair.beta, _QUADRANT)


def symmetry_scale_second(pair: DilationPair, k: int) -> DilationPair:
    """(alpha, beta) -> (alpha, k*beta), k >= 1; maps members to members."""
    alpha, beta = _quadrant_factors(pair)
    require_int(k, "k")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return DilationPair(alpha, k * beta)


def symmetry_shrink(pair: DilationPair, k: int) -> DilationPair:
    """(alpha, beta) -> (alpha/k, beta/k), k >= 1; maps members to members."""
    alpha, beta = _quadrant_factors(pair)
    require_int(k, "k")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return DilationPair(alpha / k, beta / k)


def birational(pair: DilationPair) -> DilationPair:
    """(alpha, beta) -> (alpha/beta, 1/beta), an involutive member-to-member map."""
    alpha, beta = _quadrant_factors(pair)
    return DilationPair(alpha / beta, 1 / beta)
