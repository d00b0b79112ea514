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
denominators, so the searches run in integer arithmetic and return the
witness a scan in increasing m (then n) would meet first.  The integer
searches live in ``_kernels``:

    positive line   least m of m*(a*c) + n*(a*d) = b*c, one modular inverse
                    (``_least_representation``, shared with semigroup
                    membership and the Beatty witness)
    hyperbola       the positive line at (-beta, -alpha), n >= 1
    vertical        the test c*p <= d
    sporadic        None at once when no m <= m_top = (p*(q - 1) - t_min)//q
                    can reach r >= 2 (every beta <= -2/p, every q = 1);
                    else O(m_top/G) steps, one congruence in n per G-th m
                    (``_sporadic``)
    certificate     a non-member's least violating breakpoint: closed form
                    for alpha > 0 > beta, else the least k in [1, lcm] of
                    the two numerators with a residue test, O(lcm) steps
                    (``_least_k``, shared with ``integer_rounding_check``)

where alpha = a/b or -q/p and beta = c/d or -c/d in lowest terms.  The
positive and hyperbola certificates and the sporadic exit take time
polynomial in the bit length of the inputs; the sporadic scan is still linear
in m_top < p, and the non-member certificate in the lcm of the numerators.
The certificate search decides membership on its own, so a non-member's
verdict carries an x with commutator < 0 checked by one commutator call, and
no oracle runs here; the period oracle cross-checks verdicts in the CLI and
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import ClassVar, Union

from ._kernels import _least_k, _least_representation, _sporadic
from .exact import Rat, as_rat, positive_rat, require_int, require_type
from .floorfn import _POSITIVE, DilationPair, commutator

_QUADRANT = "symmetries are defined on the open positive quadrant"


@dataclass(frozen=True)
class AxisZero:
    """alpha = 0 or beta = 0: both compositions vanish identically."""

    kind: ClassVar[str] = "axis_zero"


@dataclass(frozen=True)
class MixedNegPos:
    """alpha < 0 < beta: the left side dominates pointwise."""

    kind: ClassVar[str] = "mixed_neg_pos"


@dataclass(frozen=True)
class PositiveLinear:
    """m*alpha*beta + n*alpha = beta with m, n >= 0, not both zero."""

    m: int
    n: int
    kind: ClassVar[str] = "positive_linear"

    def __post_init__(self) -> None:
        if not type(self.m) is type(self.n) is int:
            _require_int_fields(self)
        if self.m < 0 or self.n < 0 or (self.m == 0 and self.n == 0):
            raise ValueError("need m, n >= 0, not both zero")


@dataclass(frozen=True)
class NegHyperbola:
    """m*alpha*beta - n*beta = -alpha with m >= 0, n >= 1."""

    m: int
    n: int
    kind: ClassVar[str] = "neg_hyperbola"

    def __post_init__(self) -> None:
        if not type(self.m) is type(self.n) is int:
            _require_int_fields(self)
        if self.m < 0 or self.n < 1:
            raise ValueError("need m >= 0 and n >= 1")


@dataclass(frozen=True)
class NegVertical:
    """alpha = -q/p in lowest terms with -1/p <= beta < 0."""

    p: int
    q: int
    kind: ClassVar[str] = "neg_vertical"

    def __post_init__(self) -> None:
        if not type(self.p) is type(self.q) is int:
            _require_int_fields(self)
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
        if not type(self.p) is type(self.q) is type(self.m) is type(self.n) is type(self.r) is int:
            _require_int_fields(self)
        if self.p < 1 or self.q < 1 or gcd(self.p, self.q) != 1:
            raise ValueError("need coprime p, q >= 1")
        if self.m < 0 or self.n < 1 or self.r < 2:
            raise ValueError("need m >= 0, n >= 1, r >= 2")
        if not 0 < self.m * self.q + self.n * self.p < self.p * self.q:  # m/p + n/q, times p*q
            raise ValueError("need 0 < m/p + n/q < 1")


def _require_int_fields(witness: PositiveLinear | NegHyperbola | NegVertical | NegSporadic) -> None:
    """Refuse a witness field that is not an int (``exact.require_int``): bool and float raise TypeError."""
    for name, value in vars(witness).items():
        require_int(value, name)


Witness = Union[AxisZero, MixedNegPos, PositiveLinear, NegHyperbola, NegVertical, NegSporadic]


@dataclass(frozen=True)
class Verdict:
    """Membership verdict with a certificate: a witness, or a violating point."""

    pair: DilationPair
    member: bool
    witness: Witness | None
    counterexample: Rat | None


@dataclass(frozen=True)
class MuNu:
    """First-quadrant coordinates (1/alpha, beta/alpha).

    They are also the spacings of the lattice mu*Z x nu*Z of the
    enlarged-diagonal criterion (``geometry.LatticeParams``).

    Each is an int or a Fraction and is stored as a Rat; float and bool
    raise TypeError.
    """

    mu: Rat
    nu: Rat

    def __post_init__(self) -> None:
        mu, nu = self.mu, self.nu
        if type(mu) is not Fraction or type(nu) is not Fraction or mu.numerator <= 0 or nu.numerator <= 0:
            object.__setattr__(self, "mu", positive_rat(mu, "mu, nu must be positive"))
            object.__setattr__(self, "nu", positive_rat(nu, "mu, nu must be positive"))


@dataclass(frozen=True)
class SigmaTau:
    """First-quadrant coordinates (alpha, alpha/beta).

    They are also the sides of the torus corner box (0, sigma) x (0, tau)
    (``geometry.CornerRect``).

    Each is an int or a Fraction and is stored as a Rat; float and bool
    raise TypeError.
    """

    sigma: Rat
    tau: Rat

    def __post_init__(self) -> None:
        sigma, tau = self.sigma, self.tau
        if type(sigma) is not Fraction or type(tau) is not Fraction or sigma.numerator <= 0 or tau.numerator <= 0:
            object.__setattr__(self, "sigma", positive_rat(sigma, "sigma, tau must be positive"))
            object.__setattr__(self, "tau", positive_rat(tau, "sigma, tau must be positive"))


def _positive_line(a: int, b: int, c: int, d: int) -> tuple[int, int] | None:
    """Least-m solution (m, n) of m*alpha*beta + n*alpha = beta with m, n >= 0.

    At alpha = a/b and beta = c/d > 0, times b*d, the equation reads
    m*(a*c) + n*(a*d) = b*c: the two-generator equation, whose least-m
    solution ``_kernels._least_representation`` finds with one modular
    inverse.  n is unique given m and (0, 0) never solves, so this is the
    smallest-m solution of a scan over m = 0, ..., floor(1/alpha), found in
    O(log) steps.  Neither a/b nor c/d need be in lowest terms.
    """
    return _least_representation(a * c, a * d, b * c)


def positive_witness(alpha: Rat | int, beta: Rat | int) -> PositiveLinear | None:
    """Least-m solution of m*alpha*beta + n*alpha = beta with m, n >= 0 (``_positive_line``).

    Each factor is an int or a Fraction; float and bool raise TypeError.
    """
    if type(alpha) is not Fraction or type(beta) is not Fraction or alpha.numerator <= 0 or beta.numerator <= 0:
        alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    mn = _positive_line(alpha.numerator, alpha.denominator, beta.numerator, beta.denominator)
    return None if mn is None else PositiveLinear(*mn)


def negative_witness(alpha: Rat | int, beta: Rat | int) -> NegHyperbola | NegVertical | NegSporadic | None:
    """Search the three negative-quadrant families in a fixed order.

    Write alpha = -q/p and beta = -c/d in lowest terms.

    Hyperbola: m*alpha*beta - n*beta = -alpha is m*(c/d)*(q/p) + n*(c/d) =
    q/p, the positive line at (c/d, q/p) = (-beta, -alpha).  n decreases in
    m, so the line's least-m solution is a witness iff its n is >= 1, and
    then it is the smallest-m one.  O(log) steps.
    Vertical: alpha = -q/p is forced by lowest terms, leaving -1/p <= beta,
    that is c*p <= d.
    Sporadic: the least (m, n, r) of ``_kernels._sporadic``.

    Each factor is an int or a Fraction; float and bool raise TypeError.
    """
    if type(alpha) is not Fraction or type(beta) is not Fraction:
        alpha, beta = as_rat(alpha), as_rat(beta)
    if alpha.numerator >= 0 or beta.numerator >= 0:
        raise ValueError("dilation factors must be negative")
    q, p = -alpha.numerator, alpha.denominator
    c, d = -beta.numerator, beta.denominator
    mn = _positive_line(c, d, q, p)
    if mn is not None and mn[1] >= 1:
        return NegHyperbola(*mn)
    if c * p <= d:
        return NegVertical(p, q)
    mnr = _sporadic(p, q, c, d)
    return None if mnr is None else NegSporadic(p, q, *mnr)


def _witness(alpha: Rat, beta: Rat) -> Witness | None:
    """The sign dispatch: the member certificate of (alpha, beta), or None.

    The signs are read off the numerators, so no Fraction comparison runs.
    """
    a, c = alpha.numerator, beta.numerator
    if a == 0 or c == 0:
        return AxisZero()
    if a < 0 < c:
        return MixedNegPos()
    if a > 0 and c > 0:
        return positive_witness(alpha, beta)
    if a < 0 and c < 0:
        return negative_witness(alpha, beta)
    return None


def is_member(pair: DilationPair) -> bool:
    """Membership by sign dispatch and witness search, without the oracle."""
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    return _witness(pair.alpha, pair.beta) is not None


def _certificate(alpha: Rat, beta: Rat) -> Rat | None:
    """The least violating breakpoint x > 0 of a non-member, or None for a member.

    alpha > 0 > beta: x = 1/(2*max(alpha, -beta)) gives floor(alpha*x) = 0
    and floor(beta*x) = -1, so the commutator is -ceil(alpha).

    alpha = a/b, beta = c/d, both positive: on floor(alpha*x) = n the
    commutator is least at the left end x = n/alpha.  Grouping n by
    k = floor(n*beta), the least n of a group, ceil(k/beta), is its best, and
    it violates iff beta*ceil(k/beta) < alpha*ceil(k/alpha), that is
    b*((-k*d) % c) < d*((-k*b) % a).  The least such k gives the least
    violating n.

    alpha = -q/p, beta = -c/d: on ceil(|beta|*x) = j the commutator is least
    at the right end x = j/|beta|, where it is negative iff
    j*|alpha| > (ceil(k/|beta|) - 1)*|beta| with k = floor(j*|alpha|) + 1.
    Some j of the group k - 1 <= j*|alpha| < k passes iff its largest j does,
    that is d*(q - (-k*p) % q) < p*(c - (-k*d) % c): the test of ``_least_k``
    with bar d*q - p*c.  The least k gives the least violating j, the least
    j above the bound, by one floor.
    """
    a, b = alpha.numerator, alpha.denominator
    c, d = beta.numerator, beta.denominator
    if a > 0 > c:
        return Fraction(b, 2 * a) if a * d >= -c * b else Fraction(d, -2 * c)
    if a > 0 and c > 0:
        k = _least_k(a, b, c, d, 0)
        return None if k is None else Fraction(-(-k * d // c) * b, a)
    if a < 0 and c < 0:
        q, p, c = -a, b, -c
        k = _least_k(q, p, c, d, d * q - p * c)
        if k is None:
            return None
        j = (-(-k * d // c) - 1) * c * p // (d * q) + 1
        return Fraction(j * d, c)
    return None


def classify(pair: DilationPair) -> Verdict:
    """Full verdict: membership plus a witness or an explicit violating point.

    A member carries its family witness.  A non-member carries the least
    violating breakpoint of ``_certificate``, checked with one commutator
    call; the oracle is not run.  The two searches decide membership
    independently, so a non-member without a certificate, or a certificate
    whose commutator is not negative, is a bug and raises RuntimeError.
    """
    if type(pair) is not DilationPair:
        require_type(pair, DilationPair)
    witness = _witness(pair.alpha, pair.beta)
    if witness is not None:
        return Verdict(pair, True, witness, None)
    x = _certificate(pair.alpha, pair.beta)
    if x is None or commutator(pair, x) >= 0:
        raise RuntimeError(f"witness search found nothing but no certificate checks out for {pair}")
    return Verdict(pair, False, None, x)


def to_munu(alpha: Rat, beta: Rat) -> MuNu:
    """(alpha, beta) -> (1/alpha, beta/alpha), an involution of the open first quadrant."""
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return MuNu(1 / alpha, beta / alpha)


def from_munu(coords: MuNu) -> DilationPair:
    """(mu, nu) -> (1/mu, nu/mu), built from the integer products."""
    if type(coords) is not MuNu:
        require_type(coords, MuNu)
    a, b = coords.mu.numerator, coords.mu.denominator
    return DilationPair(Fraction(b, a), Fraction(coords.nu.numerator * b, coords.nu.denominator * a))


def to_sigmatau(alpha: Rat, beta: Rat) -> SigmaTau:
    """(alpha, beta) -> (alpha, alpha/beta)."""
    alpha, beta = positive_rat(alpha, _POSITIVE), positive_rat(beta, _POSITIVE)
    return SigmaTau(alpha, alpha / beta)


def from_sigmatau(coords: SigmaTau) -> DilationPair:
    """(sigma, tau) -> (sigma, sigma/tau), built from the integer products."""
    if type(coords) is not SigmaTau:
        require_type(coords, SigmaTau)
    sigma, tau = coords.sigma, coords.tau
    return DilationPair(sigma, Fraction(sigma.numerator * tau.denominator, sigma.denominator * tau.numerator))


def _quadrant_factors(pair: DilationPair) -> tuple[Rat, Rat]:
    """(alpha, beta) of a DilationPair in the open positive quadrant; TypeError or ValueError otherwise."""
    if type(pair) is not DilationPair:
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
