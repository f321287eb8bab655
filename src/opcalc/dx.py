"""DX-expansions: when derivatives can stand left of multiplications.

Not every operator is a sum ``sum_k f_k(D) X^k``.  The decisive data is
the matrix diagonal q_t(n) = coefficient of x^(n+t) in Q x^n: the
expansion exists iff every q_t is a polynomial in n.  Membership in K[n]
is undecidable from finitely many samples, so every verdict here is
window-relative evidence: samples q_t(0..n_max) are fitted by forward
differences, taken only up to the first order that vanishes, and a
verdict requires that order to leave at least ``slack`` further samples
as corroboration.

The constructive direction writes each fitted diagonal in the basis
p_k(n) = (n+t+k)_k (monic of degree k, so back-substitution is exact and
unique) and emits sum_k a_(t,k) D^k X^(t+k).  Composition of two accepted
operators is realized on diagonals by the finite convolution
q_u(n) = sum_t p_t(n) r_(u-t)(n+t).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import comb, factorial
from typing import Mapping, Sequence

from .errors import (
    MissingVanishingCertificate,
    NegativePowerViolation,
    NoCertificate,
    NotDX,
    TruncationError,
    WindowTooSmall,
)
from .expansions import _xd_terms
from .operators import OpTable, SeriesInD
from .poly import NEG_INF, Poly, Rat, combine, coordinates, falling_factorial, rat
from .series import POS_INF, SSeries

# ----------------------------------------------------------------------
# Convergence in the discrete topology


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Window evidence that ord(f_k) - k diverges.

    kind "finite" marks expansions that are complete finite sums (always
    convergent); kind "margin-growth" records the observed margins.
    Margins may be POS_INF where the stored prefix of f_k is zero.
    """

    kind: str
    margins: tuple

    def margin_at(self, k: int):
        for kk, m in self.margins:
            if kk == k:
                return m
        return None

    def final_margin(self):
        """Margin at the window end, the evidence bound on the unseen tail."""
        if self.kind == "finite" or not self.margins:
            return POS_INF
        return self.margins[-1][1]


@dataclass(frozen=True)
class ConvergenceVerdict:
    certified: bool
    certificate: ConvergenceCertificate | None
    violated_at: int | None


def dx_convergence_check(orders: Sequence, strict: bool = True) -> ConvergenceVerdict:
    """Judge divergence of ord(f_k) - k from a window of observed orders.

    ``orders`` lists (k, ord(f_k)) for k = 0..K; orders may be POS_INF for
    zero prefixes, which are vacuous and skipped.  The margins of the
    remaining entries must be nondecreasing, and under ``strict`` must
    show net growth over the window (a constant margin never certifies a
    genuinely infinite sum).  Finite data yields evidence, not proof; the
    certificate records the window it covers.
    """
    ks = [k for k, _ in orders]
    if ks != list(range(len(ks))):
        raise ValueError("orders must cover k = 0..K consecutively")
    margins = tuple((k, o - k if o != POS_INF else POS_INF) for k, o in orders)
    finite = [(k, m) for k, m in margins if m != POS_INF]
    prev = None
    for k, m in finite:
        if prev is not None and m < prev:
            return ConvergenceVerdict(False, None, k)
        prev = m
    if strict and len(finite) >= 2 and finite[-1][1] <= finite[0][1]:
        return ConvergenceVerdict(False, None, finite[-1][0])
    return ConvergenceVerdict(True, ConvergenceCertificate("margin-growth", margins), None)


# ----------------------------------------------------------------------
# The expansion container


@dataclass(frozen=True)
class DXExpansion:
    """Coefficient data for sum_k f_k(D) X^k, k = 0..trunc_k.

    ``complete`` means no X-powers beyond trunc_k exist at all (within the
    evidence window it was built from); otherwise the listed terms are a
    truncation of an infinite sum and a convergence certificate governs
    what evaluations are trustworthy.  Each f_k carries its own
    t-truncation.  ``source`` is the row table of the operator the
    expansion stands for, when one is known.
    """

    terms: tuple
    complete: bool
    certificate: ConvergenceCertificate | None = None
    validated_degree: int | None = None
    source: OpTable | None = None

    @property
    def trunc_k(self) -> int:
        return len(self.terms) - 1

    def term(self, k: int) -> SSeries:
        return self.terms[k]

    def orders(self) -> list:
        """(k, observed ord(f_k)) pairs for the convergence check."""
        return [(k, f.order()) for k, f in enumerate(self.terms)]

    def with_terms(self, terms) -> "DXExpansion":
        return replace(self, terms=tuple(terms))


def dx_apply(expansion: DXExpansion, p: Poly, allow_window: bool = False) -> Poly:
    """Evaluate sum_k f_k(D)(x^k p) exactly, guarding every exactness gap.

    A term is skipped only when its contribution is provably zero (its
    true order exceeds deg(p) + k) or when certificate evidence covers
    the skip; a term whose truncation genuinely hides contributing
    coefficients raises TruncationError.  For incomplete expansions the
    tail beyond trunc_k is bounded by the certificate's final margin.
    """
    deg = p.degree
    if deg is NEG_INF:
        return Poly()
    n = int(deg)
    if not expansion.complete and not allow_window:
        if expansion.certificate is None:
            raise NoCertificate("truncated expansion has no convergence certificate")
        fm = expansion.certificate.final_margin()
        if not fm > n:
            raise NoCertificate(
                f"certified margin {fm} at the window end does not exceed degree {n}"
            )
    out = Poly()
    for k, fk in enumerate(expansion.terms):
        need = n + k
        ordk = fk.order()
        if ordk == POS_INF:
            if fk.trunc_order >= need:
                continue
            if expansion.certificate is not None or allow_window:
                continue
            raise TruncationError(
                f"term k={k} is zero through order {fk.trunc_order} but degree "
                f"{n} needs order {need}"
            )
        if ordk > need:
            continue
        if fk.trunc_order < need:
            raise TruncationError(
                f"term k={k} truncated at order {fk.trunc_order}, degree {n} "
                f"needs order {need}"
            )
        out = out + SeriesInD(fk, exact=True).apply(Poly.monomial(k) * p)
    return out


def dx_transpose(expansion: DXExpansion) -> list:
    """Rewrite sum_k f_k(D) X^k as sum_j D^j a_j(X) by transposing coefficients.

    Both forms already have every D left of every X, so a_j(x) collects
    the t^j coefficients across terms: a_j(x) = sum_k f_k[j] x^k.  Only
    orders j known in every term are emitted.
    """
    if not expansion.complete and expansion.certificate is None:
        raise NoCertificate("transposition needs a certificate for the tail")
    jmax = min(f.trunc_order for f in expansion.terms)
    out = []
    for j in range(jmax + 1):
        a = Poly(tuple(f.coeff(j) for f in expansion.terms))
        if not a.is_zero():
            out.append((j, a))
    return out


# ----------------------------------------------------------------------
# Diagonal fitting (the DX-characterization test)


@dataclass(frozen=True)
class DiagonalFit:
    """Window verdict on one diagonal q_t.

    verdict "polynomial": ``poly`` (in n) reproduces every sample and all
    forward differences above its degree vanish across the window.
    verdict "identically_zero": every sample is zero.
    verdict "not_polynomial": no difference order up to ``evidence_order``
    annihilates the window.
    """

    t: int
    samples: tuple
    verdict: str
    poly: Poly | None
    n_max: int
    slack: int

    @property
    def evidence_order(self) -> int | None:
        return self.n_max - self.slack if self.verdict == "not_polynomial" else None

    def to_json_dict(self) -> dict:
        verdict = {"identically_zero": "zero"}.get(self.verdict, self.verdict)
        out = {
            "t": self.t,
            "verdict": verdict,
            "poly": str(self.poly) if self.poly is not None else None,
            "evidence": {"samples": [str(s) for s in self.samples]},
            "window": {"n_max": self.n_max, "slack": self.slack},
        }
        if self.verdict == "polynomial":
            out["evidence"]["degree"] = int(self.poly.degree)
        elif self.verdict == "not_polynomial":
            out["evidence"]["nonvanishing_through_order"] = self.evidence_order
        return out


def binomial_poly(i: int) -> Poly:
    """C(n, i) as a polynomial in n."""
    return falling_factorial(i).scale(Rat(1, factorial(i)))


def fit_diagonal(t: int, samples: Sequence, n_max: int, slack: int) -> DiagonalFit:
    """Fit one diagonal window by Newton forward differences.

    Levels are built one at a time up to the first that vanishes; only
    the current level and the heads Delta^m q(0) are kept.  A level
    n_max - slack that is still nonzero (level 0 when that order is
    negative) means no fit.
    """
    samples = tuple(rat(s) for s in samples)
    heads = []
    level = samples
    while any(level):
        if len(heads) >= n_max - slack:
            return DiagonalFit(t, samples, "not_polynomial", None, n_max, slack)
        heads.append(level[0])
        level = [b - a for a, b in zip(level, level[1:])]
    if not heads:
        return DiagonalFit(t, samples, "identically_zero", Poly(), n_max, slack)
    poly = combine(heads, binomial_poly)
    for n, s in enumerate(samples):
        if poly.eval(n) != s:
            raise AssertionError(
                f"Newton form failed to reproduce sample at n={n} (internal error)"
            )
    return DiagonalFit(t, samples, "polynomial", poly, n_max, slack)


def dx_check(
    table: OpTable, t_min: int, t_max: int, n_max: int, slack: int
) -> list:
    """Fit every diagonal q_t, t_min <= t <= t_max, over n = 0..n_max."""
    if n_max < slack + 2:
        raise WindowTooSmall(f"n_max={n_max} cannot support slack={slack}")
    if t_min > t_max:
        raise ValueError("empty t range")
    return [
        fit_diagonal(t, table.diagonal(t, n_max), n_max, slack)
        for t in range(t_min, t_max + 1)
    ]


def observed_tail_bound(fits: Sequence) -> int | None:
    """Largest t whose diagonal is not identically zero; None if all vanish.

    Every q_t above the bound vanished across the window: the vanishing
    tail the theory demands of an expandable operator.
    """
    nonzero = [f.t for f in fits if f.verdict != "identically_zero"]
    return max(nonzero) if nonzero else None


def all_polynomial(fits: Sequence) -> bool:
    return all(f.verdict in ("polynomial", "identically_zero") for f in fits)


# ----------------------------------------------------------------------
# Constructive expansion


def _diagonal_basis_poly(t: int, k: int) -> Poly:
    """p_k(n) = (n + t + k)_k, monic of degree k in n."""
    out = Poly.one()
    for i in range(k):
        out = out * Poly((t + k - i, 1))
    return out


def dx_construct(
    table: OpTable, t_min: int, t_max: int, n_max: int, slack: int
) -> DXExpansion:
    """Build the DX-expansion of an operator from its fitted diagonals.

    Requires every diagonal in the window to fit as a polynomial (or
    vanish); each fit is expressed in the basis (n+t+k)_k and emitted as
    D^k X^(t+k) terms.  For t < 0 the basis solve must produce nothing
    below k = -t, or the fit was wrong.  The aggregate is re-validated
    against the table on all degrees up to min(n_max - slack, -t_min);
    everything beyond is window evidence.
    """
    if not (t_min <= 0 <= t_max):
        raise ValueError("construction window must contain t = 0")
    fits = dx_check(table, t_min, t_max, n_max, slack)
    bad = [f for f in fits if f.verdict == "not_polynomial"]
    if bad:
        raise NotDX(
            f"diagonal t={bad[0].t} is not polynomial over the window "
            f"(n_max={n_max}, slack={slack})"
        )
    coeff_map: dict[int, dict[int, Rat]] = {}
    for fit in fits:
        if fit.poly is None or fit.poly.is_zero():
            continue
        t = fit.t
        for k, c in enumerate(coordinates(fit.poly, partial(_diagonal_basis_poly, t))):
            if c == 0:
                continue
            if t < 0 and k < -t:
                raise NegativePowerViolation(
                    f"diagonal t={t} produced D^{k} X^{t + k} with negative X power"
                )
            m = t + k
            coeff_map.setdefault(m, {})[k] = c
    K = max(coeff_map) if coeff_map else 0
    terms = []
    for m in range(K + 1):
        trunc_m = m - t_min
        cs = coeff_map.get(m, {})
        terms.append(
            SSeries(tuple(cs.get(j, Rat(0)) for j in range(trunc_m + 1)), trunc_m)
        )
    expansion = DXExpansion(
        terms=tuple(terms),
        complete=True,
        certificate=ConvergenceCertificate(
            "finite", tuple((k, f.order()) for k, f in enumerate(terms))
        ),
        validated_degree=min(n_max - slack, -t_min),
        source=table,
    )
    for n in range(expansion.validated_degree + 1):
        got = dx_apply(expansion, Poly.monomial(n))
        want = table.row(n)
        if got != want:
            raise NotDX(
                f"window fit failed validation at x^{n}: expansion gives {got}, "
                f"operator gives {want}"
            )
    return expansion


# ----------------------------------------------------------------------
# Closure under composition, on diagonal data


def compose_via_diagonals(
    p_diags: Mapping[int, Poly],
    r_diags: Mapping[int, Poly],
    u: int,
    S: int,
    T: int,
) -> Poly:
    """Diagonal u of R∘P from the operands' polynomial diagonals.

    P is applied first; its diagonals p_t must vanish for t > T and R's
    r_s for s > S (checked against the supplied families).  Then

        q_u(n) = sum_(t = u-S)^(T) p_t(n) r_(u-t)(n + t)

    is a finite sum of exact polynomial products.  Diagonals absent from
    a family are taken as zero.
    """
    for t, poly in p_diags.items():
        if t > T and not poly.is_zero():
            raise MissingVanishingCertificate(
                f"p_{t} is nonzero above the declared bound T={T}"
            )
    for s, poly in r_diags.items():
        if s > S and not poly.is_zero():
            raise MissingVanishingCertificate(
                f"r_{s} is nonzero above the declared bound S={S}"
            )
    out = Poly()
    for t in range(u - S, T + 1):
        pt = p_diags.get(t, Poly())
        if pt.is_zero():
            continue
        rs = r_diags.get(u - t, Poly())
        if rs.is_zero():
            continue
        out = out + pt * rs.shift(t)
    return out


def polynomial_diagonals(fits: Sequence) -> dict:
    """Extract {t: q_t poly} from accepted fits (zero diagonals omitted)."""
    out = {}
    for f in fits:
        if f.verdict == "polynomial":
            out[f.t] = f.poly
    return out


# ----------------------------------------------------------------------
# Generating-function consistency


def gf_consistency_check(expansion: DXExpansion, N: int) -> bool:
    """Check both closed forms of Q exp(xt)/exp(xt) against the operator.

    The direct side reads the expansion's source rows Q x^j against the
    exponential kernel coefficients.  The first formula side sums
    C(n,k) f_n^(k)(t) x^(n-k) over the stored terms; the second uses the
    transposed coefficients a_n(x) with polynomial derivatives,
    C(n,k) a_n^(k)(x) t^(n-k).  All three must agree coefficientwise
    through order N in t.
    """
    if not expansion.complete and expansion.certificate is None:
        raise NoCertificate("consistency check needs a convergence certificate")
    K = expansion.trunc_k
    for k, f in enumerate(expansion.terms):
        if f.trunc_order < N + k:
            raise TruncationError(
                f"term k={k} truncated at {f.trunc_order}; order-{N} check "
                f"needs {N + k}"
            )
    if expansion.source is None:
        raise ValueError("expansion carries no source operator")
    direct = _xd_terms(expansion.source.row, N)

    # sum over terms with series derivatives
    acc = [Poly() for _ in range(N + 1)]
    for n, f in enumerate(expansion.terms):
        fk = f
        for k in range(n + 1):
            if not fk.is_zero_prefix():
                for i in range(N + 1):
                    c = fk.coeff(i)
                    if c != 0:
                        acc[i] = acc[i] + Poly.monomial(n - k, c * comb(n, k))
            if k < n:
                fk = fk.derivative()
    if direct != tuple(acc):
        return False

    # sum over transposed coefficients with polynomial derivatives
    transposed = dx_transpose(expansion)
    jmax_needed = N + K
    jmax_have = min(f.trunc_order for f in expansion.terms)
    if jmax_have < jmax_needed:
        raise TruncationError(
            f"transposed form known through j={jmax_have}; order-{N} check "
            f"needs {jmax_needed}"
        )
    acc2 = [Poly() for _ in range(N + 1)]
    for j, a in transposed:
        if j > jmax_needed:
            continue
        ak = a
        for k in range(j + 1):
            if ak.is_zero():
                break
            if j - k <= N:
                acc2[j - k] = acc2[j - k] + ak.scale(comb(j, k))
            ak = ak.derivative()
    return direct == tuple(acc2)


# ----------------------------------------------------------------------
# The two-variable counterexample, reduced to its diagonal sum


def counterexample_S(n: int) -> int:
    """S(n) = sum_(k=0)^(n) (n)_k (n+k)_k, the composed central diagonal.

    This is the one number that witnesses why closure under composition
    fails in two variables: S(n) >= (n!)^2, far beyond polynomial growth.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    for k in range(n + 1):
        term = 1
        for i in range(k):
            term *= n - i
        for i in range(k):
            term *= n + k - i
        total += term
    return total
