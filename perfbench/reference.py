"""Reference checks for benchmark outputs, computed without opcalc.

Closed forms are used where they exist; every other job is recomputed
with sympy's exact rational polynomial rings and ring series, from the
job key alone.  Every CLI document is also validated against
``docs/opcalc.schema.json``.  ``Checker.check`` returns None for a
correct output and a one-line reason otherwise; it never raises, so a
wrong output counts as a failed job and the run goes on.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import jsonschema
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion, rs_series_reversion
from sympy.polys.rings import ring

RX, x = ring("x", QQ)
RT, t = ring("t", QQ)

CLI_NMAX = 12  # the CLI's default window: t in -12..12, n_max 12, slack 3
CLI_SLACK = 3


def qq(v):
    f = Fraction(v)
    return QQ(f.numerator, f.denominator)


def fr(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def px(coeffs):
    return RX.from_dict({(k,): qq(c) for k, c in enumerate(coeffs) if Fraction(c) != 0})


def coeff_list(p) -> list:
    """Dense Fraction coefficients of a one-variable ring element, no trailing zeros."""
    if not p:
        return []
    out = [Fraction(0)] * (p.degree() + 1)
    for (e,), c in p.terms():
        out[e] = fr(c)
    return out


def strip(cs) -> list:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def parse_text(text: str, var: str = "x") -> list:
    """Coefficients of polynomial text such as ``-1/2*x^3 + x - 4``."""
    s = text.strip()
    if s == "0":
        return []
    coeffs: dict = {}
    for term in s.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("-")
        if "*" in body:
            c, v = body.split("*")
        elif body[0].isdigit():
            c, v = body, ""
        else:
            c, v = "1", body
        if v and not v.startswith(var):
            raise ValueError(f"unexpected variable in {text!r}")
        e = 0 if not v else int(v.split("^")[1]) if "^" in v else 1
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * Fraction(c)
    return strip([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


# ----------------------------------------------------------------------
# Operator semantics on QQ[x]


def const_term(p):
    return fr(dict(p.terms()).get((0,), QQ(0)))


def eval_at(p, n: int) -> Fraction:
    return sum((fr(c) * n**e for (e,), c in p.terms()), Fraction(0))


def shift(p, a):
    return p.compose(x, x + a)


def apply(spec, p):
    tag = spec[0]
    if tag == "D":
        return p.diff(x)
    if tag == "X":
        return p * x
    if tag == "J":
        return RX.from_dict({(e + 1,): c * QQ(1, e + 1) for (e,), c in p.terms()})
    if tag == "Delta":
        return shift(p, QQ(1)) - p
    if tag == "E":
        return shift(p, qq(spec[1]))
    if tag == "sub":
        return p.compose(x, px(spec[1]))
    if tag == "poly":
        return px(spec[1]) * p
    if tag == "series":
        out, dk = RX.zero, p
        for c in spec[1]:
            out += qq(c) * dk
            dk = dk.diff(x)
        return out
    if tag == "scale":
        return qq(spec[1]) * apply(spec[2], p)
    if tag == "comp":
        return apply(spec[1], apply(spec[2], p))
    if tag == "add":
        return apply(spec[1], p) + apply(spec[2], p)
    raise ValueError(f"unknown operator spec {spec!r}")


def xd_terms(spec, N: int) -> list:
    """a_0..a_N of Q = sum_n a_n(X) D^n.

    The expansion is linear in Q, so sums and scalings are taken apart and
    every atom has a closed form; a composition is recomputed from its rows
    as a_n = sum_k Q(x^k)/k! (-x)^(n-k)/(n-k)!.
    """
    tag = spec[0]
    if tag == "add":
        return [p + q for p, q in zip(xd_terms(spec[1], N), xd_terms(spec[2], N))]
    if tag == "scale":
        c = qq(spec[1])
        return [c * p for p in xd_terms(spec[2], N)]
    inv_fact = [QQ(1, math.factorial(n)) for n in range(N + 2)]
    if tag == "E":  # e^(aD)
        a = qq(spec[1])
        return [RX(a**n * inv_fact[n]) for n in range(N + 1)]
    if tag == "Delta":  # e^D - 1
        return [RX.zero] + [RX(inv_fact[n]) for n in range(1, N + 1)]
    if tag == "J":
        return [(-1) ** n * inv_fact[n + 1] * x ** (n + 1) for n in range(N + 1)]
    if tag == "sub":  # p -> p(q) is sum_n (q(X) - X)^n D^n / n!
        d = px(spec[1]) - x
        return [d**n * inv_fact[n] for n in range(N + 1)]
    first = None
    if tag == "D":
        first = [RX.zero, RX.one]
    elif tag == "X":
        first = [x]
    elif tag == "poly":
        first = [px(spec[1])]
    elif tag == "series":
        first = [RX(qq(c)) for c in spec[1]]
    if first is not None:
        return (first + [RX.zero] * (N + 1))[: N + 1]
    rows = [apply(spec, x**k) for k in range(N + 1)]
    out = []
    for n in range(N + 1):
        acc = RX.zero
        for k in range(n + 1):
            acc += rows[k] * ((-1) ** (n - k) * inv_fact[k] * inv_fact[n - k] * x ** (n - k))
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# Series in t


def series_coeffs(f, n: int) -> list:
    """QQ coefficients 0..n of a QQ[t] element."""
    out = [QQ(0)] * (n + 1)
    for (e,), c in f.terms():
        if e <= n:
            out[e] = c
    return out


def pt(coeffs):
    return RT.from_dict({(k,): qq(c) for k, c in enumerate(coeffs) if Fraction(c) != 0})


def reversion(f, n: int):
    """Compositional inverse of f (order 1) through t^n."""
    return rs_series_reversion(f, t, n + 1, t)


def exp_x(g, N: int) -> list:
    """[t^n] exp(x g(t)) for n <= N, by n e_n = x sum_j j g_j e_(n-j)."""
    gs = series_coeffs(g, N)
    e = [RX.one]
    for n in range(1, N + 1):
        acc = RX.zero
        for j in range(1, n + 1):
            if gs[j]:
                acc += (j * gs[j]) * e[n - j]
        e.append(acc * x * QQ(1, n))
    return e


def falling(c, n: int):
    """prod_(i<n) (x - i c) / n!."""
    out = RX.one
    for i in range(n):
        out *= x - i * c
    return out * QQ(1, math.factorial(n))


def stirling2(n: int) -> list:
    row = [1]
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = new
    return row


def symbol(sym, budget: int):
    """The umbral workload's symbol as a QQ[t] element through t^budget."""
    if sym[0] == "exp":
        c = qq(sym[1])
        return RT.from_dict({(j,): c ** (j - 1) * QQ(1, math.factorial(j)) for j in range(1, budget + 1)})
    return pt(sym[1])


def symbol_inverse(sym, f, budget: int):
    if sym[0] == "exp":  # log(1 + ct)/c
        c = qq(sym[1])
        return RT.from_dict({(n,): QQ((-1) ** (n + 1), n) * c ** (n - 1) for n in range(1, budget + 1)})
    return reversion(f, budget)


def op_dx_terms(q, K: int, prec: int) -> list:
    """q'(t) (t - q)^k / k!, k <= K, each through t^(prec-1)."""
    qp, r, rk, out = q.diff(t), t - q, RT.one, []
    for k in range(K + 1):
        out.append(rs_mul(qp, rk, t, prec) * QQ(1, math.factorial(k)))
        rk = rs_mul(rk, r, t, prec + 1)
    return out


# ----------------------------------------------------------------------
# Diagonals q_t(n) of the dx families, in closed form.


def binomial_poly(k: int):
    out = RX.one
    for i in range(k):
        out *= x - i
    return out * QQ(1, math.factorial(k))


def dx_diagonal(family: str, c: Fraction, a: Fraction, t_: int, n_max: int):
    """(samples, poly in n or None) of diagonal t; None means not a polynomial.

    The families are those of ``workloads.dx_family_spec``: c E(a),
    c Delta + a D, c X D + a D X, c J + a X, c sub(a x^2), c D X D + a D
    and c D + a D^2.
    """
    ns = range(n_max + 1)
    zero = ([Fraction(0)] * (n_max + 1), RX.zero)
    k = -t_
    if family == "J":
        return ([c / (n + 1) + a for n in ns], None) if t_ == 1 else zero
    if family == "sub":  # row n is c a^n x^(2n)
        return ([c * a**t_ if n == t_ else Fraction(0) for n in ns], None) if t_ >= 0 else zero
    if family == "E" and k >= 0:
        poly = qq(c * a**k) * binomial_poly(k)
    elif family == "Delta" and k >= 2:
        poly = qq(c) * binomial_poly(k)
    else:
        C, A = qq(c), qq(a)
        poly = {
            ("Delta", -1): (C + A) * x,
            ("XD", 0): (C + A) * x + A,
            ("DXD", -1): C * x**2 + A * x,
            ("D", -1): C * x,
            ("D", -2): A * (x**2 - x),
        }.get((family, t_), RX.zero)
    return [eval_at(poly, n) for n in ns], poly


def dx_expected(family: str, c: Fraction, a: Fraction, t_: int, n_max: int, slack: int):
    """(verdict, poly coefficients, samples) a correct window fit reports."""
    samples, poly = dx_diagonal(family, c, a, t_, n_max)
    if all(s == 0 for s in samples):
        return "identically_zero", [], samples
    if poly is None:
        return "not_polynomial", None, samples
    if poly.degree() + 1 > n_max - slack:
        return "inconclusive", None, samples
    return "polynomial", coeff_list(poly), samples


def dx_series_map(family: str, c: Fraction, a: Fraction, trunc0: int) -> dict:
    """{X power m: {D power j: coefficient}} of the family's DX-expansion."""
    if family == "E":  # c e^(aD)
        return {0: {j: c * a**j / math.factorial(j) for j in range(trunc0 + 1)}}
    if family == "XD":  # X D = D X - I
        return {0: {0: -c}, 1: {1: c + a}}
    if family == "D":
        return {0: {1: c, 2: a}}
    if family == "DXD":  # D X D = D^2 X - D
        return {0: {1: a - c}, 1: {2: c}}
    raise ValueError(family)


def sparse(terms) -> dict:
    out = {}
    for m, cs in enumerate(terms):
        nz = {j: Fraction(c) for j, c in enumerate(cs) if Fraction(c) != 0}
        if nz:
            out[m] = nz
    return out


def sparse_expected(expected: dict) -> dict:
    return {m: {j: c for j, c in cs.items() if c != 0} for m, cs in expected.items()
            if any(c != 0 for c in cs.values())}


# ----------------------------------------------------------------------


class Checker:
    """Judges one job output against its reference."""

    def __init__(self, root: Path):
        schema = json.loads((root / "docs" / "opcalc.schema.json").read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, workload: str, key, record) -> str | None:
        try:
            if record.get("exc") is not None:
                return f"raised {record['exc']}"
            return getattr(self, f"_check_{workload}")(key, record["out"])
        except Exception as exc:  # a broken output must not stop the run
            return f"check raised {type(exc).__name__}: {exc}"

    # -- expand ---------------------------------------------------------

    def _check_expand(self, key, out):
        if key[0] == "xd":
            ref = xd_terms(key[1], key[2])
            return None if [strip(p) for p in out] == [coeff_list(p) for p in ref] else "xd terms differ"
        basis_spec, spec, N = key[1], key[2], key[3]
        if basis_spec == ["Delta"]:
            basis = [binomial_poly(n) for n in range(N + 1)]
        else:
            basis = exp_x(reversion(pt(basis_spec[1]), N), N)
        if [strip(p) for p in out["basis"]] != [coeff_list(b) for b in basis]:
            return "divided-power basis differs"
        terms = xb_reference(spec, basis, N)
        return None if [strip(p) for p in out["terms"]] == [coeff_list(a) for a in terms] else "xb terms differ"

    # -- umbral ---------------------------------------------------------

    def _check_umbral(self, key, out):
        what, sym, K = key
        budget = 2 * K + 2
        f = symbol(sym, budget)
        if what == "delta_inverse":
            q = symbol_inverse(sym, f, budget)
            ok = out["trunc"] == budget and strip(out["coeffs"]) == coeff_list(q)
            return None if ok else "inverse symbol differs"
        if what == "op_dx":
            q = symbol_inverse(sym, f, budget)
            ref = op_dx_terms(q, K, budget)
            got = [(s["trunc"], strip(s["coeffs"])) for s in out]
            want = [(budget - 1, coeff_list(r)) for r in ref]
            return None if got == want else "umbral DX terms differ"
        N = K + 4
        if sym[0] == "exp":
            c = qq(sym[1])
            divided = [falling(c, n) for n in range(N + 1)]
            conj = []
            for n in range(N + 1):
                s2 = stirling2(n)
                conj.append(RX.from_dict({(k,): QQ(s2[k]) * c ** (n - k) for k in range(n + 1) if s2[k]}))
        else:
            divided = exp_x(reversion(f, N), N)
            conj = [e * math.factorial(n) for n, e in enumerate(exp_x(f, N))]
        if [strip(p) for p in out["divided"]] != [coeff_list(p) for p in divided]:
            return "divided powers differ"
        if [strip(p) for p in out["conjugate"]] != [coeff_list(p) for p in conj]:
            return "conjugate sequence differs"
        return None

    # -- dx ---------------------------------------------------------------

    def _check_dx(self, key, out):
        what, family, c, a, n_max, slack = key
        w = n_max - 4
        c, a = Fraction(c), Fraction(a)
        if what == "check":
            return self._fits(family, c, a, range(-w, w + 1), n_max, slack, out)
        want = sparse_expected(dx_series_map(family, c, a, w))
        if len(out) != max(want, default=0) + 1 or any(s["trunc"] != m + w for m, s in enumerate(out)):
            return "DX term layout differs"
        return None if sparse([s["coeffs"] for s in out]) == want else "DX terms differ"

    def _fits(self, family, c, a, ts, n_max, slack, fits):
        if [f[0] for f in fits] != list(ts):
            return "diagonal t range differs"
        for t_, verdict, poly, samples in fits:
            want_verdict, want_poly, want_samples = dx_expected(family, c, a, t_, n_max, slack)
            if [Fraction(s) for s in samples] != want_samples:
                return f"samples of diagonal t={t_} differ"
            if verdict != want_verdict:
                return f"diagonal t={t_}: verdict {verdict}, expected {want_verdict}"
            if want_poly is not None and strip(poly) != want_poly:
                return f"diagonal t={t_}: polynomial differs"
        return None

    # -- cli --------------------------------------------------------------

    def _check_cli(self, key, out):
        slot, argv, info = key[1], key[2], key[3]
        rc = out["rc"]
        if "exit" in info:
            allowed = info["exit"] if isinstance(info["exit"], list) else [info["exit"]]
            return None if rc in allowed else f"exit code {rc}, expected one of {allowed}"
        if rc != 0:
            return f"exit code {rc}: {out['stderr'].strip()[:120]}"
        doc = json.loads(out["stdout"])
        if not self.validator.is_valid(doc):
            return "document does not match the schema"
        return getattr(self, "_cli_" + slot.replace("-", "_"))(info, doc)

    def _cli_apply(self, info, doc):
        p = px(info["poly"])
        ok = parse_text(doc["input"]) == coeff_list(p) and parse_text(doc["result"]) == coeff_list(
            apply(info["op"], p)
        )
        return None if ok else "apply result differs"

    def _cli_d_expand(self, info, doc):
        spec, N = info["op"], info["order"]
        want = [const_term(apply(spec, x**k)) / math.factorial(k) for k in range(N + 1)]
        if [Fraction(c) for c in doc["coefficients"]] != want or doc["order"] != N:
            return "d-expand coefficients differ"
        invariant = all(
            apply(spec, shift(x**n, qq(s))) == shift(apply(spec, x**n), qq(s))
            for n in range(N + 1) for s in ("1", "-1", "2", "1/2")
        )
        return None if doc["shift_invariant"] == invariant else "shift-invariance verdict differs"

    def _cli_expand_xd(self, info, doc):
        ref = xd_terms(info["op"], info["order"])
        ok = doc["basis"] == "D" and [parse_text(s) for s in doc["terms"]] == [coeff_list(p) for p in ref]
        return None if ok else "xd terms differ"

    def _cli_expand_xb(self, info, doc):
        N, tag = info["order"], info["basis"]
        if tag == "D":
            basis = [x**n * QQ(1, math.factorial(n)) for n in range(N + 1)]
        elif tag == "Delta":
            basis = [binomial_poly(n) for n in range(N + 1)]
        else:
            basis = exp_x(reversion(pt(parse_text(tag[len("series:"):], "t")), N), N)
        ref = xb_reference(info["op"], basis, N)
        ok = doc["basis"] == tag and [parse_text(s) for s in doc["terms"]] == [coeff_list(p) for p in ref]
        return None if ok else "xb terms differ"

    def _cli_check_dx(self, info, doc):
        fits = [
            (f["t"], {"zero": "identically_zero"}.get(f["verdict"], f["verdict"]),
             parse_text(f["poly"]) if f["poly"] is not None else None, f["evidence"]["samples"])
            for f in doc["fits"]
        ]
        return self._fits(info["family"], Fraction(info["c"]), Fraction(info["a"]),
                          range(-CLI_NMAX, CLI_NMAX + 1), CLI_NMAX, CLI_SLACK, fits)

    def _cli_expand_dx(self, info, doc):
        if doc.get("verdict") != "dx":
            return f"verdict {doc.get('verdict')}: {doc.get('reason', '')[:80]}"
        family = info.get("family", "E")
        c, a = Fraction(info.get("c", 1)), Fraction(info["a"])
        # for e^(aD), as many D powers as the window knows
        known = len(doc["terms"][0]["series_in_D"]) - 1 if doc["terms"] else 0
        expected = sparse_expected(dx_series_map(family, c, a, known))
        got = sparse([term["series_in_D"] for term in doc["terms"]])
        return None if got == expected else "DX terms differ"

    _cli_defect_expand_dx_E = _cli_expand_dx

    def _cli_normal_order(self, info, doc):
        a, b = info["a"], info["b"]
        want = []
        if info["word"] == "DX":
            j, i = a, b
            for k in range(min(i, j) + 1):
                c = math.comb(i, k) * math.comb(j, k) * math.factorial(k)
                want.append({"coef": str(c), "x_pow": i - k, "d_pow": j - k})
        else:
            i, j = a, b
            for k in range(min(i, j) + 1):
                c = (-1) ** k * math.comb(i, k) * math.comb(j, k) * math.factorial(k)
                want.append({"coef": str(c), "d_pow": j - k, "x_pow": i - k})
        return None if doc["terms"] == want else "normal-order terms differ"

    def _cli_umbral(self, info, doc):
        what, N, budget, delta = info["what"], info["order"], info["budget"], info["delta"]
        if delta == "D":
            f = t
        elif delta == "Delta":
            f = RT.from_dict({(j,): QQ(1, math.factorial(j)) for j in range(1, budget + 1)})
        else:
            f = pt(parse_text(delta[len("series:"):], "t"))

        def poly_list(texts):
            return [parse_text(s) for s in texts]

        if what == "sequences":
            divided = exp_x(reversion(f, N), N)
            conj = [e * math.factorial(n) for n, e in enumerate(exp_x(f, N))]
            ok = (poly_list(doc["divided"]) == [coeff_list(p) for p in divided]
                  and poly_list(doc["conjugate"]) == [coeff_list(p) for p in conj])
        elif what == "op-xd":
            ok = poly_list(doc["terms"]) == [coeff_list(p) for p in exp_x(f - t, N)]
        elif what == "op-dx":
            ref = op_dx_terms(reversion(f, budget), N, budget)
            got = [(s["trunc"], strip(s["series_in_D"])) for s in doc["terms"]]
            ok = got == [(budget - 1, coeff_list(r)) for r in ref]
        elif what == "shift-xd":
            g = rs_series_inversion(f.diff(t), t, N + 1)
            ok = poly_list(doc["terms"]) == [coeff_list(c * x) for c in series_coeffs(g, N)]
        elif what == "shift-dx":
            fp = f.diff(t)
            inv = rs_series_inversion(fp, t, budget)
            f0 = rs_mul(rs_mul(fp.diff(t), inv, t, budget - 1), inv, t, budget - 1)
            got = [(s["trunc"], strip(s["series_in_D"])) for s in doc["terms"]]
            ok = got == [(budget - 2, coeff_list(f0)), (budget - 1, coeff_list(inv))]
        else:
            ok = doc["trunc"] == budget and strip(doc["symbol_in_t"]) == coeff_list(reversion(f, budget))
        return None if ok else f"umbral {what} differs"

    def _cli_counterexample(self, info, doc):
        n = info["n"]
        S = sum(math.perm(n, k) * math.perm(n + k, k) for k in range(n + 1))
        bound = math.factorial(n) ** 2
        ok = doc["S"] == str(S) and doc["factorial_squared"] == str(bound) and doc["bound_holds"] == (S >= bound)
        return None if ok else "counterexample differs"

    def _cli_reorder(self, info, doc):
        p, f = px(info["poly"]), pt(info["series"])
        want = []
        for k in range(max(p.degree(), 0) + 1):
            pk = p
            fk = f
            for _ in range(k):
                pk, fk = pk.diff(x), fk.diff(t)
            if not pk:
                continue
            if info["direction"] == "fD_pX_to_XD":
                want.append({"poly_in_X": coeff_list(pk * QQ(1, math.factorial(k))), "series_in_D": coeff_list(fk)})
            else:
                want.append({"series_in_D": coeff_list(fk * QQ((-1) ** k, math.factorial(k))), "poly_in_X": coeff_list(pk)})
        got = [{"poly_in_X": parse_text(pair["poly_in_X"]), "series_in_D": parse_text(pair["series_in_D"], "D")}
               for pair in doc["pairs"]]
        want = [{"poly_in_X": w["poly_in_X"], "series_in_D": w["series_in_D"]} for w in want]
        return None if got == want else "reorder pairs differ"


def xb_reference(spec, basis, N: int) -> list:
    """a_k with Q b_k = sum_(n<=k) a_n b_(k-n), solved upward in k."""
    terms = []
    for k in range(N + 1):
        acc = apply(spec, basis[k])
        for n in range(k):
            acc -= terms[n] * basis[k - n]
        terms.append(acc)
    return terms
