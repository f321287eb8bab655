"""Command-line front end.

One subcommand per engine.  Operators are written in the expression DSL
(see ``opcalc --help`` for the grammar).  Output is human text by default
or JSON with ``--format json`` (env OPCALC_FORMAT sets the default).

Exit codes: 0 success; 2 parse error; 3 negative verdict under --strict
(non-polynomial diagonal, missing DX-expansion, failed invariance);
4 certificate or truncation failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .dsl import parse_operator, render_operator
from .dx import (
    DXExpansion,
    all_polynomial,
    counterexample_S,
    dx_check,
    dx_construct,
    observed_tail_bound,
)
from .errors import NotDX, NotDXEligible, OpcalcError, ParseError
from .expansions import divided_power_basis, render_expansion, xb_expand, xd_expand
from .normal_order import normal_order_DjXi, normal_order_XiDj, reorder_product
from .operators import Delta, D, OpTable, shift_invariance_check, d_expand
from .poly import parse_poly, render_poly
from .series import SSeries
from .umbral import (
    DeltaOp,
    delta_from_series,
    delta_inverse,
    rodrigues_xd,
    sequences,
    umbral_op_dx,
    umbral_op_xd,
    umbral_shift_dx,
)

DEFAULT_ORDER = 8
DEFAULT_NMAX = 12
DEFAULT_SLACK = 3
DEFAULT_BUDGET = 24

GRAMMAR_HELP = """\
operator expression grammar:
  expr   := '-'? term (('+'|'-') term)*      sums of operators
  term   := factor factor*                   juxtaposition composes (rightmost acts first)
  factor := rational '*' factor | atom ('^' uint)? | '(' expr ')' ('^' uint)?
  atom   := D | X | I | J | Delta | E(a) | Eval0
          | sub(poly) | series(tpoly) | poly(poly)
examples:
  "D X - X D"            the commutator (the identity operator)
  "E(1/2)"               translation by 1/2
  "series(t^2 - t^3/3)"  an exact series in D
  "2 * J Delta"          scalar times a composition
"""


def _strict_exit(args) -> int:
    return 3 if args.strict else 0


def _emit(args, doc: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(text)


def _size(text: str) -> int:
    """argparse type of every size argument: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _parse_trange(s: str) -> tuple:
    try:
        lo, hi = s.split("..", 1)
        return int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad t range {s!r}, expected MIN..MAX") from None


def _basis_for(spec: str, order: int):
    if spec == "D":
        return divided_power_basis(D(), order, tag="D")
    if spec == "Delta":
        return divided_power_basis(Delta(), order, tag="Delta")
    if spec.startswith("series:"):
        tpoly = parse_poly(spec[len("series:"):], var="t")
        trunc = max(int(tpoly.degree), 0) if not tpoly.is_zero() else 0
        from .operators import SeriesInD

        op = SeriesInD(SSeries.from_poly(tpoly, trunc), exact=True)
        return divided_power_basis(op, order, tag=spec)
    raise ParseError(f"unknown basis {spec!r}; use D, Delta, or series:<tpoly>")


def _delta_for(spec: str, budget: int) -> DeltaOp:
    if spec == "D":
        return delta_from_series(SSeries.t(budget))
    if spec == "Delta":
        return delta_from_series(SSeries.exp_t(budget) - SSeries.one(budget))
    if spec.startswith("series:"):
        tpoly = parse_poly(spec[len("series:"):], var="t")
        return delta_from_series(SSeries.from_poly(tpoly, budget))
    raise ParseError(f"unknown delta operator {spec!r}; use D, Delta, or series:<tpoly>")


def _series_str(f: SSeries) -> str:
    return render_poly(f.poly, var="D")


def _dx_doc(expansion: DXExpansion) -> dict:
    return {
        "kind": "dx-expansion",
        "verdict": "dx",
        "trunc_k": expansion.trunc_k,
        "terms": [
            {
                "k": k,
                "series_in_D": [str(c) for c in f.coeffs],
                "trunc": f.trunc_order,
            }
            for k, f in enumerate(expansion.terms)
        ],
        "complete": expansion.complete,
        "validated_degree": expansion.validated_degree,
    }


def _dx_text(expansion: DXExpansion) -> str:
    lines = []
    for k, f in enumerate(expansion.terms):
        if f.is_zero_prefix() and k > 0:
            continue
        lines.append(f"X^{k}: {_series_str(f)}  (known to D^{f.trunc_order})")
    if expansion.validated_degree is not None:
        lines.append(f"validated on degrees <= {expansion.validated_degree}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_apply(args) -> int:
    Q = parse_operator(args.operator)
    p = parse_poly(args.poly)
    result = Q.apply(p)
    _emit(
        args,
        {
            "kind": "apply",
            "operator": render_operator(Q),
            "input": str(p),
            "result": str(result),
        },
        str(result),
    )
    return 0


def _cmd_d_expand(args) -> int:
    Q = parse_operator(args.operator)
    series = d_expand(Q, args.order)
    invariant = shift_invariance_check(Q, args.order)
    doc = {
        "kind": "d-expand",
        "order": args.order,
        "coefficients": [str(c) for c in series.coeffs],
        "shift_invariant": invariant,
    }
    text = (
        f"a_k = [{', '.join(str(c) for c in series.coeffs)}]\n"
        f"shift_invariant (N={args.order}): {str(invariant).lower()}"
    )
    _emit(args, doc, text)
    return 0 if invariant else _strict_exit(args)


def _cmd_expand_xd(args) -> int:
    Q = parse_operator(args.operator)
    expansion = xd_expand(Q, args.order)
    doc = {
        "kind": "xd-expansion",
        "basis": "D",
        "order": args.order,
        "terms": [str(t) for t in expansion.terms],
    }
    _emit(args, doc, render_expansion(expansion))
    return 0


def _cmd_expand_xb(args) -> int:
    Q = parse_operator(args.operator)
    basis = _basis_for(args.basis, args.order)
    expansion = xb_expand(Q, basis, args.order)
    doc = {
        "kind": "xb-expansion",
        "basis": expansion.basis_tag,
        "order": args.order,
        "terms": [str(t) for t in expansion.terms],
    }
    _emit(args, doc, render_expansion(expansion))
    return 0


def _cmd_check_dx(args) -> int:
    Q = parse_operator(args.operator)
    t_min, t_max = args.trange
    fits = dx_check(OpTable(Q), t_min, t_max, args.nmax, args.slack)
    tail = observed_tail_bound(fits)
    doc = {
        "kind": "dx-check",
        "fits": [f.to_json_dict() for f in fits],
        "all_polynomial": all_polynomial(fits),
        "observed_tail_bound": tail,
    }
    lines = []
    for f in fits:
        if f.verdict == "polynomial":
            lines.append(f"t={f.t}: polynomial  q_t(n) = {render_poly(f.poly, var='n')}")
        elif f.verdict == "identically_zero":
            lines.append(f"t={f.t}: zero")
        else:
            shown = ", ".join(str(s) for s in f.samples[:6])
            lines.append(f"t={f.t}: not_polynomial  (samples {shown}, ...)")
    lines.append(f"all diagonals polynomial: {str(all_polynomial(fits)).lower()}")
    _emit(args, doc, "\n".join(lines))
    return 0 if all_polynomial(fits) else _strict_exit(args)


def _cmd_expand_dx(args) -> int:
    Q = parse_operator(args.operator)
    t_min, t_max = args.trange
    try:
        expansion = dx_construct(OpTable(Q), t_min, t_max, args.nmax, args.slack)
    except NotDX as err:
        _emit(
            args,
            {"kind": "dx-expansion", "verdict": "not-dx", "reason": str(err)},
            f"no DX-expansion: {err}",
        )
        return _strict_exit(args)
    _emit(args, _dx_doc(expansion), _dx_text(expansion))
    return 0


def _cmd_normal_order(args) -> int:
    def _pow(letter: str, p: int) -> str:
        return letter if p == 1 else f"{letter}^{p}"

    def _piece(c, first: str, second: str) -> str:
        body = " ".join(s for s in (first, second) if s) or "I"
        return body if c == 1 else f"{c} * {body}"

    if args.word == "DX":
        d_pow, x_pow = args.a, args.b
        terms = normal_order_DjXi(d_pow, x_pow)
        word = {"form": "DX", "d": d_pow, "x": x_pow}
        rendered = [{"coef": str(c), "x_pow": xp, "d_pow": dp} for c, xp, dp in terms]
        text = " + ".join(
            _piece(c, _pow("X", xp) if xp else "", _pow("D", dp) if dp else "")
            for c, xp, dp in terms
        )
    else:
        x_pow, d_pow = args.a, args.b
        terms = normal_order_XiDj(x_pow, d_pow)
        word = {"form": "XD", "x": x_pow, "d": d_pow}
        rendered = [{"coef": str(c), "d_pow": dp, "x_pow": xp} for c, dp, xp in terms]
        text = " + ".join(
            _piece(c, _pow("D", dp) if dp else "", _pow("X", xp) if xp else "")
            for c, dp, xp in terms
        )
    _emit(args, {"kind": "normal-order", "word": word, "terms": rendered}, text)
    return 0


def _cmd_umbral(args) -> int:
    P = _delta_for(args.delta, args.budget)
    N = args.order
    what = args.what
    if what == "sequences":
        divided, conjugate = sequences(P, N)
        doc = {
            "kind": "umbral-sequences",
            "order": N,
            "divided": [str(p) for p in divided.polys],
            "conjugate": [str(p) for p in conjugate.polys],
        }
        text = "divided:   [{}]\nconjugate: [{}]".format(
            ", ".join(str(p) for p in divided.polys),
            ", ".join(str(p) for p in conjugate.polys),
        )
        _emit(args, doc, text)
        return 0
    if what == "op-xd":
        expansion = umbral_op_xd(P, N)
        doc = {
            "kind": "xd-expansion",
            "basis": "D",
            "order": N,
            "terms": [str(t) for t in expansion.terms],
        }
        _emit(args, doc, render_expansion(expansion))
        return 0
    if what == "op-dx":
        try:
            expansion = umbral_op_dx(P, N)
        except NotDXEligible as err:
            _emit(
                args,
                {"kind": "dx-expansion", "verdict": "not-dx", "reason": str(err)},
                f"no DX-expansion: {err}",
            )
            return _strict_exit(args)
        _emit(args, _dx_doc(expansion), _dx_text(expansion))
        return 0
    if what == "shift-xd":
        expansion = rodrigues_xd(P, N)
        doc = {
            "kind": "xd-expansion",
            "basis": "D",
            "order": N,
            "terms": [str(t) for t in expansion.terms],
        }
        _emit(args, doc, render_expansion(expansion))
        return 0
    if what == "shift-dx":
        expansion = umbral_shift_dx(P, N)
        _emit(args, _dx_doc(expansion), _dx_text(expansion))
        return 0
    if what == "inverse":
        R = delta_inverse(P)
        doc = {
            "kind": "umbral-inverse",
            "symbol_in_t": [str(c) for c in R.f.coeffs],
            "trunc": R.f.trunc_order,
        }
        _emit(args, doc, render_poly(R.f.poly, var="t"))
        return 0
    raise ParseError(f"unknown umbral action {what!r}")


def _cmd_counterexample(args) -> int:
    n = args.n
    import math

    s = counterexample_S(n)
    bound = math.factorial(n) ** 2
    holds = s >= bound
    doc = {
        "kind": "counterexample",
        "n": n,
        "S": str(s),
        "factorial_squared": str(bound),
        "bound_holds": holds,
    }
    text = f"S({n}) = {s}, ({n}!)^2 = {bound}, bound {'holds' if holds else 'FAILS'}"
    _emit(args, doc, text)
    return 0


def _cmd_reorder(args) -> int:
    tpoly = parse_poly(args.series, var="t")
    p = parse_poly(args.poly)
    trunc = max(int(tpoly.degree), 0) if not tpoly.is_zero() else 0
    deg = 0 if p.is_zero() else int(p.degree)
    f = SSeries.from_poly(tpoly, max(trunc, deg))
    form = reorder_product(f, p, args.direction)
    if form.direction == "XD":
        pairs = [
            {"poly_in_X": str(a), "series_in_D": _series_str(g)} for a, g in form.pairs
        ]
        text = " + ".join(f"({a})*({_series_str(g)})" for a, g in form.pairs)
    else:
        pairs = [
            {"series_in_D": _series_str(g), "poly_in_X": str(a)} for g, a in form.pairs
        ]
        text = " + ".join(f"({_series_str(g)})*({a})" for g, a in form.pairs)
    _emit(
        args,
        {"kind": "reorder", "direction": form.direction, "pairs": pairs},
        text or "0",
    )
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="Exact operator calculus on polynomials.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"opcalc {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=os.environ.get("OPCALC_FORMAT", "text"),
        help="output format (env OPCALC_FORMAT sets the default)",
    )
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 on negative verdicts instead of 0",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("apply", parents=[common], help="apply an operator to a polynomial")
    sp.add_argument("operator")
    sp.add_argument("poly")
    sp.set_defaults(func=_cmd_apply)

    sp = sub.add_parser("d-expand", parents=[common], help="classical expansion in D")
    sp.add_argument("operator")
    sp.add_argument("-N", "--order", type=_size, default=DEFAULT_ORDER)
    sp.set_defaults(func=_cmd_d_expand)

    sp = sub.add_parser("expand-xd", parents=[common], help="expansion with X left of D")
    sp.add_argument("operator")
    sp.add_argument("-N", "--order", type=_size, default=DEFAULT_ORDER)
    sp.set_defaults(func=_cmd_expand_xd)

    sp = sub.add_parser("expand-xb", parents=[common], help="expansion over a divided-power basis")
    sp.add_argument("operator")
    sp.add_argument("--basis", default="Delta", help="D, Delta, or series:<tpoly>")
    sp.add_argument("-N", "--order", type=_size, default=DEFAULT_ORDER)
    sp.set_defaults(func=_cmd_expand_xb)

    sp = sub.add_parser("check-dx", parents=[common], help="diagonal polynomiality verdicts")
    sp.add_argument("operator")
    sp.add_argument("--t", dest="trange", type=_parse_trange, default=(-DEFAULT_NMAX, DEFAULT_NMAX), metavar="MIN..MAX")
    sp.add_argument("-n", "--nmax", type=_size, default=DEFAULT_NMAX)
    sp.add_argument("--slack", type=_size, default=DEFAULT_SLACK)
    sp.set_defaults(func=_cmd_check_dx)

    sp = sub.add_parser("expand-dx", parents=[common], help="construct the DX-expansion")
    sp.add_argument("operator")
    sp.add_argument("--t", dest="trange", type=_parse_trange, default=(-DEFAULT_NMAX, DEFAULT_NMAX), metavar="MIN..MAX")
    sp.add_argument("-n", "--nmax", type=_size, default=DEFAULT_NMAX)
    sp.add_argument("--slack", type=_size, default=DEFAULT_SLACK)
    sp.set_defaults(func=_cmd_expand_dx)

    sp = sub.add_parser("normal-order", parents=[common], help="rewrite a word between orderings")
    sp.add_argument("word", choices=("DX", "XD"), help="DX: input D^a X^b; XD: input X^a D^b")
    sp.add_argument("a", type=_size)
    sp.add_argument("b", type=_size)
    sp.set_defaults(func=_cmd_normal_order)

    sp = sub.add_parser("umbral", parents=[common], help="delta-operator apparatus")
    sp.add_argument("--delta", default="Delta", help="D, Delta, or series:<tpoly>")
    sp.add_argument(
        "--what",
        choices=("sequences", "op-xd", "op-dx", "shift-xd", "shift-dx", "inverse"),
        default="sequences",
    )
    sp.add_argument("-N", "--order", type=_size, default=DEFAULT_ORDER)
    sp.add_argument("--budget", type=_size, default=DEFAULT_BUDGET, help="series truncation")
    sp.set_defaults(func=_cmd_umbral)

    sp = sub.add_parser("counterexample", parents=[common], help="two-variable closure counterexample sum")
    sp.add_argument("n", type=_size)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("reorder", parents=[common], help="commute a series in D past a polynomial in X")
    sp.add_argument("--series", required=True, help="polynomial in t")
    sp.add_argument("--poly", required=True, help="polynomial in x")
    sp.add_argument(
        "--direction",
        choices=("fD_pX_to_XD", "pX_fD_to_DX"),
        default="fD_pX_to_XD",
    )
    sp.set_defaults(func=_cmd_reorder)

    return parser


def _merge_trange(argv: list) -> list:
    """Join '--t -1..2' into '--t=-1..2' so argparse accepts the leading dash."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--t" and i + 1 < len(argv):
            out.append(f"--t={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_trange(list(argv)))
    try:
        return args.func(args)
    except ParseError as err:
        print(f"opcalc: parse error: {err}", file=sys.stderr)
        return 2
    except OpcalcError as err:
        print(f"opcalc: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
