"""Command-line front end.

One subcommand per engine.  Operators are written in the expression DSL
(see ``opcalc --help`` for the grammar).  Output is human text by default
or JSON with ``--format json`` (env OPCALC_FORMAT sets the default).

One table, ``COMMANDS``, declares each verb once: its handler, its help
and its arguments.  ``build_parser`` builds from it only the subcommand
that a call names, or all of them when the call names none.

Each handler returns ``(doc, text, code)``: the JSON document, its text
form and the exit code.  ``main`` prints one of the two, chosen by
``--format``; nothing else prints a document.

Exit codes: 0 success; 2 parse or usage error; 3 negative verdict under
--strict (non-polynomial diagonal, missing DX-expansion, failed
invariance); 4 certificate or truncation failures.  When standard output
is closed before the document is written, as under ``| head -1``, the
rest of the document is dropped without a traceback and the exit code is
still the one above.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .dsl import parse_operator, render_operator
from .dx import (
    all_polynomial,
    counterexample_S,
    dx_check,
    dx_construct,
    observed_tail_bound,
)
from .errors import NotDX, NotDXEligible, OpcalcError, ParseError
from .expansions import divided_power_basis, render_expansion, xb_expand, xd_expand
from .normal_order import normal_order_DjXi, normal_order_XiDj, reorder_product
from .operators import Delta, D, OpTable, SeriesInD, shift_invariance_check, d_expand
from .poly import Poly, Scanner, parse_poly, render_poly
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
SERIES_SPEC = "D, Delta, or series:<tpoly>"

GRAMMAR_HELP = """\
operator expression grammar:
  expr   := '-'? term (('+'|'-') term)*      sums of operators
  term   := factor factor*                   juxtaposition composes (rightmost acts first)
  factor := rational '*' factor | atom ('^' uint)? | '(' expr ')' ('^' uint)?
  atom   := D | X | I | J | Delta | E(a) | Eval0
          | sub(poly) | series(tpoly) | poly(poly)
  poly   := ('+'|'-')? pterm (('+'|'-') pterm)*  in x; tpoly is the same in t
  pterm  := rational ('*'? x ('^' uint)?)? | x ('^' uint)?
examples:
  "D X - X D"              the commutator (the identity operator)
  "E(1/2)"                 translation by 1/2
  "series(t^2 - 1/3*t^3)"  an exact series in D
  "2 * J Delta"            scalar times a composition
"""


def _strict_exit(args) -> int:
    return 3 if args.strict else 0


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
    """argparse type of --t: MIN..MAX with MIN <= MAX."""
    try:
        lo, hi = map(int, s.split("..", 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad t range {s!r}, expected MIN..MAX") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty t range {s!r}: MIN exceeds MAX")
    return lo, hi


def _degree(p: Poly) -> int:
    """deg p, with 0 for the zero polynomial."""
    return 0 if p.is_zero() else int(p.degree)


def _series_spec(spec: str, what: str) -> Poly:
    """The t-polynomial of a 'series:<tpoly>' spec; D and Delta are the caller's."""
    if not spec.startswith("series:"):
        raise ParseError(f"unknown {what} {spec!r}; use {SERIES_SPEC}")
    sc = Scanner(spec, len("series:"))  # positions count from the argument's start
    tpoly = sc.poly("t")
    sc.end()
    return tpoly


def _basis_for(spec: str, order: int):
    if spec == "D":
        B = D()
    elif spec == "Delta":
        B = Delta()
    else:
        tpoly = _series_spec(spec, "basis")
        # Only a symbol of order exactly 1 lowers every degree by one.
        if tpoly.coeff(0) != 0 or tpoly.coeff(1) == 0:
            raise ParseError(
                f"basis {spec!r} must have order exactly 1: "
                "zero constant term and nonzero t coefficient"
            )
        B = SeriesInD(SSeries.from_poly(tpoly, _degree(tpoly)), exact=True)
    return divided_power_basis(B, order, tag=spec)


def _delta_for(spec: str, budget: int) -> DeltaOp:
    if spec == "D":
        f = SSeries.t(budget)
    elif spec == "Delta":
        f = SSeries.exp_t(budget) - SSeries.one(budget)
    else:
        f = SSeries.from_poly(_series_spec(spec, "delta operator"), budget)
    return delta_from_series(f)


def _series_str(f: SSeries) -> str:
    return render_poly(f.poly, var="D")


def _expansion(expansion, kind: str = "xd-expansion") -> tuple:
    """The document of an XDExpansion, in D or in a basis; ``kind`` names which."""
    doc = {
        "kind": kind,
        "basis": expansion.basis_tag,
        "order": expansion.trunc_order,
        "terms": [str(t) for t in expansion.terms],
    }
    return doc, render_expansion(expansion), 0


def _dx(args, build) -> tuple:
    """The DX document of ``build()``, or the not-dx verdict if it refuses."""
    doc = {"kind": "dx-expansion"}
    try:
        expansion = build()
    except (NotDX, NotDXEligible) as err:
        doc.update(verdict="not-dx", reason=str(err))
        return doc, f"no DX-expansion: {err}", _strict_exit(args)
    doc.update(
        verdict="dx",
        trunc_k=expansion.trunc_k,
        terms=[
            {"k": k, "series_in_D": [str(c) for c in f.coeffs], "trunc": f.trunc_order}
            for k, f in enumerate(expansion.terms)
        ],
        complete=expansion.complete,
        validated_degree=expansion.validated_degree,
    )
    lines = [
        f"X^{k}: {_series_str(f)}  (known to D^{f.trunc_order})"
        for k, f in enumerate(expansion.terms)
        if k == 0 or not f.is_zero_prefix()
    ]
    if expansion.validated_degree is not None:
        lines.append(f"validated on degrees <= {expansion.validated_degree}")
    return doc, "\n".join(lines), 0


# ----------------------------------------------------------------------
# subcommand handlers: each returns (doc, text, exit code)


def _cmd_apply(args) -> tuple:
    Q = parse_operator(args.operator)
    p = parse_poly(args.poly)
    result = Q.apply(p)
    doc = {
        "kind": "apply",
        "operator": render_operator(Q),
        "input": str(p),
        "result": str(result),
    }
    return doc, str(result), 0


def _cmd_d_expand(args) -> tuple:
    rows = OpTable(parse_operator(args.operator)).row
    series = d_expand(rows, args.order)
    invariant = shift_invariance_check(rows, args.order)
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
    return doc, text, 0 if invariant else _strict_exit(args)


def _cmd_expand_xd(args) -> tuple:
    Q = parse_operator(args.operator)
    return _expansion(xd_expand(Q, args.order))


def _cmd_expand_xb(args) -> tuple:
    Q = parse_operator(args.operator)
    basis = _basis_for(args.basis, args.order)
    return _expansion(xb_expand(Q, basis, args.order), "xb-expansion")


def _cmd_check_dx(args) -> tuple:
    Q = parse_operator(args.operator)
    fits = dx_check(OpTable(Q), *args.trange, args.nmax, args.slack)
    accepted = all_polynomial(fits)
    doc = {
        "kind": "dx-check",
        "fits": [f.to_json_dict() for f in fits],
        "all_polynomial": accepted,
        "observed_tail_bound": observed_tail_bound(fits),
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
    lines.append(f"all diagonals polynomial: {str(accepted).lower()}")
    return doc, "\n".join(lines), 0 if accepted else _strict_exit(args)


def _cmd_expand_dx(args) -> tuple:
    lo, hi = args.trange
    if not lo <= 0 <= hi:
        raise ParseError(f"t range {lo}..{hi} must contain 0 to construct a DX-expansion")
    Q = parse_operator(args.operator)
    return _dx(args, lambda: dx_construct(OpTable(Q), *args.trange, args.nmax, args.slack))


def _cmd_normal_order(args) -> tuple:
    # The result puts the input's second letter first: (coef, first, second) powers.
    if args.word == "DX":
        word = {"form": "DX", "d": args.a, "x": args.b}
        terms, first, second = normal_order_DjXi(args.a, args.b), "x", "d"
    else:
        word = {"form": "XD", "x": args.a, "d": args.b}
        terms, first, second = normal_order_XiDj(args.a, args.b), "d", "x"

    def _pow(letter: str, p: int) -> str:
        letter = letter.upper()
        return letter if p == 1 else f"{letter}^{p}"

    def _piece(c, p: int, q: int) -> str:
        body = " ".join(_pow(l, e) for l, e in ((first, p), (second, q)) if e) or "I"
        return body if c == 1 else f"{c} * {body}"

    rendered = [{"coef": str(c), f"{first}_pow": p, f"{second}_pow": q} for c, p, q in terms]
    text = " + ".join(_piece(c, p, q) for c, p, q in terms)
    return {"kind": "normal-order", "word": word, "terms": rendered}, text, 0


def _cmd_umbral(args) -> tuple:
    P = _delta_for(args.delta, args.budget)
    N = args.order
    if args.what == "op-xd":
        return _expansion(umbral_op_xd(P, N))
    if args.what == "shift-xd":
        return _expansion(rodrigues_xd(P, N))
    if args.what == "op-dx":
        return _dx(args, lambda: umbral_op_dx(P, N))
    if args.what == "shift-dx":
        return _dx(args, lambda: umbral_shift_dx(P, N))
    if args.what == "inverse":
        R = delta_inverse(P)
        doc = {
            "kind": "umbral-inverse",
            "symbol_in_t": [str(c) for c in R.f.coeffs],
            "trunc": R.f.trunc_order,
        }
        return doc, render_poly(R.f.poly, var="t"), 0
    # "sequences", the one action left among the parser's choices
    divided, conjugate = sequences(P, N)
    doc = {
        "kind": "umbral-sequences",
        "order": N,
        "divided": [str(p) for p in divided.polys],
        "conjugate": [str(p) for p in conjugate.polys],
    }
    text = "divided:   [{}]\nconjugate: [{}]".format(
        ", ".join(doc["divided"]), ", ".join(doc["conjugate"])
    )
    return doc, text, 0


def _cmd_counterexample(args) -> tuple:
    n = args.n
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
    return doc, text, 0


def _cmd_reorder(args) -> tuple:
    tpoly = parse_poly(args.series, var="t")
    p = parse_poly(args.poly)
    f = SSeries.from_poly(tpoly, max(_degree(tpoly), _degree(p)))
    form = reorder_product(f, p, args.direction)

    def _side(v) -> tuple:
        if isinstance(v, SSeries):
            return "series_in_D", _series_str(v)
        return "poly_in_X", str(v)

    # Each pair keeps the form's order: (poly, series) for XD, (series, poly) for DX.
    pairs = [dict(map(_side, pair)) for pair in form.pairs]
    text = " + ".join("*".join(f"({s})" for s in pair.values()) for pair in pairs)
    return {"kind": "reorder", "direction": form.direction, "pairs": pairs}, text or "0", 0


# ----------------------------------------------------------------------
# The command table: verb -> (handler, help, arguments), in --help order.
# An argument is (flags, add_argument keywords).  Every verb also takes
# COMMON, whose --format default build_parser reads from OPCALC_FORMAT.


def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


FORMATS = ("text", "json")
COMMON = (
    _arg("--format", choices=FORMATS, help="output format (env OPCALC_FORMAT sets the default)"),
    _arg("--strict", action="store_true", help="exit 3 on negative verdicts instead of 0"),
)
OPERATOR = _arg("operator")
ORDER = _arg("-N", "--order", type=_size, default=DEFAULT_ORDER)
WINDOW = (
    _arg("--t", dest="trange", type=_parse_trange, default=(-DEFAULT_NMAX, DEFAULT_NMAX),
         metavar="MIN..MAX"),
    _arg("-n", "--nmax", type=_size, default=DEFAULT_NMAX),
    _arg("--slack", type=_size, default=DEFAULT_SLACK),
)

COMMANDS = {
    "apply": (_cmd_apply, "apply an operator to a polynomial", (OPERATOR, _arg("poly"))),
    "d-expand": (_cmd_d_expand, "classical expansion in D", (OPERATOR, ORDER)),
    "expand-xd": (_cmd_expand_xd, "expansion with X left of D", (OPERATOR, ORDER)),
    "expand-xb": (_cmd_expand_xb, "expansion over a divided-power basis",
                  (OPERATOR, _arg("--basis", default="Delta", help=SERIES_SPEC), ORDER)),
    "check-dx": (_cmd_check_dx, "diagonal polynomiality verdicts", (OPERATOR, *WINDOW)),
    "expand-dx": (_cmd_expand_dx, "construct the DX-expansion", (OPERATOR, *WINDOW)),
    "normal-order": (_cmd_normal_order, "rewrite a word between orderings", (
        _arg("word", choices=("DX", "XD"), help="DX: input D^a X^b; XD: input X^a D^b"),
        _arg("a", type=_size),
        _arg("b", type=_size),
    )),
    "umbral": (_cmd_umbral, "delta-operator apparatus", (
        _arg("--delta", default="Delta", help=SERIES_SPEC),
        _arg("--what", choices=("sequences", "op-xd", "op-dx", "shift-xd", "shift-dx", "inverse"),
             default="sequences"),
        ORDER,
        _arg("--budget", type=_size, default=DEFAULT_BUDGET, help="series truncation"),
    )),
    "counterexample": (_cmd_counterexample, "two-variable closure counterexample sum",
                       (_arg("n", type=_size),)),
    "reorder": (_cmd_reorder, "commute a series in D past a polynomial in X", (
        _arg("--series", required=True, help="polynomial in t"),
        _arg("--poly", required=True, help="polynomial in x"),
        _arg("--direction", choices=("fD_pX_to_XD", "pX_fD_to_DX"), default="fD_pX_to_XD"),
    )),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of a call that starts with ``verb``: that verb's subcommand
    alone if it is one, else all of them (for --help and invalid choices)."""
    parser = argparse.ArgumentParser(
        prog="opcalc",
        description="Exact operator calculus on polynomials.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"opcalc {__version__}")
    known = verb in COMMANDS
    # Usage printed after a known verb, say for an unrecognized argument,
    # still lists every verb, as the full parser's does.
    sub = parser.add_subparsers(
        dest="verb", required=True, metavar="{" + ",".join(COMMANDS) + "}" if known else None
    )
    fmt = os.environ.get("OPCALC_FORMAT", "text")
    for name in (verb,) if known else COMMANDS:
        handler, help_text, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in COMMON + arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=handler, format=fmt)
    return parser


def _merge_trange(argv: list) -> list:
    """Join '--t -1..2' into '--t=-1..2' so argparse accepts the leading dash."""
    out = []
    rest = iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--t" else None
        out.append(arg if value is None else f"--t={value}")
    return out


def main(argv=None) -> int:
    argv = _merge_trange(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.format not in FORMATS:  # argparse checks no default against its choices
        parser.error(f"invalid OPCALC_FORMAT {args.format!r} (choose from 'text', 'json')")
    try:
        doc, text, code = args.func(args)
    except ParseError as err:
        print(f"opcalc: parse error: {err}", file=sys.stderr)
        return 2
    except OpcalcError as err:
        print(f"opcalc: {err}", file=sys.stderr)
        return 4
    try:
        print(json.dumps(doc) if args.format == "json" else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at devnull so that the flush at
        # interpreter exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
