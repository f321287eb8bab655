"""Seeded job streams for the four benchmark workloads.

A stream hands out rounds.  Every round of a workload has the same size
mix, so a pass made of whole rounds runs the mix the workload states
whatever the number of rounds.  Job parameters are drawn from the seed,
and no job repeats within a stream: a memo kept across calls cannot pass
for a kernel gain.

A job is a ``Job``: ``key`` is plain JSON data that names the job fully
(the reference checker rebuilds everything it needs from it), ``run``
makes the opcalc calls and is the only timed part, and ``dump`` turns the
result into JSON data for the checker.

Workloads call opcalc through module attributes (``opcalc.xd_expand``,
``opcalc_cli.main``) at call time, so a tracer that patches the modules
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple

import opcalc
import opcalc.cli as opcalc_cli

WORKLOADS = ("expand", "umbral", "dx", "cli")

# Parameters are small non-integer rationals of like size, so that a job
# costs close to the same whatever the seed draws.
PARAMS = sorted(s * Fraction(n, d) for s in (1, -1) for n, d in ((1, 2), (3, 2), (1, 3), (2, 3)))
# The scale c of the umbral symbol (e^(ct) - 1)/c; c = 1 is e^t - 1.
EXP_SCALES = [Fraction(c) for c in (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))]
POSITIVE = [c for c in PARAMS if c > 0]
# The CLI stream also draws zero coefficients.
POOL = sorted(set(PARAMS) | {Fraction(0)})

DX_SLACK = 3


class Job(NamedTuple):
    key: Any
    run: Callable[[], Any]
    dump: Callable[[Any], Any]


# ----------------------------------------------------------------------
# Operator specs: nested lists, rational parameters as strings.

XD = ["comp", ["X"], ["D"]]
DX = ["comp", ["D"], ["X"]]


def build_op(spec):
    """The opcalc operator a spec names."""
    tag = spec[0]
    if tag in ("D", "X", "J", "Delta"):
        return getattr(opcalc, tag)()
    if tag == "E":
        return opcalc.Shift(Fraction(spec[1]))
    if tag == "sub":
        return opcalc.Substitute(opcalc.Poly([Fraction(c) for c in spec[1]]))
    if tag == "poly":
        return opcalc.PolyInX(opcalc.Poly([Fraction(c) for c in spec[1]]))
    if tag == "series":
        p = opcalc.Poly([Fraction(c) for c in spec[1]])
        return opcalc.SeriesInD(opcalc.SSeries.from_poly(p, int(p.degree)), exact=True)
    if tag == "scale":
        return opcalc.Scale(Fraction(spec[1]), build_op(spec[2]))
    if tag == "comp":
        return opcalc.Compose(build_op(spec[1]), build_op(spec[2]))
    if tag == "add":
        return opcalc.Add((build_op(spec[1]), build_op(spec[2])))
    raise ValueError(f"unknown operator spec {spec!r}")


def poly_text(coeffs, var="x") -> str:
    """Text for a coefficient list, in the syntax the CLI parses."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        body = str(abs(c)) if k == 0 else f"{abs(c)}*{var}" + (f"^{k}" if k > 1 else "")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


def dsl_text(spec) -> str:
    """The spec in the CLI's operator language."""
    tag = spec[0]
    if tag in ("D", "X", "J", "Delta"):
        return tag
    if tag == "E":
        return f"E({spec[1]})"
    if tag in ("sub", "poly"):
        return f"{tag}({poly_text(spec[1])})"
    if tag == "series":
        return f"series({poly_text(spec[1], 't')})"
    if tag == "scale":
        c = Fraction(spec[1])
        sign = "-" if c < 0 else ""
        return f"({sign}{abs(c)} * ({dsl_text(spec[2])}))"
    if tag == "comp":
        return f"({dsl_text(spec[1])}) ({dsl_text(spec[2])})"
    if tag == "add":
        return f"({dsl_text(spec[1])}) + ({dsl_text(spec[2])})"
    raise ValueError(f"unknown operator spec {spec!r}")


def dump_poly(p) -> list:
    return [str(c) for c in p.coeffs]


def dump_series(f) -> dict:
    return {"coeffs": [str(c) for c in f.coeffs], "trunc": f.trunc_order}


def delta_symbol(sym, budget: int):
    """The symbol series a umbral spec names, truncated at ``budget``.

    ``["exp", c]`` is (e^(ct) - 1)/c and ``["poly", cs]`` is the
    polynomial t + c2 t^2 + ...; both have slope 1.
    """
    if sym[0] == "exp":
        c = Fraction(sym[1])
        coeffs = [Fraction(0)]
        term = Fraction(1)
        for j in range(1, budget + 1):
            coeffs.append(term)
            term = term * c / (j + 1)
        return opcalc.SSeries(coeffs, budget)
    return opcalc.SSeries.from_poly(opcalc.Poly([Fraction(c) for c in sym[1]]), budget)


# ----------------------------------------------------------------------


class Stream:
    """Rounds of distinct seeded jobs for one workload.

    Every round of a stream has the same job kinds at the same sizes, so
    the order statistics of a pass of whole rounds sit at the same place in
    the mix whatever the number of rounds.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._seen: set = set()
        self._decks: dict = {}

    def q(self, pool=PARAMS) -> str:
        return str(self.rng.choice(pool))

    def deal(self, slot, values=PARAMS) -> str:
        """The next value from this slot's own deck, reshuffled when empty.

        A slot sees every value once in each len(values) rounds, so the
        parameters of a pass, and what they cost, are nearly the same
        multiset whatever the seed.
        """
        deck = self._decks.get(slot)
        if not deck:
            deck = self._decks[slot] = self.rng.sample(values, len(values))
        return str(deck.pop())

    def coeffs(self, deg: int, low=PARAMS, lead=PARAMS) -> list:
        return [self.q(low) for _ in range(deg)] + [self.q(lead)]

    def unique(self, draw: Callable[[], Job]) -> Job:
        """Draw until the key is new; after many tries accept a repeat."""
        for _ in range(200):
            job = draw()
            token = repr(job.key)
            if token not in self._seen:
                break
        self._seen.add(token)
        return job

    def round(self, r: int) -> list:
        raise NotImplementedError


class ExpandStream(Stream):
    """XD expansion of composites, and XB expansion over fresh bases.

    Seven kinds at sizes 16, 24 and 32: two heavy (Delta + D at 32, XB over
    Delta at 24), three of middle cost at 24 and two light at 16.  The
    median falls inside the middle three and p80 inside the heavy two.
    """

    name = "expand"

    def round(self, r: int) -> list:
        def d(*slot):
            return self.deal(slot)

        kinds = (
            lambda: ["xd", ["add", ["scale", d("Delta", "c"), ["Delta"]], ["scale", d("Delta", "b"), ["D"]]], 32],
            lambda: ["xb", ["Delta"], ["comp", ["E", d("xb", "a")], ["scale", d("xb", "c"), ["J"]]], 24],
            lambda: ["xd", ["scale", d("E", "c"), ["E", d("E", "a")]], 24],
            lambda: ["xd", ["add", XD, ["comp", ["poly", [d("poly", 0), d("poly", 1)]], ["Delta"]]], 24],
            lambda: ["xd", ["add", ["scale", d("J", "c"), ["J"]], ["E", d("J", "b")]], 24],
            lambda: ["xd", ["sub", [d("sub", i) for i in range(3)]], 16],
            lambda: ["xb", ["series", ["0", "1", d("series", 2), d("series", 3)]],
                     ["add", ["scale", d("series", "J"), ["J"]], ["poly", [d("series", 0), d("series", 1)]]], 16],
        )
        return [self.unique(lambda: expand_job(kind())) for kind in kinds]


def expand_job(key) -> Job:
    if key[0] == "xd":
        Q, N = build_op(key[1]), key[2]
        return Job(key, lambda: opcalc.xd_expand(Q, N), lambda e: [dump_poly(p) for p in e.terms])
    B, Q, N = build_op(key[1]), build_op(key[2]), key[3]

    def run():  # a fresh basis per job, as each CLI call builds one
        basis = opcalc.divided_power_basis(B, N)
        return basis, opcalc.xb_expand(Q, basis, N)

    return Job(
        key,
        run,
        lambda res: {
            "basis": [dump_poly(p) for p in res[0].polys],
            "terms": [dump_poly(p) for p in res[1].terms],
        },
    )


class UmbralStream(Stream):
    """The umbral apparatus: DX form of the umbral operator, inverse, sequences.

    Every (K, call, symbol kind) once, less the cheapest (sequences of a
    polynomial symbol at K=8), and the median kind (umbral_op_dx of a
    polynomial symbol at K=10) three times: 19 jobs whose median is the
    middle one of that kind, clear of the kinds around it.  The scale c
    of an exponential symbol costs more or less work; each slot deals it
    from its own deck.
    """

    name = "umbral"

    SLOTS = tuple(
        (K, what, kind, copy)
        for K in (8, 10, 12)
        for what in ("op_dx", "delta_inverse", "sequences")
        for kind in ("exp", "poly")
        for copy in range(3 if (K, what, kind) == (10, "op_dx", "poly") else 1)
        if (K, what, kind) != (8, "sequences", "poly")
    )

    def _symbol(self, slot):
        if slot[2] == "exp":
            return ["exp", self.deal(slot, EXP_SCALES)]
        return ["poly", ["0", "1", self.deal(slot + (2,)), self.deal(slot + (3,))]]

    def round(self, r: int) -> list:
        return [self.unique(lambda: umbral_job([slot[1], self._symbol(slot), slot[0]]))
                for slot in self.SLOTS]


def umbral_job(key) -> Job:
    what, sym, K = key
    P = opcalc.delta_from_series(delta_symbol(sym, 2 * K + 2))
    if what == "op_dx":
        return Job(
            key, lambda: opcalc.umbral_op_dx(P, K), lambda e: [dump_series(f) for f in e.terms]
        )
    if what == "delta_inverse":
        return Job(key, lambda: opcalc.delta_inverse(P), lambda d: dump_series(d.f))
    return Job(
        key,
        lambda: opcalc.sequences(P, K + 4),
        lambda s: {"divided": [dump_poly(p) for p in s[0].polys],
                   "conjugate": [dump_poly(p) for p in s[1].polys]},
    )


def dx_family_spec(family: str, c: str, a: str):
    """An operator family whose diagonals and DX form have closed forms (see reference.py)."""

    def lin(p, q):
        return ["add", ["scale", c, p], ["scale", a, q]]

    if family == "E":
        return ["scale", c, ["E", a]]
    if family == "sub":
        return ["scale", c, ["sub", ["0", "0", a]]]
    p, q = {
        "Delta": (["Delta"], ["D"]),
        "XD": (XD, DX),
        "J": (["J"], ["X"]),
        "DXD": (["comp", ["D"], XD], ["D"]),
        "D": (["D"], ["comp", ["D"], ["D"]]),
    }[family]
    return lin(p, q)


class DxStream(Stream):
    """DX verdicts and DX construction on fresh row tables, n_max 16 to 24."""

    name = "dx"

    # Nine slots: the median is the fifth slowest (J at 24 or Delta at 16,
    # which cost about the same), and p93 falls inside check E at 24.
    SLOTS = (
        ("check", "E", 24), ("check", "E", 20), ("check", "Delta", 16), ("check", "XD", 20),
        ("check", "J", 24), ("check", "sub", 16), ("check", "DXD", 20),
        ("construct", "E", 16), ("construct", "XD", 24),
    )

    def round(self, r: int) -> list:
        jobs = []
        for slot in self.SLOTS:
            what, family, n_max = slot
            jobs.append(self.unique(lambda: dx_job(
                [what, family, self.deal(slot + ("c",)), self.deal(slot + ("a",)), n_max, DX_SLACK])))
        return jobs


def dx_job(key) -> Job:
    what, family, c, a, n_max, slack = key
    w = n_max - 4
    Q = build_op(dx_family_spec(family, c, a))
    if what == "check":
        return Job(
            key,
            lambda: opcalc.dx_check(opcalc.OpTable(Q), -w, w, n_max, slack),
            lambda fits: [
                [f.t, f.verdict, None if f.poly is None else dump_poly(f.poly),
                 [str(s) for s in f.samples]]
                for f in fits
            ],
        )
    return Job(
        key,
        lambda: opcalc.dx_construct(opcalc.OpTable(Q), -w, w, n_max, slack),
        lambda e: [dump_series(f) for f in e.terms],
    )


# ----------------------------------------------------------------------
# CLI requests.  The reference checker reads the expected outcome from
# the key: ["cli", slot, argv, info].


CLI_ATOMS = ("D", "X", "J", "Delta", "E", "sub", "poly", "series")


class CliStream(Stream):
    """Small requests to every subcommand, about 5% of them malformed."""

    name = "cli"

    def atom(self, kinds=CLI_ATOMS):
        kind = self.rng.choice(kinds)
        if kind == "E":
            return ["E", self.q()]
        if kind in ("sub", "poly"):
            return [kind, self.coeffs(self.rng.randint(1, 2))]
        if kind == "series":
            return ["series", [self.q(POOL), self.q(), self.q(POOL)]]
        return [kind]

    def composite(self):
        shape = self.rng.randrange(3)
        if shape == 0:
            return self.atom()
        if shape == 1:
            return ["comp", self.atom(), self.atom()]
        return ["add", self.atom(), ["scale", self.q(), self.atom()]]

    def small_poly(self):
        # A positional argument that starts with '-' would read as an option.
        return self.coeffs(self.rng.randint(1, 4), low=POOL, lead=POSITIVE)

    def order(self) -> int:
        return self.rng.randint(4, 8)

    # One builder per slot; each returns (argv, info).

    def apply(self):
        spec, p = self.composite(), self.small_poly()
        return ["apply", dsl_text(spec), poly_text(p)], {"op": spec, "poly": p}

    def d_expand(self):
        inv = ("D", "Delta", "E", "series")
        if self.rng.random() < 0.5:
            spec = ["comp", self.atom(inv), self.atom(inv)]
        else:
            spec = ["comp", self.atom(("X", "J", "poly")), self.atom(inv)]
        N = self.order()
        return ["d-expand", dsl_text(spec), "-N", str(N)], {"op": spec, "order": N}

    def expand_xd(self):
        spec, N = self.composite(), self.order()
        return ["expand-xd", dsl_text(spec), "-N", str(N)], {"op": spec, "order": N}

    def expand_xb(self):
        spec, N = self.composite(), self.order()
        basis = self.rng.choice(("D", "Delta", "series"))
        if basis == "series":
            basis = "series:" + poly_text(["0", "1", self.q(), self.q(POOL)], "t")
        return (
            ["expand-xb", dsl_text(spec), "--basis", basis, "-N", str(N)],
            {"op": spec, "order": N, "basis": basis},
        )

    def check_dx(self):
        family, c, a = self.rng.choice(("D", "XD", "DXD", "J", "sub")), self.q(), self.q()
        return ["check-dx", dsl_text(dx_family_spec(family, c, a))], {"family": family, "c": c, "a": a}

    def expand_dx(self):
        family, c, a = self.rng.choice(("D", "DXD", "XD")), self.q(), self.q()
        return ["expand-dx", dsl_text(dx_family_spec(family, c, a))], {"family": family, "c": c, "a": a}

    def normal_order(self):
        word = self.rng.choice(("DX", "XD"))
        a, b = self.rng.randint(0, 12), self.rng.randint(0, 12)
        return ["normal-order", word, str(a), str(b)], {"word": word, "a": a, "b": b}

    def umbral(self, what):
        N = self.rng.randint(3, 8)
        budget = N + self.rng.randint(2, 4)
        delta = self.rng.choice(("D", "Delta", "series"))
        if delta == "series":
            delta = "series:" + poly_text(["0", "1", self.q(), self.q(POOL)], "t")
        argv = ["umbral", "--delta", delta, "--what", what, "-N", str(N), "--budget", str(budget)]
        return argv, {"delta": delta, "what": what, "order": N, "budget": budget}

    def counterexample(self):
        n = self.rng.randint(0, 80)
        return ["counterexample", str(n)], {"n": n}

    def reorder(self):
        f = self.coeffs(self.rng.randint(1, 3), low=POOL)
        p = self.small_poly()
        direction = self.rng.choice(("fD_pX_to_XD", "pX_fD_to_DX"))
        argv = ["reorder", f"--series={poly_text(f, 't')}", f"--poly={poly_text(p)}", "--direction", direction]
        return argv, {"series": f, "poly": p, "direction": direction}

    def malformed(self):
        """Bad input whose documented outcome is exit code 2 or 4."""
        kind = self.rng.randrange(5)
        op = dsl_text(self.atom())
        if kind == 0:
            return ["apply", op + " +", poly_text(self.small_poly())], {"exit": 2}
        if kind == 1:
            return ["apply", op, poly_text(self.small_poly()) + " +"], {"exit": 2}
        if kind == 2:
            letters = "".join(self.rng.choice("abcdefgh") for _ in range(3))
            return ["expand-xd", op, "-N", letters], {"exit": 2}
        if kind == 3:
            slack = self.rng.randint(3, 6)
            n = self.rng.randint(0, slack + 1)
            return ["check-dx", op, "-n", str(n), "--slack", str(slack)], {"exit": 4}
        return ["umbral", "--delta", "series:" + poly_text(["0", "0", self.q()], "t")], {"exit": 4}

    def slots(self):
        """The 40 requests of one round: all ten subcommands, 2 malformed."""
        umbral = [lambda w=w: self.umbral(w) for w in
                  ("sequences", "op-xd", "op-dx", "shift-xd", "shift-dx", "inverse")]
        return (
            [("apply", self.apply)] * 6
            + [("d-expand", self.d_expand)] * 3
            + [("expand-xd", self.expand_xd)] * 4
            + [("expand-xb", self.expand_xb)] * 4
            + [("check-dx", self.check_dx)] * 3
            + [("expand-dx", self.expand_dx)] * 3
            + [("normal-order", self.normal_order)] * 4
            + [("umbral", u) for u in umbral]
            + [("counterexample", self.counterexample)] * 2
            + [("reorder", self.reorder)] * 3
            + [("malformed", self.malformed)] * 2
        )

    def round(self, r: int) -> list:
        jobs = []
        for slot, builder in self.slots():
            def draw(slot=slot, builder=builder):
                argv, info = builder()
                return cli_job(["cli", slot, argv, info])
            jobs.append(self.unique(draw))
        self.rng.shuffle(jobs)
        return jobs

    def known_defects(self) -> list:
        """Two requests that opcalc 0.1.0 gets wrong, with seeded parameters.

        ``expand-dx E(a)`` on the default window reports "no DX-expansion"
        although translation is a DX operator, and a negative ``-N`` ends
        in a ValueError instead of a documented exit code.  They are run
        and checked apart from the measured stream, whose jobs must not
        fail, so that the day each is fixed shows in the report.
        """
        self.rng = random.Random(f"cli-defects:{self.seed}")
        a = self.q()
        spec = self.composite()
        N = -self.rng.randint(1, 5)
        return [
            cli_job(["cli", "defect-expand-dx-E", ["expand-dx", f"E({a})"], {"a": a}]),
            cli_job(["cli", "defect-negative-N", ["expand-xd", dsl_text(spec), "-N", str(N)],
                     {"exit": [2, 4]}]),
        ]


def run_cli(argv: list) -> dict:
    """One in-process CLI request with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = opcalc_cli.main(argv + ["--format", "json"])
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_job(key) -> Job:
    argv = key[2]
    return Job(key, lambda: run_cli(argv), lambda res: res)


STREAMS = {s.name: s for s in (ExpandStream, UmbralStream, DxStream, CliStream)}


def make_stream(workload: str, seed: int) -> Stream:
    return STREAMS[workload](seed)
