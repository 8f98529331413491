"""Command-line front end.

Subcommands: orders | count | density | solve | qmodel | exponents |
reduce | bench.  An experiment is described by flags or by a plain
key=value config file (# comments allowed); flags override the file.
Field elements on the wire are packed integers sum_i c_i p^i (for prime
fields, the residue itself).

Exit codes: 0 success, 1 invalid input, 2 resource caps or a failed
model hypothesis, 3 a violated internal invariant (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import density as density_mod
from . import errors
from .arith import factorize
from .charsum import (box_walks, brute_count, check_box_card,
                      count_via_charsum, make_box, make_equation)
from .fields import make_field
from .instances import random_equation, random_equation_with_orders
from .qmodel import exponent_table, model_quantum_solve
from .reduction import mu_bound_report, reduce_equation
from .solver import solve_classical

CONFIG_KEYS = {
    "p", "nu", "terms", "b", "n", "seed", "delta", "log_base", "mode",
    "out", "format", "n_max", "r", "qs", "ns",
    "slack_exponent", "samples",
}

CAP_ERRORS = (errors.CapExceeded, errors.MemoryCap, errors.HypothesisFailed)
INPUT_ERRORS = (errors.ExpzerosError, ValueError, OSError)


class ConfigError(ValueError):
    pass


def parse_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are rejected."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value.strip()
    return out


def parse_terms(text: str) -> list[tuple[int, int]]:
    """--terms "a1,g1;a2,g2;..." with packed-integer elements."""
    terms = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError(f"bad term {part!r}; expected a,g")
        terms.append((int(pieces[0]), int(pieces[1])))
    if not terms:
        raise ConfigError("empty term list")
    return terms


def _add_arguments(sp: argparse.ArgumentParser, name: str) -> None:
    """Subcommand `name`'s flags and handler, added to its parser sp."""
    sp.add_argument("--config", help="key=value config file")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.add_argument("--format", choices=["json", "csv", "text"],
                    help="output format (default text)")
    if name not in ("exponents", "bench"):
        sp.add_argument("--p", type=int, help="field characteristic")
        sp.add_argument("--nu", type=int,
                        help="extension degree (default 1)")
        sp.add_argument("--terms",
                        help='terms "a1,g1;a2,g2;..." (packed ints)')
        sp.add_argument("--b", type=int, help="constant term (packed)")
        sp.add_argument("--n", type=int,
                        help="random instance: number of terms")
        sp.add_argument("--seed", type=int,
                        help="random instance seed (default 0)")
        sp.add_argument("--log-base", dest="log_base",
                        choices=["natural", "base2"],
                        help="base of log q in box formulas")
    if name in ("count", "density"):
        sp.add_argument("--r", type=int, help="box radius (default s_n)")
    if name == "density":
        sp.add_argument("--delta", type=float,
                        help="census threshold (default sqrt(ln q))")
    elif name == "qmodel":
        sp.add_argument("--mode", choices=["thm2", "thm3"],
                        help="cost model variant (default thm2)")
        sp.add_argument("--slack-exponent", dest="slack_exponent", type=int,
                        help="polylog slack power in bounds (default 3)")
    elif name == "exponents":
        sp.add_argument("--n-max", dest="n_max", type=int,
                        help="last row of the table (default 10)")
    elif name == "reduce":
        sp.add_argument("--samples", type=int,
                        help="also sample this many random equations for "
                             "the mu <= d(q-1) report")
    elif name == "bench":
        sp.add_argument("--qs", help='comma list of primes, e.g. "101,257"')
        sp.add_argument("--ns", help='comma list of term counts, e.g. "2,3"')
        sp.add_argument("--seed", type=int, help="instance seed (default 0)")
    sp.set_defaults(func=COMMANDS[name][0])


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s own parser, built on its first call and kept:
    argparse keeps no state between parses.  It is the parser the
    top-level parser's subparser action builds, prog and all."""
    sp = argparse.ArgumentParser(prog="expzeros " + name)
    _add_arguments(sp, name)
    return sp


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with all eight subparsers, built once per
    process and only for what the subcommand parsers cannot answer alone
    (see parse_args)."""
    parser = argparse.ArgumentParser(
        prog="expzeros",
        description="Zeros of a_1 g_1^x_1 + ... + a_n g_n^x_n - b over "
                    "F_q: exact counting, density checks, classical "
                    "search, quantum cost models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help), name)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """build_parser().parse_args(argv), with one parse by one parser.

    When argv starts with a subcommand, that subcommand's parser alone
    (command_parser) reads the rest into a namespace that already holds
    `command`, as the top-level parser's subparser action would.  Only
    an empty argv, -h, an unknown command and extra arguments, whose
    error is the top-level parser's, build the top-level parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    args, extras = command_parser(argv[0]).parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        build_parser().error("unrecognized arguments: " + " ".join(extras))
    return args


def merge_config(args: argparse.Namespace) -> dict:
    """File values first, then any flag that was actually given."""
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in CONFIG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _get_int(cfg, key, default=None):
    val = cfg.get(key, default)
    return None if val is None else int(val)


def resolve_equation(cfg: dict):
    """Equation from explicit terms, or a seeded random instance."""
    p = _get_int(cfg, "p")
    if p is None:
        raise ConfigError("missing p (field characteristic)")
    nu = _get_int(cfg, "nu", 1)
    spec = make_field(p, nu)
    if cfg.get("terms") is not None:
        terms = cfg["terms"]
        if isinstance(terms, str):
            terms = parse_terms(terms)
        b = _get_int(cfg, "b")
        if b is None:
            raise ConfigError("missing b (constant term)")
        return make_equation(spec, terms, b), False
    n = _get_int(cfg, "n")
    if n is None:
        raise ConfigError("need either terms+b or n (random instance)")
    rng = random.Random(_get_int(cfg, "seed", 0))
    return random_equation(spec, n, rng), True


# Least length of an int64 array written by `_int_array_text`: its fixed
# cost (about 35 us) is what tolist + repr spend on some 256 ints.
ARRAY_TEXT_MIN = 256


def _int_array_text(values: np.ndarray, sep: str) -> str:
    """sep.join(map(repr, values)) for a 1-D non-negative int64 array.

    Column k of a uint8 table holds the text of entry k: sep, then its
    decimal digits zero-filled to the widest entry.  Leading zeros
    become NUL, which one translate deletes from the table's bytes.
    """
    width = len(str(int(values.max())))
    head = len(sep)
    table = np.empty((head + width, len(values)), dtype=np.uint8)
    table[:head] = np.frombuffer(sep.encode(), dtype=np.uint8)[:, None]
    rest = values.astype(np.uint64)
    for row in range(head + width - 1, head - 1, -1):
        np.remainder(rest, 10, out=table[row], casting="unsafe")
        rest //= 10
    table[head:] += ord("0")
    table[head:-1] *= values >= 10 ** np.arange(width - 1, 0, -1)[:, None]
    return table.T.tobytes().translate(None, b"\0").decode()[head:]


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte.

    With indent set, the stdlib runs its pure-Python encoder on every
    value.  Here:
    - a 1-D non-negative int64 array of at least ARRAY_TEXT_MIN entries
      (density's per-b counts) goes through `_int_array_text`, any other
      array through its tolist();
    - a list of plain ints is one repr and one replace, and a list of
      equally long such lists (count's solutions) one %-format;
    - an int is its repr, and a str or key goes straight to the C string
      encoder json.dumps calls; other scalars go through json.dumps.
    Keys must be str.
    """
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        if (value.dtype == np.int64 and value.ndim == 1
                and len(value) >= ARRAY_TEXT_MIN and value.min() >= 0):
            body = _int_array_text(value, ",\n" + inner)
            return "[\n" + inner + body + "\n" + indent + "]"
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, got {key!r}")
            lines.append(f"{inner}{encode_basestring_ascii(key)}: "
                         f"{_json_text(item, inner)}")
        return "{\n" + ",\n".join(lines) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            body = repr(list(value))[1:-1].replace(", ", ",\n" + inner)
        elif (kinds <= {list, tuple} and len(set(map(len, value))) == 1
              and value[0]
              and set(map(type, chain.from_iterable(value))) == {int}):
            deeper = inner + "  "
            row = ("[\n" + deeper + (",\n" + deeper).join(
                ["%d"] * len(value[0])) + "\n" + inner + "]")
            body = ((",\n" + inner).join([row] * len(value))
                    % tuple(chain.from_iterable(value)))
        else:
            body = (",\n" + inner).join(_json_text(item, inner)
                                        for item in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def emit(cfg: dict, text, doc: dict | None = None,
         csv_rows: list | None = None, csv_text: str | None = None) -> None:
    """Write text, json, or csv per cfg to --out or stdout.  `text` is a
    function that returns the text report's lines; it runs only when
    text is written."""
    fmt = cfg.get("format") or "text"
    if fmt == "json":
        if doc is None:
            raise ConfigError("no json form for this command")
        payload = _json_text(doc) + "\n"
    elif fmt == "csv":
        if csv_text is not None:
            payload = csv_text
        elif csv_rows is not None:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerows(csv_rows)
            payload = buf.getvalue()
        else:
            raise ConfigError("no csv form for this command")
    else:
        payload = "\n".join(text()) + "\n"
    out = cfg.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def describe_instance(eq, generated: bool) -> list[str]:
    lines = [f"field: p={eq.spec.p} nu={eq.spec.nu} q={eq.q}"]
    if generated:
        lines.append("instance (randomly generated, replay with --terms):")
    terms = ";".join(f"{a.packed()},{g.packed()}" for a, g in eq.terms)
    lines.append(f"  terms: {terms}")
    lines.append(f"  b: {eq.b.packed()}")
    lines.append(f"  orders: {list(eq.orders)}")
    return lines


def cmd_orders(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    fact = factorize(eq.q - 1)

    def text():
        lines = describe_instance(eq, generated)
        lines.append(f"{'i':>3} {'a':>8} {'g':>8} {'order':>10}")
        for i, ((a, g), s) in enumerate(zip(eq.terms, eq.orders)):
            lines.append(f"{i:>3} {a.packed():>8} {g.packed():>8} "
                         f"{s:>10}")
        return lines

    doc = {"schema": 1, "kind": "orders", "eq": eq.to_dict(),
           "q_minus_1_factorization": list(fact.prime_powers)}
    emit(cfg, text, doc)
    return 0


def cmd_count(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    box = make_box(eq, _get_int(cfg, "r"))
    check_box_card(box)  # before the walks, whose lengths it bounds
    walks = list(box_walks(eq, box))
    exact, solutions = brute_count(eq, box, walks=walks)
    approx = count_via_charsum(eq, box, walks=walks)

    def text():
        lines = describe_instance(eq, generated)
        lines.append(f"box: sorted orders {list(box.orders_sorted)} "
                     f"r={box.r} card={box.card}")
        lines.append(f"brute count:        {exact}")
        lines.append(f"character-sum count: {approx:.6f}")
        if solutions is not None and len(solutions) <= 20:
            lines.append(f"solutions (original term order): {solutions}")
        return lines

    doc = {"schema": 1, "kind": "count", "eq": eq.to_dict(),
           "box": box.to_dict(), "brute": exact, "charsum": approx,
           "solutions": solutions}
    emit(cfg, text, doc)
    return 0


def cmd_density(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    box = make_box(eq, _get_int(cfg, "r"))
    report = density_mod.sweep_b(eq, box)
    delta = cfg.get("delta")
    delta = math.sqrt(math.log(eq.q)) if delta is None else float(delta)
    census = density_mod.exceptional_census(report, delta)

    def text():
        ok, margin = density_mod.energy_bound_check(report)
        lines = describe_instance(eq, generated)
        lines.append(f"box: r={box.r} card={box.card}")
        lines.append(f"main term: {report.main} = "
                     f"{float(report.main):.6f}")
        lines.append(f"energy E(r): {report.energy} = "
                     f"{float(report.energy):.6f}")
        lines.append(f"energy bound q^(n-1) r: holds={ok} margin="
                     f"{float(margin):.6f}")
        lines.append(f"census at delta={census.delta:.6f}: "
                     f"{len(census.exceptional)} exceptional b "
                     f"(bound {float(census.bound):.3f})")
        return lines

    doc = density_mod.report_to_dict(report, census)
    csv_text = None
    if cfg.get("format") == "csv":
        buf = io.StringIO()
        density_mod.write_per_b_csv(report, census, buf)
        csv_text = buf.getvalue()
    emit(cfg, text, doc, csv_text=csv_text)
    return 0


def cmd_solve(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    report = solve_classical(eq, cfg.get("log_base") or "natural")

    def text():
        lines = describe_instance(eq, generated)
        lines.append(f"status: {report.status}")
        if report.x is not None:
            lines.append(f"solution (original term order): "
                         f"{list(report.x)}")
        lines.append(f"box: sorted orders {list(report.box.orders_sorted)} "
                     f"r={report.box.r} (raw {report.r_raw}) "
                     f"card={report.box.card}")
        q = report.queries
        lines.append(f"queries: group_mults={q.group_mults} "
                     f"dlog_calls={q.dlog_calls} "
                     f"outer_points={q.outer_points_visited}")
        lines.append(f"order-finding cost model (not counted): "
                     f"{report.order_finding_cost_model:.1f}")
        return lines

    emit(cfg, text, report.to_dict())
    return 0


def cmd_qmodel(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    report = model_quantum_solve(
        eq, cfg.get("mode") or "thm2",
        log_base=cfg.get("log_base") or "natural",
        slack_exponent=_get_int(cfg, "slack_exponent", 3))

    def text():
        lines = describe_instance(eq, generated)
        lines.append(f"mode: {report.mode}  (r={report.r}, "
                     f"raw {report.r_raw})")
        lines.append(f"search space t={report.t}  m_exact={report.m_exact}"
                     f"  m_estimate={report.m_estimate}")
        lines.append(f"modeled queries: {report.modeled_queries}  "
                     f"expected: {report.expected_queries}")
        lines.append(f"shor calls: {report.shor_calls}")
        lines.append(f"bound {report.theoretical_bound:.3f}  within: "
                     f"{report.within_bound}")
        if report.chain_case is not None:
            lines.append(f"grid chain case {report.chain_case}: "
                         f"holds={report.chain_holds}")
        return lines

    emit(cfg, text, report.to_dict())
    return 0


def cmd_exponents(args) -> int:
    cfg = merge_config(args)
    table = exponent_table(_get_int(cfg, "n_max", 10))
    doc = table.to_dict()
    rows = [["n", "classical", "classical_stated", "quantum", "ratio"]]
    for row in table.rows:
        rows.append([row.n, str(row.classical_exp),
                     str(row.classical_thm_exp), str(row.quantum_exp),
                     str(row.ratio)])
    emit(cfg, lambda: table.to_text().splitlines(), doc, csv_rows=rows)
    return 0


def cmd_reduce(args) -> int:
    cfg = merge_config(args)
    eq, generated = resolve_equation(cfg)
    red = reduce_equation(eq)
    doc = red.to_dict()
    samples = _get_int(cfg, "samples")
    rep = None
    if samples is not None:
        rep = mu_bound_report(eq.spec, samples=samples,
                              n=eq.n, seed=_get_int(cfg, "seed", 0))
        doc["mu_report"] = rep.to_dict()

    def text():
        lines = describe_instance(eq, generated)
        lines.append(f"mu = {red.mu} distinct orders, "
                     f"d(q-1) = {red.d_bound}")
        for grp in red.groups:
            lines.append(f"  order {grp.order}: members "
                         f"{list(grp.members)} rep {grp.rep_index} "
                         f"relations {list(grp.relations)}")
        if rep is not None:
            lines.append(f"sampled {samples} random equations: max mu "
                         f"{rep.max_mu} <= d(q-1) = {rep.d_bound}")
        return lines

    emit(cfg, text, doc)
    return 0


def bench_cell(q: int, n: int, seed: int) -> dict:
    """One benchmark point: max-order instance, classical vs quantum."""
    spec = make_field(q)
    rng = random.Random(seed * 1_000_003 + q * 1000 + n)
    eq = random_equation_with_orders(spec, [q - 1] * n, rng)
    classical = solve_classical(eq)
    mults = classical.queries.group_mults
    quantum = model_quantum_solve(eq, "thm2")
    logq = math.log(q)
    return {
        "q": q, "n": n,
        "classical_mults": mults,
        "classical_exponent_fit": round(math.log(max(mults, 1)) / logq, 4),
        "quantum_modeled_queries": quantum.modeled_queries,
        "quantum_exponent_fit": round(
            math.log(max(quantum.modeled_queries, 1)) / logq, 4),
        "classical_status": classical.status,
    }


def cmd_bench(args) -> int:
    cfg = merge_config(args)
    qs = [int(s) for s in str(cfg.get("qs") or "101,257,521").split(",")]
    ns = [int(s) for s in str(cfg.get("ns") or "2,3").split(",")]
    seed = _get_int(cfg, "seed", 0)
    results = [bench_cell(q, n, seed)
               for q in sorted(qs) for n in sorted(ns)]
    header = ["q", "n", "classical_mults", "classical_exponent_fit",
              "quantum_modeled_queries", "quantum_exponent_fit",
              "classical_status"]
    rows = [header] + [[row[k] for k in header] for row in results]
    doc = {"schema": 1, "kind": "bench", "seed": seed, "rows": results}
    emit(cfg, lambda: ["  ".join(f"{v}" for v in row) for row in rows],
         doc, csv_rows=rows)
    return 0


# Subcommand -> (handler, one-line help), in the order the top-level help
# lists them; `_add_arguments` adds each one's flags.
COMMANDS = {
    "orders": (cmd_orders, "multiplicative orders of the g_i"),
    "count": (cmd_count, "brute-force vs character-sum count"),
    "density": (cmd_density, "full-b sweep: deviations, energy, census"),
    "solve": (cmd_solve, "classical grid search with query accounting"),
    "qmodel": (cmd_qmodel, "quantum query-cost model"),
    "exponents": (cmd_exponents, "classical/quantum exponent table"),
    "reduce": (cmd_reduce, "group terms by multiplicative order"),
    "bench": (cmd_bench, "classical vs quantum cost sweep over (q, n)"),
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except errors.InvariantViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CAP_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
