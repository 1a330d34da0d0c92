"""Command-line interface: one subcommand per experiment family, fully
reproducible from the echoed config plus the seed.

Exit codes: 0 success, 1 runtime or usage error (bad input, missing file,
malformed flag), 2 a property check evaluated and failed.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .extrapolation import ExtrapolationVerdict, check_extrapolation, check_nonconcentrated
from .embeddings import (default_delta, embedding_distortion, jls_embedding,
                         universal_space_size, witness_certificate)
from .graphs import (_VERTEX_CAP, Graph, complete_graph, cycle_graph,
                     enumerate_regular_graphs, lambda2, path_graph, petersen_graph,
                     prism_graph, random_regular, random_connected_regular)
from .io import (CsvDocument, _fields, csv_row, graph_from_text, graph_to_text, grid_to_text,
                 map_assignment_from_text, map_to_text, metric_from_text, metric_to_text)
from .metrics import (FiniteMetric, linf_grid,
                      random_euclidean_metric, snowflake, uniform_metric)
from .models import (check_matching_ell, distribution_equality_mc, matching_avoidance_mc,
                     restriction_concentration_mc, typical_sets_experiment)
from .poincare import (CapExceeded, VertexMap, gamma_exact,
                       gamma_lower_search, gamma_of_map)
from .rng import derive_rng
from .svg import emit_svg


class CliError(RuntimeError):
    pass


class PropertyFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors leave through main's one error path; --help still exits 0."""

    def error(self, message):
        raise CliError(message)


def _int64(text: str) -> int:
    """The type of every integer flag: one integer within int64, by
    io._fields' rule, so argparse names the flag and shows at most 40
    characters of a refused value."""
    try:
        return _fields("", text, int, 1)[0]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc).removeprefix(": ")) from None


def _read(path: str, what: str, parse):
    p = Path(path)
    if not p.is_file():   # Path('') is the current directory, so this refuses '' too
        raise CliError(f"{what} file not found: {path}")
    return parse(p.read_text())


def _read_map(path: str, g: Graph, metric: FiniteMetric) -> VertexMap:
    """The map file at path as a map of g into metric, refused before any
    work unless it has one value for each vertex of g."""
    f = VertexMap(metric, _read(path, "map", map_assignment_from_text))
    if f.n != g.n:
        raise CliError(f"map length {f.n} != graph order {g.n}")
    return f


# kind: (its fields, builder(seed, *fields)); a trailing [,field] may be left out
GRAPH_SPECS = {
    "regular": ("n,d", lambda seed, n, d: random_regular(n, d, seed)),
    "cycle": ("n", lambda seed, n: cycle_graph(n)),
    "path": ("n", lambda seed, n: path_graph(n)),
    "complete": ("n", lambda seed, n: complete_graph(n)),
    "prism": ("", lambda seed: prism_graph()),
    "petersen": ("", lambda seed: petersen_graph()),
}
METRIC_SPECS = {
    "uniform": ("N", lambda seed, n: uniform_metric(n)),
    "grid": ("k,s", lambda seed, k, s: linf_grid(k, s)),
    "random": ("N[,dim]", lambda seed, n, dim=2: random_euclidean_metric(n, seed, dim)),
}


def _kinds(table: dict) -> str:
    return " | ".join(f"{kind}:{names}".rstrip(":") for kind, (names, _) in table.items())


def _spec(table: dict, family: str, spec: str, seed: int):
    """What a kind:fields spec names, from exactly as many integers as its table lists."""
    kind, _, rest = spec.partition(":")
    names, build = table[kind]
    # one integer per listed field, less an optional [,field] left out
    count = names.count(",") + bool(names) - ("[" in names and "," not in rest)
    where = f"bad {family} spec {kind}:{names}".rstrip(":")
    return build(seed, *_fields(where, rest, int, count, ","))


def parse_graph_arg(spec: str | None, path: str | None, seed: int) -> Graph:
    if path is not None:
        return _read(path, "graph", graph_from_text)
    if spec is None:
        raise CliError("no graph given: pass --graph FILE or --gen SPEC")
    if spec.partition(":")[0] not in GRAPH_SPECS:
        raise CliError(f"unknown graph spec {spec[:40]!r}: kinds are {_kinds(GRAPH_SPECS)}")
    return _spec(GRAPH_SPECS, "graph", spec, seed)


def parse_metric_arg(spec: str, seed: int) -> FiniteMetric:
    """A metric spec of a known kind, else a metric file."""
    if spec.partition(":")[0] in METRIC_SPECS:
        return _spec(METRIC_SPECS, "metric", spec, seed)
    return _read(spec, "metric", metric_from_text)


def parse_log_cardinality(text: str) -> float:
    """Accept '1000', '1e100' or '10^100'; returns the natural log, which
    must be finite and positive."""
    base, caret, exp = text.partition("^")
    try:
        b, e = float(base), float(exp) if caret else 1.0
    except ValueError:
        raise CliError(f"--N must be a number or BASE^EXP, got {text!r}") from None
    log_n = e * math.log(b) if b > 0 else math.nan
    if not 0 < log_n < math.inf:
        raise CliError(f"--N must exceed 1 and have a finite log "
                       f"(write large values as BASE^EXP), got {text!r}")
    return log_n


def _echo(args: argparse.Namespace) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                    if k != "func" and v is not None)


def _emit(args: argparse.Namespace, header: str, rows: list[str]) -> None:
    rendered = CsvDocument(_echo(args), __version__, header, rows).render()
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


# ---------------------------------------------------------------- report layouts

VERDICT_CSV_HEADER = ("instance,p,q,gamma_p,gamma_q,log_c1,log_c2,log_c3,log_c4,"
                      "lhs1_log,rhs1_log,lhs2_log,rhs2_log,pass,slack1_log,slack2_log")


def verdict_csv_row(instance: str, v: ExtrapolationVerdict) -> str:
    c = v.consts
    return csv_row(instance, float(v.p), float(v.q), v.gamma_p, v.gamma_q,
                   c.log_c1, c.log_c2, c.log_c3, c.log_c4,
                   v.lhs1_log, v.rhs1_log, v.lhs2_log, v.rhs2_log,
                   v.passed, v.slack1_log, v.slack2_log)


# ---------------------------------------------------------------- commands

def cmd_gamma(args) -> None:
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    metric = parse_metric_arg(args.metric, args.seed)
    if args.heuristic:
        res = gamma_lower_search(g, metric, args.q, iters=args.iters, seed=args.seed)
    else:
        try:
            res = gamma_exact(g, metric, args.q)
        except CapExceeded as exc:
            raise CliError(f"{exc}; rerun with --heuristic") from exc
    if res.witness is None:
        raise CliError("instance is degenerate: no non-constant maps")
    report = gamma_of_map(g, res.witness, args.q)
    _emit(args, "n,d,N,q,ave,dirichlet,ratio,Qtau,concentrated",
          [csv_row(g.n, g.regular_degree(), metric.size, args.q, report.ave,
                   report.dirichlet, report.ratio, report.quantile_tau, report.concentrated)])
    if args.map_out:
        Path(args.map_out).write_text(map_to_text(res.witness))


def _desk_suite_rows(seed: int):
    rows = []
    ok = True
    metrics = [("uniform2", uniform_metric(2)), ("uniform3", uniform_metric(3))]
    metrics += [(f"random3-{t}", random_euclidean_metric(3, seed=seed + t))
                for t in range(3)]
    for n in (4, 6):
        for gi, g in enumerate(enumerate_regular_graphs(n, 3)):
            for mname, metric in metrics:
                for (p, q) in ((1, 1), (1, 2), (2, 3)):
                    v = check_extrapolation(g, metric, p, q)
                    ok &= v.passed
                    rows.append(verdict_csv_row(f"n{n}g{gi}-{mname}", v))
    return rows, ok


def cmd_extrapolate(args) -> None:
    if args.suite:
        rows, ok = _desk_suite_rows(args.seed)
        _emit(args, VERDICT_CSV_HEADER, rows)
        if not ok:
            raise PropertyFailure("extrapolation inequality violated")
        return
    if args.metric is None:
        raise CliError("single-instance mode needs --metric (or use --suite desk)")
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    metric = parse_metric_arg(args.metric, args.seed)
    v = check_extrapolation(g, metric, args.p, args.q)
    _emit(args, VERDICT_CSV_HEADER, [verdict_csv_row("instance", v)])
    if not v.passed:
        raise PropertyFailure("extrapolation inequality violated")


def cmd_nonconc(args) -> None:
    for flag, value in (("--cr", args.cr), ("--tau", args.tau)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value}")
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    f = _read_map(args.map, g, parse_metric_arg(args.metric, args.seed))
    v = check_nonconcentrated(g, f, args.q, args.cr, Fraction(args.tau).limit_denominator(10 ** 6))
    _emit(args, "hypothesis_met,ell,log_bound,ave,dirichlet,holds,slack_log",
          [csv_row(v.hypothesis_met, v.params.ell, v.params.log_bound, v.ave,
                   v.dirichlet, v.holds, v.slack_log)])
    if v.holds is False:
        raise PropertyFailure("non-concentrated bound violated")


def cmd_witness(args) -> None:
    log_n_points = parse_log_cardinality(args.big_n)
    rows = []
    pts = []

    def certify(g: Graph) -> float:
        r = witness_certificate(g, log_n_points, q=args.q)
        p = r.params
        rows.append(csv_row(g.n, g.regular_degree(), p.k, p.s, p.s0, p.r0, args.q, r.ave,
                            r.dirichlet, r.ratio, r.max_edge_cost))
        return r.ratio

    if args.sizes is not None:
        if args.trials < 1:
            raise CliError(f"--trials must be >= 1, got {args.trials}")
        for n in _fields("--sizes n1,n2,...", args.sizes, int, sep=","):
            ratios = [certify(random_connected_regular(n, args.d, seed=args.seed + 1000 * n + t))
                      for t in range(args.trials)]
            pts.append((math.log(n), sorted(ratios)[len(ratios) // 2]))
    else:
        certify(parse_graph_arg(args.gen, args.graph, args.seed))
    _emit(args, "n,d,k,s,s0,r0,q,ave,dirichlet,ratio,max_edge_cost", rows)
    if args.svg:
        Path(args.svg).write_text(emit_svg("median ratio", pts, title="witness ratio vs log n",
                                           config_echo=_echo(args)))


def cmd_jls(args) -> None:
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    res = jls_embedding(g, args.distortion, args.c1, seed=args.seed,
                        retries=args.retries, delta=args.delta)
    delta = args.delta if args.delta is not None else default_delta(g.n)
    width, log_size = universal_space_size(g.n, delta, args.distortion, args.c1)
    _emit(args, "n,attempts,success,lip,colip,distortion,coords,log_space_size",
          [csv_row(g.n, res.attempts, res.success, res.report.lip, res.report.colip,
                   res.report.distortion, res.grid.coords.shape[1], log_size)])
    if args.map_out:
        Path(args.map_out).write_text(grid_to_text(res.grid))
    if not res.success:
        raise PropertyFailure(
            f"distortion target missed: best {res.report.distortion:.4f}")


def cmd_distort(args) -> None:
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    f = _read_map(args.map, g, parse_metric_arg(args.metric, args.seed))
    r = embedding_distortion(g, f.image_distances())
    _emit(args, "lip,colip,distortion,scale", [csv_row(r.lip, r.colip, r.distortion, r.colip)])


def cmd_model(args) -> None:
    if args.lemma == "matchings":
        for flag, value in (("--eps", args.eps), ("--c", args.c)):
            if not math.isfinite(value):
                raise CliError(f"{flag} must be finite, got {value}")
        if not 0 < args.eps <= 0.5:
            raise CliError(f"--eps must lie in (0, 1/2], got {args.eps}")
        if not 0 < args.c <= args.eps:
            raise CliError(f"--c must lie in (0, --eps], got {args.c} with --eps {args.eps}")
        check_matching_ell(args.l)
        pairs = np.column_stack(np.triu_indices(args.l, 1))
        gen = derive_rng(args.seed, "cli-y")
        drop = gen.choice(len(pairs), size=math.floor(args.eps * len(pairs)), replace=False)
        y = np.delete(pairs, drop, axis=0)
        r = matching_avoidance_mc(args.l, y, c=args.c, trials=args.trials,
                                  seed=args.seed, eps=args.eps)
        _emit(args, "ell,eps,c,trials,empirical,analytic_bound",
              [csv_row(args.l, args.eps, args.c, r.trials, r.empirical, r.analytic_bound)])
    elif args.lemma == "restriction":
        if args.n > _VERTEX_CAP:
            raise CliError(f"--n {args.n} exceeds the vertex cap {_VERTEX_CAP}")
        metric = uniform_metric(args.points)
        f = VertexMap(metric, tuple(v % args.points for v in range(args.n)))
        r = restriction_concentration_mc(f, eps=args.eps, k=args.k,
                                         trials=args.trials, seed=args.seed)
        _emit(args, "eps,k,trials,frequency,bound,hypothesis_met",
              [csv_row(args.eps, args.k, r.trials, r.frequency, r.bound, r.hypothesis_met)])
        if r.hypothesis_met and r.frequency < max(r.bound, 0.0):
            raise PropertyFailure("restriction frequency fell below the bound")
    elif args.lemma == "dist-eq":
        if not 0 <= args.p_threshold <= 1:
            raise CliError(f"--p-threshold must lie in [0, 1], got {args.p_threshold}")
        r = distribution_equality_mc(args.n, args.d, args.l, trials=args.trials,
                                     seed=args.seed)
        _emit(args, "n,d,ell,trials,cells,chi2,p_value",
              [csv_row(args.n, args.d, args.l, r.trials, r.cells, r.chi2, r.p_value)])
        if r.p_value <= args.p_threshold:
            raise PropertyFailure(f"distribution mismatch: p = {r.p_value}")
    elif args.lemma == "typical":
        rows_data = typical_sets_experiment(args.n, args.d, args.bigk, args.m,
                                            trials=args.trials, seed=args.seed)
        rows = [csv_row(r.trial, r.v_size, r.v_prime_size, r.v_dprime_size, r.ell0,
                        r.k0, r.f1, r.f2, r.f3) for r in rows_data]
        hits = [sum(getattr(r, f) for r in rows_data) / len(rows_data)
                for f in ("f1", "f2", "f3")]
        rows.append(csv_row("frequency", *[None] * 5, *hits))
        _emit(args, "trial,v,v_prime,v_dprime,ell0,k0,f1,f2,f3", rows)


def cmd_spectra(args) -> None:
    n, d = _fields("--gen-regular n,d", args.gen_regular, int, 2, ",")
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    if args.min_fraction is not None and not 0 <= args.min_fraction <= 1:
        raise CliError(f"--min-fraction must lie in [0, 1], got {args.min_fraction}")
    values = [lambda2(random_regular(n, d, seed=args.seed + 104729 * t))
              for t in range(args.trials)]
    # after the draws, which refuse d < 3 by name
    threshold = 2.1 * math.sqrt(d - 1)
    rows = [csv_row(t, l2, l2 <= threshold) for t, l2 in enumerate(values)]
    frac = sum(l2 <= threshold for l2 in values) / args.trials
    rows.append(csv_row("fraction", frac, None))
    _emit(args, "trial,lambda2,below_threshold", rows)
    if args.min_fraction is not None and frac < args.min_fraction:
        raise PropertyFailure(f"fraction {frac} below {args.min_fraction}")


def cmd_gen_graph(args) -> None:
    g = parse_graph_arg(args.type, None, args.seed)
    Path(args.out).write_text(graph_to_text(g))


def cmd_gen_metric(args) -> None:
    kind, _, rest = args.type.partition(":")
    if kind == "snowflake":
        if not args.base:
            raise CliError("snowflake needs --base METRIC_FILE")
        eps, = _fields("bad metric spec snowflake:eps", rest, float, 1, ",")
        metric = snowflake(_read(args.base, "metric", metric_from_text), eps)
    else:
        metric = parse_metric_arg(args.type, args.seed)
    Path(args.out).write_text(metric_to_text(metric))


# ---------------------------------------------------------------- modes

# command: (the mode a parsed command line picks, {mode: each flag that mode
# reads, with its default or None}).  A flag of another mode is refused by
# name, and the # config: echo lists only what the run reads.
MODES = {
    "gamma": (lambda a: "with --heuristic" if a.heuristic else "without --heuristic",
              {"with --heuristic": {"--iters": 2000}, "without --heuristic": {}}),
    "extrapolate": (lambda a: "with --suite desk" if a.suite else "without --suite desk",
                    {"with --suite desk": {},
                     "without --suite desk": {"--graph": None, "--gen": None, "--metric": None,
                                              "--p": 1.0, "--q": 2.0}}),
    "witness": (lambda a: "without --sizes" if a.sizes is None else "with --sizes",
                {"with --sizes": {"--d": 3, "--trials": 10, "--svg": None},
                 "without --sizes": {"--graph": None, "--gen": None}}),
    "gen-metric": (lambda a: ("with" if a.type.partition(":")[0] == "snowflake" else "without")
                   + " --type snowflake:eps",
                   {"with --type snowflake:eps": {"--base": None},
                    "without --type snowflake:eps": {}}),
    "model": (lambda a: f"with --lemma {a.lemma}", {
        "with --lemma matchings": {"--l": 20, "--eps": 0.2, "--c": 0.1, "--trials": 10 ** 5},
        # criterion 8's instance
        "with --lemma restriction": {"--n": 10 ** 4, "--k": 62, "--eps": 1 / 31,
                                     "--points": 100, "--trials": 10 ** 4},
        "with --lemma dist-eq": {"--n": 6, "--d": 3, "--l": 2, "--trials": 10 ** 5,
                                 "--p-threshold": 0.001},
        # the README experiment
        "with --lemma typical": {"--n": 2000, "--d": 3, "--bigk": 20.0, "--m": 4,
                                 "--trials": 20},
    }),
}


def _enter_mode(args: argparse.Namespace) -> None:
    """Refuse each flag that the run's mode does not read, and give each one
    it reads that the command line leaves out its default."""
    if args.command not in MODES:
        return
    pick, reads = MODES[args.command]
    mode = pick(args)
    for flag in sorted({f for row in reads.values() for f in row}):
        dest = flag[2:].replace("-", "_")
        if flag not in reads[mode]:
            if getattr(args, dest) is not None:
                raise CliError(f"{flag} does nothing {mode}")
        elif getattr(args, dest) is None:
            setattr(args, dest, reads[mode][flag])


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="nlgap", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    metric_help = f"metric spec ({_kinds(METRIC_SPECS)}) or FILE"

    def common(p, metric=False, graph=False, mapfile=False):
        p.add_argument("--seed", type=_int64, default=0)
        p.add_argument("--out", help="output CSV path (default stdout)")
        if graph:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--graph", help="graph file")
            source.add_argument("--gen", help=f"graph spec: {_kinds(GRAPH_SPECS)}")
        if metric:
            p.add_argument("--metric", required=True, help=metric_help)
        if mapfile:
            p.add_argument("--map", required=True, help="vertex map file")

    p = sub.add_parser("gamma", help="optimal cost ratio of a graph into a metric")
    common(p, metric=True, graph=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--iters", type=_int64)
    p.add_argument("--map-out", dest="map_out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("extrapolate", help="exponent comparison inequalities")
    common(p, metric=False, graph=True)
    p.add_argument("--metric", help=metric_help)
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--suite", choices=["desk"], help="run the desk-scale suite")
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("nonconc", help="bound check for non-concentrated maps")
    common(p, metric=True, graph=True, mapfile=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--cr", type=float, default=5.0)
    p.add_argument("--tau", type=float, default=0.5)
    p.set_defaults(func=cmd_nonconc)

    p = sub.add_parser("witness", help="truncated-distance witness certificates")
    common(p, graph=True)
    p.add_argument("--N", dest="big_n", default="10^100",
                   help="target cardinality, e.g. 10^100")
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--sizes", help="comma list of n for the growth experiment")
    p.add_argument("--d", type=_int64)
    p.add_argument("--trials", type=_int64)
    p.add_argument("--svg", help="write a growth chart here")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("jls-embed", help="randomized grid embedding")
    common(p, graph=True)
    p.add_argument("--distortion", type=float, default=3.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--retries", type=_int64, default=50)
    p.add_argument("--delta", type=_int64)
    p.add_argument("--map-out", dest="map_out")
    p.set_defaults(func=cmd_jls)

    p = sub.add_parser("distort", help="bi-Lipschitz report for a stored map")
    common(p, metric=True, graph=True, mapfile=True)
    p.set_defaults(func=cmd_distort)

    p = sub.add_parser("model", help="random-model Monte Carlo verifiers")
    common(p)
    p.add_argument("--lemma", required=True,
                   choices=["matchings", "restriction", "dist-eq", "typical"])
    # each lemma's defaults are its row of MODES["model"]
    for flag, kind in (("--l", _int64), ("--eps", float), ("--c", float), ("--trials", _int64),
                       ("--n", _int64), ("--d", _int64), ("--k", _int64), ("--m", _int64),
                       ("--bigk", float), ("--points", _int64), ("--p-threshold", float)):
        p.add_argument(flag, type=kind)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("spectra", help="second-eigenvalue frequency experiment")
    common(p)
    p.add_argument("--gen-regular", dest="gen_regular", required=True,
                   help="n,d for the sampled family")
    p.add_argument("--trials", type=_int64, default=100)
    p.add_argument("--min-fraction", dest="min_fraction", type=float)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("gen-graph", help="write a graph file")
    p.add_argument("--type", required=True, help=_kinds(GRAPH_SPECS))
    p.add_argument("--seed", type=_int64, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gen-metric", help="write a metric file")
    p.add_argument("--type", required=True, help=_kinds(METRIC_SPECS) + " | snowflake:eps")
    p.add_argument("--base", help="base metric file for snowflake")
    p.add_argument("--seed", type=_int64, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_metric)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _enter_mode(args)
        args.func(args)
    except PropertyFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return 2
    except (CliError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
