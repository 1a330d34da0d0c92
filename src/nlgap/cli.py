"""Command-line interface: one subcommand per experiment family, fully
reproducible from the echoed config plus the seed.

Exit codes: 0 success, 1 runtime error (bad input, missing file), 2 a
property check evaluated and failed.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .extrapolation import (VERDICT_CSV_HEADER, check_extrapolation,
                            check_nonconcentrated, verdict_csv_row)
from .embeddings import jls_embedding, universal_space_size, witness_certificate
from .graphs import (Graph, GraphError, complete_graph, cycle_graph, lambda2,
                     path_graph, petersen_graph, prism_graph, random_regular,
                     random_connected_regular)
from .io import (CsvDocument, GAMMA_CSV_HEADER, csv_row, gamma_report_csv_row,
                 read_graph, read_map, read_metric, write_graph, write_map,
                 write_metric)
from .metrics import (FiniteMetric, MetricError, linf_grid,
                      random_euclidean_metric, snowflake, uniform_metric)
from .models import (check_matching_ell, distribution_equality_mc, matching_avoidance_mc,
                     restriction_concentration_mc, typical_sets_experiment)
from .poincare import (CapExceeded, VertexMap, gamma_exact, gamma_lower_search,
                       gamma_of_map)
from .rng import derive_rng
from .svg import emit_svg


class CliError(RuntimeError):
    pass


class PropertyFailure(RuntimeError):
    pass


def parse_graph_arg(spec: str | None, path: str | None, seed: int) -> Graph:
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise CliError(f"graph file not found: {p}")
        return read_graph(p)
    if spec is None:
        raise CliError("no graph given: pass --graph FILE or --gen SPEC")
    kind, _, rest = spec.partition(":")
    try:
        if kind == "regular":
            n, d = map(int, rest.split(","))
            return random_regular(n, d, seed)
        if kind == "cycle":
            return cycle_graph(int(rest))
        if kind == "path":
            return path_graph(int(rest))
        if kind == "complete":
            return complete_graph(int(rest))
        if kind == "prism":
            return prism_graph()
        if kind == "petersen":
            return petersen_graph()
    except (ValueError, GraphError) as exc:
        raise CliError(f"bad graph spec {spec!r}: {exc}") from exc
    raise CliError(f"unknown graph spec {spec!r}")


def parse_metric_arg(spec: str, seed: int) -> FiniteMetric:
    kind, _, rest = spec.partition(":")
    try:
        if kind == "uniform":
            return uniform_metric(int(rest))
        if kind == "grid":
            k, s = map(int, rest.split(","))
            return linf_grid(k, s)
        if kind == "random":
            parts = rest.split(",")
            dim = int(parts[1]) if len(parts) > 1 else 2
            return random_euclidean_metric(int(parts[0]), seed=seed, dim=dim)
    except (ValueError, MetricError) as exc:
        raise CliError(f"bad metric spec {spec!r}: {exc}") from exc
    p = Path(spec)
    if not p.exists():
        raise CliError(f"metric file not found: {p}")
    return read_metric(p)


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


def _emit(doc: CsvDocument, out: str | None) -> None:
    rendered = doc.render()
    if out:
        Path(out).write_text(rendered)
    else:
        sys.stdout.write(rendered)


def _echo(args: argparse.Namespace) -> str:
    skip = {"func"}
    items = [f"{k}={v}" for k, v in sorted(vars(args).items())
             if k not in skip and v is not None]
    return " ".join(items)


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
    doc = CsvDocument(_echo(args), __version__, GAMMA_CSV_HEADER,
                      [gamma_report_csv_row(g, report, metric.size)])
    _emit(doc, args.out)
    if args.map_out:
        write_map(res.witness, args.map_out)


def _desk_suite_rows(seed: int):
    from .graphs import enumerate_regular_graphs
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
        doc = CsvDocument(_echo(args), __version__, VERDICT_CSV_HEADER, rows)
        _emit(doc, args.out)
        if not ok:
            raise PropertyFailure("extrapolation inequality violated")
        return
    if args.metric is None:
        raise CliError("single-instance mode needs --metric (or use --suite desk)")
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    metric = parse_metric_arg(args.metric, args.seed)
    v = check_extrapolation(g, metric, args.p, args.q)
    doc = CsvDocument(_echo(args), __version__, VERDICT_CSV_HEADER,
                      [verdict_csv_row("instance", v)])
    _emit(doc, args.out)
    if not v.passed:
        raise PropertyFailure("extrapolation inequality violated")


def cmd_nonconc(args) -> None:
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    metric = parse_metric_arg(args.metric, args.seed)
    map_path = Path(args.map)
    if not map_path.exists():
        raise CliError(f"map file not found: {map_path}")
    f = read_map(map_path, metric)
    v = check_nonconcentrated(g, f, args.q, args.cr, Fraction(args.tau).limit_denominator(10 ** 6))
    header = "hypothesis_met,ell,log_bound,ave,dirichlet,holds,slack_log"
    row = csv_row(v.hypothesis_met, v.params.ell, v.params.log_bound, v.ave,
                  v.dirichlet, v.holds, v.slack_log)
    _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)
    if v.holds is False:
        raise PropertyFailure("non-concentrated bound violated")


def cmd_witness(args) -> None:
    log_n_points = parse_log_cardinality(args.big_n)
    header = "n,d,k,s,s0,r0,q,ave,dirichlet,ratio,max_edge_cost"
    rows = []
    series = []

    def certify(g: Graph) -> float:
        r = witness_certificate(g, log_n_points, q=args.q)
        p = r.params
        rows.append(csv_row(g.n, p.d, p.k, p.s, p.s0, p.r0, args.q, r.ave,
                            r.dirichlet, r.ratio, r.max_edge_cost))
        return r.ratio

    if args.sizes:
        if args.trials < 1:
            raise CliError(f"--trials must be >= 1, got {args.trials}")
        pts = []
        for n in (int(x) for x in args.sizes.split(",")):
            ratios = [certify(random_connected_regular(n, args.d, seed=args.seed + 1000 * n + t))
                      for t in range(args.trials)]
            pts.append((math.log(n), sorted(ratios)[len(ratios) // 2]))
        series.append(("median ratio", pts))
    else:
        certify(parse_graph_arg(args.gen, args.graph, args.seed))
    _emit(CsvDocument(_echo(args), __version__, header, rows), args.out)
    if args.svg and series:
        Path(args.svg).write_text(emit_svg(series, title="witness ratio vs log n",
                                           config_echo=_echo(args)))


def cmd_jls(args) -> None:
    from .embeddings import default_delta
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    res = jls_embedding(g, args.distortion, args.c1, seed=args.seed,
                        retries=args.retries, delta=args.delta)
    delta = args.delta if args.delta is not None else default_delta(g.n)
    width, log_size = universal_space_size(g.n, delta, args.distortion, args.c1)
    header = "n,attempts,success,lip,colip,distortion,coords,log_space_size"
    row = csv_row(g.n, res.attempts, res.success, res.report.lip, res.report.colip,
                  res.report.distortion, res.grid.coords.shape[1], log_size)
    _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)
    if args.map_out:
        lines = [f"{res.grid.coords.shape[0]} {res.grid.coords.shape[1]}"]
        lines += [" ".join(str(int(x)) for x in row) for row in res.grid.coords]
        Path(args.map_out).write_text("\n".join(lines) + "\n")
    if not res.success:
        raise PropertyFailure(
            f"distortion target missed: best {res.report.distortion:.4f}")


def cmd_distort(args) -> None:
    from .embeddings import embedding_distortion, vertex_map_image_distances
    g = parse_graph_arg(args.gen, args.graph, args.seed)
    metric = parse_metric_arg(args.metric, args.seed)
    map_path = Path(args.map)
    if not map_path.exists():
        raise CliError(f"map file not found: {map_path}")
    f = read_map(map_path, metric)
    r = embedding_distortion(g, vertex_map_image_distances(f))
    header = "lip,colip,distortion,scale"
    row = csv_row(r.lip, r.colip, r.distortion, r.scale)
    _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)


def cmd_model(args) -> None:
    if args.lemma == "matchings":
        import itertools
        for flag, value in (("--eps", args.eps), ("--c", args.c)):
            if not math.isfinite(value):
                raise CliError(f"{flag} must be finite, got {value}")
        if not 0 < args.eps <= 0.5:
            raise CliError(f"--eps must lie in (0, 1/2], got {args.eps}")
        if not 0 < args.c <= args.eps:
            raise CliError(f"--c must lie in (0, --eps], got {args.c} with --eps {args.eps}")
        check_matching_ell(args.l)
        pairs = list(itertools.combinations(range(args.l), 2))
        gen = derive_rng(args.seed, "cli-y")
        drop_count = round(args.eps * len(pairs))
        drop = set(int(x) for x in gen.choice(len(pairs), size=drop_count, replace=False))
        y = [p for i, p in enumerate(pairs) if i not in drop]
        r = matching_avoidance_mc(args.l, y, c=args.c, trials=args.trials,
                                  seed=args.seed, eps=args.eps)
        header = "ell,eps,c,trials,empirical,analytic_bound"
        row = csv_row(r.ell, r.eps, r.c, r.trials, r.empirical, r.analytic_bound)
        _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)
    elif args.lemma == "restriction":
        metric = uniform_metric(args.points)
        f = VertexMap(metric, tuple(v % args.points for v in range(args.n)))
        r = restriction_concentration_mc(f, eps=args.eps, k=args.k,
                                         trials=args.trials, seed=args.seed)
        header = "eps,k,trials,frequency,bound,hypothesis_met"
        row = csv_row(r.eps, r.k, r.trials, r.frequency, r.bound, r.hypothesis_met)
        _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)
        if r.hypothesis_met and r.frequency < max(r.bound, 0.0):
            raise PropertyFailure("restriction frequency fell below the bound")
    elif args.lemma == "dist-eq":
        r = distribution_equality_mc(args.n, args.d, args.l, trials=args.trials,
                                     seed=args.seed)
        header = "n,d,ell,trials,cells,chi2,p_value"
        row = csv_row(r.n, r.d, r.ell, r.trials, r.cells, r.chi2, r.p_value)
        _emit(CsvDocument(_echo(args), __version__, header, [row]), args.out)
        if r.p_value <= args.p_threshold:
            raise PropertyFailure(f"distribution mismatch: p = {r.p_value}")
    elif args.lemma == "typical":
        rows_data = typical_sets_experiment(args.n, args.d, args.bigk, args.m,
                                            trials=args.trials, seed=args.seed)
        header = "trial,v,v_prime,v_dprime,ell0,k0,f1,f2,f3"
        rows = [csv_row(r.trial, r.v_size, r.v_prime_size, r.v_dprime_size, r.ell0,
                        r.k0, r.f1, r.f2, r.f3) for r in rows_data]
        hits = [sum(getattr(r, f) for r in rows_data) / len(rows_data)
                for f in ("f1", "f2", "f3")]
        rows.append(csv_row("frequency", *[None] * 5, *hits))
        _emit(CsvDocument(_echo(args), __version__, header, rows), args.out)
    else:
        raise CliError(f"unknown lemma {args.lemma!r}")


def cmd_spectra(args) -> None:
    try:
        n, d = map(int, args.gen_regular.split(","))
    except ValueError:
        raise CliError(f"--gen-regular must be two integers N,D, got {args.gen_regular!r}") from None
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    if args.min_fraction is not None and not 0 <= args.min_fraction <= 1:
        raise CliError(f"--min-fraction must lie in [0, 1], got {args.min_fraction}")
    threshold = 2.1 * math.sqrt(d - 1)

    values = [lambda2(random_regular(n, d, seed=args.seed + 104729 * t))
              for t in range(args.trials)]
    rows = [csv_row(t, l2, l2 <= threshold) for t, l2 in enumerate(values)]
    frac = sum(l2 <= threshold for l2 in values) / args.trials
    header = "trial,lambda2,below_threshold"
    rows.append(csv_row("fraction", frac, None))
    _emit(CsvDocument(_echo(args), __version__, header, rows), args.out)
    if args.min_fraction is not None and frac < args.min_fraction:
        raise PropertyFailure(f"fraction {frac} below {args.min_fraction}")


def cmd_gen_graph(args) -> None:
    g = parse_graph_arg(args.type, None, args.seed)
    write_graph(g, args.out)


def cmd_gen_metric(args) -> None:
    if args.type.startswith("snowflake:"):
        if not args.base:
            raise CliError("snowflake needs --base METRIC_FILE")
        eps = float(args.type.split(":", 1)[1])
        metric = snowflake(read_metric(args.base), eps)
    else:
        metric = parse_metric_arg(args.type, args.seed)
    write_metric(metric, args.out)


# ---------------------------------------------------------------- wiring

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nlgap", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, metric=False, graph=False, mapfile=False):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output CSV path (default stdout)")
        if graph:
            p.add_argument("--graph", help="graph file")
            p.add_argument("--gen", help="graph spec, e.g. regular:64,3 or cycle:16")
        if metric:
            p.add_argument("--metric", required=True,
                           help="metric spec (uniform:N, grid:k,s, random:N) or file")
        if mapfile:
            p.add_argument("--map", required=True, help="vertex map file")

    p = sub.add_parser("gamma", help="optimal cost ratio of a graph into a metric")
    common(p, metric=True, graph=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--heuristic", action="store_true")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--map-out", dest="map_out")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("extrapolate", help="exponent comparison inequalities")
    common(p, metric=False, graph=True)
    p.add_argument("--metric", help="metric spec or file")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
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
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--svg", help="write a growth chart here")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("jls-embed", help="randomized grid embedding")
    common(p, graph=True)
    p.add_argument("--distortion", "--D", type=float, default=3.0)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--retries", type=int, default=50)
    p.add_argument("--delta", type=int)
    p.add_argument("--map-out", dest="map_out")
    p.set_defaults(func=cmd_jls)

    p = sub.add_parser("distort", help="bi-Lipschitz report for a stored map")
    common(p, metric=True, graph=True, mapfile=True)
    p.set_defaults(func=cmd_distort)

    p = sub.add_parser("model", help="random-model Monte Carlo verifiers")
    common(p)
    p.add_argument("--lemma", required=True,
                   choices=["matchings", "restriction", "dist-eq", "typical"])
    p.add_argument("--l", type=int, default=20)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--c", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=10 ** 5)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=62)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--bigk", type=float, default=20.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--p-threshold", dest="p_threshold", type=float, default=0.001)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("spectra", help="second-eigenvalue frequency experiment")
    common(p)
    p.add_argument("--gen-regular", dest="gen_regular", required=True,
                   help="n,d for the sampled family")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--min-fraction", dest="min_fraction", type=float)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("gen-graph", help="write a graph file")
    p.add_argument("--type", required=True, help="regular:n,d | cycle:n | complete:n | path:n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gen-metric", help="write a metric file")
    p.add_argument("--type", required=True,
                   help="uniform:N | grid:k,s | random:N | snowflake:eps")
    p.add_argument("--base", help="base metric file for snowflake")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_metric)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except PropertyFailure as exc:
        print(f"property check failed: {exc}", file=sys.stderr)
        return 2
    except (CliError, CapExceeded, GraphError, MetricError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
