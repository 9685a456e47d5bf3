"""Command-line entry point wiring all modules into experiments.

Subcommands: greens, verify (bounds|appendix|all), laws (pair|second-moment),
soup sample, covertime, example (two-far|neighbors|many-sep), gumbel-scan,
emit-plotdata.  Global flags --seed/--workers/--out-dir/--quick default to
LOOPSOUP_SEED/LOOPSOUP_WORKERS/LOOPSOUP_OUT_DIR/LOOPSOUP_QUICK from the
environment, else to the same keys of an optional flat key=value config
file (--config), and a flag on the command line overrides both; quick takes
1/0, true/false or yes/no.  Option values may start with "-" (--window
-3,-3,3,3).  Exit codes: 0 ok, 1 asserted check failed, 2 config error
(arguments, config file, environment, set or epsilon spec; a kappa past
KAPPA_MAX = 1000, --box or a --boxes item past 2048, --radius past 4094,
--n-max past 1000, an empty or non-int32 --window, an --x not of the form
i,j or past +-2**30, or 0,0 for laws pair, a --separation past 2**30 or a
--count past 2048^2, is an argument; so is a line:<k>x<sep> set with k past
2048^2 or (k - 1) |sep| past 2**30, an example separation that is odd or
below 10 kappa^-2 for two or more points, or an option the example does not
take: two-far takes --kappa and --separation, neighbors --kappa-grid, and
many-sep --kappa, --separation and --count), 3 resource ceiling (a length
law or walk series past its truncation ceiling, a Green's series
cross-check past its work guard, a cover run, example or scan past its
estimated-work guard, cover.WORK_GUARD = 5e11 cells or chain steps unless
--work-guard sets it, a soup slice past its loop ceiling, a second-moment
set past its pair-sum guard of 65,536 points, box:256), 4 any other error
(a value outside a function's domain, or a fault in the program), as
"error: <type>: <message>".

Artifacts (CSV/JSON) are byte-identical for identical (config, seed)
whatever the worker count; wall-clock timing is printed, never written.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import cover, greens, laws, sampler, walks
from .cover import (CoverEngine, EmpiricalDistribution, PointsTarget,
                    ResourceCeilingError, ks_distance, ks_threshold, make_target)
from .lattice import STEP_DX, STEP_DY, Box
from .records import (PLUMBING, Verdict, failed, fmt, verdict, write_json,
                      write_rows_csv, write_verdicts_csv)
from .series import KAPPA_MAX, ConfigError, SeriesTruncationError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CEILING = 3
EXIT_ERROR = 4

ENV_PREFIX = "LOOPSOUP_"


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLS[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"bad boolean {text!r}; expected 1/0, true/false "
                          f"or yes/no") from None


def _parse_spec(parse, text: str, *rest, what: str = ""):
    """parse(text, *rest), with a ValueError, OSError or argparse type error
    as a ConfigError; `what` names the value in the message."""
    try:
        return parse(text, *rest)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc)) from exc


def _number(cast, low: float, strict: bool = False, high: float = math.inf):
    """An argparse type: a finite cast(text) that is >= low, or > low if
    strict, and <= high; anything else is a parse error naming the flag."""
    def number(text: str):
        value = cast(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)
                and value <= high):
            raise argparse.ArgumentTypeError(
                f"expected {cast.__name__} {'>' if strict else '>='} {low:g}"
                f"{f' and <= {high:g}' if high < math.inf else ''}, got {text!r}")
        return value
    return number


def _ints(make, form: str):
    """An argparse type: make(*ints) of a comma list of the form `form`."""
    def comma_ints(text: str):
        try:
            return make(*(int(v) for v in text.split(",")))
        except TypeError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected {form} ({exc}), got {text!r}")
    return comma_ints


def _point(origin: bool):
    """An argparse type: a point i,j with |i|, |j| <= PointsTarget.COORD_LIMIT,
    the origin only if `origin`."""
    def point(i: int, j: int) -> tuple[int, int]:
        if max(abs(i), abs(j)) > PointsTarget.COORD_LIMIT:
            raise ValueError("coordinates must lie within +-2**30")
        if not (origin or i or j):
            raise ValueError("a pair needs two distinct points")
        return i, j
    return _ints(point, "i,j" if origin else "i,j other than 0,0")


def _listed(item):
    """An argparse type: a nonempty comma list of item(text) values."""
    def comma_list(text: str):
        values = [item(v) for v in text.split(",") if v]
        if not values:
            raise ValueError(text)
        return values
    return comma_list


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    text = _parse_spec(lambda p: Path(p).read_text(), path)
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        k, _, v = line.partition("=")
        out[k.strip()] = v.strip()
    return out


def effective_defaults(config_path: str | None) -> dict[str, str]:
    """Flat config defaults: file first, then environment overrides."""
    out: dict[str, str] = {}
    if config_path:
        out.update(load_config_file(config_path))
    for key, val in os.environ.items():
        if key.startswith(ENV_PREFIX):
            out[key[len(ENV_PREFIX):].lower().replace("_", "-")] = val
    return out


def _out_path(args, name: str) -> Path | None:
    if args.out_dir is None:
        return None
    return Path(args.out_dir) / name


def _emit_verdicts(args, verdicts, name="verdicts.csv") -> None:
    path = _out_path(args, name)
    if path is not None:
        write_verdicts_csv(path, verdicts)
    width = max((len(v.check) for v in verdicts), default=10)
    for v in verdicts:
        print(f"{v.check:<{width}}  {v.verdict:<18} lhs={fmt(v.lhs)} "
              f"rhs={fmt(v.rhs)} [{v.params}]")


def _exit_from(verdicts) -> int:
    return EXIT_CHECK_FAILED if failed(verdicts) else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def _emit_quantities(args, name: str, rows) -> int:
    """Write rows of (quantity, kappa, x1, x2, value, error_bound) to name
    under --out-dir, if set, and print them with their header."""
    header = ["quantity", "kappa", "x1", "x2", "value", "error_bound"]
    path = _out_path(args, name)
    if path is not None:
        write_rows_csv(path, header, rows)
    print(",".join(header))
    for r in rows:
        print(",".join(fmt(c) for c in r))
    return EXIT_OK


def cmd_greens(args) -> int:
    rows = []
    for kappa in args.kappa:
        value, err = greens.greens_value(kappa, args.x)
        rows.append(["greens", kappa, *args.x, value, err])
        mu = greens.mu_gamma_o(kappa)
        rows.append(["mu-origin-loops", kappa, 0, 0, mu.value, 0.0])
    return _emit_quantities(args, "greens.csv", rows)


def cmd_verify_bounds(args) -> int:
    verdicts = greens.check_green_bounds(args.kappa_grid, args.radius)
    _emit_verdicts(args, verdicts)
    return _exit_from(verdicts)


def cmd_verify_appendix(args) -> int:
    rep = greens.verify_appendix_bounds(args.n_max)
    _emit_verdicts(args, rep.verdicts)
    print(f"local-clt minimal constant over scan: {fmt(rep.c_star)}")
    return _exit_from(rep.verdicts)


def cmd_laws_pair(args) -> int:
    x, rows = args.x, []
    for kappa in args.kappa:
        point = laws.prob_uncovered(kappa, [(0, 0)], args.u)
        pair = laws.prob_uncovered(kappa, [(0, 0), x], args.u)
        nosh = laws.prob_no_shared_loop(kappa, x, args.u)
        rows += [["point-uncovered", kappa, 0, 0, point, 0.0],
                 ["pair-uncovered", kappa, x[0], x[1], pair, 0.0],
                 ["no-shared-loop", kappa, x[0], x[1], nosh, 0.0]]
    return _emit_quantities(args, "laws_pair.csv", rows)


def cmd_laws_second_moment(args) -> int:
    eps = _parse_spec(laws.resolve_epsilon, args.epsilon,
                      greens.mu_gamma_o(args.kappa).value)
    report = laws.second_moment_report(args.kappa, laws.box_set(args.box), eps)
    _emit_verdicts(args, report.verdicts, "second_moment.csv")
    counts = ",".join(f"{k}={v}" for k, v in report.class_pair_counts.items())
    print(f"pair classes (ordered counts): {counts}")
    return _exit_from(report.verdicts)


def cmd_soup_sample(args) -> int:
    soup = sampler.sample_window_soup(args.seed, args.kappa, args.window,
                                      args.horizon, args.tail_tol)
    header = ["replica", "root_x", "root_y", "half_length", "timestamp", "steps"]
    rows = [[0, int(soup.root_x[i]), int(soup.root_y[i]),
             int(soup.half_length[i]), float(soup.timestamp[i]),
             base64.b64encode(soup.steps_packed[i]).decode("ascii")]
            for i in range(len(soup))]
    path = Path(args.out) if args.out else _out_path(args, "loops.csv")
    if path is not None:
        write_rows_csv(path, header, rows)
        print(f"wrote {len(rows)} loops to {path}")
    else:
        print(",".join(header))
        for r in rows:
            print(",".join(fmt(c) for c in r))
    print(f"n_trunc={soup.n_trunc} loops={len(soup)}")
    return EXIT_OK


def _ensemble_artifacts(args, sample: cover.CoverTimeSample, name: str,
                        verdicts) -> None:
    path = _out_path(args, f"{name}.csv")
    if path is not None:
        write_rows_csv(path, ["replica", "cover_time"],
                       list(enumerate(sample.values.values.tolist())))
        write_json(_out_path(args, f"{name}.json"), {
            "kappa": sample.kappa,
            "target": sample.target_label,
            "target_size": sample.target_size,
            "replicas": sample.replicas,
            "seed": sample.seed,
            "mu_origin_loops": sample.mu,
            "u_star": sample.u_star,
            "truncation_bias_rate": sample.truncation_bias_rate,
            "verdicts": [v.__dict__ for v in verdicts],
        })


def cmd_covertime(args) -> int:
    target = make_target(args.set)
    sample = CoverEngine(args.kappa, target).ensemble(
        args.seed, args.replicas, workers=args.workers, work_guard=args.work_guard)
    _ensemble_artifacts(args, sample, "covertime", [])
    v = sample.values.values
    print(f"replicas={sample.replicas} mean={fmt(v.mean())} "
          f"mu={fmt(sample.mu)} sampler={sample.sampler}")
    return EXIT_OK


def cmd_example(args) -> int:
    if args.which == "neighbors":
        rep = cover.run_example_neighbors(args.kappa_grid, args.replicas,
                                          args.seed, args.workers)
    else:   # two-far is many-sep of two
        rep = cover.run_example_many_sep(args.kappa, args.count, args.separation,
                                         args.replicas, args.seed, args.workers)
    _emit_verdicts(args, rep.verdicts, f"example_{args.which}.csv")
    for key, sample in rep.ensembles.items():
        _ensemble_artifacts(args, sample, f"example_{args.which}_{key}",
                            rep.verdicts)
    return _exit_from(rep.verdicts)


def cmd_gumbel_scan(args) -> int:
    rep = cover.run_gumbel_scan(args.kappa, args.boxes,
                                args.replicas, args.seed, args.workers,
                                work_guard=args.work_guard)
    _emit_verdicts(args, rep.verdicts, "gumbel_scan.csv")
    print("note: the limit regime log(1/kappa) >= e^32 is numerically "
          "unreachable; this is a finite-size trend reproduction.")
    path = _out_path(args, "gumbel_plotdata.csv")
    if path is not None:
        emit_plotdata_for_scan(rep, path)
    return _exit_from(rep.verdicts)


def cmd_emit_plotdata(args) -> int:
    """Compare mu*T with exp1 / exp1-squared and mu*T - log|A| with gumbel;
    mu and |A| come from the JSON sidecar written next to the ensemble CSV."""
    import csv
    cdf = {"exp1": laws.one_point_law, "gumbel": laws.gumbel_cdf,
           "exp1-squared": laws.exp1_power_cdf(2)}.get(args.cdf)
    if cdf is None:
        raise ConfigError(f"unknown target cdf {args.cdf!r}")
    sidecar = Path(args.ensemble).with_suffix(".json")
    try:
        meta = json.loads(sidecar.read_text())
        mu, size = float(meta["mu_origin_loops"]), int(meta["target_size"])
        with open(args.ensemble) as fh:
            z = mu * np.array([float(r["cover_time"]) for r in csv.DictReader(fh)])
        if args.cdf == "gumbel":
            z -= math.log(size)
        emp = EmpiricalDistribution.from_samples(z)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read mu_origin_loops and target_size from the "
                          f"JSON sidecar {sidecar} and cover_time samples from the "
                          f"ensemble {args.ensemble}: {exc!r}") from exc
    rows = _plotdata_rows("ensemble", emp, cdf)
    write_rows_csv(args.out, ["series", "x", "y", "kind"], rows)
    print(f"wrote {len(rows)} plot points to {args.out}")
    return EXIT_OK


def _plotdata_rows(series: str, emp: EmpiricalDistribution, cdf):
    n = emp.count
    xs = emp.values
    ecdf = np.arange(1, n + 1) / n
    target = np.asarray(cdf(xs))
    rows = [[series, float(x), float(e), "ecdf"] for x, e in zip(xs, ecdf)]
    rows += [[series, float(x), float(t), "target"] for x, t in zip(xs, target)]
    rows.append([series, float(ks_distance(emp, cdf)), 0.0, "ks"])
    return rows


def emit_plotdata_for_scan(rep, path) -> None:
    rows = []
    for key, sample in rep.ensembles.items():
        z = sample.mu * sample.values.values - math.log(sample.target_size)
        emp = EmpiricalDistribution.from_samples(z)
        rows += _plotdata_rows(key, emp, laws.gumbel_cdf)
    write_rows_csv(path, ["series", "x", "y", "kind"], rows)


# ---------------------------------------------------------------------------
# verify all


def _verify_all_verdicts(args) -> list[Verdict]:
    quick = args.quick
    verdicts: list[Verdict] = []

    # Walk-count oracle agreement (three independent counters).
    n_oracle = 6 if quick else 10
    ok = True
    table = walks.WalkCountTable.build(n_oracle)
    for n in range(n_oracle + 1):
        tally = walks.walk_endpoint_counts(n)
        for x, w in tally.items():
            ok &= table.count(n, x) == w == walks.count_walks_diagonal(n, x)
        ok &= sum(tally.values()) == 4 ** n
    verdicts.append(verdict("walk-count-oracle-agreement", PLUMBING,
                            f"n<={n_oracle}", float(ok), 1.0, ok))

    n_loops = 30 if quick else 100
    big = walks.WalkCountTable.build(2 * n_loops)
    ok = all(big.count(2 * n, (0, 0)) == walks.count_walks_diagonal(2 * n, (0, 0))
             for n in range(1, n_loops + 1))
    verdicts.append(verdict("closed-loop-count-formula", "loop-count-square",
                            f"n<={n_loops}", float(ok), 1.0, ok))

    dom = walks.verify_dominance(24)
    verdicts.append(verdict("even-walk-dominance", "origin-dominance",
                            "lengths<=24", float(len(dom.violations)), 0.0, dom.ok))

    grid = [1.0, 0.5, 0.1, 0.01]
    verdicts += greens.check_green_bounds(grid, radius=8 if quick else 20)
    verdicts += greens.verify_appendix_bounds(40 if quick else 100).verdicts

    # Exact-law identities at machine precision.
    idok = True
    for kappa in (1.0, 0.25):
        for x in ((1, 0), (1, 1), (3, 0)):
            for u in (0.5, 1.0, 2.0):
                pair = laws.prob_uncovered(kappa, [(0, 0), x], u)
                point = laws.prob_uncovered(kappa, [(0, 0)], u)
                nosh = laws.prob_no_shared_loop(kappa, x, u)
                idok &= abs(pair - point * point / nosh) <= 1e-12 * pair
    verdicts.append(verdict("pair-identity-chain", "pair-avoidance-identity",
                            "kappa in {1,0.25}", float(idok), 1.0, idok))

    # One-point law via Monte Carlo at the KS distance's 0.999 quantile.
    replicas = 10_000 if quick else 100_000
    sample = CoverEngine(0.25, PointsTarget([(0, 0)])).ensemble(
        args.seed, replicas, workers=args.workers)
    d = ks_distance(sample.scaled(), laws.one_point_law)
    thr = ks_threshold(replicas)
    verdicts.append(verdict("one-point-exponential-law", "one-point-law",
                            f"kappa=0.25,replicas={replicas},seed={args.seed}",
                            d, thr, d <= thr))

    # The determinant law of three points, exact for every kappa, the same way.
    pts, replicas = [(0, 0), (1, 0), (0, 2)], 10_000 if quick else 40_000
    sample = CoverEngine(0.5, PointsTarget(pts)).ensemble(args.seed, replicas,
                                                          workers=args.workers)
    d = ks_distance(sample.values, laws.cover_law(0.5, pts))
    thr = ks_threshold(replicas)
    verdicts.append(verdict("cover-determinant-law", "determinant-law",
                            f"kappa=0.5,set={sample.target_label},replicas={replicas},"
                            f"seed={args.seed}", d, thr, d <= thr))

    # Sampler structure: the half-lengths of one window soup of about 20,000
    # loops against the normalized weights (bins under 20 expected pooled),
    # and bridge closure.
    dist, win = sampler.length_pmf(0.5, 1e-8), Box(0, 0, 9, 9)
    soup = sampler.sample_window_soup(args.seed, 0.5, win,
                                      20_000 / (win.area * dist.total_mass), 1e-8)
    counts = np.bincount(soup.half_length, minlength=dist.n_trunc + 1)[1:]
    expected = len(soup) * dist.weights / dist.total_mass
    big = expected >= 20
    obs = np.append(counts[big], counts[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    from scipy.special import chdtrc  # this row alone needs scipy
    pval = float(chdtrc(len(exp) - 1, ((obs - exp) ** 2 / exp).sum()))
    verdicts.append(verdict("length-law-chi-square", PLUMBING,
                            f"kappa=0.5,loops={len(soup)},seed={args.seed}",
                            pval, 0.001, pval > 0.001))
    rng = cover.block_stream(args.seed, "verify-sampler", 0)
    steps = sampler.bridge_steps(rng, 6, 512)
    closure = bool((STEP_DX[steps].sum(axis=1) == 0).all()
                   and (STEP_DY[steps].sum(axis=1) == 0).all())
    verdicts.append(verdict("bridge-closure", PLUMBING, "m=6,draws=512",
                            float(closure), 1.0, closure))
    return verdicts


def cmd_verify_all(args) -> int:
    t0 = time.time()
    verdicts = _verify_all_verdicts(args)
    _emit_verdicts(args, verdicts)
    path = _out_path(args, "run.json")
    if path is not None:
        write_json(path, {
            "command": "verify-all",
            "quick": bool(args.quick),
            "seed": args.seed,
            "checks": len(verdicts),
            "failed": [v.check for v in failed(verdicts)],
        })
    bad = failed(verdicts)
    print(f"{len(verdicts)} checks, {len(bad)} failed "
          f"({time.time() - t0:.1f}s)")
    return _exit_from(verdicts)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="loopsoup",
        description="Simulation and numerical verification lab for the "
                    "two-dimensional killed-random-walk loop soup.")
    count, positive = _number(int, 1), _number(float, 0.0, strict=True)
    kappa = _number(float, 0.0, strict=True, high=KAPPA_MAX)   # every --kappa*
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--workers", type=count, default=1)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--quick", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("greens", help="evaluate G at a point")
    g.add_argument("--kappa", type=_listed(kappa), required=True,
                   help="kappa or comma list")
    g.add_argument("--x", type=_point(origin=True), default="0,0")
    g.set_defaults(func=cmd_greens)

    v = sub.add_parser("verify", help="verification suites")
    vs = v.add_subparsers(dest="what", required=True)
    vb = vs.add_parser("bounds")
    vb.add_argument("--kappa-grid", type=_listed(kappa), required=True)
    vb.add_argument("--radius", type=_number(int, 2, high=greens.MAX_RADIUS),
                    default=20)
    vb.set_defaults(func=cmd_verify_bounds)
    va = vs.add_parser("appendix")
    va.add_argument("--n-max", type=_number(int, 1, high=greens.APPENDIX_N_MAX),
                    default=100)
    va.set_defaults(func=cmd_verify_appendix)
    vall = vs.add_parser("all")
    vall.set_defaults(func=cmd_verify_all)

    lw = sub.add_parser("laws", help="closed-form law evaluation")
    ls = lw.add_subparsers(dest="what", required=True)
    lp = ls.add_parser("pair")
    lp.add_argument("--kappa", type=_listed(kappa), required=True)
    lp.add_argument("--x", type=_point(origin=False), required=True)
    lp.add_argument("--u", type=_number(float, 0.0), required=True)
    lp.set_defaults(func=cmd_laws_pair)
    lm = ls.add_parser("second-moment")
    lm.add_argument("--kappa", type=kappa, required=True)
    lm.add_argument("--box", type=_number(int, 2, high=cover.BoxTarget.MAX_SIDE),
                    required=True)
    lm.add_argument("--epsilon", default="auto100",
                    help="float | auto100 | auto400")
    lm.set_defaults(func=cmd_laws_second_moment)

    sp = sub.add_parser("soup", help="soup sampling")
    ss = sp.add_subparsers(dest="what", required=True)
    s1 = ss.add_parser("sample")
    s1.add_argument("--kappa", type=kappa, required=True)
    s1.add_argument("--window", type=_ints(Box, "x0,y0,x1,y1"), required=True,
                    help="x0,y0,x1,y1")
    s1.add_argument("--horizon", type=_number(float, 0.0), required=True)
    s1.add_argument("--tail-tol", type=positive, default=1e-8)
    s1.add_argument("--out", default=None)
    s1.set_defaults(func=cmd_soup_sample)

    c = sub.add_parser("covertime", help="cover-time ensemble (exact: the "
                       "trace chain, or the ring engine)")
    c.add_argument("--kappa", type=kappa, required=True)
    c.add_argument("--set", required=True,
                   help="box:<n> | points:(x,y);... | line:<k>x<sep>")
    c.add_argument("--replicas", type=count, required=True)
    c.add_argument("--work-guard", type=positive, default=cover.WORK_GUARD)
    c.set_defaults(func=cmd_covertime)

    e = sub.add_parser("example", help="worked cover-time examples")
    e.set_defaults(func=cmd_example)
    es = e.add_subparsers(dest="which", required=True)
    # each example declares only the options it takes; argparse rejects others
    replicas = argparse.ArgumentParser(add_help=False)
    replicas.add_argument("--replicas", type=count, default=20000)
    separation = _number(int, 1, high=PointsTarget.COORD_LIMIT)
    e2 = es.add_parser("two-far", parents=[replicas])
    e2.add_argument("--kappa", type=kappa, default=1.0)
    e2.add_argument("--separation", type=separation, default=10)
    e2.set_defaults(count=2)
    # no abbreviations, so that --kappa is not read as --kappa-grid
    en = es.add_parser("neighbors", parents=[replicas], allow_abbrev=False)
    en.add_argument("--kappa-grid", type=_listed(kappa), default="0.5,0.1,0.02")
    em = es.add_parser("many-sep", parents=[replicas])
    em.add_argument("--kappa", type=kappa, default=1.0)
    em.add_argument("--separation", type=separation, default=10)
    em.add_argument("--count", default=2,
                    type=_number(int, 1, high=cover.BoxTarget.MAX_SIDE ** 2))

    gs = sub.add_parser("gumbel-scan", help="box-size trend vs the Gumbel law")
    gs.add_argument("--kappa", type=kappa, default=0.5)
    gs.add_argument("--boxes", default="8,16,32",
                    type=_listed(_number(int, 1, high=cover.BoxTarget.MAX_SIDE)))
    gs.add_argument("--replicas", type=count, default=20000)
    gs.add_argument("--work-guard", type=positive, default=cover.WORK_GUARD)
    gs.set_defaults(func=cmd_gumbel_scan)

    ep = sub.add_parser("emit-plotdata", help="tidy CDF/KS table from an ensemble")
    ep.add_argument("--ensemble", required=True, help="covertime CSV")
    ep.add_argument("--cdf", default="exp1")
    ep.add_argument("--out", required=True)
    ep.set_defaults(func=cmd_emit_plotdata)
    return p


# A value such as -3,-3,3,3 is not a plain negative number, so argparse
# would read it as an unknown flag.
_DASH_VALUE = re.compile(r"-[0-9.]")


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join `--opt -3,...` into `--opt=-3,...`; no option starts with a digit."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev \
                and _DASH_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _attach_dash_values(list(sys.argv[1:] if argv is None else argv))
    try:
        # --config/env provide defaults for the global flags; a flag given
        # on the command line overrides them
        pre, _ = parser.parse_known_args(argv)
        defaults = effective_defaults(pre.config)
        flat = {"seed": _number(int, 0), "workers": _number(int, 1),
                "out-dir": str, "quick": _parse_bool}
        parser.set_defaults(**{
            key.replace("-", "_"): _parse_spec(cast, defaults[key], what=key)
            for key, cast in flat.items() if key in defaults})
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceCeilingError, SeriesTruncationError) as exc:
        print(f"resource ceiling: {exc}", file=sys.stderr)
        return EXIT_CEILING
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
