"""One benchmark workload in one fresh process: set up, run timed rounds,
check the outputs against the reference oracle, print one JSON line.

A round is a fixed list of operations, each with its own fixed inputs and
seed, so every round of every run does identical work; ``--seed`` only
shuffles the order of the operations inside each round.  The first round's
outputs are checked against ``oracle``; every later round must reproduce
them exactly.  Usage (normally through run.py, which pins the BLAS/OpenMP
thread counts to 1):

    python3 bench/workloads.py --workload cover-massive --seconds 15
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # setup_s runs from here, before `import loopsoup`

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import loopsoup  # noqa: E402
import numpy as np  # noqa: E402
from loopsoup import cli, cover, greens, laws, sampler  # noqa: E402

import tracing  # noqa: E402

#: z-score of every binomial and Poisson comparison; with about 40
#: comparisons per run a correct program fails one with odds below 1e-4.
Z = 5.0

RESULTS = BENCH / "results"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _ecdf(values, u):
    v = np.sort(np.asarray(values, dtype=np.float64))
    return np.searchsorted(v, u, side="right") / len(v)


def _check_cdf(name, values, u, ref, bias):
    """Empirical CDF within Z binomial errors plus the truncation bias."""
    n = len(values)
    emp = _ecdf(values, u)
    allow = Z * np.sqrt(ref * (1.0 - ref) / n) + bias
    worst = float(np.max(np.abs(emp - ref) - allow))
    return name, worst <= 0.0, f"max excess over allowance {worst:.3g} (n={n})"


def _check_sandwich(name, tail_values, n, u, lo, hi, bias):
    """P(T > u) from n replicas inside [S1 - S2, S1] widened by Z errors."""
    emp = 1.0 - _ecdf(tail_values, u)
    q = np.clip(hi, 0.0, 0.5)
    allow = Z * np.sqrt(q * (1.0 - q) / n) + bias
    worst = float(np.max(np.maximum(lo - allow - emp, emp - hi - allow)))
    return name, worst <= 0.0, f"max excess over allowance {worst:.3g} (n={n})"


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(b), 1e-300)


class Workload:
    #: operations expected to fail their check because of a known fault
    known_faults: tuple[str, ...] = ()

    def build(self) -> None:
        """Cold construction counted in setup_s."""

    def ops(self) -> list:
        """[(name, fn)]; fn() returns (output, items, digest)."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list[tuple[str, bool, str]]:
        """[(check name, ok, detail)]; a check named after an op judges it."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class CoverMassive(Workload):
    """CoverEngine ensembles at kappa = 0.01 (kappa^-1 ~ |A|^0.83 at box:16)."""

    KAPPA = 0.01
    ITEMS = (("box:16", 101, 32), ("box:3", 102, 96),
             ("points:(0,0);(1,1)", 103, 192))   # (set, seed, replicas)

    def build(self):
        self.engines = {spec: cover.CoverEngine(self.KAPPA, cover.make_target(spec))
                        for spec, _, _ in self.ITEMS}

    def ops(self):
        def op(spec, seed, n):
            def run():
                s = self.engines[spec].ensemble(seed, n, workers=1)
                return s, n, _digest(s.values.values.tobytes(), s.mu,
                                     s.truncation_bias_rate)
            return run
        return [(f"ensemble {spec} x{n}", op(spec, seed, n))
                for spec, seed, n in self.ITEMS]

    def check(self, outputs):
        import oracle
        out = []
        mu_ref = math.log(oracle.green_origin(self.KAPPA))
        for spec, _, n in self.ITEMS:
            name = f"ensemble {spec} x{n}"
            s = outputs[name]
            pts = cover.make_target(spec).points()
            ok = (s.replicas == n and s.values.count == n
                  and _rel_close(s.mu, mu_ref, 1e-9))
            out.append((f"{name}: replicas and mu", ok, f"mu={s.mu!r} ref={mu_ref!r}"))
            if len(pts) <= 9:
                law = oracle.determinant_law(self.KAPPA, pts)
                u = oracle.quantile_grid(law, (0.1, 0.25, 0.5, 0.75, 0.9))
                out.append(_check_cdf(f"{name}: determinant law", s.values.values,
                                      u, law(u), s.truncation_bias_rate * u))
            else:
                u = np.log(len(pts) / np.array([0.8, 0.4, 0.2, 0.1, 0.05])) / mu_ref
                lo, hi = oracle.bonferroni_tail(self.KAPPA, pts, u)
                out.append(_check_sandwich(f"{name}: Bonferroni sandwich",
                                           s.values.values, n, u, lo, hi,
                                           s.truncation_bias_rate * u))
        return out


class CoverDense(Workload):
    """`loopsoup covertime --set box:16 --kappa 0.5` through loopsoup.cli.main,
    one full engine batch of 4094 replicas per job."""

    KAPPA, SIDE, REPLICAS, SEED = 0.5, 16, 4094, 7

    def build(self):
        RESULTS.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cover-dense-", dir=RESULTS))

    def ops(self):
        def run():
            argv = ["--seed", str(self.SEED), "--workers", "1",
                    "--out-dir", str(self.tmp), "covertime",
                    "--set", f"box:{self.SIDE}", "--kappa", str(self.KAPPA),
                    "--replicas", str(self.REPLICAS)]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            files = ((self.tmp / "covertime.csv").read_bytes(),
                     (self.tmp / "covertime.json").read_bytes())
            return (rc, *files), self.REPLICAS, _digest(rc, *files)
        return [("covertime box:16 kappa=0.5", run)]

    def check(self, outputs):
        import oracle
        rc, csv_bytes, json_bytes = outputs["covertime box:16 kappa=0.5"]
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        meta = json.loads(json_bytes)
        values = np.array([float(r["cover_time"]) for r in rows])
        mu_ref = math.log(oracle.green_origin(self.KAPPA))
        out = [("covertime box:16 kappa=0.5", rc == 0 and len(rows) == self.REPLICAS
                == meta["replicas"], f"exit {rc}, {len(rows)} rows, "
                f"replicas={meta['replicas']}"),
               ("json mu_origin_loops = log G(o)",
                _rel_close(meta["mu_origin_loops"], mu_ref, 1e-9),
                f"{meta['mu_origin_loops']!r} vs {mu_ref!r}")]
        pts = oracle.box_points(self.SIDE)
        u = np.log(len(pts) / np.array([0.5, 0.25, 0.1, 0.05, 0.02])) / mu_ref
        lo, hi = oracle.bonferroni_tail(self.KAPPA, pts, u)
        out.append(_check_sandwich("csv upper tail in Bonferroni sandwich", values,
                                   len(values), u, lo, hi,
                                   meta["truncation_bias_rate"] * u))
        return out

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class SoupWindow(Workload):
    """Exact window soups with the pathwise cover time of {(0,0), (2,0)}."""

    KAPPA, TAIL, HORIZON = 2.5, 1e-8, 30.0
    WINDOW = (-26, -26, 28, 26)
    PAIR = [(0, 0), (2, 0)]
    SEEDS = tuple(range(201, 217))

    def ops(self):
        def op(seed):
            def run():
                soup = sampler.sample_window_soup(seed, self.KAPPA, self.WINDOW,
                                                  self.HORIZON, self.TAIL)
                horizon = self.HORIZON
                while True:
                    best = cover.first_cover_times_from_soup(soup, self.PAIR)
                    if np.all(np.isfinite(best)):
                        break
                    soup = sampler.extend_soup(soup, self.HORIZON)
                    horizon += self.HORIZON
                return (soup, best, horizon), len(soup), _digest(
                    soup.root_x.tobytes(), soup.root_y.tobytes(),
                    soup.half_length.tobytes(), soup.timestamp.tobytes(),
                    b"".join(soup.steps_packed), best.tobytes())
            return run
        return [(f"soup seed={s}", op(s)) for s in self.SEEDS]

    def check(self, outputs):
        from scipy.stats import chi2
        import oracle
        x0, y0, x1, y1 = self.WINDOW
        area = (x1 - x0 + 1) * (y1 - y0 + 1)
        soups = [outputs[f"soup seed={s}"][0] for s in self.SEEDS]
        horizons = [outputs[f"soup seed={s}"][2] for s in self.SEEDS]
        n_trunc = soups[0].n_trunc
        # loops rooted outside the window need half-length >= d >= d_out
        d_out = min(-x0, x1 - self.PAIR[1][0], -y0, y1) + 1
        tail = oracle.half_length_tail(self.KAPPA, max(n_trunc, d_out + 200))
        mass = float(tail[0] - tail[n_trunc])        # half-lengths 1..n_trunc
        out = [("length truncation within tail_tol", tail[n_trunc] <= self.TAIL
                and all(s.n_trunc == n_trunc for s in soups),
                f"omitted mass {tail[n_trunc]:.3g} at n_trunc={n_trunc}")]

        lam = area * mass * sum(horizons)
        n_loops = sum(len(s) for s in soups)
        out.append(("loop count Poisson(|W| T mass)",
                    abs(n_loops - lam) <= Z * math.sqrt(lam),
                    f"{n_loops} loops, mean {lam:.1f}"))

        hl = np.concatenate([s.half_length for s in soups]).astype(np.int64)
        ok_range = hl.min() >= 1 and hl.max() <= n_trunc
        pmf = oracle.half_length_weights(self.KAPPA, n_trunc) / mass
        expected = n_loops * pmf
        observed = np.bincount(hl, minlength=n_trunc + 1)[1:]
        big = expected >= 5
        exp_b = np.append(expected[big], expected[~big].sum())
        obs_b = np.append(observed[big], observed[~big].sum())
        stat = float(((obs_b - exp_b) ** 2 / exp_b).sum())
        pval = float(chi2.sf(stat, len(exp_b) - 1))
        out.append(("half-length chi-square", bool(ok_range) and pval > 1e-6,
                    f"chi2={stat:.1f}, p={pval:.3g}"))

        bad = [s.seed for s, t in zip(soups, horizons)
               if not _loops_well_formed(s, self.WINDOW, t)]
        out.append(("loops close, roots in window, times in [0,T)", not bad,
                    f"bad soups {bad}"))

        # bias rate of the omitted loops that could reach the pair: long ones
        # rooted in the window, and those rooted at distance d outside it
        # (at most 8d roots per d)
        far = sum(8.0 * d * tail[d - 1] for d in range(d_out, d_out + 200))
        bias_rate = area * tail[n_trunc] + far
        times = np.array([float(outputs[f"soup seed={s}"][1].max()) for s in self.SEEDS])

        law = oracle.pair_law(self.KAPPA, self.PAIR[1])
        u = oracle.quantile_grid(law, (0.25, 0.5, 0.75))
        out.append(_check_cdf("pathwise pair cover times vs pair law", times, u,
                              law(u), bias_rate * u))
        return out


def _loops_well_formed(soup, window, horizon) -> bool:
    """Decode the 2-bit step codes (E, N, W, S; four per byte, low bits
    first) independently of the program and check closure and ranges."""
    if len(soup) == 0:
        return True
    if soup.time_horizon != horizon:
        return False
    steps = 2 * soup.half_length.astype(np.int64)
    nbytes = np.array([len(b) for b in soup.steps_packed])
    if np.any(nbytes != (steps + 3) // 4):
        return False
    raw = np.frombuffer(b"".join(soup.steps_packed), dtype=np.uint8)
    codes = ((raw[:, None] >> np.array([0, 2, 4, 6], dtype=np.uint8)) & 3).ravel()
    loop = np.repeat(np.arange(len(soup)), 4 * nbytes)
    start = np.repeat(np.cumsum(4 * nbytes) - 4 * nbytes, 4 * nbytes)
    valid = np.arange(len(codes)) - start < steps[loop]
    dx = np.array([1, 0, -1, 0])[codes[valid]]
    dy = np.array([0, 1, 0, -1])[codes[valid]]
    closed = (np.bincount(loop[valid], weights=dx, minlength=len(soup)) == 0) & \
             (np.bincount(loop[valid], weights=dy, minlength=len(soup)) == 0)
    x0, y0, x1, y1 = window
    inside = ((soup.root_x >= x0) & (soup.root_x <= x1)
              & (soup.root_y >= y0) & (soup.root_y <= y1))
    timed = (soup.timestamp >= 0) & (soup.timestamp < horizon)
    return bool(np.all(closed) and np.all(inside) and np.all(timed))


class GreensLaws(Workload):
    """Cold Green's tables, mu values and one second-moment report."""

    EPSILON = 0.01
    known_faults = ("mu_gamma_o(1e-9)",)

    def ops(self):
        def one(fn):
            def run():
                result = fn()
                return result, 1, _digest(result)   # dataclass reprs hold every value
            return run
        return [
            ("greens_table(1e-4, 64)", one(lambda: greens.greens_table(1e-4, 64))),
            ("greens_table(1e-6, 16)", one(lambda: greens.greens_table(1e-6, 16))),
            ("mu_gamma_o(1e-6)", one(lambda: greens.mu_gamma_o(1e-6))),
            ("mu_gamma_o(1e-9)", one(lambda: greens.mu_gamma_o(1e-9))),
            ("second_moment_report(box 64, 1e-4)", one(
                lambda: laws.second_moment_report(1e-4, laws.box_set(64), self.EPSILON))),
        ]

    def check(self, outputs):
        import oracle
        out = []
        for name, kappa, radius in (("greens_table(1e-4, 64)", 1e-4, 64),
                                    ("greens_table(1e-6, 16)", 1e-6, 16)):
            t = outputs[name]
            pts = t.points()
            octant = sorted((a, b) for a in range(radius + 1)
                            for b in range(min(a, radius - a) + 1))
            ref = oracle.green_map(kappa, pts)
            worst = max(abs(t.value(p) - ref[p]) for p in pts)
            allow = t.tail_bound + oracle.QUAD_TOL
            out.append((name, pts == octant and worst <= allow,
                        f"max |G - G_ref| {worst:.3g}, allowed {allow:.3g}"))
        for name, kappa in (("mu_gamma_o(1e-6)", 1e-6), ("mu_gamma_o(1e-9)", 1e-9)):
            m = outputs[name]
            ref = math.log(oracle.green_origin(kappa))
            out.append((name, _rel_close(m.value, ref, 1e-9),
                        f"{m.value!r} ({m.method}) vs log G_ref(o) {ref!r}"))
        name = "second_moment_report(box 64, 1e-4)"
        r = outputs[name]
        ref = oracle.second_moment_sums(1e-4, 64, self.EPSILON)
        n = r.set_size
        sums_ok = all(_rel_close(r.class_sums[c], ref["sums"][c], 1e-8)
                      if ref["sums"][c] else r.class_sums[c] == 0.0
                      for c in ref["sums"])
        ok = (n == 64 * 64 and r.class_pair_counts == ref["counts"]
              and sum(r.class_pair_counts.values()) == n * (n - 1) and sums_ok
              and _rel_close(r.mu, ref["mu"], 1e-9)
              and _rel_close(r.u_eval, ref["u_eval"], 1e-9))
        out.append((name, ok, f"sums {r.class_sums} vs {ref['sums']}; "
                    f"counts {r.class_pair_counts}"))
        return out


def _clear_caches() -> None:
    """Empty every functools cache in loopsoup."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("loopsoup"):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


WORKLOADS = {"cover-massive": CoverMassive, "cover-dense": CoverDense,
             "soup-window": SoupWindow, "greens-laws": GreensLaws}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None, help="gzip JSONL file for the spans")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.probe_loopsoup(tracer)
        tracer.install()
    wl = WORKLOADS[args.workload]()
    wl.build()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    try:
        result = _run_rounds(wl, args, tracer)
    finally:
        wl.close()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def _run_rounds(wl: Workload, args, tracer) -> dict:
    """Whole rounds until --seconds have passed.  Every operation starts
    with loopsoup's caches empty, as in a fresh process.  When tracing, every
    operation runs twice in a row, untraced and traced (the order alternating
    by round), so the tracing overhead is measured on identical work."""
    ops = wl.ops()
    passes = (False,) if tracer is None else (False, True)
    first: dict = {}
    digests: dict = {}
    errors: dict = {}
    rounds = []
    t_phase = time.perf_counter()
    if tracer is not None:
        tracer.phase = "round"
    while True:
        order = list(range(len(ops)))
        random.Random(f"{args.seed}/{len(rounds)}").shuffle(order)
        busy = {False: 0.0, True: 0.0}
        items = 0
        for i in order:
            name, fn = ops[i]
            for traced in (passes if len(rounds) % 2 == 0 else passes[::-1]):
                if tracer is not None:
                    (tracer.install if traced else tracer.uninstall)()
                _clear_caches()
                t0 = time.perf_counter()
                try:
                    output, n, digest = fn()
                except Exception as exc:       # reported as a failed operation
                    busy[traced] += time.perf_counter() - t0
                    errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                    digests.setdefault(name, None)
                    continue
                busy[traced] += time.perf_counter() - t0
                items += n if not traced else 0
                if name not in digests:
                    first[name], digests[name] = output, digest
                elif digests[name] != digest:
                    errors.setdefault(name, "output differs from the first run of it")
        rounds.append({"seconds": busy[False], "traced_seconds": busy[True],
                       "items": items})
        if time.perf_counter() - t_phase >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracle
    problems = oracle.self_test()
    checks = [("oracle self-test", not problems, "; ".join(problems) or "passed")]
    if not errors:
        checks += wl.check(first)
    checks += [(name, False, msg) for name, msg in errors.items()]
    failed_ops = {name for name, ok, _ in checks
                  if not ok and name in wl.known_faults}
    correct = all(ok or name in wl.known_faults for name, ok, _ in checks)

    result = {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": len(ops) * len(rounds) * len(passes),
        "failed": len(failed_ops) * len(rounds) * len(passes),
        "correct": correct,
        "checks": [list(c) for c in checks],
        "peak_rss_mb": peak_rss_mb,
        "loopsoup": loopsoup.__file__,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(rounds))
        layers["trace.overhead_frac"] = (sum(r["traced_seconds"] for r in rounds)
                                         / sum(r["seconds"] for r in rounds)) - 1.0
        result["layers"] = layers
        if args.trace_out:
            tracer.dump(args.trace_out)
    return result


if __name__ == "__main__":
    sys.exit(main())
