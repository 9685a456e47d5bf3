import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopsoup import cli
from loopsoup.cover import ks_threshold


def _run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def _plot_ks(path) -> float:
    with open(path) as fh:
        rows = [r for r in csv.DictReader(fh) if r["kind"] == "ks"]
    assert len(rows) == 1
    return float(rows[0]["x"])


def test_covertime_artifacts_identical_across_workers(tmp_path, capsys):
    # 8192 replicas are two replica blocks, so two workers split the run
    out = {}
    for workers in (1, 2):
        d = tmp_path / f"w{workers}"
        assert _run("--seed", 3, "--workers", workers, "--out-dir", d,
                    "covertime", "--set", "box:2", "--kappa", 0.5,
                    "--replicas", 8192) == cli.EXIT_OK
        out[workers] = [(d / n).read_bytes()
                        for n in ("covertime.csv", "covertime.json")]
    assert out[1] == out[2]
    assert "np.float64(" not in capsys.readouterr().out


def test_trace_chain_artifacts_identical_across_workers(tmp_path, capsys):
    # 5000 replicas are two replica blocks; stdout names the sampler, the
    # artifacts do not
    out = {}
    for workers in (1, 2):
        d = tmp_path / f"w{workers}"
        assert _run("--seed", 24, "--workers", workers, "--out-dir", d,
                    "covertime", "--set", "box:3", "--kappa", 0.01,
                    "--replicas", 5000) == cli.EXIT_OK
        assert "sampler=trace" in capsys.readouterr().out
        out[workers] = [(d / n).read_bytes()
                        for n in ("covertime.csv", "covertime.json")]
    assert out[1] == out[2]
    meta = json.loads(out[1][1])
    assert meta["truncation_bias_rate"] == 0.0 and "sampler" not in meta
    assert "truncation_bias_bound" not in meta


def test_global_flag_env_default_matches_whole_tokens(tmp_path, monkeypatch):
    # an out-dir containing "--seed" is not a --seed flag
    monkeypatch.setenv("LOOPSOUP_SEED", "7")
    for argv, seed in ((["--out-dir", tmp_path / "--seed-runs"], 7),
                       (["--seed=2", "--out-dir", tmp_path / "flag"], 2)):
        assert _run(*argv, "covertime", "--set", "box:2", "--kappa", 0.5,
                    "--replicas", 64) == cli.EXIT_OK
        meta = json.loads((argv[-1] / "covertime.json").read_text())
        assert meta["seed"] == seed


def test_option_values_may_start_with_dash(tmp_path):
    blobs = []
    for window in (["--window=-3,-3,3,3"], ["--window", "-3,-3,3,3"]):
        path = tmp_path / f"loops{len(blobs)}.csv"
        assert _run("--seed", 5, "soup", "sample", "--kappa", 0.5, *window,
                    "--horizon", 2.0, "--out", path) == cli.EXIT_OK
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert _run("greens", "--kappa", 0.5, "--x", "-1,0") == cli.EXIT_OK


def test_soup_sample_csv_identical_for_same_seed(tmp_path):
    blobs = []
    for rep in range(2):
        path = tmp_path / f"loops{rep}.csv"
        assert _run("--seed", 5, "soup", "sample", "--kappa", 0.5,
                    "--window=-3,-3,3,3", "--horizon", 2.0,
                    "--out", path) == cli.EXIT_OK
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] and blobs[0].count(b"\n") > 1


def test_two_far_is_many_sep_of_two(tmp_path):
    # `example two-far` is `example many-sep --count 2` under its own
    # artifact names
    blobs = {}
    for which, extra in (("two-far", []), ("many-sep", ["--count", 2])):
        d = tmp_path / which
        rc = _run("--seed", 4, "--out-dir", d, "example", which, "--kappa", 1.0,
                  "--separation", 10, "--replicas", 2000, *extra)
        blobs[which] = [rc] + [(d / f"example_{which}{suffix}").read_bytes()
                               for suffix in (".csv", "_cover.csv", "_cover.json")]
    assert blobs["two-far"] == blobs["many-sep"]
    assert blobs["two-far"][0] == cli.EXIT_OK


def test_emit_plotdata_rescales_with_sidecar(tmp_path):
    # one point: mu T is exactly Exp(1), so exp1 holds at the KS distance's
    # 0.999 quantile; box:4 against the Gumbel limit law of mu T - log|A|
    # (raw cover times gave KS 0.949 here)
    for label, target, cdf, threshold in (
            ("pt", "points:(0,0)", "exp1", ks_threshold(4000)),
            ("box", "box:4", "gumbel", 0.1)):
        d = tmp_path / label
        assert _run("--seed", 1, "--out-dir", d, "covertime", "--set", target,
                    "--kappa", 0.5, "--replicas", 4000) == cli.EXIT_OK
        plot = d / "plot.csv"
        assert _run("emit-plotdata", "--ensemble", d / "covertime.csv",
                    "--cdf", cdf, "--out", plot) == cli.EXIT_OK
        assert _plot_ks(plot) <= threshold


def test_emit_plotdata_without_sidecar_is_config_error(tmp_path, capsys):
    d = tmp_path / "run"
    assert _run("--seed", 1, "--out-dir", d, "covertime", "--set", "box:2",
                "--kappa", 0.5, "--replicas", 64) == cli.EXIT_OK
    (d / "covertime.json").unlink()
    assert _run("emit-plotdata", "--ensemble", d / "covertime.csv",
                "--out", d / "plot.csv") == cli.EXIT_CONFIG
    assert "covertime.json" in capsys.readouterr().err
    assert not (d / "plot.csv").exists()


def test_emit_plotdata_with_bad_ensemble_is_config_error(tmp_path, capsys):
    # a valid sidecar next to a missing, columnless or empty CSV
    d = tmp_path / "run"
    assert _run("--seed", 1, "--out-dir", d, "covertime", "--set", "box:2",
                "--kappa", 0.5, "--replicas", 64) == cli.EXIT_OK
    csv_path = d / "covertime.csv"
    for text, cause in ((None, "FileNotFoundError"), ("t\n1.0\n", "KeyError"),
                        ("replica,cover_time\n", "need at least one sample"),
                        ("replica,cover_time\n0,nan\n1,2\n", "samples must be finite")):
        csv_path.unlink(missing_ok=True)
        if text is not None:
            csv_path.write_text(text)
        assert _run("emit-plotdata", "--ensemble", csv_path,
                    "--out", d / "plot.csv") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and cause in err, err
        assert not (d / "plot.csv").exists()


def test_series_truncation_exits_resource_ceiling(capsys):
    # at kappa = 1e-9 the length law needs more than 2^22 half-lengths, so
    # only the trace chain is left, and box:64 is over its setup budget
    assert _run("covertime", "--set", "box:64", "--kappa", "1e-9",
                "--replicas", 4) == cli.EXIT_CEILING
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("resource ceiling:")
    assert "trace setup" in err[0] and "length truncation" in err[0]


def test_small_kappa_runs_on_the_trace_chain(capsys):
    # past the length law's ceiling a set within the trace budget is exact
    assert _run("covertime", "--kappa", "2e-6", "--set", "box:4",
                "--replicas", 8) == cli.EXIT_OK
    assert "sampler=trace" in capsys.readouterr().out


def test_unsamplable_soup_horizon_exits_resource_ceiling(capsys):
    # a finite horizon whose loop count no soup could hold is refused up front
    assert _run("soup", "sample", "--kappa", 0.5, "--window", "0,0,1,1",
                "--horizon", 1e300) == cli.EXIT_CEILING
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("resource ceiling:")


def test_greens_at_tiny_kappa(capsys):
    assert _run("greens", "--kappa", "1e-9") == cli.EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    mu = [float(r[4]) for r in rows if r[0] == "mu-origin-loops"]
    assert len(mu) == 1 and abs(mu[0] - 2.0411681705747884) <= 1e-12


def test_laws_pair_prints_the_csv_it_writes(tmp_path, capsys):
    # like greens, stdout starts with the header and is the CSV itself
    assert _run("--out-dir", tmp_path, "laws", "pair", "--kappa", "0.5,0.1",
                "--x", "1,0", "--u", 1) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "quantity,kappa,x1,x2,value,error_bound"
    assert out == (tmp_path / "laws_pair.csv").read_text()


def test_verify_bounds_at_tiny_kappa_skips_series(capsys):
    # the walk series would need ~1e11 half-lengths, past its 2^28 ceiling
    assert _run("verify", "bounds", "--kappa-grid", "1e-9",
                "--radius", 4) == cli.EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    cross = [r for r in rows if r[0] == "greens-series-cross-check"]
    assert len(cross) == 1 and cross[0][1] == "hypothesis-not-met"
    assert cross[0][3] == "rhs=268435456"


def _quick_seen(monkeypatch, *argv) -> bool:
    """args.quick as a subcommand receives it."""
    seen = []
    monkeypatch.setattr(cli, "cmd_greens",
                        lambda args: seen.append(args.quick) or cli.EXIT_OK)
    assert _run(*argv, "greens", "--kappa", 0.5) == cli.EXIT_OK
    return seen[0]


def test_quick_from_environment_and_config(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    monkeypatch.delenv("LOOPSOUP_QUICK", raising=False)
    assert _quick_seen(monkeypatch) is False
    for value, want in (("1", True), ("yes", True), ("TRUE", True),
                        ("0", False), ("no", False), ("false", False)):
        monkeypatch.setenv("LOOPSOUP_QUICK", value)
        assert _quick_seen(monkeypatch) is want
        monkeypatch.delenv("LOOPSOUP_QUICK")
        cfg.write_text(f"quick = {value}\n")
        assert _quick_seen(monkeypatch, "--config", cfg) is want
    # the environment overrides the file, and the flag overrides both
    monkeypatch.setenv("LOOPSOUP_QUICK", "no")
    cfg.write_text("quick = yes\n")
    assert _quick_seen(monkeypatch, "--config", cfg) is False
    assert _quick_seen(monkeypatch, "--config", cfg, "--quick") is True


def test_bad_quick_value_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOOPSOUP_QUICK", "maybe")
    assert _run("greens", "--kappa", 0.5) == cli.EXIT_CONFIG
    assert "maybe" in capsys.readouterr().err
    monkeypatch.delenv("LOOPSOUP_QUICK")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quick = 2\n")
    assert _run("--config", cfg, "greens", "--kappa", 0.5) == cli.EXIT_CONFIG
    assert "'2'" in capsys.readouterr().err


def test_resolved_epsilon_outside_its_domain_is_config_error(capsys):
    # auto100 = 1/(100 mu) passes 1 near kappa = 16.2; an epsilon spec is
    # an argument, whether explicit or resolved
    assert _run("laws", "second-moment", "--kappa", 20, "--box", 4) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.strip() == \
        "config error: epsilon auto100 = 1.42241 must lie in (0, 1)"
    assert _run("laws", "second-moment", "--kappa", 15, "--box", 4) == cli.EXIT_OK


def test_second_moment_at_large_kappa_gives_a_verdict(capsys):
    # |A|^(1/mu) passes the float range from kappa ~ 30 on small boxes: b3
    # is then inf, and the report still runs
    assert _run("laws", "second-moment", "--kappa", 1000, "--box", 2,
                "--epsilon", 0.5) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert "pair classes" in capsys.readouterr().out


def test_gumbel_scan_writes_plotdata_without_rate_bound(tmp_path, capsys):
    assert _run("--out-dir", tmp_path, "gumbel-scan", "--boxes", "2,3",
                "--replicas", 200) == cli.EXIT_OK
    assert (tmp_path / "gumbel_plotdata.csv").is_file()
    assert "rate_bound" not in capsys.readouterr().out


def test_errors_outside_parsing_are_not_config_errors(tmp_path, monkeypatch, capsys):
    # a ValueError raised by a subcommand's computation is no config error
    def fail(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(cli.CoverEngine, "ensemble", fail)
    assert _run("covertime", "--set", "box:2", "--kappa", 0.5,
                "--replicas", 4) == cli.EXIT_ERROR
    assert capsys.readouterr().err.strip() == "error: ValueError: injected"
    # bad set and epsilon specs, flag defaults and config files still are
    for argv in (("covertime", "--set", "box:x", "--kappa", 0.5, "--replicas", 4),
                 ("laws", "second-moment", "--kappa", 0.5, "--box", 2,
                  "--epsilon", "2"),
                 ("--config", tmp_path / "missing.cfg", "greens", "--kappa", 0.5)):
        assert _run(*argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
    monkeypatch.setenv("LOOPSOUP_SEED", "seven")
    assert _run("greens", "--kappa", 0.5) == cli.EXIT_CONFIG
    monkeypatch.setenv("LOOPSOUP_SEED", "7")
    monkeypatch.setenv("LOOPSOUP_WORKERS", "0")   # checked as --workers is
    assert _run("greens", "--kappa", 0.5) == cli.EXIT_CONFIG
    assert "workers: expected int >= 1" in capsys.readouterr().err
    monkeypatch.setenv("LOOPSOUP_WORKERS", "1")
    monkeypatch.setenv("LOOPSOUP_SEED", "-3")
    assert _run("greens", "--kappa", 0.5) == cli.EXIT_CONFIG
    assert "seed: expected int >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("covertime", "--set", "box:2", "--kappa", 0, "--replicas", 4), "--kappa"),
    (("covertime", "--set", "box:2", "--kappa", -1, "--replicas", 4), "--kappa"),
    (("covertime", "--set", "box:2", "--kappa", 0.5, "--replicas", 0), "--replicas"),
    (("example", "many-sep", "--count", 0), "--count"),
    (("gumbel-scan", "--replicas", 0), "--replicas"),
    (("verify", "bounds", "--kappa-grid", 0.5, "--radius", 0), "--radius"),
    (("soup", "sample", "--kappa", 0.5, "--window", "0,0,1,1", "--horizon", -1),
     "--horizon"),
    (("soup", "sample", "--kappa", 0.5, "--window", "0,0,1,1", "--horizon", 1,
      "--tail-tol", 0), "--tail-tol"),
    (("greens", "--kappa", -1), "--kappa"),
    (("laws", "pair", "--kappa", 0.5, "--x", "1,0", "--u", -1), "--u"),
    (("laws", "second-moment", "--kappa", 0.5, "--box", 0), "--box"),
    (("laws", "second-moment", "--kappa", 0.5, "--box", 3000), "--box"),
    (("--seed", -1, "greens", "--kappa", 0.5), "--seed"),
    (("covertime", "--set", "box:2", "--kappa", 0.5, "--replicas", 4,
      "--work-guard", "nan"), "--work-guard"),
    (("gumbel-scan", "--work-guard", 0), "--work-guard"),
    (("verify", "bounds", "--kappa-grid", 0.5, "--radius", 4095), "--radius"),
    (("covertime", "--set", "box:2", "--kappa", 1e9, "--replicas", 4), "--kappa"),
    (("greens", "--kappa", "0.5,1e200"), "--kappa"),
    (("verify", "appendix", "--n-max", 1001), "--n-max"),
    (("soup", "sample", "--kappa", 0.5, "--window", "3,3,0,0", "--horizon", 1),
     "--window"),
    (("soup", "sample", "--kappa", 0.5, "--window", f"0,0,1,{2 ** 31}",
      "--horizon", 1), "--window"),
    (("laws", "pair", "--kappa", 0.5, "--x", "0,0", "--u", 1), "--x"),
    (("laws", "pair", "--kappa", 0.5, "--x", "1,0,2", "--u", 1), "--x"),
    (("laws", "pair", "--kappa", 0.5, "--x", f"{2 ** 30 + 1},0", "--u", 1), "--x"),
    (("greens", "--kappa", 0.5, "--x", "1"), "--x"),
    (("greens", "--kappa", 0.5, "--x", "a,b"), "--x"),
    (("greens", "--kappa", 0.5, "--x", "3000000000000000000000,0"), "--x"),
    (("greens", "--kappa", 0.5, "--x", "1073741825,0"), "--x"),
    (("gumbel-scan", "--boxes", "8,5000"), "--boxes"),
])
def test_argument_domains_are_parse_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(*argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flag}:" in capsys.readouterr().err


def test_documented_limits_exit_with_their_codes(capsys):
    # the pair-sum guard is a resource ceiling, and box:256 lies within it
    assert _run("laws", "second-moment", "--kappa", 0.5,
                "--box", 256) == cli.EXIT_OK
    capsys.readouterr()
    assert _run("laws", "second-moment", "--kappa", 0.5,
                "--box", 257) == cli.EXIT_CEILING
    assert capsys.readouterr().err.strip() == \
        "resource ceiling: |A| = 66049 exceeds the pair-sum guard 65536"
    # the series cross-check's work guard refuses before any table is built
    assert _run("verify", "bounds", "--kappa-grid", 1e-4,
                "--radius", 4094) == cli.EXIT_CEILING
    assert "gram products" in capsys.readouterr().err
    # a rejected set spec names its cause before the grammar
    for spec, cause in (("box:3000", "side must lie in [1, 2048]"),
                        ("points:(0,0);(0,0)", "duplicate points")):
        assert _run("covertime", "--set", spec, "--kappa", 0.5,
                    "--replicas", 4) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad set spec {spec!r}: {cause}; "
                              f"grammar: box:<n> |"), err


@pytest.mark.parametrize("which, args", [
    ("many-sep", ("--separation", 11)),                  # odd
    ("two-far", ("--separation", 11)),
    ("many-sep", ("--separation", -4)),                  # below 10 kappa^-2
    ("many-sep", ("--count", 3, "--separation", 2 ** 30)),   # past the line bound
    ("many-sep", ("--separation", "9" * 25)),
])
def test_example_arguments_exit_config(which, args, capsys):
    # an example's set goes through make_target's line:<k>x<sep>, so a bad
    # separation or count is an argument error (a parse error or a
    # ConfigError), not a fault in the program
    try:
        code = _run("example", which, "--kappa", 1, *args, "--replicas", 10)
    except SystemExit as exc:
        code = exc.code
    assert code == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("which, args", [
    ("two-far", ("--count", 5)),
    ("neighbors", ("--kappa", 1)),
    ("many-sep", ("--kappa-grid", "0.5,0.1")),
])
def test_example_rejects_options_it_does_not_take(which, args, capsys):
    # an option the example does not use is an argument error, not ignored
    with pytest.raises(SystemExit) as exc:
        _run("example", which, *args, "--replicas", 10)
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {args[0]}" in capsys.readouterr().err


def test_line_bound_is_checked_before_building():
    # 10^8 points would take gigabytes; the child's address space is capped
    # so that building them fails with a MemoryError (exit 4), not a slow
    # death, where the bound is missing
    import resource
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "loopsoup", "covertime", "--set", "line:100000000x1",
         "--kappa", "0.5", "--replicas", "1"], env=env, capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: bad set spec 'line:100000000x1'")


def test_examples_run_under_the_work_guard(capsys):
    # 10^6 points 10 apart pass every bound but would keep the ring engine
    # busy for hours; the examples run under cover.WORK_GUARD
    assert _run("example", "many-sep", "--kappa", 1, "--count", 1_000_000,
                "--separation", 10) == cli.EXIT_CEILING
    assert capsys.readouterr().err.startswith("resource ceiling: estimated work")


def test_verify_all_does_not_load_scipy_stats():
    # importing scipy.stats takes about a second, more than the whole
    # quick suite; the length-law p-value comes from scipy.special
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    code = ("import sys; from loopsoup import cli; "
            "code = cli.main(['--seed', '1', '--quick', 'verify', 'all']); "
            "print(code, 'scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False"


def test_python_m_loopsoup():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "loopsoup", "--help"], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.startswith("usage: loopsoup")
