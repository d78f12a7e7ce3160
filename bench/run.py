#!/usr/bin/env python3
"""Benchmark of the ``diskmod`` CLI on seeded, generated problem files.

Usage, from the root of the repository::

    python3 bench/run.py --workload corona-hard --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one client, one invocation at a time, in process):

* ``corona-hard``: ``diskmod corona`` on two-module files; certification and
  scalar ``HoloFun.eval`` do the work.
* ``field-grid``: ``diskmod curvature`` and ``diskmod decide`` on grids of
  1e4-1e5 points; array evaluation, the Laplacian and the CSV writer.
* ``verify-oracle``: ``diskmod verify`` with oracle degrees 120-300; QR and
  SVD truncations and the finite-difference probe.

``--trace 0`` runs the corpus twice, in order, calling ``diskmod.cli.main``
for each file, and prints the end-to-end metrics.  Times are each file's best
of its two runs, scaled by the host speed factor of ``StartupProbe``: on a
shared host, other tenants' load slows everything for seconds to minutes at a
time by up to 50%.  The best of two runs half a minute apart removes the short
bursts; the factor removes most of the slow drift between runs.  The corpus
sizes make the two passes take about 30 s on a 2-core x86_64 host;
``--seconds`` bounds only the traced run.  Every output is checked against the
outcome fixed by the problem's construction (see ``corpus.py`` and
``checks.py``), and the second run of each file must repeat the first byte for
byte, ``timing`` block aside.

``--trace 1`` runs each problem once with the tracing shim of ``tracing.py``
installed and once without, until ``--seconds`` have passed, and prints
per-layer metrics per traced invocation.  Human-readable lines come first; the
last line of standard output is one JSON object.  The full record, spans
included, is written under ``.bench_work/``.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings on a shared machine; recorded below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SAMPLES = 15
SAMPLE_EVERY_S = 1.5
# numpy import time of the host that reported times are scaled to (see StartupProbe)
REFERENCE_S = 0.15
PASSES = 2
PROCESS_TIMEOUT = 60

WARMUP_PROBLEM = """[moduleA]
base = hardy
theta1 = poly:[1]
theta2 = poly:[0,0.5]

[moduleB]
base = bergman
theta1 = poly:[2,1]
theta2 = poly:[0,2,1]

[grid]
r_max = 0.8
n_r = 24
n_theta = 48
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(diskmod):
    nproc = os.cpu_count()
    blas = _blas_threads()
    if blas is not None and nproc is not None and blas > nproc:
        raise SystemExit(f"BLAS uses {blas} threads on {nproc} processors")
    return {
        "nproc": nproc,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "diskmod": diskmod.__version__,
        "git_commit": _git_commit(),
    }


class StartupProbe:
    """Fresh-process start-up times, sampled through the run.

    Each sample times ``python -m diskmod.cli --version`` (``setup_s``) and
    ``python -c "import numpy"``, which runs no code of this repository and so
    measures the host alone.  A shared host changes speed by up to 50% from
    one minute to the next (other tenants' load), moving every timing of a
    run together; reported times are therefore multiplied by ``factor()``,
    which scales them to a host on which the numpy import takes REFERENCE_S.
    Raw times are printed and recorded too.  Samples are taken one every
    SAMPLE_EVERY_S between invocations, topped up to SAMPLES, and their
    medians used.
    """

    def __init__(self, version):
        self.version = version
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.setup = []
        self.reference = []
        self._next = 0.0

    def _run(self, *argv):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
        )
        return time.perf_counter() - t0, proc

    def sample(self):
        dt, _ = self._run("-c", "import numpy")
        self.reference.append(dt)
        dt, proc = self._run("-m", "diskmod.cli", "--version")
        if proc.returncode != 0 or proc.stdout.strip() != self.version:
            raise SystemExit(f"diskmod --version failed: {proc.returncode} {proc.stderr!r}")
        self.setup.append(dt)
        self._next = time.perf_counter() + SAMPLE_EVERY_S

    def maybe_sample(self):
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self):
        while len(self.setup) < SAMPLES:
            self.sample()
        return REFERENCE_S / statistics.median(self.reference)


# ---------------------------------------------------------------------------
# one invocation

class Runner:
    """Runs problems through ``diskmod.cli.main`` and checks what comes out."""

    def __init__(self, cli, problems, workdir, seed):
        self.cli = cli
        self.problems = problems
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.report_path = str(workdir / "report.json")
        self.csv_path = str(workdir / "field.csv")
        self.first = {}  # problem index -> (exit, canonical report, csv digest, class)
        self.eps_ratio = {}  # (problem index, module) -> epsilon / sampled min
        self.errors = []
        for p in problems:
            (workdir / f"{p.name}.spec").write_text(p.text(), encoding="ascii")

    def argv(self, p):
        out = self.csv_path if p.command == "curvature" else self.report_path
        return [p.command, str(self.workdir / f"{p.name}.spec"), "--out", out]

    def call(self, argv):
        """(exit code, stdout, seconds, crash) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        except Exception:  # a crash is a wrong output, recorded with its traceback
            code = None
            crash = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        return code, out.getvalue(), dt, crash

    def run(self, i):
        """Run problem i once; returns (seconds, class) with class ok/gave_up/wrong."""
        p = self.problems[i]
        for path in (self.report_path, self.csv_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        code, stdout, dt, crash = self.call(self.argv(p))
        if crash is not None:
            return dt, self._wrong(p, [f"crash: {crash}"])
        try:
            report_text, csv_digest, csv_data = self._outputs(p, stdout)
        except (OSError, ValueError, KeyError) as exc:
            return dt, self._wrong(p, [f"unreadable output: {exc!r}"])
        if i in self.first:
            code0, report0, digest0, cls0 = self.first[i]
            if (code, report_text, csv_digest) != (code0, report0, digest0):
                return dt, self._wrong(p, ["output differs from the first run of this problem"])
            return dt, cls0
        errors, gave_up = self._check(i, p, code, report_text, csv_data)
        cls = "wrong" if errors else ("gave_up" if gave_up else "ok")
        if errors:
            self._wrong(p, errors)
        self.first[i] = (code, report_text, csv_digest, cls)
        return dt, cls

    def _wrong(self, p, messages):
        self.errors.append({"problem": p.name, "family": p.family, "errors": messages})
        return "wrong"

    def _outputs(self, p, stdout):
        if p.command == "curvature":
            start = stdout.find("\n{")
            report = stdout[start + 1:] if start >= 0 else "{}"
            csv_data = b""
            if os.path.exists(self.csv_path):
                with open(self.csv_path, "rb") as fh:
                    csv_data = fh.read()
            return checks.strip_timing(report), hashlib.sha256(csv_data).hexdigest(), csv_data
        if not os.path.exists(self.report_path):
            return "{}", None, None
        with open(self.report_path, encoding="ascii") as fh:
            return checks.strip_timing(fh.read()), None, None

    def _check(self, i, p, code, report_text, csv_data):
        report = json.loads(report_text)
        eps = {}
        errors = checks.check_certificates(report, p.min_u, eps)
        if p.command == "corona":
            more, gave_up = checks.classify_corona(p, code, report)
        elif p.command == "decide":
            more, gave_up = checks.classify_decide(p, code, report)
        elif p.command == "verify":
            more, gave_up = checks.classify_verify(p, code, report)
        else:
            gave_up = False
            more = [] if code == 0 else [f"exit code {code}, expected 0"]
            if not more:
                more = checks.check_csv(p, csv_data, report, self.rng)
        errors += more
        for name, value in eps.items():
            self.eps_ratio[(i, name)] = value / p.min_u[name]
        return errors, gave_up


# ---------------------------------------------------------------------------
# the two modes

def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics instead of one or two of
    them.  On a shared machine single invocations jitter by about 20%; a p90
    read from one order statistic varied twice as much across runs as this.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    edges = np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1])
    return float(np.diff(edges) @ x)


def timed_loop(runner, probe):
    """PASSES whole passes over the corpus; returns per-problem times and classes."""
    n = len(runner.problems)
    times = [[] for _ in range(n)]
    classes = []
    start = time.perf_counter()
    for _ in range(PASSES):
        for i in range(n):
            dt, cls = runner.run(i)
            times[i].append(dt)
            classes.append(cls)
            probe.maybe_sample()
    return times, classes, time.perf_counter() - start


def end_to_end(runner, probe):
    raw, classes, wall = timed_loop(runner, probe)
    f = probe.factor()
    best_raw = [min(t) for t in raw]
    best = [b * f for b in best_raw]
    setup_raw = statistics.median(probe.setup)
    n = len(classes)
    counts = {c: classes.count(c) for c in ("ok", "gave_up", "wrong")}
    ratios = list(runner.eps_ratio.values())
    metrics = {
        "setup_s": (setup_raw * f, "s"),
        "problems_per_s": (len(best) / sum(best), "1/s"),
        "problem_s.p50": (hd_quantile(best, 0.5), "s"),
        "problem_s.p90": (hd_quantile(best, 0.9), "s"),
        "solved_share": (counts["ok"] / n, "ratio"),
        "epsilon_tightness": (checks.geometric_mean(ratios) if ratios else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = metrics["problem_s.p90"][0]
    cli_raw = sum(map(sum, raw))
    lines = [
        f"host speed factor {f:.4f} = {REFERENCE_S} s / {statistics.median(probe.reference):.4f} s "
        f"(median numpy import of {len(probe.reference)} fresh processes); times below are "
        "raw times x factor",
        f"setup_s = {metrics['setup_s'][0]:.6g} s (raw median {setup_raw:.6g} s of "
        f"{len(probe.setup)} fresh processes)",
        f"problems_per_s = {metrics['problems_per_s'][0]:.6g} 1/s ({len(best)} files, best of "
        f"{PASSES} invocations each; raw {len(best) / sum(best_raw):.6g} 1/s; {n} invocations, "
        f"{cli_raw:.3f} s inside the CLI, {wall:.3f} s wall)",
        f"problem_s.p50 = {metrics['problem_s.p50'][0]:.6g} s (over {len(best)} best-of-{PASSES} "
        f"times; raw {hd_quantile(best_raw, 0.5):.6g} s)",
        f"problem_s.p90 = {p90:.6g} s (over {len(best)} best-of-{PASSES} times; raw "
        f"{hd_quantile(best_raw, 0.9):.6g} s; {sum(PASSES for b in best if b > p90)} "
        "invocations of files beyond it)",
        f"failed_share = {n - counts['ok']}/{n} = {(n - counts['ok']) / n:.6g} "
        f"(gave up {counts['gave_up']}, wrong {counts['wrong']})",
        f"solved_share = {counts['ok']}/{n} = {metrics['solved_share'][0]:.6g} ratio",
        f"epsilon_tightness = {metrics['epsilon_tightness'][0]:.6g} ratio "
        f"(geometric mean of epsilon / sampled min u over {len(ratios)} certified modules)",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB (this process)",
    ]
    detail = {
        "host_speed_factor": f,
        "setup_s_samples": probe.setup,
        "numpy_import_s_samples": probe.reference,
        "invocations": n, "classes": counts, "wall_s": wall, "raw_times_s": raw,
        "epsilon_ratios": [
            {"problem": runner.problems[i].name, "family": runner.problems[i].family,
             "module": name, "ratio": r}
            for (i, name), r in sorted(runner.eps_ratio.items())
        ],
    }
    return metrics, counts["wrong"], n, lines, detail


def traced(runner, seconds, diskmod):
    tracer = tracing.Tracer(diskmod)
    n = len(runner.problems)
    t_traced, t_plain, classes = [], [], []
    hits = misses = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        h0, m0 = tracer.derivative_cache()
        tracer.invocation = i
        tracer.install()
        try:
            dt, cls = runner.run(i % n)
        finally:
            tracer.uninstall()
        h1, m1 = tracer.derivative_cache()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        t_traced.append(dt)
        classes.append(cls)
        dt, cls = runner.run(i % n)
        t_plain.append(dt)
        classes.append(cls)
        i += 1

    k = len(t_traced)
    total = sum(t_traced)
    x = tracer.extra
    layer_self = tracer.layer_self_seconds()
    certify_calls = tracer.calls("corona.certify")
    boxes = x["corona.boxes"]

    def per(v):
        return v / k

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "corona.certify.s": (per(tracer.inclusive("corona.certify")), "s/inv"),
        "corona.certify.calls": (per(certify_calls), "count/inv"),
        "corona.boxes": (per(boxes), "count/inv"),
        "corona.boxes_per_s": (ratio(boxes, x["corona.certified_s"]), "1/s"),
        "corona.eval_calls_per_box": (ratio(x["corona.certified_eval_calls"], boxes), "count/box"),
        "corona.outcome.certified": (ratio(x["corona.outcome.certified"], certify_calls), "ratio"),
        "corona.outcome.corona_failure":
            (ratio(x["corona.outcome.corona_failure"], certify_calls), "ratio"),
        "corona.outcome.depth_exceeded":
            (ratio(x["corona.outcome.depth_exceeded"], certify_calls), "ratio"),
        "holofun.eval.calls": (per(tracer.calls("holofun.HoloFun.eval")), "count/inv"),
        "holofun.eval.points": (per(x["holofun.eval.points"]), "count/inv"),
        "holofun.eval.s": (per(tracer.inclusive("holofun.HoloFun.eval")), "s/inv"),
        "holofun.derivative.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "holofun.polynomial_roots.calls": (per(tracer.calls("holofun.polynomial_roots")), "count/inv"),
        "holofun.polynomial_roots.s": (per(tracer.inclusive("holofun.polynomial_roots")), "s/inv"),
        "curvature.laplacian_log_sumsq.s":
            (per(tracer.inclusive("curvature.laplacian_log_sumsq")), "s/inv"),
        "curvature.laplacian_log_sumsq.points":
            (per(x["curvature.laplacian_log_sumsq.points"]), "count/inv"),
        "curvature.curvature_field.s": (per(tracer.inclusive("curvature.curvature_field")), "s/inv"),
        "curvature.to_csv.s": (per(tracer.inclusive("curvature.CurvatureField.to_csv")), "s/inv"),
        "curvature.to_csv.bytes": (per(x["curvature.to_csv.bytes"]), "B/inv"),
        "curvature.fd_laplacian.calls": (per(tracer.calls("curvature.fd_laplacian")), "count/inv"),
        "curvature.fd_laplacian.s": (per(tracer.inclusive("curvature.fd_laplacian")), "s/inv"),
        "rkhs.base_curvature.s": (per(tracer.inclusive("rkhs.base_curvature")), "s/inv"),
        "rkhs.kernel_eval.calls": (per(tracer.calls("rkhs.kernel_eval")), "count/inv"),
        "equivalence.decide.s":
            (per(tracer.inclusive("equivalence.decide_equivalence")), "s/inv"),
        "equivalence.decide.grid_points": (per(x["equivalence.decide.grid_points"]), "count/inv"),
        "equivalence.lemma46_probe.s":
            (per(tracer.inclusive("equivalence.lemma46_probe")), "s/inv"),
        "equivalence.lemma46_probe.calls":
            (per(tracer.calls("equivalence.lemma46_probe")), "count/inv"),
        "oracle.dim_ker_estimate.s": (per(tracer.inclusive("oracle.dim_ker_estimate")), "s/inv"),
        "oracle.dim_ker_estimate.calls":
            (per(tracer.calls("oracle.dim_ker_estimate")), "count/inv"),
        "oracle.dim_ker_estimate.flops_computed":
            (per(x["oracle.dim_ker_estimate.flops_computed"]), "flop/inv"),
        "oracle.oracle_curvature.s": (per(tracer.inclusive("oracle.oracle_curvature")), "s/inv"),
        "oracle.multiplier_min_sv.s":
            (per(tracer.inclusive("oracle.multiplier_min_singular_value")), "s/inv"),
        "oracle.eigenvector_residual.s":
            (per(tracer.inclusive("oracle.eigenvector_residual")), "s/inv"),
        "oracle.build_multiplier.calls": (per(tracer.calls("oracle.build_multiplier")), "count/inv"),
        "cli.parse_problem.s": (per(tracer.inclusive("cli.parse_problem")), "s/inv"),
        "cli.main.self_s":
            (per(layer_self["cli"] - tracer.self_seconds("cli.parse_problem")), "s/inv"),
    }
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = (per(value), "s/inv")
    for group in tracing.GROUPS:
        m[f"share.{group}"] = (ratio(x[f"group.{group}"], total), "ratio")
    m["trace.invocations"] = (k, "count")
    m["trace.spans_per_inv"] = (per(len(tracer.spans)), "count/inv")
    m["trace.problems_per_s"] = (k / total, "1/s")
    m["trace.untraced_problems_per_s"] = (k / sum(t_plain), "1/s")
    m["trace.overhead"] = (total / sum(t_plain) - 1.0, "ratio")

    lines = [
        f"traced {k} invocations ({total:.3f} s) and the same {k} untraced "
        f"({sum(t_plain):.3f} s): tracing overhead {m['trace.overhead'][0]:.3%} "
        f"of untraced time",
        f"shares of traced time: " + ", ".join(
            f"{g} {m[f'share.{g}'][0]:.1%}" for g in tracing.GROUPS),
        "layer self time per invocation: " + ", ".join(
            f"{layer} {value / k:.4g} s" for layer, value in layer_self.items()),
    ]
    detail = {
        "functions": tracer.function_table(),
        "spans": tracer.spans,
        "span_fields": ["id", "parent", "layer", "name", "invocation", "start", "end"],
        "derivative_cache": {"hits": hits, "misses": misses},
    }
    return m, classes.count("wrong"), 2 * k, lines, detail


# ---------------------------------------------------------------------------

def summarize_params(problems):
    """Per family: how many files and the range of each numeric parameter.

    For two-module corona files only the main module's parameters count."""
    out = {}
    for p in problems:
        fam = out.setdefault(p.family, {"count": 0, "ranges": {}})
        fam["count"] += 1
        params = p.params[p.params["main"]] if "main" in p.params else p.params
        for key, v in params.items():
            mag = abs(complex(*v)) if isinstance(v, list) else v
            lo, hi = fam["ranges"].get(key, (mag, mag))
            fam["ranges"][key] = (min(lo, mag), max(hi, mag))
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diskmod" / "__init__.py").is_file():
        print(f"error: no diskmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diskmod
    import diskmod.cli

    if args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment(diskmod)
    problems = corpus.WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(diskmod.cli, problems, workdir, args.seed)

    warm = workdir / "warmup.spec"
    warm.write_text(WARMUP_PROBLEM, encoding="ascii")
    for command in sorted({p.command for p in problems}):
        runner.call([command, str(warm), "--out", str(workdir / "warmup.out")])

    if args.trace:
        metrics, wrong, attempted, lines, detail = traced(runner, args.seconds, diskmod)
    else:
        probe = StartupProbe(diskmod.__version__)
        metrics, wrong, attempted, lines, detail = end_to_end(runner, probe)

    families = summarize_params(problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "corpus": {"files": len(problems), "families": families,
                   "problems": [{"name": p.name, "family": p.family, "command": p.command,
                                 "params": p.params} for p in problems]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": runner.errors,
        **detail,
    }
    with open(workdir / "result.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, default=str)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, {len(problems)} files, "
          f"{attempted} invocations ({'traced run' if args.trace else 'closed loop, 1 client'})")
    for fam, data in families.items():
        ranges = ", ".join(f"{k} {lo:.4g}-{hi:.4g}" for k, (lo, hi) in sorted(data["ranges"].items()))
        print(f"  family {fam}: {data['count']} files; {ranges}")
    for line in lines:
        print(line)
    for err in runner.errors[:10]:
        print(f"WRONG {err['problem']} ({err['family']}): {'; '.join(err['errors'])}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
