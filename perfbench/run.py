#!/usr/bin/env python3
"""The bwv benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each exists):

* ``exact-k5``      ``bwv verify exact`` at the default max_k=5, serial;
* ``moments-cold``  matM(k), matN(k) for k <= 3 and matOmega(2, u) at 20
                    digits from an empty cache, u drawn from the seed;
* ``numeric-warm``  ``bwv verify numeric --max-k 2 --digits 30`` against a
                    copy of a cache filled by one cold run of that command;
* ``kernel``        ``besselnum.bessel`` for I0, K0 and K1 at seed-drawn t
                    in [0.05, 300] and digits in {30, 50, 100}.

Each workload is a closed loop with one client: the next invocation starts
when the previous one has ended, each in a fresh child process with its own
BWV_CACHE under ``.bench_build/perfbench``.  Invocations go on while the
next one is expected to end within ``--seconds``; there is always at least
one.  With ``--trace 0`` the last line of output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced invocations alternate, and
the last line holds the per-layer metrics.  Every output is checked and a
wrong one makes the exit code 1.  The user's moment cache is hashed before
and after the run and must not change.

The cold cache for ``numeric-warm`` takes minutes to fill, so it is built
once per source tree (keyed by a hash of ``src/``) in
``.bench_build/perfbench`` by the first run in a checkout, whatever its
workload.  ``--out FILE`` also writes the full record (environment stamp,
metrics, per-invocation samples) for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from summary import describe, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 6
CHILD_TIMEOUT_S = 150
FIXTURE_TIMEOUT_S = 800
RUN_BUDGET_S = 150

NUMERIC_ARGV = ["verify", "numeric", "--max-k", "2", "--digits", "30"]
MOMENT_DIGITS = 20
MOMENT_MAX_K = 3
KERNEL_KINDS = ("I0", "K0", "K1")
KERNEL_DIGITS = (30, 50, 100)
KERNEL_T_RANGE = (0.05, 300.0)
KERNEL_CALLS_PER_COMBO = 24
T_BUCKETS = (("lt1", 1.0), ("1to10", 10.0), ("10to100", 100.0),
             ("100to300", math.inf))
MATRIX_BUILDERS = ("matM", "matN", "matMring", "matNring", "matOmega",
                   "matomega")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "margin_digits.min": "digits",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"besselnum.bessel_us.{k}.{b}.d{d}": "us"
       for k in KERNEL_KINDS for b, _ in T_BUCKETS for d in KERNEL_DIGITS},
    "besselnum.bessel_us.p50": "us",
    "besselnum.bessel_us.p90": "us",
    "besselnum.moment.calls": "count",
    "besselnum.moment.computed": "count",
    "besselnum.moment.compute_ms.p50": "ms",
    "besselnum.moment.compute_ms.max": "ms",
    "besselnum.moment.self_s": "s",
    "besselnum.moment.hit_ratio": "frac",
    "besselnum.cache.load_ms": "ms",
    "besselnum.cache.appended": "count",
    "besselnum.cache.bytes": "bytes",
    "besselnum.matrix.self_s": "s",
    "exactalg.exact_inverse.calls": "count",
    "exactalg.exact_inverse.self_s": "s",
    "exactalg.exact_det.calls": "count",
    "exactalg.exact_det.self_s": "s",
    "exactalg.self_s": "s",
    "vanhove.vanhove_operator.self_s": "s",
    "vanhove.verify_verrill_recursion.self_s": "s",
    "vanhove.verify_bms_duality.self_s": "s",
    "vanhove.self_s": "s",
    "brmatrices.derham_alternatives.self_s": "s",
    "brmatrices.verify_block_identities.self_s": "s",
    "brmatrices.memo.hit_ratio": "frac",
    "brmatrices.self_s": "s",
    "harness.checks": "count",
    "harness.self_s": "s",
    "harness.cold_warm_residual_mismatch": "count",
    "cli.startup_ms": "ms",
    "trace.overhead_frac": "frac",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment and child processes
# ---------------------------------------------------------------------------

def file_sha256(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def user_cache_path() -> Path:
    env = os.environ.get("BWV_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "bwv" / "moments.jsonl"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def count_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


class Scratch:
    """Per-run directory for caches, requests, results and reports."""

    def __init__(self):
        self.dir = WORK / "runs" / str(os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0

    def fresh(self) -> Path:
        self.count += 1
        path = self.dir / str(self.count)
        path.mkdir()
        return path

    def remove(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def spawn(request: dict, workdir: Path, seed_cache: Path = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run child.py on one request with BWV_CACHE in ``workdir`` (a copy
    of ``seed_cache``, or empty).  Adds the parent-side wall time (spawn to
    end of work), start-up time, exit time and the cache growth."""
    cache = workdir / "moments.jsonl"
    if seed_cache is not None:
        shutil.copyfile(seed_cache, cache)
    lines_before = count_lines(cache)
    req_path, out_path = workdir / "request.json", workdir / "result.json"
    req_path.write_text(json.dumps(request))
    env = dict(os.environ)
    env["BWV_CACHE"] = str(cache)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        t_spawn = now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(req_path),
             str(out_path)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err)
        # A blocking wait returns as soon as the child ends; wait(timeout=)
        # would poll and round the exit time up by as much as 50 ms.
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
    t_exit = now()
    if t_exit - t_spawn >= timeout:
        raise BenchError(f"{request['mode']} child timed out after "
                         f"{timeout:.0f} s")
    if rc != 0 or not out_path.exists():
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{request['mode']} child exited {rc}: {tail}")
    res = json.loads(out_path.read_text())
    res["wall_s"] = res["t_done"] - t_spawn
    res["startup_ms"] = 1000 * (res["t_entry"] - t_spawn)
    res["exit_s"] = t_exit - t_spawn
    res["cache_bytes"] = cache.stat().st_size if cache.exists() else 0
    res["cache_appended"] = count_lines(cache) - lines_before
    return res


def cli_request(workdir: Path, argv, traced: bool) -> dict:
    return {"mode": "cli", "trace": traced,
            "argv": list(argv) + ["--report", str(workdir / "report.json")]}


def ensure_numeric_fixture(log) -> Path:
    """The directory holding the cold-filled cache and cold report for
    numeric-warm, built by one cold run if this source tree has none."""
    final = WORK / f"numeric-fixture-{source_sha256()[:16]}"
    if (final / "moments.jsonl").exists():
        return final
    building = WORK / f"numeric-fixture-building-{os.getpid()}"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    t0 = now()
    try:
        res = spawn(cli_request(building, NUMERIC_ARGV, False), building,
                    timeout=FIXTURE_TIMEOUT_S)
        bad = [c["id"] for c in res.get("checks", []) if not c["ok"]]
        if res["rc"] != 0 or bad or not res.get("checks"):
            raise BenchError(f"cold numeric run failed (exit {res['rc']}): "
                             f"{bad}")
    except BaseException:
        shutil.rmtree(building, ignore_errors=True)
        raise
    try:
        os.replace(building, final)
    except OSError:
        shutil.rmtree(building, ignore_errors=True)
    log(f"built the numeric-warm cache: {res['cache_appended']} moments "
        f"in {now() - t0:.1f} s")
    return final


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Inputs and invocations of one workload for one seed."""

    def __init__(self, rng: random.Random, scratch: Scratch,
                 fixture: Path):
        self.rng = rng
        self.scratch = scratch
        self.fixture = fixture

    # The cache a set-up or an invocation starts from (None: empty).
    seed_cache = None

    def setup_once(self) -> float:
        """One set-up: a fresh cache directory (a copy of the seed cache
        when there is one) and a child that starts bwv and loads it."""
        t0 = now()
        workdir = self.scratch.fresh()
        spawn({"mode": "cli", "argv": ["cache", "stats"], "trace": False},
              workdir, self.seed_cache)
        return now() - t0

    def invoke(self, traced: bool) -> dict:
        raise NotImplementedError


class ExactK5(Workload):
    def invoke(self, traced):
        workdir = self.scratch.fresh()
        return spawn(cli_request(workdir, ["verify", "exact"], traced),
                     workdir)


class NumericWarm(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.seed_cache = self.fixture / "moments.jsonl"
        cold = json.loads((self.fixture / "report.json").read_text())
        self.cold_residuals = {c["check_id"]: c["residual"]
                               for c in cold["checks"]}

    def invoke(self, traced):
        workdir = self.scratch.fresh()
        res = spawn(cli_request(workdir, NUMERIC_ARGV, traced), workdir,
                    self.seed_cache)
        res["residual_mismatch"] = sum(
            1 for c in res["checks"]
            if self.cold_residuals.get(c["id"]) != c["residual"])
        return res


class MomentsCold(Workload):
    def draw_u(self) -> Fraction:
        """A rational u in [1/4, 3/4] with denominator up to 32; the cost
        of matOmega(2, u) grows as u approaches 0, so the range is kept
        away from it to hold the work per invocation steady."""
        q = self.rng.randint(8, 32)
        return Fraction(self.rng.randint(math.ceil(q / 4), q * 3 // 4), q)

    def invoke(self, traced):
        workdir = self.scratch.fresh()
        return spawn({"mode": "moments", "trace": traced,
                      "digits": MOMENT_DIGITS, "max_k": MOMENT_MAX_K,
                      "u": str(self.draw_u())}, workdir)


class Kernel(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.used_t = set()

    def batch(self) -> list:
        """KERNEL_CALLS_PER_COMBO calls per (kind, digits), t log-uniform
        over KERNEL_T_RANGE by stratified sampling, in shuffled order;
        every t is new to the run, so the kernel memo never hits."""
        lo, hi = (math.log(x) for x in KERNEL_T_RANGE)
        n = KERNEL_CALLS_PER_COMBO
        calls = []
        for kind in KERNEL_KINDS:
            for digits in KERNEL_DIGITS:
                for i in range(n):
                    t = math.exp(lo + (hi - lo) * (i + self.rng.random()) / n)
                    while t in self.used_t:
                        t = math.nextafter(t, math.inf)
                    self.used_t.add(t)
                    calls.append((kind, t, digits))
        self.rng.shuffle(calls)
        return calls

    def invoke(self, traced):
        workdir = self.scratch.fresh()
        return spawn({"mode": "kernel", "trace": traced,
                      "calls": self.batch()}, workdir)


WORKLOADS = {
    "exact-k5": ExactK5,
    "moments-cold": MomentsCold,
    "numeric-warm": NumericWarm,
    "kernel": Kernel,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def kernel_cell(kind: str, t: float, digits: int) -> str:
    bucket = next(name for name, hi in T_BUCKETS if t < hi)
    return f"besselnum.bessel_us.{kind}.{bucket}.d{digits}"


def end_to_end(setups: list, untraced: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "margin_digits.min": min(c["margin"] for r in untraced
                                 for c in r["checks"]),
        "peak_rss_mb": max(r["maxrss_kb"] for r in untraced) / 1024,
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per-layer metrics: per-invocation values are medians over the traced
    invocations; per-call samples are pooled over them."""

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def span(r, name, field="self_s"):
        return r["trace"]["by_name"].get(name, {}).get(field, 0)

    def layer(r, name):
        return r["trace"]["layer_self_s"].get(name, 0.0)

    def computed(r):
        return [p["seconds"] for p in r["trace"]["probed"]
                if p["name"] == "besselnum.moment" and p["delta"] > 0]

    def hit_ratio(r):
        calls = span(r, "besselnum.moment", "calls")
        return (calls - len(computed(r))) / calls if calls else 0.0

    def memo_hit_ratio(r):
        entries = [v for k, v in r["trace"]["by_name"].items()
                   if k.startswith("brmatrices.") and "memo_repeats" in v]
        calls = sum(v["calls"] for v in entries)
        repeats = sum(v["memo_repeats"] for v in entries)
        return repeats / calls if calls else 0.0

    out = {name: 0.0 for name in PER_LAYER_UNITS if ".bessel_us." in name}
    cells: dict = {}
    micros = []
    for r in traced:
        for c in r["checks"]:
            if "us" in c:
                cell = kernel_cell(c["kind"], c["t"], c["digits"])
                cells.setdefault(cell, []).append(c["us"])
                micros.append(c["us"])
    for name, values in cells.items():
        out[name] = statistics.median(values)
    if micros:
        out["besselnum.bessel_us.p50"] = percentile(micros, 50)
        out["besselnum.bessel_us.p90"] = percentile(micros, 90)
    compute_ms = [1000 * s for r in traced for s in computed(r)]
    wall_u = statistics.median(r["wall_s"] for r in untraced)
    wall_t = statistics.median(r["wall_s"] for r in traced)
    out.update({
        "besselnum.moment.calls": med(lambda r: span(r, "besselnum.moment",
                                                     "calls")),
        "besselnum.moment.computed": med(lambda r: len(computed(r))),
        "besselnum.moment.compute_ms.p50":
            statistics.median(compute_ms) if compute_ms else 0.0,
        "besselnum.moment.compute_ms.max": max(compute_ms, default=0.0),
        "besselnum.moment.self_s": med(lambda r: span(r, "besselnum.moment")),
        "besselnum.moment.hit_ratio": med(hit_ratio),
        "besselnum.cache.load_ms": med(
            lambda r: 1000 * span(r, "besselnum.default_cache", "max_s")),
        "besselnum.cache.appended": med(lambda r: r["cache_appended"]),
        "besselnum.cache.bytes": med(lambda r: r["cache_bytes"]),
        "besselnum.matrix.self_s": med(lambda r: sum(
            span(r, f"besselnum.{b}") for b in MATRIX_BUILDERS)),
        "exactalg.exact_inverse.calls": med(
            lambda r: span(r, "exactalg.exact_inverse", "calls")),
        "exactalg.exact_inverse.self_s": med(
            lambda r: span(r, "exactalg.exact_inverse")),
        "exactalg.exact_det.calls": med(
            lambda r: span(r, "exactalg.exact_det", "calls")),
        "exactalg.exact_det.self_s": med(
            lambda r: span(r, "exactalg.exact_det")),
        "exactalg.self_s": med(lambda r: layer(r, "exactalg")),
        "vanhove.vanhove_operator.self_s": med(
            lambda r: span(r, "vanhove.vanhove_operator")),
        "vanhove.verify_verrill_recursion.self_s": med(
            lambda r: span(r, "vanhove.verify_verrill_recursion")),
        "vanhove.verify_bms_duality.self_s": med(
            lambda r: span(r, "vanhove.verify_bms_duality")),
        "vanhove.self_s": med(lambda r: layer(r, "vanhove")),
        "brmatrices.derham_alternatives.self_s": med(
            lambda r: span(r, "brmatrices.derham_alternatives")),
        "brmatrices.verify_block_identities.self_s": med(
            lambda r: span(r, "brmatrices.verify_block_identities")),
        "brmatrices.memo.hit_ratio": med(memo_hit_ratio),
        "brmatrices.self_s": med(lambda r: layer(r, "brmatrices")),
        "harness.checks": med(lambda r: r.get("report_checks", 0)),
        "harness.self_s": med(lambda r: layer(r, "harness")),
        "harness.cold_warm_residual_mismatch": statistics.median(
            r.get("residual_mismatch", 0) for r in untraced + traced),
        "cli.startup_ms": statistics.median(r["startup_ms"]
                                            for r in untraced),
        "trace.overhead_frac": (wall_t - wall_u) / wall_u,
    })
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(workload: Workload, seconds: float, trace: bool, deadline):
    """The closed loop: invoke until the next invocation would end after
    ``seconds`` (or after the run's budget), with at least one invocation,
    and with --trace at least one untraced and one traced, alternating."""
    results = []
    t0 = now()
    while True:
        traced = trace and len(results) % 2 == 1
        res = workload.invoke(traced)
        res["traced"] = traced
        results.append(res)
        enough = len(results) >= (2 if trace else 1)
        expected_end = now() + res["exit_s"]
        if enough and (expected_end - t0 > seconds or expected_end > deadline):
            return results


def stamp(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": env["python"],
        "mpmath": env["mpmath"],
        "mpmath_backend": env["mpmath_backend"],
        "bwv": env["bwv"],
        "commit": git_commit(),
        "src_sha256": source_sha256(),
    }


def run(args, log) -> tuple[dict, dict]:
    user_cache = user_cache_path()
    user_hash = file_sha256(user_cache)
    fixture = ensure_numeric_fixture(log)
    deadline = now() + RUN_BUDGET_S
    scratch = Scratch()
    try:
        workload = WORKLOADS[args.workload](random.Random(args.seed),
                                            scratch, fixture)
        # Half the set-ups come before the measured loop and half after
        # it, so that they sample the host at two moments that are a run
        # apart, not one short window.
        setups = [workload.setup_once() for _ in range(SETUP_REPS // 2)]
        results = measure(workload, args.seconds, bool(args.trace),
                          deadline)
        setups += [workload.setup_once()
                   for _ in range(SETUP_REPS - len(setups))]
    finally:
        scratch.remove()
    if file_sha256(user_cache) != user_hash:
        raise BenchError(f"the user's moment cache {user_cache} changed")
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    attempted = sum(max(len(r["checks"]), 1) for r in results)
    failed = sum(max(sum(not c["ok"] for c in r["checks"]), int(r["rc"] != 0))
                 for r in results)
    if args.trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(setups, untraced)
        units = END_TO_END_UNITS
    for r in results:
        kind = "traced" if r["traced"] else "untraced"
        log(f"{kind} invocation: {r['wall_s']:.3f} s, "
            f"{len(r['checks'])} checks, rc {r['rc']}")
        for c in r["checks"]:
            if not c["ok"]:
                log(f"FAILED {c['id']}: margin {c['margin']:.3g} digits")
    log(f"setup_s: {describe(setups, 's')}")
    log(f"wall_s: {describe([r['wall_s'] for r in untraced], 's')}")
    micros = [c["us"] for r in results for c in r["checks"] if "us" in c]
    if micros:
        log(f"bessel_us: {describe(micros, 'us')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {
        "stamp": stamp(results[0]["env"]),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_s": setups,
        "invocations": [{"traced": r["traced"], "wall_s": r["wall_s"],
                         "cpu_s": r["cpu_s"], "startup_ms": r["startup_ms"],
                         "maxrss_kb": r["maxrss_kb"]} for r in results],
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    def log(msg):
        print(f"# {msg}", flush=True)

    if not (ROOT / "src" / "bwv" / "__init__.py").exists():
        print(f"perfbench: no bwv sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result, record = run(args, log)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    log("stamp " + json.dumps(record["stamp"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
