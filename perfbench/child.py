"""One benchmark invocation in a fresh process.

Usage: python3 child.py REQUEST.json RESULT.json

The request names a mode:

* ``cli``: run ``bwv.cli.main(argv)``;
* ``moments``: build matM(k) and matN(k) for k <= max_k and
  matOmega(2, u) from the cache named by BWV_CACHE, then check their
  identities against the exact brmatrices data;
* ``kernel``: time ``besselnum.bessel`` on a list of calls, then compare
  each value with a reference.

With ``"trace": true`` the bwv layers are wrapped before the work starts
and a span summary is written.  Times in the result are CLOCK_MONOTONIC
seconds, comparable with the parent's clock.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import mpmath


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


MARGIN_CAP_DIGITS = 99.0


def margin_digits(residual, tolerance) -> float:
    """log10(tolerance / residual), capped for an exactly zero residual."""
    if residual == 0:
        return MARGIN_CAP_DIGITS
    return min(MARGIN_CAP_DIGITS,
               float(mpmath.log10(tolerance) - mpmath.log10(residual)))


def _install_tracer():
    import importlib

    from tracing import LAYERS, Tracer, install

    modules = {layer: importlib.import_module(f"bwv.{layer}")
               for layer in LAYERS}
    cache_path = os.environ["BWV_CACHE"]

    def cache_size():
        try:
            return os.stat(cache_path).st_size
        except FileNotFoundError:
            return 0

    tracer = Tracer()
    install(tracer, modules,
            probes={"besselnum.moment": cache_size},
            extra_methods=[("exactalg", modules["exactalg"].ExactMatrix,
                            "det")])
    return tracer


def run_cli(req: dict) -> dict:
    import bwv.cli

    tracer = _install_tracer() if req["trace"] else None
    t_entry = now()
    rc = bwv.cli.main(req["argv"])
    t_done = now()
    if tracer is not None:
        tracer.enabled = False
    out = {"t_entry": t_entry, "t_done": t_done, "rc": rc, "tracer": tracer}
    if "--report" in req["argv"]:
        out["checks"] = _report_checks(
            req["argv"][req["argv"].index("--report") + 1])
        out["report_checks"] = len(out["checks"])
    return out


def _report_checks(path: str) -> list:
    """The checks of a bwv report; an exact check has the capped margin,
    a numeric one its distance in digits below bwv's pass tolerance."""
    from mpmath import mp

    from bwv.besselnum import tolerance

    with open(path) as fh:
        report = json.load(fh)
    checks = []
    for c in report["checks"]:
        margin = MARGIN_CAP_DIGITS
        if c.get("residual") is not None:
            with mp.workdps(c["digits"] + 10):
                margin = margin_digits(mp.mpf(c["residual"]),
                                       tolerance(c["digits"]))
        checks.append({"id": c["check_id"], "residual": c.get("residual"),
                       "margin": margin, "ok": c["status"] == "pass"})
    return checks


def _moment_gates(mats: dict, u, digits: int) -> list:
    """Residuals of the quadratic relations, determinant closed forms and
    off-shell identities, each against the exact brmatrices data."""
    from mpmath import mp

    from bwv import brmatrices as br
    from bwv.besselnum import GUARD_DIGITS
    from bwv.exactalg import exact_inverse

    def mpf_matrix(E):
        out = mpmath.matrix(E.rows, E.cols)
        for i in range(E.rows):
            for j in range(E.cols):
                e = E[i, j]
                out[i, j] = mp.mpf(e.numerator) / e.denominator
        return out

    def frac(q):
        return mp.mpf(q.numerator) / q.denominator

    def max_abs(M):
        return max(abs(x) for x in M)

    out = []
    with mp.workdps(digits + GUARD_DIGITS):
        for k in sorted(k for k in mats["M"]):
            M, N = mats["M"][k], mats["N"][k]
            sign = (-1) ** ((k * (k - 1) // 2) % 2)
            detM = br.named_constant("detM_formula", k).value.to_mpf(mp)
            out.append((f"det-M-k{k}", abs(
                mpmath.det(M) - sign * detM * mp.pi ** (-(k * (k + 1) // 2)))))
            detN = br.named_constant("detN_formula", k).value.to_mpf(mp)
            expo = (-k - mp.mpf(1) / 2
                    + sum(a - k - mp.mpf(3) / 2 for a in range(2, k + 1)))
            out.append((f"det-N-k{k}", abs(
                mpmath.det(N) - sign * detN * mp.pi ** expo)))
            if k >= 2:
                R = (M * mpf_matrix(br.derham_D(k)) * M.T
                     - mpf_matrix(br.betti_B(k)))
                out.append((f"quad-M-k{k}", max_abs(R)))
                R = (N * mpf_matrix(br.derham_d(k)) * N.T
                     - mpf_matrix(br.betti_b(k)))
                out.append((f"quad-N-k{k}", max_abs(R)))
        O = mats["Omega"]
        m3 = frac(abs(br.top_coeff(3).eval(u)))
        Vinv = mpf_matrix(exact_inverse(br.matV(2).eval(u)))
        R = O * mpf_matrix(br.matSigma(2)) * O.T - Vinv / m3
        out.append(("offshell-cov-k2", max_abs(R)))
        lam = frac(br.named_constant("LambdaOdd", 2).rational)
        out.append(("offshell-det-k2",
                    abs(mpmath.det(O) * m3 ** mp.mpf("1.5") - lam)))
    return out


def run_moments(req: dict) -> dict:
    from fractions import Fraction

    from bwv import besselnum

    tracer = _install_tracer() if req["trace"] else None
    digits, max_k = req["digits"], req["max_k"]
    u = Fraction(req["u"])
    t_entry = now()
    mats = {"M": {}, "N": {}}
    for k in range(1, max_k + 1):
        mats["M"][k] = besselnum.matM(k, digits)
        mats["N"][k] = besselnum.matN(k, digits)
    mats["Omega"] = besselnum.matOmega(2, u, digits)
    t_done = now()
    if tracer is not None:
        tracer.enabled = False
    tol = besselnum.tolerance(digits)
    checks = [{"id": name, "residual": str(res),
               "margin": margin_digits(res, tol), "ok": bool(res < tol)}
              for name, res in _moment_gates(mats, u, digits)]
    return {"t_entry": t_entry, "t_done": t_done, "rc": 0,
            "tracer": tracer, "checks": checks}


def run_kernel(req: dict) -> dict:
    from mpmath import mp

    from bwv import besselnum
    from reference import bessel_reference

    tracer = _install_tracer() if req["trace"] else None
    bessel = besselnum.bessel
    calls = req["calls"]
    values, micros = [], []
    clock = time.perf_counter_ns
    t_entry = now()
    for kind, t, digits in calls:
        c0 = clock()
        values.append(bessel(kind, t, digits))
        micros.append((clock() - c0) / 1000)
    t_done = now()
    if tracer is not None:
        tracer.enabled = False
    checks = []
    for (kind, t, digits), value, us in zip(calls, values, micros):
        ref = bessel_reference(kind, t, digits + 20)
        with mp.workdps(digits + 20):
            rel = abs(value / ref - 1)
        margin = margin_digits(rel, mpmath.mpf(10) ** -digits)
        checks.append({"id": f"{kind}:{t!r}:d{digits}", "kind": kind,
                       "t": t, "digits": digits, "us": us,
                       "margin": margin, "ok": margin > 0})
    return {"t_entry": t_entry, "t_done": t_done, "rc": 0,
            "tracer": tracer, "checks": checks}


MODES = {"cli": run_cli, "moments": run_moments, "kernel": run_kernel}


def main(argv) -> int:
    req_path, out_path = argv
    with open(req_path) as fh:
        req = json.load(fh)
    out = MODES[req["mode"]](req)
    tracer = out.pop("tracer")
    if tracer is not None:
        from tracing import summarize
        out["trace"] = summarize(tracer)
    import bwv
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["maxrss_kb"] = usage.ru_maxrss
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["env"] = {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "bwv": bwv.__version__,
    }
    with open(out_path + ".tmp", "w") as fh:
        json.dump(out, fh)
    os.replace(out_path + ".tmp", out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
