"""Command-line front end emitting reproducible CSV/JSON artifacts.

Subcommands: classify | density | jost | poly | eigs | resolvent.
Every command is deterministic (identical config gives byte-identical
output): floats are printed with 17 significant digits, '.' decimal,
JSON keys sorted.  Exit codes: 0 success, 2 regime rejection, 3 numeric
failure, 4 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import recurrence, solutions, spectral
from .ansatz import SpectralPoint, at_plus, interior, phase_context
from .coeffs import (
    CoefficientModel,
    classify,
    laguerre_model,
    load_model,
    model_from_dict,
    power_model,
)
from .eikonal import coefficients_as_strings
from .errors import (
    CritJacError,
    InvalidParameter,
    LimitCircleRegime,
    NotCritical,
    UnsupportedRegime,
    UnsupportedTauZero,
)
from .logcomplex import LogComplex

EXIT_OK = 0
EXIT_REGIME = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4

_REGIME_ERRORS = (NotCritical, LimitCircleRegime, UnsupportedRegime,
                  UnsupportedTauZero)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse complex number {text!r}") from exc


def _spectral_point(z: complex) -> SpectralPoint:
    return at_plus(z.real) if z.imag == 0.0 else interior(z)


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InvalidParameter("config file must hold a JSON object")
    # flags override file values
    for key in ("model", "p", "sigma", "alpha", "beta", "gamma", "z",
                "lambda_min", "lambda_max", "lambda_step", "n0", "N",
                "out", "format", "threads", "n", "m"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _build_model(cfg: dict) -> CoefficientModel:
    if "model" in cfg and cfg["model"] is not None:
        spec = cfg["model"]
        if isinstance(spec, dict):
            return model_from_dict(spec)
        text = str(spec).strip()
        if text.startswith("{"):
            return model_from_dict(json.loads(text))
        return load_model(text)
    if cfg.get("p") is not None:
        return laguerre_model(float(cfg["p"]))
    if cfg.get("sigma") is not None:
        return power_model(float(cfg["sigma"]), float(cfg.get("alpha", 0.0)),
                           float(cfg.get("beta", 0.0)), float(cfg.get("gamma", 1.0)))
    raise InvalidParameter("no model given: use --model, --p, or --sigma/...")


def _grid(cfg: dict) -> np.ndarray:
    lo = cfg.get("lambda_min")
    hi = cfg.get("lambda_max", lo)
    step = cfg.get("lambda_step", 0.0)
    if lo is None:
        raise InvalidParameter("a lambda grid needs --lambda-min")
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise InvalidParameter("lambda grid must be monotone (max >= min)")
    if step is None or float(step) <= 0.0:
        return np.array([lo]) if hi == lo else np.array([lo, hi])
    step = float(step)
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _convert_format(text: str, fmt: str | None) -> str:
    """Convert a command's natural output to the requested format.

    CSV tables become JSON row objects; JSON objects flatten to
    key,value CSV.  Requests matching the natural format are no-ops.
    """
    if not fmt:
        return text
    is_json = text.lstrip().startswith(("{", "["))
    if fmt == "json" and not is_json:
        lines = [l for l in text.strip().split("\n") if l]
        head = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            row = {}
            for key, val in zip(head, line.split(",")):
                try:
                    row[key] = float(val)
                except ValueError:
                    row[key] = val
            rows.append(row)
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    if fmt == "csv" and is_json:
        data = json.loads(text)
        lines = ["key,value"]
        for key in sorted(data):
            lines.append(f"{key},{json.dumps(data[key], sort_keys=True)}")
        return "\n".join(lines) + "\n"
    return text


# -- commands -----------------------------------------------------------

# classify's case line, by spectrum kind and whether t_n has a single power
_CASES = {
    ("whole_line_ac", False):
        "sigma in (1,3/2], tau < 0: a.c. spectrum covers the real line",
    ("all_discrete", False): "sigma in (1,3/2], tau > 0: purely discrete spectrum",
    ("half_line_ac", True): "sigma = 1: a.c. spectrum on a tau-shifted half-axis",
    ("half_line_ac", False): "sigma in (0,1): a.c. spectrum on a half-axis from 0",
}


def cmd_classify(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    spec = spectral.classify_spectrum(params)
    report = {
        "kind": model.kind,
        "sigma": params.sigma,
        "gamma": params.gamma,
        "tau": params.tau,
        "rho": params.rho,
        "nu": params.nu,
        "delta": params.delta,
        "L": params.L,
        "varsigma": params.varsigma,
        "eikonal": coefficients_as_strings(params.L),
        "ac": str(params.ac_set) if params.ac_set else "empty",
        "spectrum": spec.kind,
        "discrete_region": str(spec.discrete) if spec.discrete else "empty",
        "case": _CASES[spec.kind, params.single_power],
        "notes": list(params.notes),
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n", EXIT_OK


def cmd_density(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    lams = _grid(cfg)
    N = int(cfg["N"]) if cfg.get("N") else None
    threads = int(cfg.get("threads", 1))
    if threads < 1:
        raise InvalidParameter(f"--threads must be at least 1, got {threads}")

    def one(lam: float):
        try:
            return spectral.density(float(lam), params, model, N=N)
        except CritJacError as exc:
            return exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one, lams))

    # continue eta by nearest branch along the sweep
    rows = ["lambda,xi,kappa,eta,w"]
    code = EXIT_OK
    prev_eta = None
    for lam, res in zip(lams, results):
        if isinstance(res, CritJacError):
            rows.append(f"{_fmt(lam)},ERROR:{type(res).__name__},,,")
            code = EXIT_NUMERIC
            continue
        prev_eta = spectral.nearest_branch(res.eta, prev_eta)
        rows.append(",".join([_fmt(lam), _fmt(res.xi), _fmt(res.kappa),
                              _fmt(prev_eta), _fmt(res.w)]))
    return "\n".join(rows) + "\n", code


def cmd_jost(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    if cfg.get("z") is None:
        raise InvalidParameter("jost needs --z")
    zp = _spectral_point(_parse_complex(str(cfg["z"])))
    N = int(cfg.get("N") or 10000)
    n0 = int(cfg["n0"]) if cfg.get("n0") else None
    win = solutions.jost(zp, params, model, N=N, n0=n0)
    rows = ["n,re_f,im_f,log_abs_f"]
    for n in range(win.n_lo, win.n_hi + 1):
        lm = win.log_abs(n)
        if lm < 700.0:
            v = win.complex_at(n)
            rows.append(f"{n},{_fmt(v.real)},{_fmt(v.imag)},{_fmt(lm)}")
        else:
            rows.append(f"{n},overflow,overflow,{_fmt(lm)}")
    return "\n".join(rows) + "\n", EXIT_OK


def cmd_poly(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    if cfg.get("z") is None:
        raise InvalidParameter("poly needs --z")
    z = _parse_complex(str(cfg["z"]))
    zp = _spectral_point(z)
    # the asymptotic phases start at n_start, so the rows do too
    n_start = phase_context(zp, params).n_start
    n_lo = n_start if cfg.get("n0") is None else int(cfg["n0"])
    if n_lo < n_start:
        raise InvalidParameter(
            f"--n0 {n_lo} is below the phase window start n = {n_start}")
    n_hi = int(cfg.get("N") or (n_lo + 50))
    if n_hi < n_lo:
        raise InvalidParameter("need N >= n0 for the index window")
    N_jost = int(cfg["N_jost"]) if cfg.get("N_jost") else None
    P = recurrence.poly_eval(model, z, n_hi + 1)
    ns = np.arange(n_lo, n_hi + 1)
    ac = params.ac_set
    rows = []
    if z.imag == 0.0 and ac is not None and ac.contains(z.real):
        lam = z.real
        kappa, eta = spectral.amplitude_phase(lam, params, model, N=N_jost)
        w = solutions.limit_wronskian(lam, params)
        pred = recurrence.poly_asymptotic_ac(ns, lam, kappa, eta, params)
        rows.append("n,p_n,prediction,residual,envelope")
        for n, pr in zip(ns.tolist(), pred.tolist()):
            actual = P.complex_at(n).real
            env = kappa / w * float(n) ** (-params.rho)
            rows.append(",".join([str(n), _fmt(actual), _fmt(pr),
                                  _fmt(abs(actual - pr)), _fmt(env)]))
    else:
        om = solutions.omega(zp, params, model, N=N_jost)
        logmag, unit = recurrence.poly_asymptotic_regular(ns, zp, om, params)
        rows.append("n,log_abs_p,log_abs_prediction,rel_deviation")
        for n, lm, u in zip(ns.tolist(), logmag.tolist(), unit.tolist()):
            ratio = (P.value(n) / LogComplex(lm, u)).to_complex()
            rows.append(",".join([str(n), _fmt(P.log_abs(n)), _fmt(lm),
                                  _fmt(abs(ratio - 1.0))]))
    return "\n".join(rows) + "\n", EXIT_OK


def cmd_eigs(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    if cfg.get("lambda_min") is None or cfg.get("lambda_max") is None:
        raise InvalidParameter("eigs needs --lambda-min and --lambda-max")
    N = int(cfg["N"]) if cfg.get("N") else None
    report = spectral.eigenvalue_report(float(cfg["lambda_min"]),
                                        float(cfg["lambda_max"]),
                                        params, model, N=N)
    return json.dumps(report, sort_keys=True, indent=2) + "\n", EXIT_OK


def cmd_resolvent(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    if cfg.get("z") is None:
        raise InvalidParameter("resolvent needs --z")
    z = _parse_complex(str(cfg["z"]))
    n = int(cfg.get("n", 0))
    m = int(cfg.get("m", 0))
    N = int(cfg["N"]) if cfg.get("N") else None
    val = spectral.resolvent_element(n, m, _spectral_point(z), params, model,
                                     N=N)
    report = {"n": n, "m": m, "z_re": z.real, "z_im": z.imag,
              "re": val.real, "im": val.imag}
    return json.dumps(report, sort_keys=True, indent=2) + "\n", EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "density": cmd_density,
    "jost": cmd_jost,
    "poly": cmd_poly,
    "eigs": cmd_eigs,
    "resolvent": cmd_resolvent,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="critjac",
        description="Jost solutions and spectral data for Jacobi matrices "
                    "with power-growing coefficients (critical regime).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", help="model spec: JSON object or file path")
        p.add_argument("--p", type=float, help="Laguerre parameter")
        p.add_argument("--sigma", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--z", help="complex point, e.g. '1.5+0.5j'")
        p.add_argument("--lambda-min", dest="lambda_min", type=float)
        p.add_argument("--lambda-max", dest="lambda_max", type=float)
        p.add_argument("--lambda-step", dest="lambda_step", type=float)
        p.add_argument("--n0", type=int)
        p.add_argument("--N", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--threads", type=int)
        if name == "resolvent":
            p.add_argument("--n", type=int, default=0)
            p.add_argument("--m", type=int, default=0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        text, code = _COMMANDS[args.command](cfg)
    except _REGIME_ERRORS as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_REGIME
    except (InvalidParameter, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_CONFIG
    except CritJacError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_NUMERIC
    _emit(_convert_format(text, cfg.get("format")), cfg.get("out"))
    return code


if __name__ == "__main__":
    sys.exit(main())
