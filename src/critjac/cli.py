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

from . import recurrence, solutions, spectral, volterra
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


# the config keys that take a value of one type, by the type of the flag
# that sets them; N_jost has no flag, and model is text or a JSON object
_KEY_TYPES = {"p": float, "sigma": float, "alpha": float, "beta": float,
              "gamma": float, "z": str, "lambda_min": float, "lambda_max": float,
              "lambda_step": float, "n0": int, "N": int, "N_jost": int,
              "out": str, "format": str, "threads": int, "n": int, "m": int}
_POSITIVE = ("n0", "N", "N_jost", "threads")


def _typed(key: str, val, kind: type):
    """A config value as its flag would read it: a number or text that
    parses as `kind`, a float only with an integral value for an int."""
    wrong = InvalidParameter(f"config key {key}: {val!r} is not {kind.__name__}")
    if not isinstance(val, (str, int, float)) or isinstance(val, bool) or (
            kind is int and isinstance(val, float) and not val.is_integer()):
        raise wrong
    try:
        return kind(val)
    except ValueError as exc:
        raise wrong from exc


def _load_config(args) -> dict:
    """The config file's values with the flags' over them, each parsed
    once by its flag's type; a null in the file leaves its key unset.
    Windows, window starts and thread counts below 1 are rejected, and a
    format other than the flag's csv and json."""
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise InvalidParameter("config file must hold a JSON object")
    cfg = {key: val for key, val in cfg.items() if val is not None}
    for key in ("model", *_KEY_TYPES):                  # flags override the file
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key, kind in _KEY_TYPES.items():
        if key in cfg:
            cfg[key] = _typed(key, cfg[key], kind)
    for key in _POSITIVE:
        if cfg.get(key, 1) < 1:
            raise InvalidParameter(f"{key} must be at least 1, got {cfg[key]}")
    if cfg.get("format", "csv") not in ("csv", "json"):      # the flag's choices
        raise InvalidParameter(f"format must be csv or json, got {cfg['format']!r}")
    return cfg


def _build_model(cfg: dict) -> CoefficientModel:
    if "model" in cfg:
        spec = cfg["model"]
        if isinstance(spec, dict):
            return model_from_dict(spec)
        text = str(spec).strip()
        if text.startswith("{"):
            return model_from_dict(json.loads(text))
        return load_model(text)
    if "p" in cfg:
        return laguerre_model(cfg["p"])
    if "sigma" in cfg:
        return power_model(cfg["sigma"], cfg.get("alpha", 0.0),
                           cfg.get("beta", 0.0), cfg.get("gamma", 1.0))
    raise InvalidParameter("no model given: use --model, --p, or --sigma/...")


def _grid(cfg: dict) -> np.ndarray:
    lo = cfg.get("lambda_min")
    hi = cfg.get("lambda_max", lo)
    step = cfg.get("lambda_step", 0.0)
    if lo is None:
        raise InvalidParameter("a lambda grid needs --lambda-min")
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InvalidParameter("lambda grid ends and step must be finite")
    if hi < lo:
        raise InvalidParameter("lambda grid must be monotone (max >= min)")
    if step < 0.0:
        raise InvalidParameter("lambda grid step must not be negative (0: the two ends)")
    if step == 0.0:
        return np.array([lo]) if hi == lo else np.array([lo, hi])
    try:
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    except OverflowError:
        count = math.inf
    if count > volterra.N_CAP:
        raise InvalidParameter(f"lambda grid step {step:g} gives too many points "
                               f"(more than N_CAP = {volterra.N_CAP})")
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


def _check_window(lams, params, N: int) -> None:
    """Refuse an explicit window N that is too short for an a.c. point of
    the grid before any group is solved: each group checks only its own
    points (volterra.solve_group).  A point that fails for its own sake
    is left to its row."""
    for lam in lams:
        try:
            spectral._require_in_ac(float(lam), params)
            n0 = phase_context(at_plus(float(lam)), params).n_start
        except CritJacError:
            continue
        volterra.window_top(n0, N)


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
    N = cfg.get("N")
    if N is not None:
        _check_window(lams, params, N)
    # one contiguous group of the grid per pool task
    groups = np.array_split(lams, min(cfg.get("threads", 1), len(lams)))
    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        results = [res for part in pool.map(
            lambda group: spectral.density_group(group, params, model, N=N), groups)
            for res in part]

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
    if "z" not in cfg:
        raise InvalidParameter("jost needs --z")
    zp = _spectral_point(_parse_complex(cfg["z"]))
    win = solutions.jost(zp, params, model, N=cfg.get("N", 10000), n0=cfg.get("n0"))
    rows = ["n,re_f,im_f,log_abs_f"]
    for n in range(-1, win.n_hi + 1):
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
    if "z" not in cfg:
        raise InvalidParameter("poly needs --z")
    z = _parse_complex(cfg["z"])
    zp = _spectral_point(z)
    # the asymptotic phases start at n_start, so the rows do too
    n_start = phase_context(zp, params).n_start
    n_lo = cfg.get("n0", n_start)
    if n_lo < n_start:
        raise InvalidParameter(
            f"--n0 {n_lo} is below the phase window start n = {n_start}")
    n_hi = cfg.get("N", n_lo + 50)
    if n_hi < n_lo:
        raise InvalidParameter("need N >= n0 for the index window")
    if n_hi > volterra.N_CAP:
        raise InvalidParameter(
            f"rows up to n = {n_hi} pass the window cap N_CAP = {volterra.N_CAP}")
    N_jost = cfg.get("N_jost")
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
    if "lambda_min" not in cfg or "lambda_max" not in cfg:
        raise InvalidParameter("eigs needs --lambda-min and --lambda-max")
    report = spectral.eigenvalue_report(cfg["lambda_min"], cfg["lambda_max"],
                                        params, model, N=cfg.get("N"))
    return json.dumps(report, sort_keys=True, indent=2) + "\n", EXIT_OK


def cmd_resolvent(cfg: dict) -> tuple[str, int]:
    model = _build_model(cfg)
    params = classify(model)
    if "z" not in cfg:
        raise InvalidParameter("resolvent needs --z")
    z = _parse_complex(cfg["z"])
    n, m = cfg.get("n", 0), cfg.get("m", 0)
    val = spectral.resolvent_element(n, m, _spectral_point(z), params, model,
                                     N=cfg.get("N"))
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
        p.add_argument("--threads", type=int,
                       help="density: pool threads, one contiguous group of the grid "
                            "each; run with OPENBLAS_NUM_THREADS=1, or the tail fit's "
                            "LAPACK QR starts threads of its own")
        if name == "resolvent":
            p.add_argument("--n", type=int)
            p.add_argument("--m", type=int)
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
