"""The four benchmark workloads: seeded inputs, the timed call, the oracle.

Inputs come from the seed alone.  Seed 0 gives exactly the paper grids;
any other seed moves each grid point by less than half a step, keeping
every point in the same regime, so no operation is expected to fail.
The library receives only the generated numbers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import numpy as np

import oracles


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def cli_grid(lo: float, hi: float, step: float) -> list[float]:
    """The grid `critjac density` builds from --lambda-min/max/step."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + step * k for k in range(count)]


def make_inputs(name: str, seed: int) -> dict:
    """Deterministic workload inputs for `seed` (plain Python values)."""
    rng = _rng(name, seed)
    if name == "laguerre_density":
        lams = [0.5, 1.0, 2.0, 4.0]
        if seed:
            gaps = [min(abs(l - m) for m in lams if m != l) for l in lams]
            lams = [min(4.0, max(0.5, l + 0.45 * g * rng.uniform(-1.0, 1.0)))
                    for l, g in zip(lams, gaps)]
        return {"model": {"kind": "laguerre", "p": 0.0}, "lams": lams, "N": 200_000}
    if name == "eig_scan":
        lo, hi = -5.0, 0.9
        if seed:
            lo += 0.05 * rng.uniform(-1.0, 1.0)
            hi += 0.05 * rng.uniform(-1.0, 1.0)
        return {"model": {"kind": "power", "sigma": 1.0, "alpha": 0.0, "beta": 0.0,
                          "gamma": 1.0},
                "lo": lo, "hi": hi, "N": 60_000}
    if name == "whole_line_sweep":
        # contract the grid symmetrically: every point moves by < half a step
        # and the sweep stays inside [-2, 2] with 41 points
        args = ["-2", "2", "0.1"]
        if seed:
            eps = 0.045 * rng.random()
            lo, hi = -2.0 + eps, 2.0 - eps
            args = [repr(lo), repr(hi), repr((hi - lo) / 40.0)]
        return {"model": {"kind": "power", "sigma": 1.25, "alpha": 0.0, "beta": -0.875,
                          "gamma": 1.0},
                "grid_args": args, "N": 100_000, "threads": 2,
                "oracle_index": [0, 9, 15, 25, 30, 40]}
    if name == "long_window":
        z = -1.0 if not seed else -1.0 + 0.25 * rng.uniform(-1.0, 1.0)
        return {"model": {"kind": "laguerre", "p": 0.0}, "z": z, "N": 1_000_000,
                "samples": 20, "sample_lo": 1_000}
    raise KeyError(name)


def build_model(critjac, spec: dict):
    """Model build and `classify`: the set-up a user pays before a call."""
    model = critjac.model_from_dict(spec)
    return model, critjac.classify(model)


class Workload:
    """One workload: `run` is the timed call, `check` its oracle.

    `resolution` is the finest error the computation aims for; errors
    below it are noise of where an iteration stopped and count as the
    resolution in accuracy_digits (never in pass/fail).
    """

    resolution = 0.0

    def __init__(self, critjac, inputs: dict):
        self.cj = critjac
        self.inp = inputs
        self.threads = inputs.get("threads", 1)
        self.model, self.params = build_model(critjac, inputs["model"])

    def reference(self) -> None:
        """Oracle data shared by every repetition (computed untimed)."""

    def run(self):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def expected_ops(self) -> int:
        raise NotImplementedError

    def eigenvalues(self, out) -> int:
        return 0


class LaguerreDensity(Workload):
    def reference(self):
        self.defect = oracles.laguerre_weight_defect(self.model.a_range(0, 16),
                                                     self.model.b_range(0, 16))

    def run(self):
        return self.cj.spectral.density_sweep(self.inp["lams"], self.params, self.model,
                                              N=self.inp["N"])

    def check(self, out):
        return oracles.check_laguerre_density([s.lam for s in out], [s.xi for s in out],
                                              self.defect)

    def expected_ops(self):
        return len(self.inp["lams"]) + 1


class EigScan(Workload):
    # Brent stops once the bracket is below the library's xtol = 1e-9; where
    # below that it lands depends on the bracket, i.e. on the seed
    resolution = 1e-9

    def reference(self):
        self.ref = oracles.matrix_eigenvalues(self.model.a_fn, self.model.b_fn,
                                              self.inp["lo"], self.inp["hi"])

    def run(self):
        return self.cj.spectral.eigenvalue_report(self.inp["lo"], self.inp["hi"],
                                                  self.params, self.model, N=self.inp["N"])

    def check(self, out):
        return oracles.check_eigenvalues(out["omega_zeros"], self.ref)

    def expected_ops(self):
        return max(1, len(self.ref))

    def eigenvalues(self, out):
        return len(out["omega_zeros"])


class WholeLineSweep(Workload):
    def _argv(self):
        m = self.inp["model"]
        lo, hi, step = self.inp["grid_args"]
        return ["density", "--sigma", repr(m["sigma"]), "--alpha", repr(m["alpha"]),
                "--beta", repr(m["beta"]), "--gamma", repr(m["gamma"]),
                "--lambda-min", lo, "--lambda-max", hi, "--lambda-step", step,
                "--N", str(self.inp["N"]), "--threads", str(self.threads)]

    def reference(self):
        sol = self.cj.solutions
        lo, hi, step = (float(v) for v in self.inp["grid_args"])
        self.lams = cli_grid(lo, hi, step)
        m = self.inp["model"]
        tau = 2.0 * m["beta"] - 2.0 * m["alpha"] + m["sigma"]
        self.w = math.sqrt(-tau)                 # sigma > 1, tau < 0: w = sqrt|tau|
        N = self.inp["N"]
        a = np.concatenate([[1.0], self.model.a_range(0, N + 1)])

        def oracle(k):
            """kappa = |Omega(lambda + i0)| of row k from its own call and,
            at an oracle index, the error of the boundary Wronskian."""
            lam = self.lams[k]
            if k not in self.inp["oracle_index"]:
                return abs(sol.omega(self.cj.at_plus(lam), self.params, self.model, N=N)), None
            fp = sol.jost(self.cj.at_plus(lam), self.params, self.model, N=N)
            fm = sol.jost(self.cj.at_minus(lam), self.params, self.model, N=N)
            W = oracles.boundary_wronskian(fp.logmag, fp.unit, fm.logmag, fm.unit,
                                           a[: len(fp.logmag) - 1])
            return math.exp(fp.logmag[0]), abs(W / (2j * self.w) - 1.0)   # |f_{-1}|

        # one point at a time: on the sweep's two threads this part would
        # peak above the timed sweep's memory and set peak_rss_mb
        found = [oracle(k) for k in range(len(self.lams))]
        self.kappas = [kap for kap, _ in found]
        self.wronskian = {k: err for k, (_, err) in enumerate(found) if err is not None}

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cj.cli.main(self._argv())
        return code, buf.getvalue()

    def check(self, out):
        code, text = out
        chk = oracles.check_density_csv(text, self.lams, self.w, self.kappas,
                                        self.wronskian)
        chk.add(0.0 if code == 0 else math.inf, 0.0, f"CLI exit code {code}")
        return chk

    def expected_ops(self):
        return 2 * len(self.lams) + len(self.inp["oracle_index"]) + 1


class LongWindow(Workload):
    def reference(self):
        N = self.inp["N"]
        self.a = np.concatenate([[1.0], self.model.a_range(0, N + 1)])
        self.ns = sorted({int(round(x)) for x in np.geomspace(
            self.inp["sample_lo"], N, self.inp["samples"])})

    def run(self):
        sol, rec = self.cj.solutions, self.cj.recurrence
        z, N = self.inp["z"], self.inp["N"]
        zp = self.cj.interior(complex(z))
        f = sol.jost(zp, self.params, self.model, N=N)
        g = sol.growing(zp, self.params, self.model, f=f)
        P = rec.poly_eval(self.model, z, N)
        return f, g, P

    def check(self, out):
        f, g, P = out
        om = -math.exp(f.logmag[0]) * complex(f.unit[0])           # Omega = -f_{-1}
        k = [n + 1 for n in self.ns]                                # windows start at -1
        w_dev = oracles.wronskian_deviation(f.logmag, f.unit, g.logmag, g.unit,
                                            self.a[: len(f.logmag) - 1])
        return oracles.check_long_window(self.ns, P.logmag[k], P.unit[k],
                                         g.logmag[k], g.unit[k], om, w_dev)

    def expected_ops(self):
        return len(self.ns) + 1


WORKLOADS = {
    "laguerre_density": LaguerreDensity,
    "eig_scan": EigScan,
    "whole_line_sweep": WholeLineSweep,
    "long_window": LongWindow,
}
