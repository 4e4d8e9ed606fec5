"""The four benchmark workloads, each a `lrfpp simulate` manifest built from a seed.

Sizes follow the measured cost per replicate on a 2-core machine (see
README.md); replicate counts put one manifest at 10–16 s of `cli.run`, so
one round fills most of a 20 s run and the checks have enough replicates to
reject a wrong output.
"""

from __future__ import annotations

import json

_METHODS = ["quadrature", "closed-p-infinity", "hypergeometric-d2", "gamma-max-mc"]


def _tau(alpha: float, replicates: int) -> dict:
    # k = sqrt(n) on the m = 128 torus: only the first 128 of 16,384 sites are born.
    return {"kind": "tau", "label": f"tau_m128_a{alpha:g}", "d": 2, "m": 128, "p": 2,
            "alpha": alpha, "k": 128, "replicates": replicates}


def _passage(quantity: str, m: int, alpha: float, replicates: int) -> dict:
    exp = {"kind": "quantity", "label": f"{quantity}_m{m}_a{alpha:g}", "quantity": quantity,
           "d": 2, "m": m, "p": 2, "alpha": alpha, "replicates": replicates}
    if quantity == "typical":
        exp["source"] = "uniform"
    return exp


EXPERIMENTS = {
    "tau-early": [_tau(0.0, 600), _tau(1.5, 200)],
    "flood-full": [
        _passage("flooding", 64, 0.0, 12),
        _passage("flooding", 64, 1.0, 12),
        _passage("typical", 64, 0.0, 24),
        _passage("typical", 64, 1.0, 14),
    ],
    "diameter": [
        _passage("diameter", 32, 0.0, 4),
        _passage("diameter", 32, 1.0, 4),
        _passage("diameter", 16, 0.0, 30),
        _passage("diameter", 16, 1.0, 30),
    ],
    "constants": [
        {"kind": "constants", "label": "constants_grid", "d": [1, 2, 3, 4], "p": [1, 2, "inf"],
         "alpha": [0.25, 0.5, 1.0, 1.5, 2.5], "methods": _METHODS,
         "samples": 1_000_000, "tolerance": 1e-9},
    ],
}

WORKLOADS = tuple(EXPERIMENTS)


def manifest_text(workload: str, seed: int) -> str:
    """The manifest a user would pass to `lrfpp simulate`, seeded by `seed`."""
    doc = {"seed": seed, "format": "csv", "jobs": 1, "experiments": EXPERIMENTS[workload]}
    return json.dumps(doc, indent=2) + "\n"
