"""Seeded inputs for the bfmix benchmark.

Every generated mixture is drawn from a fixed list of strata.  A stratum
pins the physics that decides the cost of an operation (mass pair,
compat mode, sign structure of the couplings, hence the number of Z(T)
crossings and how much of the temperature grid is degenerate); the seed
only jitters couplings inside their ranges, and counts, volume and
t_range by a few percent, since the degenerate share of the grid, and
with it the cost, follows N_f / V.  So every
seed exercises the same mix of code paths at about the same cost, which
is what keeps the figures of different seeds comparable.

All values are in the oscillator units of the JSON config schema
(couplings in hbar omega_f a^3, volume in a^3, temperatures in
hbar omega_f / k_B).  Nothing here imports bfmix: the program receives
only the configs written from these dicts.
"""

import json
import math
import random

PRESETS = ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")

OMEGA = 166.0  # rad/s, the trap frequency of the figure presets

# (name, m_b u, m_f u, compat mode, {field: (lo, hi)} coupling ranges,
#  t_range upper edge).  The comment gives the crossings Z(T) has on
#  t_range for every jitter the generator can draw.
WINDOW_STRATA = (
    # one crossing, recovery temperature (fig4 regime), light fermion
    ("li7-li6-paper", 7.0, 6.0, "paper",
     {"g_bb": (0.04, 0.06), "g_ff": (0.005, 0.015), "g_bf": (0.2, 0.4)}, 50.0),
    # no crossing: weak cross coupling in derived normalisation
    ("li7-li7-derived", 7.0, 7.0, "derived",
     {"g_bb": (0.04, 0.06), "g_ff": (0.005, 0.015), "g_bf": (-0.05, 0.1)}, 50.0),
    # one crossing, heavy fermion (less degenerate grid)
    ("li7-k40-paper", 7.0, 40.0, "paper",
     {"g_bb": (0.04, 0.06), "g_ff": (0.005, 0.015), "g_bf": (0.15, 0.4)}, 50.0),
    # two crossings: both species attractive, a closed unstable window
    ("li7-li6-attractive", 7.0, 6.0, "derived",
     {"g_bb": (-0.05, -0.01), "g_ff": (-11.0, -9.0), "g_bf": (0.0, 0.05)},
     80.0),
    # no crossing, heavy boson: the most degenerate fermion grid
    ("k40-li6-derived", 40.0, 6.0, "derived",
     {"g_bb": (0.04, 0.06), "g_ff": (0.005, 0.015), "g_bf": (-0.05, 0.4)},
     50.0),
    # one crossing, the figure mixture itself
    ("li7-li7-paper", 7.0, 7.0, "paper",
     {"g_bb": (0.04, 0.06), "g_ff": (0.005, 0.015), "g_bf": (0.2, 0.4)}, 50.0),
)

# Seed-independent mixture for the untimed warm-up op of window-cli
# (`bfmix finite-t` at T); it is in no stratum.
WARMUP = {
    "mode": "derived", "m_b": 7.0, "m_f": 7.0, "N_b": 900.0,
    "N_f": 9000.0, "V": 1100.0, "g_bb": 0.045, "g_ff": 0.012,
    "g_bf": 0.05, "t_range": (0.6, 45.0), "T": 4.0,
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jittered(rng, name, m_b, m_f, mode, couplings, t_hi):
    params = {
        "stratum": name, "mode": mode, "m_b": m_b, "m_f": m_f,
        "N_b": round(_log_uniform(rng, 950.0, 1050.0)),
        "N_f": round(_log_uniform(rng, 9500.0, 10500.0)),
        "V": _log_uniform(rng, 950.0, 1050.0),
        "t_range": (rng.uniform(0.48, 0.52), rng.uniform(0.97, 1.0) * t_hi),
    }
    for key, (lo, hi) in couplings.items():
        params[key] = rng.uniform(lo, hi)
    return params


def window_cases(seed):
    """One mixture per window stratum; the seed also shuffles the order."""
    rng = random.Random(f"window-{seed}")
    cases = [_jittered(rng, *stratum) for stratum in WINDOW_STRATA]
    rng.shuffle(cases)
    return cases


def preset_cycle(seed):
    """The six presets, rotated so the seed picks the first."""
    start = seed % len(PRESETS)
    return PRESETS[start:] + PRESETS[:start]


def config_dict(params):
    """The JSON config the CLI and config_from_dict read."""
    thermal = {"volume": params["V"], "t_range": list(params["t_range"])}
    if "T" in params:
        thermal["temperature"] = params["T"]
    return {
        "unit_system": "oscillator",
        "compat_mode": params["mode"],
        "boson": {"mass_u": params["m_b"], "omega": OMEGA,
                  "count": params["N_b"]},
        "fermion": {"mass_u": params["m_f"], "omega": OMEGA,
                    "count": params["N_f"]},
        "interaction": {"g_bb": params["g_bb"], "g_bf": params["g_bf"],
                        "g_ff": params["g_ff"]},
        "thermal": thermal,
    }


def write_config(params, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(params), fh)
