"""Workload inputs, made from the run's seed before any timing starts.

``dqdv_gp.synth`` generates every constant-current charge; the long-history
logs add the CV taper, rest and discharge rows around them here.  The
program under test receives only the generated logs; the manifest written
next to them holds what the checks need to know about each cell.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from truth import CAPACITY_AH, V_RANGE, Cell, synth_spec


@dataclass(frozen=True)
class Size:
    samples: int      # rows per constant-current charge
    cycles: int       # cycles per log
    rounds: int       # distinct rounds generated; a longer run repeats them


# fleet_analyze: one round is a plating cell log and a no-plating cell log
FLEET = {"full": Size(3000, 4, 8), "tiny": Size(400, 2, 1)}
FLEET_MAX_POINTS = {"full": 250, "tiny": 60}
FLEET_FADE = {True: 0.02, False: 0.005}
# montecarlo_paired: one round is one plating and one no-plating seed
MONTECARLO = {"full": Size(300, 1, 40), "tiny": Size(150, 1, 1)}
# history_ingest: one round is this many cell logs
HISTORY = {"full": Size(1200, 30, 4), "tiny": Size(200, 3, 2)}
HISTORY_FADE_RANGE = (0.002, 0.01)

TAPER_ROWS, REST_ROWS, DISCHARGE_ROWS = 150, 30, 600
TAPER_DT, REST_DT, DISCHARGE_DT = 2.0, 10.0, 6.0


def _seeds(seed, salt, n):
    return [int(s) for s in np.random.SeedSequence([seed, salt]).generate_state(n)]


def write_csv(path, t, i, v, cycle):
    """The program's CSV schema; a ``.gz`` suffix writes it gzipped."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "wt", encoding="utf-8", newline="") as fh:
        fh.write("time_s,current_a,voltage_v,cycle\n")
        fh.writelines(
            f"{a!r},{b!r},{c!r},{d}\n"
            for a, b, c, d in zip(t.tolist(), i.tolist(), v.tolist(), cycle.tolist())
        )


def _check_charge(cell, cycle, t, i):
    """The generator must realize the cell's fade: the CC charge of ``cycle``
    holds its fade factor times the capacity."""
    q = float(np.sum(0.5 * (i[1:] + i[:-1]) * np.diff(t))) / 3600.0
    want = cell.capacity * cell.fade_factor(cycle)
    if abs(q - want) > 1e-9 * want:
        raise ValueError(f"generated cycle {cycle} holds {q} Ah, expected {want} Ah")


def _fleet(seed, size, out):
    from dqdv_gp import synth

    rounds = []
    seeds = _seeds(seed, 1, 2 * size.rounds)
    for r in range(size.rounds):
        pair = []
        for k, plating in enumerate((True, False)):
            cell = Cell(plating=plating, fade=FLEET_FADE[plating])
            spec = synth_spec(cell, seeds[2 * r + k], size.samples, size.cycles)
            log = synth.generate_log(spec)
            for c in range(1, size.cycles + 1):
                cc = (log.cycle == c) & (log.i > 0)   # rest rows carry no current
                _check_charge(cell, c, log.t[cc], log.i[cc])
            name = f"{'plating' if plating else 'noplating'}_r{r}.csv"
            write_csv(out / name, log.t, log.i, log.v, log.cycle)
            pair.append({"path": name, "plating": plating, "fade": cell.fade,
                         "n_cycles": size.cycles})
        rounds.append(pair)
    return rounds


def _montecarlo(seed, size, out):
    from dqdv_gp import synth

    rounds, arrays = [], {}
    seeds = _seeds(seed, 2, 2 * size.rounds)
    for r in range(size.rounds):
        pair = []
        for k, plating in enumerate((True, False)):
            cell = Cell(plating=plating)
            log = synth.generate_cycle(synth_spec(cell, seeds[2 * r + k], size.samples, 1), 1)
            _check_charge(cell, 1, log.t, log.i)
            key = f"r{r}_{k}"
            for field in ("t", "i", "v"):
                arrays[f"{key}_{field}"] = getattr(log, field)
            pair.append({"key": key, "plating": plating, "fade": 0.0, "n_cycles": 1})
        rounds.append(pair)
    np.savez(out / "cycles.npz", **arrays)
    return rounds


def history_log(cell, spec):
    """CC charge, CV taper, rest, discharge and rest rows for every cycle."""
    from dqdv_gp import synth

    cap = spec.capacity
    lo, hi = V_RANGE
    k_taper = np.arange(TAPER_ROWS)
    k_rest = np.arange(1, REST_ROWS + 1)
    parts = []
    start = 0.0
    for c in range(1, spec.n_cycles + 1):
        cc = synth.generate_cycle(spec, c)
        _check_charge(cell, c, cc.t, cc.i)
        t = start + cc.t
        # the taper starts well below the 2% CC tolerance, so it never joins
        # the CC segment
        pieces = [
            (t, cc.i, cc.v),
            (t[-1] + TAPER_DT * (k_taper + 1),
             0.9 * cap * np.exp(-3.0 * k_taper / TAPER_ROWS), np.full(TAPER_ROWS, hi)),
        ]
        t_end = pieces[-1][0][-1]
        pieces.append((t_end + REST_DT * k_rest, np.zeros(REST_ROWS),
                       hi - 0.05 * (1.0 - np.exp(-k_rest / 5.0))))
        t_end = pieces[-1][0][-1]
        pieces.append((t_end + DISCHARGE_DT * np.arange(1, DISCHARGE_ROWS + 1),
                       np.full(DISCHARGE_ROWS, -cap),
                       np.linspace(hi - 0.06, lo + 0.05, DISCHARGE_ROWS)))
        t_end = pieces[-1][0][-1]
        pieces.append((t_end + REST_DT * k_rest, np.zeros(REST_ROWS),
                       lo + 0.05 + 0.1 * (1.0 - np.exp(-k_rest / 5.0))))
        for tt, ii, vv in pieces:
            parts.append((tt, ii, vv, np.full(len(tt), c)))
        start = parts[-1][0][-1] + REST_DT
    return tuple(np.concatenate([p[j] for p in parts]) for j in range(4))


def _history(seed, size, out):
    rng = np.random.default_rng(_seeds(seed, 3, 1))
    logs = []
    for j, s in enumerate(_seeds(seed, 4, size.rounds)):
        cell = Cell(plating=j % 2 == 0, fade=float(rng.uniform(*HISTORY_FADE_RANGE)))
        spec = synth_spec(cell, s, size.samples, size.cycles)
        name = f"history_{j}.csv.gz"
        write_csv(out / name, *history_log(cell, spec))
        logs.append({"path": name, "plating": cell.plating, "fade": cell.fade,
                     "n_cycles": size.cycles, "samples": size.samples})
    return [logs]


GENERATORS = {
    "fleet_analyze": (_fleet, FLEET),
    "montecarlo_paired": (_montecarlo, MONTECARLO),
    "history_ingest": (_history, HISTORY),
}


def generate(workload, seed, run_dir, tiny=False):
    """Write the workload's inputs under ``run_dir/inputs`` and its manifest."""
    make, sizes = GENERATORS[workload]
    size_name = "tiny" if tiny else "full"
    inputs = Path(run_dir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "capacity": CAPACITY_AH,
        "rounds": make(seed, sizes[size_name], inputs),
    }
    if workload == "fleet_analyze":
        manifest["max_points"] = FLEET_MAX_POINTS[size_name]
    (Path(run_dir) / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
