"""Workloads, their seeded inputs, one operation, and its output check.

An operation is one bundled scenario run through ``tractrix gallery --only
<name>``: build the model, attach, simulate, run the post-passes,
functionals and verification, and write the outputs. A shorten scenario is
one ``shorten`` call inside that entry.

The gallery reads scenarios from the package's own ``scenarios/`` folder,
so each run works on a private copy of ``src/tractrix`` whose scenario
files carry that seed's inputs. The code is copied unchanged.

Seed 0 runs the bundled inputs exactly (``ellipsoid_equator`` with the
shortened span below). Any other seed moves each jittered scenario by an
isometry of its model: it shifts or turns the tractor start, and the
attachment with it. The stored seed-0 reference values therefore hold
under every seed, after the same isometry for chart points. The offset
``d0`` itself is not varied, because a different offset has no stored
reference. The ranges are in JITTER_RANGES. Each run also checks that
every scenario stayed in its regime: the same record, cusp and iterate
counts as at seed 0.
"""

import math
import os
import random
import shutil

import yaml

WORKLOADS = {
    "surface_geodesic": ("ellipsoid_equator",),
    "surface_pull": ("paraboloid_pull", "hilly_pull"),
    "spaceform_suite": (
        "circle3d", "classical_flat", "flat_geodesic", "flat_half_tractrix",
        "halfk_pull", "helix3d", "hyperbolic_pull", "sphere_geodesic",
        "sphere_longpole", "sphere_parallel", "sphere_pull", "wiggly_circle",
        "shorten_flat", "shorten_sphere", "shorten_torus"),
}

# The bundled span (t1 = 4.0) takes minutes; 0.2 (41 records) keeps a pass
# near 5 s and the shape of the work: the d pass still dominates.
SPAN_OVERRIDES = {"ellipsoid_equator": 0.2}

# Rauch cusp-atom defect: these fail verification at seed 0 and run
# unjittered under every seed so the defect always shows.
KNOWN_DEFECT = ("classical_flat", "flat_half_tractrix", "sphere_longpole")

JITTER_RANGES = {
    "flat_geodesic": "rigid motion: turn in [-pi, pi), shift in [-1, 1]^2",
    "helix3d": "screw along the helix: start parameter t0 in [0, one turn)",
    "halfk_pull": "tractor longitude phi0 in [-pi, pi)",
    "sphere_geodesic": "tractor longitude phi0 in [-pi, pi)",
    "sphere_parallel": "tractor longitude phi0 in [-pi, pi)",
    "sphere_pull": "tractor longitude phi0 in [-pi, pi)",
    "hyperbolic_pull": "ray angle in [-pi, pi) about the disk centre",
    "ellipsoid_equator": "start longitude v in [-pi, pi) (axis of revolution)",
    "paraboloid_pull": "turn of start and direction in [-pi, pi) (axis)",
    "hilly_pull": "start shift by (k1, k2) * pi/2, k in {-2..2}",
    "shorten_flat": "rigid motion: turn in [-pi, pi), shift in [-1, 1]^2",
    "shorten_sphere": "longitude shift in [-pi, pi) of P, Q and the curve",
    "shorten_torus": "shift of the loop in [0, 1)^2 (one period)",
}

RTOL, ATOL, D_ATOL = 1e-7, 2e-8, 1e-7
"""A value passes when |got - ref| <= RTOL * |ref| + ATOL (D_ATOL for d).

A wrong answer moves these values by far more. A foot-point or Jacobian
change that keeps 10 digits of `d` moves them by less, and so does the
rounding that the seeded isometries bring. ATOL covers values that are
zero up to rounding. D_ATOL is wider because a closed-form distance near
zero comes from acos and takes only the values sqrt(k) * 1.5e-8.
"""


def _turn(theta):
    c, s = math.cos(theta), math.sin(theta)
    return lambda p: [c * p[0] - s * p[1], s * p[0] + c * p[1]]


def _rigid(rng):
    turn = _turn(rng.uniform(-math.pi, math.pi))
    bx, by = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)

    def move(p):
        x, y = turn(p)
        return [x + bx, y + by]

    return move, turn


def _shift(du, dv):
    return lambda p: [p[0] + du, p[1] + dv]


def _jitter(name, raw, rng):
    """Jittered copy of a raw scenario mapping and its chart-point map."""
    tr = raw.get("tractor")
    if name == "flat_geodesic":
        move, turn = _rigid(rng)
        tr["start"], tr["direction"] = move(tr["start"]), turn(tr["direction"])
        return move
    if name == "helix3d":
        w = 1.0 / math.hypot(tr["radius"], tr["pitch"])
        # a multiple of 2**-10 keeps (t1 + delta) - (t0 + delta) exact, and
        # with it the record count
        delta = math.floor(rng.uniform(0.0, 2.0 * math.pi / w) * 1024) / 1024
        c, s = math.cos(w * delta), math.sin(w * delta)
        lift = tr["pitch"] * w * delta

        def screw(p):
            return [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2] + lift]

        tr["t0"] = tr.get("t0", 0.0) + delta
        tr["t1"] = tr["t1"] + delta
        raw["gamma0"] = screw(raw["gamma0"])
        return screw
    if name in ("halfk_pull", "sphere_geodesic", "sphere_parallel",
                "sphere_pull"):
        delta = rng.uniform(-math.pi, math.pi)
        tr["phi0"] = tr.get("phi0", 0.0) + delta
        return _shift(0.0, delta)
    if name == "hyperbolic_pull":
        delta = rng.uniform(-math.pi, math.pi)
        tr["angle"] = tr.get("angle", 0.0) + delta
        return _turn(delta)
    if name == "ellipsoid_equator":
        delta = rng.uniform(-math.pi, math.pi)
        tr["start"] = _shift(0.0, delta)(tr["start"])
        return _shift(0.0, delta)
    if name == "paraboloid_pull":
        turn = _turn(rng.uniform(-math.pi, math.pi))
        tr["start"], tr["direction"] = turn(tr["start"]), turn(tr["direction"])
        return turn
    if name == "hilly_pull":
        move = _shift(rng.randint(-2, 2) * math.pi / 2,
                      rng.randint(-2, 2) * math.pi / 2)
        tr["start"] = move(tr["start"])
        return move
    sh = raw.get("shorten")
    if name == "shorten_flat":
        move, _ = _rigid(rng)
    elif name == "shorten_sphere":
        move = _shift(0.0, rng.uniform(-math.pi, math.pi))
    elif name == "shorten_torus":
        move = _shift(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    else:
        return None
    for key in ("P", "Q"):
        if key in sh:
            sh[key] = move(sh[key])
    curve = sh.get("initial") or sh.get("loop")
    curve["points"] = [move(p) for p in curve["points"]]
    return move


def prepare_package(src_pkg, dest_root, names, seed):
    """Copy the package and write this seed's scenarios into the copy.

    Returns {scenario: (point map or None, jitter description)}.
    """
    pkg = os.path.join(dest_root, "tractrix")
    shutil.copytree(src_pkg, pkg,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    scen_dir = os.path.join(pkg, "scenarios")
    inputs = {}
    for index, name in enumerate(names):
        jitter = seed != 0 and name in JITTER_RANGES
        if not jitter and name not in SPAN_OVERRIDES:
            inputs[name] = (None, "bundled input" + (
                " (known defect, never jittered)" if name in KNOWN_DEFECT
                else ""))
            continue
        path = os.path.join(scen_dir, f"{name}.yaml")
        with open(path) as fh:
            raw = yaml.safe_load(fh)
        move, note = None, "bundled input"
        if jitter:
            move = _jitter(name, raw, random.Random(seed * 1_000_003 + index))
            note = JITTER_RANGES[name]
        if name in SPAN_OVERRIDES:
            tr = raw["tractor"]
            tr["t1"] = tr.get("t0", 0.0) + SPAN_OVERRIDES[name]
            note += f"; span shortened to {SPAN_OVERRIDES[name]}"
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
        inputs[name] = (move, note)
    return inputs


# ---------------------------------------------------------------------------
# Outputs and their check


def _floats(cells):
    return [float(c) if c else math.nan for c in cells]


def read_outputs(out_dir):
    """The checked values of one operation's output folder."""
    history = os.path.join(out_dir, "history.csv")
    if os.path.exists(history):
        with open(history) as fh:
            rows = [line.split(",") for line in fh.read().split()[1:]]
        return {"kind": "shorten", "iterates": len(rows),
                "final_length": float(rows[-1][1])}
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [_floats(line.rstrip("\n").split(",")) for line in fh]
    cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    gamma = [h for h in header if h.startswith("gamma_")]
    values = {"kind": "simulate", "records": len(rows),
              "d": [None if math.isnan(x) else x for x in cols["d"]],
              "gamma_final": [cols[h][-1] for h in gamma]}
    with open(os.path.join(out_dir, "sweep.txt")) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("L_gamma", "L_eta", "K_total", "area"):
                values[key] = float(value)
    with open(os.path.join(out_dir, "cusps.txt")) as fh:
        values["cusps"] = sum(1 for line in fh if line.strip())
    return values


def _close(got, want, atol=ATOL):
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= RTOL * abs(want) + atol


def mismatches(got, ref, move):
    """Fields of `got` off the seed-0 reference `ref` (chart points mapped)."""
    bad = []
    if got.get("kind") != ref["kind"]:
        return [f"kind {got.get('kind')} != {ref['kind']}"]
    for key in ("records", "cusps", "iterates"):
        if key in ref and key in got and got[key] != ref[key]:
            bad.append(f"{key} {got.get(key)} != {ref[key]}")
    for key in ("L_gamma", "L_eta", "K_total", "area", "final_length"):
        if key in ref and not _close(got.get(key), ref[key]):
            bad.append(f"{key} {got.get(key)!r} != {ref[key]!r}")
    if "d" in ref:
        off = [i for i, (a, b) in enumerate(zip(got["d"], ref["d"]))
               if not _close(a, b, D_ATOL)]
        if off or len(got["d"]) != len(ref["d"]):
            bad.append(f"d differs at {len(off)} records")
    if "gamma_final" in ref:
        want = move(ref["gamma_final"]) if move else ref["gamma_final"]
        if not all(_close(a, b) for a, b in zip(got["gamma_final"], want)):
            bad.append(f"final gamma {got['gamma_final']} != {want}")
    return bad
