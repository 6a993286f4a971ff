"""Independent checks of every output the benchmark's jobs write.

Each check rebuilds the expected values by a route other than the one the
program takes: dense LAPACK (``numpy.linalg.eigvalsh`` / ``eigh``) for chain
spectra and static propagators, ``scipy.special.jv`` for the Bessel sums,
closed forms for Landau-Zener paths, shift-invert Lanczos
(``scipy.sparse.linalg.eigsh``) on a harness-built sparse charge
Hamiltonian for the flux qubit, and conservation laws for trajectories.
Only the configs and the files on disk are read; nothing is imported from
the program.

``check(job, out_dir, jobs)`` returns a list of problems, empty when the
outputs pass.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import scipy.sparse as sp
from numpy.random import Philox
from scipy.sparse.linalg import eigsh
from scipy.special import jv, ndtri

EIG_TOL = 1e-10        # chain energies against dense LAPACK (criterion 13)
BESSEL_TOL = 1e-12     # coupling sums against scipy.special.jv
PATH_TOL = 1e-12       # LZ path samples against their closed forms
# Quench records against the exact propagator.  BDF at its default rel_tol
# 1e-8 drifts by up to 4.9e-6 in sz over t = 100 on the uniform chain (12
# seeds measured); RK4 at dt = 0.01 stays below 1e-6.  A wrong Hamiltonian,
# disorder draw or propagation moves sz by far more than either bound.
PROPAGATOR_TOL = {"bdf": 1e-5, "rk4": 1e-6}
OVERLAP_TOL = 1e-6     # 1 - |<bdf|rk4>| of the plain pump (criterion 13)
PIN_TOL = 1e-6         # plain-pump fidelity against its pinned value
POPULATION_TOL = 1e-9  # sum of site populations per record
FLUX_E_TOL = 1e-9      # flux-qubit levels against shift-invert Lanczos
FLUX_G_TOL = 1e-8      # flux-qubit coupling elements, and g_par at f_eps = 0
BELL_MIN_FIDELITY = 0.95
PUMPING_FIDELITY = 0.5290788742388832  # plain pump, T = 100, 14 sites, BDF at 9b27e30

# Columns that hold inputs (grids) rather than computed values.
AXIS_COLUMNS = {"t", "a", "alpha_1", "alpha_2", "level", "site", "f_eps", "f_alpha"}


class Table:
    """A CSV written by the program: header names and a float matrix."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            self.header = fh.readline().rstrip("\n").split(",")
        self.data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.header.index(name)]

    def cols(self, prefix: str) -> np.ndarray:
        idx = [i for i, h in enumerate(self.header) if h.startswith(prefix) and h[len(prefix):].isdigit()]
        return self.data[:, idx]


def _manifest(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / f"{name}.manifest.json").read_text(encoding="utf-8"))


def _worst(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a - b).max()) if a.size else 0.0


def _grid_problem(what: str, got: np.ndarray, start: float, stop: float, points: int) -> List[str]:
    want = np.linspace(start, stop, points)
    err = _worst(got, want)
    return [] if err <= 1e-12 else [f"{what} grid differs from linspace({start}, {stop}, {points}) by {err:.2e}"]


# ---------------------------------------------------------------------------
# Chains: dense Hamiltonians built here from the model definitions
# ---------------------------------------------------------------------------


def _function_value(spec: dict, t: float, period: float) -> float:
    offset = spec.get("offset", 0.0)
    amplitude = spec.get("amplitude", 0.0)
    form = spec["form"]
    if form == "const":
        return offset
    if form == "linear":
        return offset + amplitude * t / period
    x = 2.0 * np.pi * spec.get("frequency_multiple", 1.0) * t / period + spec.get("phase", 0.0)
    return offset + amplitude * (np.sin(x) if form == "sin" else np.cos(x))


def _schedule_values(schedule: dict, t: float) -> dict:
    return {k: _function_value(v, t, schedule["T"]) for k, v in schedule["params"].items()}


def dense_chain(kind: str, L: int, p: dict) -> np.ndarray:
    """Dense single-excitation Hamiltonian of an SSH, Rice-Mele or trimer chain."""
    if kind == "trimer":
        n = 3 * L
        diag = np.tile([p["u"], p["v"], p["w"]], L)
        off = np.tile([p["a"], p["b"], p["c"]], L)[: n - 1]
    else:
        n = 2 * L
        u = p.get("u", 0.0) if kind == "rm" else 0.0
        diag = np.tile([u, -u], L) if kind == "rm" else np.full(n, p.get("omega", 0.0))
        off = np.tile([p["a"], p["b"]], L)[: n - 1]
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _energy_rows(table: Table, hamiltonians) -> List[str]:
    energies = table.cols("E_")
    worst = max(_worst(row, np.linalg.eigvalsh(h)) for row, h in zip(energies, hamiltonians))
    return [] if worst <= EIG_TOL else [f"energies differ from dense eigvalsh by {worst:.2e}"]


def _check_sweep(job, out_dir, jobs):
    cfg = job.config
    sweep = cfg["sweep"]
    table = Table(out_dir / f"{job.name}.csv")
    axis = table.col(sweep["param"])
    problems = _grid_problem(sweep["param"], axis, sweep["start"], sweep["stop"], sweep["points"])
    params = {k: v for k, v in cfg.items() if k in ("a", "b", "c", "u", "v", "w", "omega")}
    hams = [dense_chain(cfg["kind"], cfg["L"], dict(params, **{sweep["param"]: x})) for x in axis]
    return problems + _energy_rows(table, hams)


def _check_trace(job, out_dir, jobs):
    schedule = job.config["schedule"]
    table = Table(out_dir / f"{job.name}.csv")
    times = table.col("t")
    problems = _grid_problem("t", times, 0.0, schedule["T"], job.config["n_times"])
    hams = [dense_chain(schedule["kind"], schedule["L"], _schedule_values(schedule, t)) for t in times]
    return problems + _energy_rows(table, hams)


def _check_static(job, out_dir, jobs):
    cfg = job.config
    h = dense_chain(cfg["kind"], cfg["L"], cfg)
    table = Table(out_dir / f"{job.name}.csv")
    problems = []
    err = _worst(table.col("energy"), np.linalg.eigvalsh(h))
    if err > EIG_TOL:
        problems.append(f"energies differ from dense eigvalsh by {err:.2e}")
    states = Table(out_dir / f"{job.name}_states.csv")
    energies = table.col("energy")
    for j, name in enumerate(states.header[1:], start=1):
        level = int(name.split("_")[1])
        v = states.data[:, j]
        residual = float(np.abs(h @ v - energies[level - 1] * v).max())
        norm_err = abs(float(v @ v) - 1.0)
        if residual > EIG_TOL or norm_err > EIG_TOL:
            problems.append(f"exported state {level}: residual {residual:.2e}, norm error {norm_err:.2e}")
    return problems


def _check_couplings(job, out_dir, jobs):
    cfg = job.config
    table = Table(out_dir / f"{job.name}.csv")
    a1, a2 = table.col("alpha_1"), table.col("alpha_2")
    grid = np.linspace(cfg["alpha1"]["start"], cfg["alpha1"]["stop"], cfg["alpha1"]["points"])
    problems = []
    want_pairs = np.array([(x, y) for x in grid for y in grid])
    err = _worst(np.column_stack([a1, a2]), want_pairs)
    if err > 1e-12:
        problems.append(f"alpha grid differs by {err:.2e}")
    if cfg["scheme"] == "identical":
        n = np.arange(-cfg["n_max"], cfg["n_max"] + 1)[:, None]
        series = ((-1.0) ** n * jv(n, a1) * jv(n, a2)).sum(axis=0)
        want_p, want_q = cfg["bare_a"] * series, cfg["bare_b"] * series
    else:
        want_p = cfg["bare_a"] * jv(0, a1) * jv(1, a2)
        want_q = cfg["bare_b"] * jv(1, a1) * jv(0, a2)
    err = max(_worst(table.col("P"), want_p), _worst(table.col("Q"), want_q))
    if err > BESSEL_TOL:
        problems.append(f"P/Q differ from scipy.special.jv by {err:.2e}")
    return problems


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def _trajectory(path: Path, t_final: float, n_records: int):
    """Table of one trajectory CSV plus the checks every trajectory must pass."""
    table = Table(path)
    sz = table.cols("sz_")
    problems = _grid_problem(f"{path.name} t", table.col("t"), 0.0, t_final, n_records)
    err = float(np.abs(((sz + 1.0) / 2.0).sum(axis=1) - 1.0).max())
    if err > POPULATION_TOL:
        problems.append(f"{path.name}: site populations sum to 1 only within {err:.2e}")
    if "re_1" in table.header:
        err = _worst(2.0 * np.abs(_states(table)) ** 2 - 1.0, sz)
        if err > 1e-12:
            problems.append(f"{path.name}: sz disagrees with the amplitudes by {err:.2e}")
    return table, problems


def _states(table: Table) -> np.ndarray:
    return table.cols("re_") + 1j * table.cols("im_")


def _pump_records(cfg: dict) -> int:
    return cfg.get("n_records") or 200 * cfg["schedule"].get("cycles", 1) + 1


def _schedule_trajectory(job, out_dir, suffix=""):
    schedule = job.config["schedule"]
    t_final = schedule["T"] * schedule.get("cycles", 1)
    return _trajectory(out_dir / f"{job.name}{suffix}.csv", t_final, _pump_records(job.config))


def _check_pump(job, out_dir, jobs):
    return _schedule_trajectory(job, out_dir)[1]


def _pinned_fidelity(job, out_dir, table) -> List[str]:
    fidelity = (table.cols("sz_")[-1, -1] + 1.0) / 2.0
    problems = []
    if abs(fidelity - PUMPING_FIDELITY) > PIN_TOL:
        problems.append(f"plain-pump fidelity {fidelity:.10f} is not the pinned {PUMPING_FIDELITY:.10f}")
    reported = _manifest(out_dir, job.name)["extras"]["final_fidelity_last_site"]
    if abs(reported - fidelity) > 1e-12:
        problems.append(f"manifest fidelity {reported} disagrees with the CSV's {fidelity}")
    return problems


def _check_pumping(job, out_dir, jobs):
    table, problems = _schedule_trajectory(job, out_dir)
    return problems + _pinned_fidelity(job, out_dir, table)


def _disorder(seed: int, tag: int, count: int) -> np.ndarray:
    # Philox stream keyed by (seed, tag), top 53 bits to (0, 1), inverse normal CDF.
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag], dtype=np.uint64)
    raw = Philox(key=key).random_raw(count)
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


def _check_quench(job, out_dir, jobs):
    cfg = job.config
    n_records = cfg.get("n_records", 201)
    table, problems = _trajectory(out_dir / f"{job.name}.csv", cfg["t_final"], n_records)
    h = dense_chain(cfg["kind"], cfg["L"], cfg)
    n = h.shape[0]
    sigma = cfg["disorder"]["sigma"]
    seed = cfg["disorder"].get("seed", cfg.get("seed", 0))
    h += np.diag(sigma * _disorder(seed, 0, n))
    off = sigma * _disorder(seed, 1, n - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(h)
    psi0 = np.zeros(n)
    psi0[cfg["flip_site"] - 1] = 1.0
    times = np.linspace(0.0, cfg["t_final"], n_records)
    exact = (vecs @ (np.exp(-1j * np.outer(times, vals)) * (vecs.T @ psi0)).T).T
    err = _worst(table.cols("sz_"), 2.0 * np.abs(exact) ** 2 - 1.0)
    if "re_1" in table.header:
        err = max(err, _worst(_states(table), exact))
    tol = PROPAGATOR_TOL[cfg.get("integrator", {}).get("method", "bdf")]
    if err > tol:
        problems.append(f"records differ from the exact propagator by {err:.2e} (bound {tol:.0e})")
    return problems


def _classify(u: np.ndarray, g: np.ndarray) -> str:
    # Around vs through u = g = 0, with a tolerance of 1e-6 of the largest radius.
    radius = np.hypot(u, g)
    tol = 1e-6 * float(radius.max())
    nonzero = u[np.abs(u) > tol]
    if not (nonzero.size >= 2 and nonzero[0] * nonzero[-1] < 0):
        return "no-crossing"
    return "through-critical" if radius.min() < tol else "around-critical"


def _check_path(path: Path, period: float, closed_form: Callable):
    """Table of one LZ path CSV and its problems against ``closed_form(t) -> (u, g)``."""
    table = Table(path)
    t = table.col("t")
    problems = _grid_problem(f"{path.name} t", t, 0.0, period, 201)
    u, g = closed_form(t)
    r = np.hypot(u, g)
    err = max(_worst(table.col("u"), u), _worst(table.col("g"), g),
              _worst(table.col("E_minus"), -r), _worst(table.col("E_plus"), r))
    if err > PATH_TOL:
        problems.append(f"{path.name}: samples differ from the closed form by {err:.2e}")
    return table, problems


def _check_lz_path(job, out_dir, jobs):
    p = job.config["path"]
    alpha, period = p["alpha"], p["T"]

    def closed_form(t):
        if p["type"] == "arc":  # half circle from u = -alpha to u = +alpha
            phase = np.pi * t / period - np.pi
            return alpha * np.cos(phase), alpha * np.sin(phase)
        return -alpha + 2.0 * alpha * t / period, np.zeros_like(t)  # straight line, g = 0

    expected = "around-critical" if p["type"] == "arc" else "through-critical"
    path, problems = _check_path(out_dir / f"{job.name}_path.csv", period, closed_form)
    got = _classify(path.col("u"), path.col("g"))
    reported = _manifest(out_dir, job.name)["extras"]["path_class"]
    if not got == reported == expected:
        problems.append(f"path class: expected {expected}, CSV gives {got}, manifest says {reported}")
    _, traj_problems = _trajectory(out_dir / f"{job.name}.csv", period, job.config.get("n_records", 201))
    return problems + traj_problems


def _edge_coupling(a: float, b: float, L: int) -> float:
    # Xi^2 * a * lam^(L-1) with lam = -a/b, Xi^2 = (1 - lam^2) / (1 - lam^(2L)) -> 1/L at |lam| = 1
    lam = -a / b
    lam2 = lam * lam
    xi2 = 1.0 / L if lam2 == 1.0 else (1.0 - lam2) / (1.0 - lam2**L)
    return xi2 * a * lam ** (L - 1)


def _check_schedule_path(job, out_dir, jobs):
    schedule = job.config["from_schedule"]
    period, L = schedule["T"], schedule["L"]

    def closed_form(t):
        values = [_schedule_values(schedule, x) for x in t]
        return (np.array([v["u"] for v in values]),
                np.array([_edge_coupling(v["a"], v["b"], L) for v in values]))

    path, problems = _check_path(out_dir / f"{job.name}_schedule_path.csv", period, closed_form)
    got = _classify(path.col("u"), path.col("g"))
    reported = _manifest(out_dir, job.name)["extras"]["schedule_path_class"]
    if got != reported:
        problems.append(f"schedule path class: CSV gives {got}, manifest says {reported}")
    return problems


def _check_bell(job, out_dir, jobs):
    problems = []
    for sign in job.config["signs"]:
        table, traj_problems = _schedule_trajectory(job, out_dir, f"_{sign}")
        problems += traj_problems
        fidelity = _manifest(out_dir, job.name)["extras"][f"final_fidelity_{sign}"]
        edge_weight = float(((table.cols("sz_")[-1, -2:] + 1.0) / 2.0).sum())
        if fidelity < BELL_MIN_FIDELITY:
            problems.append(f"Bell {sign} fidelity {fidelity:.6f} below {BELL_MIN_FIDELITY}")
        if edge_weight < fidelity - 1e-9:
            problems.append(f"Bell {sign}: weight {edge_weight:.6f} on the last two sites is below the fidelity")
    return problems


def _check_pump_rk4(job, out_dir, jobs):
    table, problems = _schedule_trajectory(job, out_dir)
    bdf = Table(out_dir / "crosscheck_pump_bdf.csv")
    overlap_error = 1.0 - abs(np.vdot(_states(bdf)[-1], _states(table)[-1]))
    if not overlap_error <= OVERLAP_TOL:
        problems.append(f"1 - |<bdf|rk4>| = {overlap_error:.2e} exceeds {OVERLAP_TOL}")
    return problems


# ---------------------------------------------------------------------------
# Flux qubit: sparse charge Hamiltonian and shift-invert Lanczos
# ---------------------------------------------------------------------------

FLUX_DEFAULTS = {"ej": 1.0, "ej_over_ec": 50.0, "alpha": 0.5, "beta": 0.05, "f_sigma_kappa": 50.0,
                 "n_total": 1, "n_diff": 1, "charge_cutoff": 15}


def flux_hamiltonian(spec: dict, f_alpha: float, f_eps: float):
    """Sparse charge-basis H and dH/df_eps of the gap-tunable flux qubit."""
    n_c = spec["charge_cutoff"]
    q = np.arange(-n_c, n_c + 1, dtype=np.float64)
    k, l = np.meshgrid(q, q, indexing="ij")
    ej, alpha = spec["ej"], spec["alpha"]
    coef = 4.0 * (ej / spec["ej_over_ec"]) / (1.0 + 4.0 * alpha)
    diag = coef * ((1.0 + 2.0 * alpha) * (k**2 + l**2) - 4.0 * alpha * k * l).ravel() + 2.0 * ej * (1.0 + alpha)
    up = sp.eye(q.size, k=-1, format="csr")  # exp(i phi): |k> -> |k+1>
    one = sp.identity(q.size, format="csr")
    cos_phi = 0.5 * (up + up.T)
    both_up = sp.kron(up, up, format="csr")
    f_sigma = spec["f_sigma_kappa"] * f_alpha
    amp = ej * alpha * np.cos(np.pi * (spec["beta"] * (spec["n_total"] - f_sigma) + f_alpha))
    phase = np.exp(1j * np.pi * (spec["n_diff"] - f_eps))
    h = (sp.diags(diag) - ej * (sp.kron(cos_phi, one) + sp.kron(one, cos_phi))
         - amp * (phase * both_up + np.conj(phase) * both_up.T))
    dh = 1j * np.pi * amp * (phase * both_up - np.conj(phase) * both_up.T)
    return h.tocsc(), dh.tocsr()


def flux_levels(spec: dict, f_alpha: float, f_eps: float, levels: int):
    """Lowest levels and their vectors, shifted below the Gershgorin bound."""
    h, dh = flux_hamiltonian(spec, f_alpha, f_eps)
    absrow = np.asarray(abs(h).sum(axis=1)).ravel()
    diag = h.diagonal().real
    shift = float(np.min(diag - (absrow - np.abs(diag)))) - 1.0
    vals, vecs = eigsh(h, k=levels, sigma=shift, which="LM", tol=0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], dh


def _check_circuit_levels(job, out_dir, jobs):
    cfg = job.config
    spec = dict(FLUX_DEFAULTS, **cfg.get("spec", {}))
    table = Table(out_dir / f"{job.name}.csv")
    rng = cfg["f_eps_range"]
    f_eps = table.col("f_eps")
    problems = _grid_problem("f_eps", f_eps, rng["start"], rng["stop"], rng["points"])
    energies = table.cols("E_")
    e_err = g_err = 0.0
    for i, fe in enumerate(f_eps):
        vals, vecs, dh = flux_levels(spec, cfg["f_alpha"], fe, max(cfg["levels"], 2))
        ground, excited = vecs[:, 0], vecs[:, 1]
        i0 = np.vdot(ground, dh @ ground).real
        i1 = np.vdot(excited, dh @ excited).real
        g_perp = abs(np.vdot(excited, dh @ ground))
        e_err = max(e_err, _worst(energies[i], vals[: cfg["levels"]]))
        g_err = max(g_err, abs(table.col("g_perp")[i] - g_perp), abs(table.col("g_par")[i] - abs(i1 - i0) / 2.0))
    if e_err > FLUX_E_TOL:
        problems.append(f"levels differ from shift-invert Lanczos by {e_err:.2e}")
    if g_err > FLUX_G_TOL:
        problems.append(f"coupling elements differ from shift-invert Lanczos by {g_err:.2e}")
    centre = int(np.argmin(np.abs(f_eps)))
    if f_eps[centre] == 0.0 and table.col("g_par")[centre] > FLUX_G_TOL:
        problems.append(f"g_par = {table.col('g_par')[centre]:.2e} at f_eps = 0 exceeds {FLUX_G_TOL}")
    return problems


def _check_circuit_gap(job, out_dir, jobs):
    cfg = job.config
    spec = dict(FLUX_DEFAULTS, **cfg.get("spec", {}))
    table = Table(out_dir / f"{job.name}.csv")
    sweep = cfg["f_alpha_sweep"]
    f_alpha, gap = table.col("f_alpha"), table.col("gap")
    problems = _grid_problem("f_alpha", f_alpha, sweep["start"], sweep["stop"], sweep["points"])
    want = [np.diff(flux_levels(spec, fa, 0.0, 2)[0])[0] for fa in f_alpha]
    err = _worst(gap, want)
    if err > FLUX_E_TOL:
        problems.append(f"gaps differ from shift-invert Lanczos by {err:.2e}")
    levels_job = jobs.get("circuit_levels")
    if levels_job is not None:
        levels = Table(out_dir / "circuit_levels.csv")
        centre = int(np.argmin(np.abs(levels.col("f_eps"))))
        row = np.flatnonzero(np.abs(f_alpha - levels_job.config["f_alpha"]) <= 1e-12)
        split = levels.col("E_1")[centre] - levels.col("E_0")[centre]
        if row.size != 1 or abs(gap[row[0]] - split) > 1e-10:
            problems.append("E_1 - E_0 of the level sweep at f_eps = 0 differs from the gap sweep at its f_alpha")
    return problems


_CHECKS: Dict[str, Callable] = {
    "energylevel": _check_sweep,
    "rm_a_sweep_L100": _check_sweep,
    "rm_spectrum": _check_trace,
    "optimization_u_only": _check_trace,
    "optimization_full": _check_trace,
    "trimer_intercell": _check_trace,
    "trimer_intracell": _check_trace,
    "ssh3edges": _check_static,
    "couplings_identical": _check_couplings,
    "couplings_matched": _check_couplings,
    "pumping": _check_pumping,
    "optimization_pump": _check_pump,
    "trivial_topological": _check_quench,
    "trivial_uniform": _check_quench,
    "lz1_path_a": _check_lz_path,
    "lz1_path_b": _check_lz_path,
    "lz2_pump_path": _check_schedule_path,
    "belltransfer": _check_bell,
    "crosscheck_pump_rk4": _check_pump_rk4,
    "crosscheck_pump_bdf": _check_pumping,
    "crosscheck_quench_rk4": _check_quench,
    "circuit_levels": _check_circuit_levels,
    "circuit_gap": _check_circuit_gap,
}


def check(job, out_dir: Path, jobs: dict) -> List[str]:
    """Problems with one job's outputs; a check that crashes is a problem too."""
    try:
        return _CHECKS[job.name](job, Path(out_dir), jobs)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def corrupt(path: Path) -> None:
    """Perturb one computed cell (middle row, first non-axis column) by 1e-6."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    col = next(i for i, name in enumerate(header) if name not in AXIS_COLUMNS)
    row = 1 + (len(lines) - 1) // 2
    cells = lines[row].rstrip("\n").split(",")
    value = float(cells[col])
    cells[col] = repr(value + 1e-6 * max(1.0, abs(value)))
    lines[row] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")
