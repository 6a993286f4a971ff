"""Shared oracles and helpers; all tests check the package against
independent routes (dense LAPACK diagonalization, closed forms, power
series), never against the code paths under test."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import topochain
from topochain.errors import InvalidParameterError, PhaseDomainError
from topochain.models import chain_arrays
from topochain.spectra import coupling_ratio_norm_sq


def run_at_blas_threads(cfg: dict, out: Path, threads: int) -> Path:
    """``topochain run`` on ``cfg`` in a fresh interpreter whose OpenBLAS
    libraries start at ``threads`` threads; returns the output directory."""
    out.mkdir(parents=True)
    cfg_path = out / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(topochain.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-m", "topochain.cli", "run", "--config", str(cfg_path), "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out


def make_chain(kind: str, L: int, **params):
    """(diag, off) of the chain of L cells of ``kind`` (``models.chain_arrays``),
    e.g. make_chain("ssh", 7, a=0.1, b=1.0)."""
    return chain_arrays(kind, L, params)


def dense(chain) -> np.ndarray:
    """The dense matrix of a chain ``(diag, off)``."""
    diag, off = chain
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_eigh(chain):
    """Brute-force dense diagonalization oracle."""
    return np.linalg.eigh(dense(chain))


def dense_eigvals(chain):
    return np.linalg.eigvalsh(dense(chain))


def random_chain(rng, max_sites=12, zero_diagonal=False):
    n = int(rng.integers(1, max_sites + 1))
    diag = np.zeros(n) if zero_diagonal else rng.normal(size=n)
    return diag, rng.normal(size=n - 1)


def exact_propagator_state(chain, psi0, t):
    """psi(t) = sum_l e^{-i E_l t} <psi_l|psi0> |psi_l> via the dense oracle."""
    vals, vecs = dense_eigh(chain)
    coeff = vecs.conj().T @ psi0
    return vecs @ (np.exp(-1j * vals * t) * coeff)


def plain_pump_hamiltonians(s, n_sites):
    """Dense H and dH/ds of the plain pump at phase s = t/T, built from its
    closed forms a = 1 - cos(2 pi s), b = 1, u = sin(2 pi s) with +u on the
    odd sites 1, 3, ... and -u on the even ones."""
    phase = 2.0 * np.pi * s
    stagger = np.tile([1.0, -1.0], n_sites // 2)
    intra = np.arange(n_sites - 1) % 2 == 0

    def chain(a, b, u):
        off = np.where(intra, a, b)
        return np.diag(u * stagger) + np.diag(off, 1) + np.diag(off, -1)

    h = chain(1.0 - np.cos(phase), 1.0, np.sin(phase))
    dh = chain(2.0 * np.pi * np.sin(phase), 0.0, 2.0 * np.pi * np.cos(phase))
    return h, dh


def plain_pump_cfm4(period, psi0, steps):
    """Plain-pump state at t = period by the 4th-order commutator-free Magnus
    scheme: per step exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)) with
    H1, H2 at the Gauss nodes, each exponential by dense ``eigh``."""
    r3 = np.sqrt(3.0)
    nodes = (0.5 - r3 / 6.0, 0.5 + r3 / 6.0)
    w_small, w_large = 0.25 - r3 / 6.0, 0.25 + r3 / 6.0
    dt = period / steps
    psi = np.asarray(psi0, dtype=np.complex128)
    for j in range(steps):
        h1, h2 = (plain_pump_hamiltonians((j + c) / steps, psi.size)[0] for c in nodes)
        for gen in (w_large * h1 + w_small * h2, w_small * h1 + w_large * h2):
            vals, vecs = np.linalg.eigh(gen)
            psi = vecs @ (np.exp(-1j * dt * vals) * (vecs.T @ psi))
    return psi


# Closed forms of the paper: the SSH3 edge states, the SSH localization
# length and the path-C frame


@dataclass(frozen=True, eq=False)
class TrimerEdgeStates:
    """The four SSH3 edge states of the mirror-symmetric (a = b) trimer
    chain; the left family lives on (A, B) sites, the right on (B, C)."""

    left_plus: np.ndarray
    left_minus: np.ndarray
    right_plus: np.ndarray
    right_minus: np.ndarray
    lam: float
    xi_norm: float

    def all_states(self):
        return (self.left_plus, self.left_minus, self.right_plus, self.right_minus)


def trimer_edge_states(a: float, c: float, L: int) -> TrimerEdgeStates:
    if abs(a) >= abs(c):
        raise PhaseDomainError(f"trimer edge states need |a| < |c|, got a={a}, c={c}")
    L = int(L)
    lam = a / c
    xi = np.sqrt(coupling_ratio_norm_sq(lam, L))
    n = np.arange(1, L + 1)
    states = {}
    for pm in (+1.0, -1.0):
        fac_left = xi * (-pm * lam) ** (n - 1) / np.sqrt(2.0)
        fac_right = xi * (-pm * lam) ** (L - n) / np.sqrt(2.0)
        left = np.zeros(3 * L)
        right = np.zeros(3 * L)
        left[0::3] = fac_left
        left[1::3] = pm * fac_left
        right[1::3] = fac_right
        right[2::3] = pm * fac_right
        states[pm] = (left, right)
    return TrimerEdgeStates(states[1.0][0], states[-1.0][0], states[1.0][1], states[-1.0][1], lam, xi)


def localization_length(a: float, b: float) -> float:
    """xi = 1 / (ln|b| - ln|a|); a = 0 gives 0 (perfect localization)."""
    if a == 0.0:
        return 0.0
    if abs(a) >= abs(b):
        raise PhaseDomainError(f"localization length needs |a| < |b|, got a={a}, b={b}")
    return 1.0 / (np.log(abs(b)) - np.log(abs(a)))


def path_c_hamiltonian(u: float, theta: float) -> np.ndarray:
    """H = u/cos(theta) * [[cos, sin], [sin, -cos]](theta) of the tilted ramp."""
    if abs(np.cos(theta)) < 1e-12:
        raise InvalidParameterError("theta = +-pi/2 is singular")
    return u / np.cos(theta) * np.array([[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]])


def path_c_frame(theta: float) -> np.ndarray:
    """Rotation R taking {|L>, |R>} to the time-independent eigenbasis of
    the path-C Hamiltonian: R H R^T is diagonal with entries +-u/cos(theta).

    Rows are (cos t/2, sin t/2) and (-sin t/2, cos t/2); the upper state is
    cos(t/2)|L> + sin(t/2)|R>.  The sign of the second row makes R a proper
    rotation, which the printed symmetric form (det = cos theta) is not.
    """
    if not abs(theta) < np.pi / 2:
        raise InvalidParameterError(f"|theta| must be < pi/2, got {theta}")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


# the figure circuit, written out here so that the oracle does not read the
# module under test (test_fluxcircuit.py checks them against its constants):
# E_J = 1, E_J/E_C, alpha, beta, kappa = f_Sigma/f_alpha, N and n
KRON_CIRCUIT = {"ej_over_ec": 50.0, "alpha": 0.5, "beta": 0.05, "kappa": 50.0, "n_total": 1, "n_diff": 1}


def _kron_terms(n_c, f_alpha, f_eps):
    """(diagonal, cos_phi, identity, amp, chi, S) of H = diag - E_J(cos phi_1 +
    cos phi_2) - amp(e^{i chi} S + h.c.), with exp(i phi)|k> = |k+1> on each
    junction and S = exp(i phi_1) exp(i phi_2), at E_J = 1."""
    c = KRON_CIRCUIT
    dim = 2 * n_c + 1
    charge = np.arange(-n_c, n_c + 1, dtype=np.float64)
    raise_op = sp.diags_array(np.ones(dim - 1), offsets=-1)
    k_sq = charge**2
    coef = 4.0 * (1.0 / c["ej_over_ec"]) / (1.0 + 4.0 * c["alpha"])
    kinetic = coef * (
        (1.0 + 2.0 * c["alpha"]) * (np.add.outer(k_sq, k_sq))
        - 4.0 * c["alpha"] * np.outer(charge, charge)
    ).ravel()
    c_alpha = float(np.cos(np.pi * (c["beta"] * (c["n_total"] - c["kappa"] * f_alpha) + f_alpha)))
    amp, chi = c["alpha"] * c_alpha, np.pi * (c["n_diff"] - f_eps)
    diagonal = kinetic + 2.0 * (1.0 + c["alpha"])
    return diagonal, 0.5 * (raise_op + raise_op.T), sp.eye_array(dim), amp, chi, sp.kron(raise_op, raise_op)


def kron_hamiltonian(n_c, f_alpha, f_eps):
    """The flux qubit's charge-basis H at charge cutoff ``n_c``, a
    scipy.sparse CSC array assembled from Kronecker products of
    single-junction operators."""
    diagonal, cos_phi, ident, amp, chi, both_up = _kron_terms(n_c, f_alpha, f_eps)
    h = (
        sp.diags_array(diagonal)
        - sp.kron(cos_phi, ident)
        - sp.kron(ident, cos_phi)
        - amp * (np.exp(1j * chi) * both_up + np.exp(-1j * chi) * both_up.T)
    )
    return h.tocsc()


def kron_dh(n_c, f_alpha, f_eps):
    """Analytic dH/df_eps of ``kron_hamiltonian``, a CSR array."""
    _, _, _, amp, chi, both_up = _kron_terms(n_c, f_alpha, f_eps)
    return (1j * np.pi * amp * (np.exp(1j * chi) * both_up - np.exp(-1j * chi) * both_up.T)).tocsr()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
