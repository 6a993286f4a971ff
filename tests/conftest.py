"""Shared oracles and helpers; all tests check the package against
independent routes (dense LAPACK diagonalization, closed forms, power
series), never against the code paths under test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import topochain
from topochain.models import ChainHamiltonian


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


def dense_eigh(h: ChainHamiltonian):
    """Brute-force dense diagonalization oracle."""
    return np.linalg.eigh(h.to_dense())


def dense_eigvals(h: ChainHamiltonian):
    return np.linalg.eigvalsh(h.to_dense())


def random_chain(rng, max_sites=12, zero_diagonal=False):
    n = int(rng.integers(1, max_sites + 1))
    diag = np.zeros(n) if zero_diagonal else rng.normal(size=n)
    off = rng.normal(size=n - 1)
    return ChainHamiltonian(diag, off)


def exact_propagator_state(h: ChainHamiltonian, psi0, t):
    """psi(t) = sum_l e^{-i E_l t} <psi_l|psi0> |psi_l> via the dense oracle."""
    vals, vecs = dense_eigh(h)
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


def _kron_terms(spec, f_alpha, f_eps):
    """(diagonal, cos_phi, identity, amp, chi, S) of H = diag - E_J(cos phi_1 +
    cos phi_2) - amp(e^{i chi} S + h.c.), with exp(i phi)|k> = |k+1> on each
    junction and S = exp(i phi_1) exp(i phi_2)."""
    n_c = int(spec.charge_cutoff)
    dim = 2 * n_c + 1
    charge = np.arange(-n_c, n_c + 1, dtype=np.float64)
    raise_op = sp.diags_array(np.ones(dim - 1), offsets=-1)
    k_sq = charge**2
    coef = 4.0 * spec.ec / (1.0 + 4.0 * spec.alpha)
    kinetic = coef * (
        (1.0 + 2.0 * spec.alpha) * (np.add.outer(k_sq, k_sq))
        - 4.0 * spec.alpha * np.outer(charge, charge)
    ).ravel()
    f_sigma = spec.f_sigma_kappa * f_alpha
    c_alpha = float(np.cos(np.pi * (spec.beta * (spec.n_total - f_sigma) + f_alpha)))
    amp, chi = spec.ej * spec.alpha * c_alpha, np.pi * (spec.n_diff - f_eps)
    diagonal = kinetic + spec.ej * 2.0 * (1.0 + spec.alpha)
    return diagonal, 0.5 * (raise_op + raise_op.T), sp.eye_array(dim), amp, chi, sp.kron(raise_op, raise_op)


def kron_hamiltonian(spec, f_alpha, f_eps):
    """The flux qubit's charge-basis H, a scipy.sparse CSC array assembled
    from Kronecker products of single-junction operators."""
    diagonal, cos_phi, ident, amp, chi, both_up = _kron_terms(spec, f_alpha, f_eps)
    h = (
        sp.diags_array(diagonal)
        - spec.ej * sp.kron(cos_phi, ident)
        - spec.ej * sp.kron(ident, cos_phi)
        - amp * (np.exp(1j * chi) * both_up + np.exp(-1j * chi) * both_up.T)
    )
    return h.tocsc()


def kron_dh(spec, f_alpha, f_eps):
    """Analytic dH/df_eps of ``kron_hamiltonian``, a CSR array."""
    _, _, _, amp, chi, both_up = _kron_terms(spec, f_alpha, f_eps)
    return (1j * np.pi * amp * (np.exp(1j * chi) * both_up - np.exp(-1j * chi) * both_up.T)).tocsr()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
