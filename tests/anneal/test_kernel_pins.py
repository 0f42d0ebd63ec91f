"""Bit-identity pins for the simulated-annealing kernel.

Each digest covers the returned states, the returned energies and one
``rng.random()`` drawn from the caller's Generator after the call, so a
kernel rewrite that changes a single accept/reject decision, the number
or size of its random draws, or their order fails here. The digests were
recorded with the straightforward per-class Metropolis sweep (mask,
``rng.random(k)``, ``exp`` per hot entry) that the current kernel
replaces with precomputed tables and per-class setup.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.anneal.simulated import SimulatedAnnealingSampler
from repro.qubo.model import QuboModel


def _diag_model(rng, n, integer):
    """Coupling-free model with zero, positive and negative diagonals."""
    if integer:
        d = rng.integers(-3, 4, size=n).astype(np.float64)
    else:
        d = rng.normal(size=n)
        d[rng.random(n) < 0.2] = 0.0
    return QuboModel(n, {(i, i): float(v) for i, v in enumerate(d) if v != 0.0})


def _coupled_model(rng, n, integer, density):
    """Random model with couplings at roughly the given density."""
    coeffs = {}
    for i in range(n):
        v = float(rng.integers(-3, 4)) if integer else float(rng.normal())
        if v != 0.0:
            coeffs[(i, i)] = v
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = float(rng.integers(-2, 3)) if integer else float(rng.normal())
                if v != 0.0:
                    coeffs[(i, j)] = v
    return QuboModel(n, coeffs)


def _bipartite_model(rng, n, integer):
    """Complete bipartite couplings: two contiguous colour classes."""
    half = n // 2
    coeffs = {}
    for i in range(n):
        coeffs[(i, i)] = float(rng.integers(-3, 4)) if integer else float(rng.normal())
    for i in range(half):
        for j in range(half, n):
            coeffs[(i, j)] = (
                float(rng.choice([-2, -1, 1, 2])) if integer else float(rng.normal())
            )
    return QuboModel(n, {k: v for k, v in coeffs.items() if v != 0.0})


def _case(name):
    """``kind/coefficients[-flag...]``, e.g. ``csr/float-init1d``."""
    rng = np.random.default_rng(sum(map(ord, name)))
    kind, rest = name.split("/", 1)
    coefficients, *flags = rest.split("-")
    integer = coefficients == "int"
    params = dict(num_reads=32, num_sweeps=40, seed=rng.integers(1 << 30))
    if kind == "free":
        model = _diag_model(rng, 90 if "big" in flags else 37, integer)
    elif kind == "bipartite":
        model = _bipartite_model(rng, 24, integer)
    else:
        n = 80 if kind == "csr" else 20
        model = _coupled_model(rng, n, integer, 0.05 if kind == "csr" else 0.3)
        if kind in ("dense", "csr"):
            params["coupling_mode"] = "sparse" if kind == "csr" else "dense"
    if "r1" in flags:
        params["num_reads"] = 1
    if "linear" in flags:
        params["beta_schedule"] = "linear"
        params["beta_range"] = (0.05, 4.0)
    if "init1d" in flags:
        params["initial_states"] = rng.integers(0, 2, size=model.num_variables)
    if "init2d" in flags:
        params["initial_states"] = rng.integers(
            0, 2, size=(params["num_reads"], model.num_variables)
        )
    return model, params


def _digest(model, params):
    rng = np.random.default_rng(int(params.pop("seed")))
    ss = SimulatedAnnealingSampler().sample_model(model, seed=rng, **params)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ss.states, dtype=np.int8).tobytes())
    h.update(np.ascontiguousarray(ss.energies, dtype=np.float64).tobytes())
    h.update(repr(float(rng.random())).encode())
    return h.hexdigest()[:16]


PINS = {
    "free/int": "d0484ac66e6987a3",
    "free/float": "db2fee1a342e04a0",
    "free/int-r1": "123e087ddc074b0a",
    "free/float-linear": "bbe84dce69b1170a",
    "free/int-init1d": "9b6b73d066db519c",
    "free/float-init2d": "83ec09aeaf3e170a",
    "free/int-big": "4f5b74f0f9475dc6",
    "free/float-big-r1": "8e0435c2a399ec70",
    "dense/int": "1095670152476e2a",
    "dense/float": "0f6d88c2084c29b4",
    "dense/int-r1": "722e55980fb4c703",
    "dense/float-linear": "ebd00d3377d011d5",
    "dense/int-init2d": "dbed3c77b0675376",
    "csr/int": "2023514dedaad3d1",
    "csr/float": "c02e2da1bc3349c6",
    "csr/int-r1": "de6ca72b328399da",
    "csr/float-init1d": "4f284979076276fb",
    "csr/int-linear": "53f5c338042ef4a8",
    "auto/int": "b69b1c387bb467fc",
    "auto/float": "9c54ad66944e9b72",
    "bipartite/int": "9253e306500c17a8",
    "bipartite/float": "169638fbb31fdd57",
    "bipartite/int-r1": "3634f1c8a9cd06a5",
}



@pytest.mark.parametrize("name", sorted(PINS))
def test_kernel_digest_pinned(name):
    model, params = _case(name)
    assert _digest(model, params) == PINS[name]


def test_coupling_free_solve_imports_no_networkx_or_scipy():
    """The SMT-LIB → anneal path for a coupling-free QUBO stays light."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = textwrap.dedent(
        """
        import sys
        from repro.smt.solver import QuantumSMTSolver

        text = "(declare-const x String)(assert (= (str.len x) 2))(check-sat)"
        result = QuantumSMTSolver.from_script_text(text, seed=0).check_sat()
        heavy = sorted(m for m in ("networkx", "scipy") if m in sys.modules)
        import repro

        print(result.status.value, len(result.model["x"]), heavy)
        print(repro.EmbeddingComposite.__name__, "networkx" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["sat 2 []", "EmbeddingComposite True"]
