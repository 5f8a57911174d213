"""Computable core of classical and quantum mechanics via Lie algebras.

Submodules
----------
matrixcore : dense complex matrices, exponential, Hermitian eigensolver
liealg     : structure constants, builtin algebras, Killing form, Weyl relation
rotations  : SO(3)/SU(2), Rodrigues formula, Euler angles, covering map
poisson    : canonical and rotational brackets, free rigid body
fock       : bosonic ladder operators, coherent states, highest-weight ladders
fermion    : fermionic Fock space with parity signs
su2reps    : spin-j irreducibles, tensor decomposition, spinor overlaps
thermal    : Gibbs states, generating functional, Kubo product, black body
spectra    : difference spectra, line lists, assignment solver
cli        : command-line front end (``liequant`` entry point)

Each submodule is imported on first use (PEP 562): after a bare
``import liequant``, reading ``liequant.fock`` loads ``fock`` and what it
imports, and nothing else.
"""

import importlib

from .errors import DomainError  # noqa: F401

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("fermion", "fock", "liealg", "matrixcore", "poisson", "rotations", "spectra", "su2reps", "thermal"))


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
