"""Bindings of the stacked ``HΨ`` / potential kernels of :mod:`repro.pw.hamiltonian`.

Nothing in the package imports them from here: they are bound in this module
because benchmarks/layers resolves its ``core.batching.*`` spans on these
names (its by-identity patching then reaches every other binding).
"""

from ..pw.hamiltonian import apply_many, update_potentials_many  # noqa: F401
