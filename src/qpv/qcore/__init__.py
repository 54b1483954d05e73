"""Dense linear algebra and quantum primitives on named multi-qubit registers."""

from .layout import MAX_QUBITS, RegisterLayout
from .ops import (
    BASIS_VECTORS,
    CNOT,
    H,
    SWAP2,
    X,
    Y,
    Z,
    apply_matrix,
    apply_on_qubits,
    apply_steps,
    apply_vector_matrix,
    compose_on_qubits,
    basis_projectors,
    binary_entropy,
    branch_matrices,
    check_effect,
    check_state,
    check_unitary,
    conditional_entropy,
    conditional_entropy_pure,
    dephase_register,
    expectation,
    fidelity,
    kron_le,
    partial_trace,
    psd_sqrt,
    purified_distance_pure,
    reduced_outer,
    von_neumann_entropy,
)
from .rng import (
    as_generator,
    density_finish,
    ginibre,
    haar_finish,
    haar_random_unitary,
    random_density_matrix,
    random_pure_state,
    random_unit_vector,
    stream,
    trial_streams,
    unit_finish,
    vector_norm,
)
from .state import (
    BB84_VECTORS,
    BELL_VECTOR,
    PHI1_VECTOR,
    PHI2_VECTOR,
    assemble_raw,
)

__all__ = [name for name in dir() if not name.startswith("_")]
