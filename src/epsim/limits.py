"""Every size guard, numerical tolerance and configuration bound of the package.

One line per entry: what it bounds and why it has its value.  Checks read
an entry as ``limits.NAME`` when they run, so a changed entry takes effect
at once.  ``verify`` keeps its check thresholds in its own check list, and
a few divide-by-zero floors stay inline next to their division.
"""

from .errors import ShapeError, SizeGuardError

# Size guards, priced from shapes before any large allocation or wasted work.
CONTRACTION_GUARD = 2**24  # entries of a contraction step x its batch: 256 MiB of complex128
STACK_BUDGET = 2**14  # entries a stacked step aims for: stacks run in chunks that stay cache-sized
STATE_GUARD = 2**14  # the dense oracle's statevector: 14 qubits, a gate sweep of milliseconds
STATEVECTOR_GUARD = 2**20  # MPS.to_statevector per state: 16 MiB of complex128
DENSE_DIM_GUARD = 2**12  # side of a dense Hamiltonian or Choi matrix: 256 MiB, an eigh of seconds
MAX_TERMS = 10**4  # terms of a LocalHamiltonian, each embedded into a dense H once
MAX_SUPPORT = 4  # sites of one Hamiltonian term, so a term is at most d^4 x d^4
MAX_ORDER = 64  # orders of thermal_value's one fit: its rounding grows as 1.43^s, 2e-6 at 64
MAX_DUALITY_CASES = 10**6  # duality-check cases: about 30 us each, so at most about 30 s
MAX_SHOTS = 2**53  # a shot count: counts divide exactly in float64 up to 2^53; 8x fits int64

# Tolerances of the invariant checks.  Rounding in the inputs the package
# builds sits near 1e-15; 1e-10 leaves room for parsed input and composition.
TP_TOL = 1e-10  # max |sum A^dag A - 1| of a gate, Kraus set, measurement or canonical site
NORM_TOL = 1e-10  # | ||psi|| - 1 | of a state vector
EQ_TOL = 1e-10  # Hermiticity, the Choi-state conditions and a gate split's recombination
PSD_CLAMP = 1e-10  # eigenvalues above -PSD_CLAMP are rounding and clamp to zero before a sqrt
DENSITY_TOL = 1e-8  # a measured state: past it no density matrix; past PSD_CLAMP no root
EIGVEC_TOL = 1e-8  # ||U v - <v|U|v> v|| of the controlled-swap estimate's eigenvector
MODULAR_TOL = 1e-6  # |Tr e^{-H} - 1| of a modular Hamiltonian, its state's normalization
MIN_OVERLAP = 1e-3  # |<b|phi>|, |<b|psi>| of a reference state b; 1/overlap scales the error
MAX_CONDITION = 1e12  # condition number of the moment fit: past it the solve loses 12 digits

# Cutoffs below which a number counts as zero.
ZERO_TOL = 1e-12  # gate-split and Choi ranks, a zero vector, a phase entry, a lost sample mass
ZERO_WEIGHT = 1e-14  # an MPS singular value or a branch probability: rounding of unit weights
LOG_FLOOR = 1e-15  # eigenvalues left out of -sum w log w, as 0 log 0 = 0

# Accuracy targets.
SOLVER_TOL = 1e-10  # default Taylor-remainder target of a moment grid
DUALITY_TOL = 1e-10  # default pass threshold of the duality-check task

def guard(size, limit, what: str, unit: str = "entries"):
    """Raise SizeGuardError when ``size`` exceeds ``limit``; ``what`` names
    the thing priced, in ``unit``."""
    if size > limit:
        raise SizeGuardError(f"{what} has {size} {unit} (> {limit}); refusing")


def check_shots(shots):
    """Raise ShapeError unless 1 <= shots <= MAX_SHOTS."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ShapeError(f"shots must be in 1..{MAX_SHOTS}, got {shots!r}")
