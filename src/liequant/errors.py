"""Library-wide error type, the guards that raise it, and the size caps.

A bad size, a bad parameter or a value past the float range becomes a
``DomainError`` through one of the helpers below.  numpy is imported
inside them, so ``import liequant`` alone does not load it.
"""

import cmath
import math

# Size caps, each with its largest admitted run: argv (other options at their CLI
# defaults), wall time and peak RSS of the process, one BLAS thread on a 2-core VM
MAX_SAMPLES = 100_000  # cover-check --samples 100000: 16.3 s, 36 MB
MAX_ORDER = 600  # gibbs --in m.json --beta 1, m a 600 x 600 Hilbert matrix: 1.7 s, 86 MB
MAX_LEVELS = 2048  # highest-weight --u 1 --v 0 --max-levels 2048: 0.39 s, 121 MB
MAX_MODES = 12  # fermion-check --modes 12: 0.31 s, 33 MB
DIM_CAP = 64  # algebra-verify --name "gl(8)": 0.73 s, 256 MB
MAX_DIM = 900  # cg --k 29/2 --l 29/2: 1.1 s, 81 MB
MAX_KMAX = 1000  # rydberg --kmax 1000: 1.2 s, 156 MB
MAX_ASSIGN_TERMS = 12_000_000  # assign, 120 levels x 1,680 random lines: 6.9 s, 141 MB
MAX_ASSIGN_LINES = 500_000  # assign, 3 levels x 500,000 random lines: 9.8 s, 307 MB


class DomainError(ValueError):
    """Raised when an operation is called outside its domain.

    The ``token`` is a short stable identifier (e.g. ``"shape"``,
    ``"not_hermitian"``) suitable for scripted consumers; the optional
    message adds human-readable detail.
    """

    def __init__(self, token: str, message: str = ""):
        self.token = token
        super().__init__(f"{token}: {message}" if message else token)


def check_cap(size, cap, what: str, token: str = "size_cap") -> None:
    """Raise ``token`` when ``size`` exceeds ``cap``; call it before the allocation it bounds."""
    if size > cap:
        raise DomainError(token, f"{what} must be at most {cap}, got {size}")


def check_positive(value, token: str, what: str) -> None:
    """Raise ``token`` unless 0 < value < inf, which NaN fails."""
    if not 0 < value < math.inf:
        raise DomainError(token, f"{what} must be positive and finite")


def check_finite(value, what: str):
    """Return ``value``; raise ``not_finite`` if it, or an entry of it, is NaN or infinite."""
    if getattr(value, "ndim", 0):
        import numpy as np
        ok = np.isfinite(value).all()
    else:  # a Python or numpy scalar, real or complex
        ok = cmath.isfinite(value)
    if not ok:
        raise DomainError("not_finite", f"{what} leaves the float range")
    return value


def finite(compute, what: str):
    """``check_finite(compute())`` with numpy's overflow and invalid warnings silenced."""
    import numpy as np
    with np.errstate(all="ignore"):
        value = compute()
    return check_finite(value, what)
