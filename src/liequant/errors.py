"""Library-wide error type, the guards that raise it, and the size caps.

A bad size, a bad parameter or a value past the float range becomes a ``DomainError``
through one of the helpers below; every count, spin, real and array argument is read by
``check_count``, ``check_spin``, ``check_real`` (``check_positive`` wraps it) or ``check_array``.
numpy, ``numbers`` and ``fractions`` are imported inside them, not by ``import liequant``.
"""

import cmath
import math
import operator

# Size caps, each with its largest admitted run: argv (other options at their CLI
# defaults), wall time and peak RSS of the process, one BLAS thread on a 2-core VM
MAX_SAMPLES = 100_000  # rigidbody --inertia=1,2,3 --j0=1,0.5,0.2 --steps 100000: 0.8 s, 70 MB;
#                        cover-check --samples 100000: 0.3-0.4 s, 100 MB
MAX_ORDER = 600  # gibbs --in m.json --beta 1, m a 600 x 600 Hilbert matrix: 1.0 s, 73 MB
MAX_LEVELS = 2048  # highest-weight --u 1 --v 0 --max-levels 2048: 0.39 s, 121 MB
MAX_MODES = 12  # fermion-check --modes 12: 0.31 s, 33 MB
DIM_CAP = 64  # algebra-verify --name "gl(8)": 0.2 s, 43 MB
MAX_DIM = 900  # cg --k 29/2 --l 29/2: 0.3 s, 57 MB
MAX_KMAX = 1000  # rydberg --kmax 1000: 1.2 s, 156 MB
MAX_ASSIGN_TERMS = 12_000_000  # assign, 120 levels x 1,680 random lines: 6.9 s, 141 MB
MAX_ASSIGN_LINES = 500_000  # assign, 3 levels x 500,000 random lines: 9.8 s, 307 MB
MAX_ASSIGN_STARTS = 1_000  # assign --starts 1000, the README's 6 lines, 4 levels: 0.6 s, 37 MB
MAX_ASSIGN_ITERS = 1_000  # assign --max-iters 1000, 3 lines that never converge: 0.4 s, 37 MB


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
    if size > cap:  # the message leaves out ``size``: str() refuses an int of 4,300 digits or more
        raise DomainError(token, f"{what} must be at most {cap}")


def check_count(value, what: str, least: int = 0, cap=math.inf, token: str = "bad_argument") -> int:
    """``value`` as an int, read by ``operator.index`` (a float, even 3.0 or NaN, or a str raises
    ``TypeError``); ``token`` below ``least`` and ``size_cap`` past ``cap``."""
    count = operator.index(value)
    if count < least:
        raise DomainError(token, f"{what} must be at least {least}")
    check_cap(count, cap, what)
    return count


def check_spin(j, cap=math.inf) -> int:
    """2j as an int for a spin ``j`` that ``Fraction`` reads (1, Fraction(3, 2), 2.5, "5/2"):
    ``bad_spin`` unless it is a nonnegative half-integer, ``size_cap`` when 2j+1 exceeds ``cap``."""
    from fractions import Fraction
    try:
        twoj = 2 * Fraction(j)
        ok = twoj.denominator == 1 and twoj >= 0
    except (ValueError, OverflowError, ZeroDivisionError):  # NaN, infinity, "1/0", "x"
        ok = False
    if not ok:
        raise DomainError("bad_spin", "spin must be a nonnegative half-integer")
    check_cap(twoj + 1, cap, "2j+1")
    return int(twoj)


def check_real(value, what: str, token: str = "not_finite") -> float:
    """``float(value)`` for a ``numbers.Real`` (a str, a complex or None raises ``TypeError``);
    ``token`` for NaN, an infinity or an int past the float range."""
    import numbers
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, not {type(value).__name__}")
    try:
        if math.isfinite(x := float(value)):
            return x
    except OverflowError:  # an int past the float range, such as 10**400
        pass
    raise DomainError(token, f"{what} must be finite")


def check_positive(value, token: str, what: str) -> float:
    """``check_real(value, what, token)``, and ``token`` unless it is above 0."""
    if (x := check_real(value, what, token)) <= 0:
        raise DomainError(token, f"{what} must be positive and finite")
    return x


def check_array(value, what: str, shape: tuple, dtype=float):
    """``value`` as an ndarray of ``dtype``, float or complex, by one ``np.asarray`` that copies no
    array of that dtype.  A non-number entry, or a complex one in a real array, is ``TypeError``; a
    ragged list or another shape (None: any length) ``shape``; 10**400 ``not_finite``; NaN passes."""
    import numpy as np
    try:
        a = np.asarray(value)
        if a.dtype != dtype:
            import numbers  # an object array holds ints past the float range, Fractions, None, str
            real = not issubclass(dtype, complex)
            if a.dtype.kind not in ("biuf" if real else "biufc") and not (a.dtype.kind == "O" and
                    all(isinstance(x, numbers.Real if real else numbers.Complex) for x in a.flat)):
                raise TypeError(f"{what} must hold {'real' if real else 'complex'} numbers")
            a = a.astype(dtype)
    except (ValueError, OverflowError) as e:  # a ragged list, or an int such as 10**400
        raise DomainError("shape" if isinstance(e, ValueError) else "not_finite", f"{what}: {e}")
    if a.shape != shape and (a.ndim != len(shape) or shape.count(None) < a.ndim and any(
            n is not None and n != m for n, m in zip(shape, a.shape))):  # all None: only ndim
        raise DomainError("shape", f"{what} must have shape {shape}, got {a.shape}")
    return a


def check_finite(value, what: str):
    """Return ``value``; raise ``not_finite`` if it, or an entry of it, is NaN or infinite."""
    if getattr(value, "ndim", 0):
        import numpy as np
        ok = np.isfinite(value).all()
    else:  # a Python or numpy scalar, real or complex
        try:
            ok = cmath.isfinite(value)
        except OverflowError:  # an int past the float range
            ok = False
    if not ok:
        raise DomainError("not_finite", f"{what} leaves the float range")
    return value


def finite(compute, what: str):
    """``check_finite(compute())`` with numpy's overflow and invalid warnings silenced."""
    import numpy as np
    with np.errstate(all="ignore"):
        value = compute()
    return check_finite(value, what)
