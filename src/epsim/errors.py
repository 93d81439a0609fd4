"""Exception types shared across the package."""

import numpy as np


class EpsimError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(EpsimError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class NumericalError(EpsimError, RuntimeError):
    """A numerical routine failed (non-convergence, overflow, ...)."""


class PositivityError(EpsimError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class InvalidChoiError(EpsimError, ValueError):
    """A matrix does not satisfy the Choi-state conditions."""


class CanonicalFormError(EpsimError, ValueError):
    """An operation requires a canonical form the MPS does not have."""


class SizeGuardError(EpsimError, RuntimeError):
    """A brute-force computation exceeds its hard size guard.

    Carries a human-readable cost report in the message.
    """


class IllConditionedError(EpsimError, RuntimeError):
    """A linear solve is too ill-conditioned to trust."""


class BudgetError(EpsimError, ValueError):
    """Requested accuracy is unreachable with the given parameters.

    The message includes advice on how to adjust them.
    """


class ReferenceStateError(EpsimError, ValueError):
    """No computational basis state has usable overlap with both states."""


class SamplingError(EpsimError, RuntimeError):
    """A sampling run produced no usable samples."""


class ConfigError(EpsimError, ValueError):
    """An experiment configuration is missing fields or inconsistent."""


def raise_first(bad, error, message, cases=None):
    """Raise ``error`` for the first True entry of ``bad``, a check over a
    stack of cases; ``message`` maps its index tuple to the text.  Inside a
    stack the text is prefixed ``case <n>:``, with n counted in row-major
    order over the batch axes, or taken from ``cases`` when given."""
    if not bad.any():
        return
    flat = int(np.argmax(bad.reshape(-1)))
    text = message(np.unravel_index(flat, bad.shape))
    if bad.ndim:
        text = f"case {flat if cases is None else cases[flat]}: {text}"
    raise error(text)
