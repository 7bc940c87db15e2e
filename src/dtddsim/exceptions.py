"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent simulation configuration."""


class NumericalError(RuntimeError):
    """A numerical routine failed on one snapshot's data.

    The sweep harness records the snapshot's scheme evaluation as failed and
    carries on with the rest of the sweep.
    """


class SingularChannelError(NumericalError):
    """Compound channel matrix is rank deficient beyond tolerance.

    Raised by the precoder when the smallest singular value falls below
    1e-12 of the largest. The sweep harness records the snapshot as failed
    instead of producing garbage powers.
    """
