"""Exception types shared across the simulator, and the config type check."""

import dataclasses
import types


class ConfigurationError(ValueError):
    """Invalid or inconsistent simulation configuration."""


def _is_a(value, annotation) -> bool:
    if isinstance(annotation, types.UnionType):  # int | str
        return any(_is_a(value, a) for a in annotation.__args__)
    if getattr(annotation, "__origin__", None) is tuple:  # tuple[item, ...]
        item = annotation.__args__[0]
        return isinstance(value, (list, tuple)) and all(_is_a(v, item) for v in value)
    if isinstance(value, bool):  # a bool is an int to Python, but no number here
        return annotation is bool
    return isinstance(value, (int, float) if annotation is float else annotation)


def check_field_types(config):
    """Raise ConfigurationError naming the first field of the dataclass
    instance config whose value is not of the field's annotated type.

    A float field takes any int or float, a tuple field a list or tuple of
    its item type, and no number field takes a bool. Ranges, NaN and inf
    are left to the caller's own checks.
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _is_a(value, f.type):
            expected = f.type if hasattr(f.type, "__args__") else f.type.__name__
            raise ConfigurationError(f"{type(config).__name__}.{f.name} must be of "
                                     f"type {expected}, got {value!r}")


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
