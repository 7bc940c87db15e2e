"""`simulate` command-line entry point around run_sweep/write_results."""

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .channel import RadioParams
from .exceptions import ConfigurationError
from .harness import SimulationConfig, run_sweep, write_results
from .snapshot import TrafficConfig

# Expected JSON type of each key: a type (float takes any finite number), a
# literal string, [item type] for a list, or a tuple of alternatives.
_TOP_FIELDS = {"n_bs": int, "area_side": float, "radio": dict, "traffic": dict,
               "schemes": [str], "delta": int, "utilizations": [float],
               "snapshots_per_point": int, "master_seed": int,
               "worker_count": (int, "auto")}
_RADIO_FIELDS = dict.fromkeys(("carrier_freq_ghz", "bandwidth_hz", "noise_figure_db",
                               "p_b_max_w", "p_u_max_w"), float)
_TRAFFIC_FIELDS = {"dl_probability": float, "require_mixed_traffic": bool}


def _matches(value, spec) -> bool:
    if isinstance(spec, tuple):
        return any(_matches(value, s) for s in spec)
    if isinstance(spec, list):
        return isinstance(value, list) and all(_matches(v, spec[0]) for v in value)
    if isinstance(spec, str):
        return value == spec
    if isinstance(value, bool):  # JSON true/false is a Python int, but no number
        return spec is bool
    if spec is float:  # Python's json also reads NaN and Infinity
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, spec)


def _check_section(section: dict, fields: dict, where: str):
    unknown = sorted(set(section) - set(fields))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    for key, value in section.items():
        if not _matches(value, fields[key]):
            raise ConfigurationError(f"{where} key {key} has the wrong type: {value!r}")


def load_config(path) -> SimulationConfig:
    """Build a SimulationConfig from a JSON file.

    Keys mirror the SimulationConfig field names; `radio` and `traffic` are
    nested sections. The per-point utilization lives in the top-level
    `utilizations` list, never under `traffic`. Unknown keys and values of
    the wrong JSON type are a hard error, so typos cannot silently fall
    back to defaults or fail deep inside the sweep.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must contain a JSON object")
    _check_section(raw, _TOP_FIELDS, "config")
    kwargs = {k: v for k, v in raw.items() if k not in ("radio", "traffic")}
    if "radio" in raw:
        _check_section(raw["radio"], _RADIO_FIELDS, "radio")
        kwargs["radio"] = RadioParams(**raw["radio"])
    if "traffic" in raw:
        _check_section(raw["traffic"], _TRAFFIC_FIELDS, "traffic")
        kwargs["traffic"] = TrafficConfig(utilization=1.0, **raw["traffic"])
    return SimulationConfig(**kwargs)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo sweep over dynamic-TDD transmission schemes "
                    "(uncoordinated baseline, zero-forcing joint transmission, "
                    "and joint transmission with dummy symbols).")
    p.add_argument("--config", help="JSON config file mirroring SimulationConfig")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--out", default="results", help="output directory (default: results)")
    p.add_argument("--workers", help="worker processes, integer or 'auto'")
    p.add_argument("--scheme", action="append", choices=["baseline", "jt", "jt-ds"],
                   help="scheme to run (repeatable; default: all)")
    p.add_argument("--utilization", action="append", type=float,
                   help="utilization point (repeatable)")
    p.add_argument("--delta", type=int, help="uplink-BS participation back-off")
    p.add_argument("--snapshots", type=int, help="snapshots per sweep point")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SimulationConfig()
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.workers is not None:
            if args.workers == "auto":
                overrides["worker_count"] = "auto"
            else:
                try:
                    overrides["worker_count"] = int(args.workers)
                except ValueError:
                    raise ConfigurationError(
                        f"--workers must be an integer or 'auto', got {args.workers!r}")
        if args.scheme:
            overrides["schemes"] = tuple(s.replace("-", "_") for s in args.scheme)
        if args.utilization:
            overrides["utilizations"] = tuple(args.utilization)
        if args.delta is not None:
            overrides["delta"] = args.delta
        if args.snapshots is not None:
            overrides["snapshots_per_point"] = args.snapshots
        if overrides:
            config = dataclasses.replace(config, **overrides)
        result = run_sweep(config)
        paths = write_results(result, args.out)
    except (ConfigurationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for entry in result.summaries:
        mean = entry["mean_sum_rate_bps"]
        mean_txt = f"{mean / 1e6:10.2f} Mbit/s" if mean is not None else "       n/a"
        print(f"{entry['scheme']:>8s}  u={entry['utilization']:.4g}  "
              f"mean sum-rate {mean_txt}  failed {entry['n_failed']}")
    print(f"results written to {paths['records.csv']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
