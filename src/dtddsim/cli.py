"""`simulate` command-line entry point around run_sweep/write_results."""

import argparse
import dataclasses
import json
import os
import sys

from . import __version__
from .exceptions import ConfigurationError
from .harness import SCHEMES, SimulationConfig, run_sweep, write_results


def _build(cls, section: dict, where: str):
    """cls(**section), with each dataclass-typed field built from its own
    nested section; the dataclasses check every value's type and range."""
    names = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(names))
    if unknown:
        raise ConfigurationError(f"unknown {where} key(s): {', '.join(unknown)}")
    kwargs = dict(section)
    for key, value in section.items():
        if dataclasses.is_dataclass(names[key]) and isinstance(value, dict):
            kwargs[key] = _build(names[key], value, key)
    return cls(**kwargs)


def load_config(path) -> SimulationConfig:
    """Build a SimulationConfig from a JSON file.

    Keys mirror the SimulationConfig field names; `radio` and `traffic` are
    nested sections, and a key left out of any section keeps its default.
    The per-point utilization lives in the top-level `utilizations` list,
    never under `traffic`. Unknown keys and values of the wrong JSON type
    are a hard error, so typos cannot silently fail deep inside the sweep.
    A top-level `version` must name this dtddsim version, so the
    config.json a run writes can be passed back to reproduce it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file is not UTF-8 text: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("config file must contain a JSON object")
    version = raw.pop("version", __version__)
    if version != __version__:
        raise ConfigurationError(
            f"config file is for dtddsim {version}, this is dtddsim {__version__}")
    return _build(SimulationConfig, raw, "config")


def worker_count(text: str):
    """--workers: an integer or 'auto' (argparse reports a ValueError)."""
    return text if text == "auto" else int(text)


def _build_parser() -> argparse.ArgumentParser:
    # each flag's dest is the SimulationConfig field it overrides
    p = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo sweep over dynamic-TDD transmission schemes "
                    "(uncoordinated baseline, zero-forcing joint transmission, "
                    "and joint transmission with dummy symbols).")
    p.add_argument("--config", help="JSON config file mirroring SimulationConfig")
    p.add_argument("--out", default="results", help="output directory (default: results)")
    p.add_argument("--seed", dest="master_seed", type=int, help="master seed override")
    p.add_argument("--workers", dest="worker_count", type=worker_count,
                   help="worker processes, integer or 'auto'")
    p.add_argument("--scheme", dest="schemes", action="append", choices=SCHEMES,
                   type=lambda name: name.replace("-", "_"), metavar="{baseline,jt,jt-ds}",
                   help="scheme to run (repeatable; default: all)")
    p.add_argument("--utilization", dest="utilizations", action="append", type=float,
                   help="utilization point (repeatable)")
    p.add_argument("--delta", type=int, help="uplink-BS participation back-off")
    p.add_argument("--snapshots", dest="snapshots_per_point", type=int,
                   help="snapshots per sweep point")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    path, out = args.pop("config"), args.pop("out")
    try:
        config = load_config(path) if path else SimulationConfig()
        config = dataclasses.replace(
            config, **{key: value for key, value in args.items() if value is not None})
        os.makedirs(out, exist_ok=True)  # an unusable --out fails before the sweep
        result = run_sweep(config)
        paths = write_results(result, out)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
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
