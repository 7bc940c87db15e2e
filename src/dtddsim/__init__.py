"""Monte Carlo simulator for dynamic-TDD ultra-dense small-cell networks.

Compares three transmission schemes on shared traffic/channel snapshots:

* ``baseline`` -- fully uncoordinated: every BS with a downlink UE and every
  uplink UE transmits independently at maximum power.
* ``jt``       -- network-wide zero-forcing joint transmission: all BSs not
  receiving uplink form a distributed antenna array toward the downlink UEs.
* ``jt_ds``    -- joint transmission with dummy symbols: the precoder
  additionally nulls toward selected uplink BSs by treating them as
  receivers of zero-power streams, suppressing BS-to-BS interference.
"""

__version__ = "0.1.0"

from .exceptions import ConfigurationError, NumericalError, SingularChannelError
from .topology import Topology, UePlacement, build_grid, drop_ues
from .channel import (
    ChannelRealization,
    RadioParams,
    build_channel_realization,
    draw_channel,
    noise_power,
    path_loss_db,
)
from .snapshot import Snapshot, TrafficConfig, generate_snapshot
from .precoding import (
    assemble_m,
    build_precoder,
    select_uplink_bs,
    v_ul,
    v_ul_max,
    zf_precoder,
)
from .power import solve_power_lp
from .metrics import (
    SnapshotMetrics,
    SweepPointSummary,
    aggregate,
    baseline_sinrs,
    jt_sinrs,
)
from .harness import (
    RunResult,
    SimulationConfig,
    derive_stream,
    evaluate_snapshot,
    run_sweep,
    write_results,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericalError",
    "SingularChannelError",
    "Topology",
    "UePlacement",
    "build_grid",
    "drop_ues",
    "ChannelRealization",
    "RadioParams",
    "build_channel_realization",
    "draw_channel",
    "noise_power",
    "path_loss_db",
    "Snapshot",
    "TrafficConfig",
    "generate_snapshot",
    "assemble_m",
    "build_precoder",
    "select_uplink_bs",
    "v_ul",
    "v_ul_max",
    "zf_precoder",
    "solve_power_lp",
    "SnapshotMetrics",
    "SweepPointSummary",
    "aggregate",
    "baseline_sinrs",
    "jt_sinrs",
    "RunResult",
    "SimulationConfig",
    "derive_stream",
    "evaluate_snapshot",
    "run_sweep",
    "write_results",
]
