"""Round-based simulator for hierarchical WSN clustering protocols."""

from .energy_model import RadioParams, aggregation_energy, crossover_distance, rx_energy, tx_energy
from .engine import RoundMetrics, SimulationResult, SimulationState, run_simulation
from .lifetime_bound import BoundInstance, Schedule, bound_for_simulated_network, solve_exact, verify_schedule
from .metrics import SummaryStats, aggregate, instability_period, network_lifetime, stability_period
from .network import Network, NetworkConfig, Node, deploy, load_config
from .protocols import Protocol, make_protocol

__version__ = "0.1.0"

__all__ = [
    "RadioParams", "crossover_distance", "tx_energy", "rx_energy", "aggregation_energy",
    "NetworkConfig", "Node", "Network", "deploy", "load_config",
    "Protocol", "make_protocol",
    "SimulationState", "SimulationResult", "RoundMetrics", "run_simulation",
    "stability_period", "instability_period", "network_lifetime", "aggregate", "SummaryStats",
    "BoundInstance", "Schedule", "solve_exact", "verify_schedule", "bound_for_simulated_network",
    "__version__",
]
