"""Floor-field cellular automaton for pedestrian evacuation.

The package is organised bottom-up:

    scenario    room geometry, agents, model parameters, file format
    floorfield  static distance field to the nearest exit
    transition  per-direction movement probabilities: field drop, sight
                lines, kernel density of people ahead, wall term
    engine      decision rules, conflict resolution, simulation loop
    metrics     evacuation curves, snapshots, spread, CSV export
    cli         scenario runner and parameter sweeps
"""

from .scenario import Grid, ModelParams, Scenario, ScenarioError, parse_scenario
from .floorfield import compute_sff
from .engine import SimulationState, initial_state, run, run_batch, step
from .metrics import SimulationResult

__all__ = [
    "Grid",
    "ModelParams",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "compute_sff",
    "SimulationState",
    "initial_state",
    "run",
    "run_batch",
    "step",
    "SimulationResult",
]

__version__ = "0.1.0"
