"""Long-term confidential storage by hierarchical secret sharing across
multiple networks."""

from .errors import (CapacityError, CorruptData, EpochMismatch, Infeasible,
                     MultishareError, StateError)
from .field import (DEFAULT_MODULUS, crypto_rng, deterministic_rng,
                    is_probable_prime)
from .protocol import (Access, LinkKind, NetworkRefresh, NetworkSpec,
                       NodeShare, Thresholds, Topology, access_oracle,
                       apply_node_refresh,
                       compute_thresholds_exhaustive,
                       compute_thresholds_formula, deal, decode_secret,
                       encode_secret, reconstruct, refresh)
from .simnet import Scenario, SimNode, Simulation, load_state, run_scenario

__version__ = "0.1.0"
