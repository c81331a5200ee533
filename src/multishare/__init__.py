"""Long-term confidential storage by hierarchical secret sharing across
multiple networks.

The package root holds the protocol. The adversary simulator (Scenario,
SimNode, Simulation, load_state, run_scenario) lives in multishare.simnet
and is imported only where it is used.
"""

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

__version__ = "0.1.0"
