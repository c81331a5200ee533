"""Long-term confidential storage by hierarchical secret sharing across
multiple networks."""

from .errors import (CapacityError, CorruptData, CorruptShares,
                     EpochMismatch, Infeasible, InsufficientShares,
                     MultishareError, NoQuorum, StateError,
                     UnsolvableConstraints)
from .field import (DEFAULT_MODULUS, FieldElement, crypto_rng,
                    deterministic_rng, is_probable_prime, random_element)
from .poly import (BirkhoffConstraint, Polynomial, birkhoff_solve,
                   lagrange_at_zero)
from .shamir import (FlatShare, HierShare, Rank, RefreshDelta,
                     apply_refresh, hierarchical_reconstruct,
                     hierarchical_split, refresh_deltas, shamir_reconstruct,
                     shamir_split)
from .protocol import (Access, FunctionalSpace, LinkKind, NetworkSpec,
                       NodeRefresh, NodeShare, Thresholds, Topology,
                       access_oracle, apply_node_refresh,
                       compute_thresholds_exhaustive,
                       compute_thresholds_formula, deal, decode_secret,
                       encode_secret, reconstruct, refresh)
from .simnet import Scenario, SimNode, Simulation, load_state, run_scenario

__version__ = "0.1.0"
