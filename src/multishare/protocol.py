"""Two-level sharing across multiple networks.

One outer polynomial P carries the secret chunk; the mother network's
inner secret is P(1) and daughter i's inner secret is P'(i), each dealt
to that network's nodes with an ordinary flat scheme. Recovery needs the
mother's inner secret plus deg(P) daughter derivative values, combined by
mixed value/derivative interpolation.

The access oracle, AdversaryKnowledge, models every dealt value as a
linear functional over (secret, dealer randomness); over a field this is
an exact dichotomy: either the secret is determined or its posterior is
uniform. It decides network by network; the dense model over all
coordinates at once is the tests' reference (tests/reference.py).
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, repeat
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .errors import CapacityError, CorruptData, EpochMismatch, Infeasible
from .field import (BLOCK_WORDS, DEFAULT_MODULUS, echelon_insert,
                    echelon_reduce, express_over_rows, is_probable_prime,
                    weighted_column_sum)
from .poly import birkhoff_matrix_row, lagrange_zero_weights, random_columns

# compute_thresholds_exhaustive walks up to 2^networks sets of known
# networks, and finds each network's quorum by an elimination cubic in its
# inner degree.
EXHAUSTIVE_NETWORK_BOUND = 12
EXHAUSTIVE_DEGREE_BOUND = 100


class LinkKind(Enum):
    ITS = "ITS"              # information-theoretically secure channel
    CLASSICAL = "Classical"  # recordable by a harvesting adversary


@dataclass(frozen=True)
class NetworkSpec:
    id: str
    node_count: int
    inner_degree: int
    link: LinkKind


@dataclass(frozen=True)
class Topology:
    """Mother + daughter networks, inner degrees, and the outer degree."""
    modulus: int
    networks: Tuple[NetworkSpec, ...]
    mother_index: int
    outer_degree: int

    def __post_init__(self):
        object.__setattr__(self, "networks", tuple(self.networks))
        if len(self.networks) < 2:
            raise ValueError("need at least two networks")
        if not 0 <= self.mother_index < len(self.networks):
            raise ValueError("mother index out of range")
        if not 1 <= self.outer_degree <= len(self.networks) - 1:
            raise ValueError("outer degree must be in 1..(networks-1)")
        ids = [n.id for n in self.networks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate network ids")
        for i, net in enumerate(self.networks):
            if net.node_count < 1:
                raise ValueError(f"network {net.id}: need at least one node")
            if net.inner_degree < 0:
                raise ValueError(f"network {net.id}: negative degree")
            if net.inner_degree + 1 > net.node_count:
                raise ValueError(
                    f"network {net.id}: quorum exceeds node count")
            if net.node_count >= self.modulus:
                raise ValueError(
                    f"network {net.id}: node count must be below modulus")
            want = LinkKind.ITS if i == self.mother_index else LinkKind.CLASSICAL
            if net.link is not want:
                raise ValueError(
                    f"network {net.id}: expected {want.value} link")
        # 2^127 - 1 is a proven (Mersenne) prime; Miller-Rabin checks any
        # other modulus.
        if (self.modulus != DEFAULT_MODULUS
                and not is_probable_prime(self.modulus)):
            raise ValueError("modulus must be prime")

    @property
    def mother(self) -> NetworkSpec:
        return self.networks[self.mother_index]

    def daughters(self) -> List[NetworkSpec]:
        return [n for i, n in enumerate(self.networks)
                if i != self.mother_index]

    def derivative_point(self, network_id: str) -> int:
        """Daughter i (1-based in topology order) evaluates P' at i."""
        for i, net in enumerate(self.daughters(), start=1):
            if net.id == network_id:
                return i
        raise ValueError(f"{network_id} is not a daughter network")

    def spec(self, network_id: str) -> NetworkSpec:
        for net in self.networks:
            if net.id == network_id:
                return net
        raise ValueError(f"unknown network {network_id}")

    def total_nodes(self) -> int:
        return sum(n.node_count for n in self.networks)


@dataclass(frozen=True)
class NodeShare:
    network_id: str
    node_index: int
    epoch: int
    values: Tuple[int, ...]  # one per secret chunk, each in 0..modulus-1


@dataclass(frozen=True)
class Thresholds:
    t_networks: int
    t_nodes: int
    t_fail: int
    t_f0: int
    t_f1: int


class Access(Enum):
    RECONSTRUCTS = "Reconstructs"
    NO_INFORMATION = "NoInformation"


# ---------------------------------------------------------------------------
# Dealing and reconstruction


def deal(secret_chunks: List[int], topology: Topology, rng,
         sink=None) -> Dict[str, List[NodeShare]]:
    """Deal every chunk with fresh randomness and return shares per network.

    Per chunk: a random outer polynomial P with P(0) the chunk gives each
    network its inner secret, constant_functional's P(1) for the mother
    and P'(a) for daughter a; then a random inner polynomial with that
    constant gives node j its value at j. All chunks are dealt at once,
    column by column: randomness is drawn as P's coefficient columns
    p_1..p_D across all chunks, then, network by network in topology
    order, that network's inner coefficient columns; every coefficient is
    uniform over 0..q-1.

    With `sink`, each share is passed to sink(share) as soon as it is made
    and is not kept, and the result is empty. Memory then stays within the
    inner secrets not yet dealt, one network's coefficient columns and one
    share; `secret_chunks` is dropped after the outer split, unless the
    caller holds on to it.
    """
    q = topology.modulus
    if secret_chunks and not (0 <= min(secret_chunks)
                              and max(secret_chunks) < q):
        raise ValueError("chunk out of range for the topology modulus")
    shares = _dealt_shares(secret_chunks, topology, rng)
    del secret_chunks
    if sink is None:
        out: Dict[str, List[NodeShare]] = {
            net.id: [] for net in topology.networks}
        for share in shares:
            out[share.network_id].append(share)
        return out
    for share in shares:
        sink(share)
        del share  # not held while the next share is made
    return {}


def _dealt_shares(secret_chunks: List[int], topology: Topology,
                  rng) -> Iterator[NodeShare]:
    """deal's shares one at a time, network by network in topology order,
    each network's in node order."""
    q = topology.modulus
    count = len(secret_chunks)
    outer = [secret_chunks, *random_columns(topology.outer_degree, count, q,
                                            rng)]
    del secret_chunks
    inner_secrets = [
        weighted_column_sum(constant_functional(topology, net.id), outer, q)
        for net in topology.networks]
    del outer
    for net in topology.networks:
        # Popped, so each inner-secret column is freed once dealt; each
        # node's column is evaluated as its share is asked for.
        columns = [inner_secrets.pop(0),
                   *random_columns(net.inner_degree, count, q, rng)]
        for j in range(1, net.node_count + 1):
            yield NodeShare(net.id, j, 0, _node_values(j, columns, q))
        del columns


def _node_values(node_index: int, columns: Sequence[Sequence[int]],
                 q: int) -> Tuple[int, ...]:
    """Node node_index's values of the polynomials whose coefficient
    columns, constant first, these are: sum_t j^t columns[t], j the node
    index, in one weighted_column_sum pass. deal evaluates a share and
    apply_node_refresh an updated one through it."""
    weights = birkhoff_matrix_row(node_index, 0, len(columns) - 1, q)
    return tuple(weighted_column_sum(weights, columns, q))


def constant_functional(topology: Topology, network_id: str) -> List[int]:
    """A network's inner secret as a functional over the outer polynomial's
    coefficients [secret, p_1..p_D]: P(1) for the mother, P'(a) for
    daughter a."""
    q = topology.modulus
    d = topology.outer_degree
    if network_id == topology.mother.id:
        return birkhoff_matrix_row(1, 0, d, q)
    return birkhoff_matrix_row(topology.derivative_point(network_id), 1, d, q)


def _outer_weights(topology: Topology,
                   rows: Sequence[Sequence[int]]) -> Optional[list]:
    """Weights expressing the secret P(0) over the inner secrets whose
    constant functionals are `rows`, in the order given; None when they do
    not determine it. The one outer solve: reconstruction and the
    adversary oracle decide through it; compute_thresholds_exhaustive
    builds the same span incrementally."""
    return express_over_rows(rows, [1] + [0] * topology.outer_degree,
                             topology.modulus)


def checked_shares(shares: Iterable[NodeShare],
                   topology: Topology) -> Iterator[NodeShare]:
    """Yield each share once it is checked against the ones before it, so
    a caller may hold one share at a time. Raise EpochMismatch when the
    shares span epochs; CorruptData when their chunk counts differ or a
    share is not a distinct node of the topology. Only the first share's
    epoch and chunk count are kept, not the share."""
    node_counts = {net.id: net.node_count for net in topology.networks}
    seen = set()
    for s in shares:
        if not seen:
            epoch, chunk_count = s.epoch, len(s.values)
        elif s.epoch != epoch:
            raise EpochMismatch(
                f"shares span epochs {sorted({epoch, s.epoch})}")
        elif len(s.values) != chunk_count:
            raise CorruptData(f"inconsistent chunk counts "
                              f"{sorted({chunk_count, len(s.values)})}")
        pos = (s.network_id, s.node_index)
        if not 1 <= s.node_index <= node_counts.get(s.network_id, 0):
            raise CorruptData(f"share {s.network_id}/{s.node_index} is not "
                              f"a node of the topology")
        if pos in seen:
            raise CorruptData(
                f"share {s.network_id}/{s.node_index} given twice")
        seen.add(pos)
        yield s
        del s  # not held while the next share is read


def reconstruct(shares: Union[Mapping, Iterable[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    `shares` is a mapping of network id to that network's shares, or one
    stream of shares in any order, checked as they arrive
    (checked_shares). Needs an inner quorum on the mother plus inner
    quorums on at least outer_degree daughters. A network's shares are
    held until all node_count of them have arrived, or the stream ends;
    then its lowest-index quorum recovers its inner secret by
    interpolation at zero, and its shares are dropped. A stream sorted by
    network therefore holds one network's shares at a time.

    No share is ignored: every share beyond a network's quorum, and every
    daughter beyond the first outer_degree recovered, must agree with the
    polynomial the others determine, else CorruptData names the network
    and node. A further daughter is checked, and its inner secret
    dropped, as soon as every daughter before it in topology order is
    settled, so that a stream sorted by network holds the inner secrets
    of the mother and outer_degree daughters, not of every daughter.
    Errors are raised only once the whole stream is checked, so that a
    failed check anywhere in it decides the error: first a share's
    disagreement, for the first such network in topology order; then
    Infeasible; then a daughter's disagreement, for the first such
    daughter. Errors are detected, not corrected.
    """
    q = topology.modulus
    if isinstance(shares, Mapping):
        shares = chain.from_iterable(shares.values())
    nets = {net.id: net for net in topology.networks}
    given = dict.fromkeys(nets, 0)
    held: Dict[str, List[NodeShare]] = {}
    # A further daughter's inner secret is None once it is checked.
    recovered: Dict[str, Optional[List[int]]] = {}
    faults: Dict[str, str] = {}
    settled = set()
    daughters = [net.id for net in topology.daughters()]
    d = topology.outer_degree
    chosen: List[str] = []  # the first d daughters recovered
    disagreement: Optional[str] = None  # of the first further daughter

    def settle(nid: str) -> None:
        settled.add(nid)
        have = held.pop(nid, [])
        if len(have) > nets[nid].inner_degree:
            recovered[nid], fault = _inner_secret(nets[nid], have, q)
            if fault:
                faults[nid] = fault

    def check_daughters() -> None:
        """Check each further daughter whose place in topology order is
        decided, against the chosen daughters alone: every daughter's
        constant functional has a zero first coordinate, so the mother's
        weight over [mother, *chosen] is always 0."""
        nonlocal disagreement
        for nid in daughters:
            if nid not in settled:
                return
            if recovered.get(nid) is None or nid in chosen:
                continue
            if len(chosen) < d:
                chosen.append(nid)
                continue
            # The inner secret this daughter must hold, over the chosen
            # ones.
            over = express_over_rows(
                [constant_functional(topology, c) for c in chosen],
                constant_functional(topology, nid), q)
            if (over is not None and not disagreement
                    and weighted_column_sum(
                        over, [recovered[c] for c in chosen], q)
                    != recovered[nid]):
                disagreement = (f"network {nid}: its inner secret disagrees "
                                f"with networks "
                                f"{[topology.mother.id, *chosen]}")
            recovered[nid] = None

    for s in checked_shares(shares, topology):
        nid = s.network_id
        held.setdefault(nid, []).append(s)
        del s  # not held past its network
        given[nid] += 1
        if given[nid] == nets[nid].node_count:
            settle(nid)
            check_daughters()
    for nid in nets:
        if nid not in settled:
            settle(nid)
    check_daughters()
    for net in topology.networks:
        if net.id in faults:
            raise CorruptData(faults[net.id])
    mother_id = topology.mother.id
    missing = []
    if mother_id not in recovered:
        missing.append("mother quorum not met")
    if len(chosen) < d:
        missing.append(f"daughter quorums {len(chosen)}/{d} met")
    if missing:
        detail = "; ".join(missing) + " (" + ", ".join(
            f"{net.id}: {min(given[net.id], net.inner_degree + 1)}/"
            f"{net.inner_degree + 1}" for net in topology.networks) + ")"
        raise Infeasible(detail)
    rows = [constant_functional(topology, nid)
            for nid in (mother_id, *chosen)]
    weights = _outer_weights(topology, rows)
    if weights is None:
        raise Infeasible("outer constraint matrix is singular")
    if disagreement:
        raise CorruptData(disagreement)
    return weighted_column_sum(
        weights, [recovered[nid] for nid in (mother_id, *chosen)], q)


def _inner_secret(net: NetworkSpec, have: List[NodeShare],
                  q: int) -> Tuple[List[int], Optional[str]]:
    """The inner secret that the lowest-index quorum of `have`, at least a
    quorum of net's shares, determines; and a message naming the first
    further share that disagrees with it, if one does."""
    need = net.inner_degree + 1
    have.sort(key=lambda s: s.node_index)
    quorum, extra = have[:need], have[need:]
    xs = [s.node_index for s in quorum]
    columns = [s.values for s in quorum]
    secret = weighted_column_sum(lagrange_zero_weights(xs, q), columns, q)
    for s in extra:
        # P(x) is the value at zero of X -> P(X + x).
        shifted = lagrange_zero_weights([a - s.node_index for a in xs], q)
        if weighted_column_sum(shifted, columns, q) != list(s.values):
            return secret, (f"network {net.id}: the share of node "
                            f"{s.node_index} disagrees with nodes {xs}")
    return secret, None


# ---------------------------------------------------------------------------
# Proactive refresh


@dataclass(frozen=True)
class NetworkRefresh:
    """One network's refresh of one round: the coefficient columns
    c_1..c_k (k its inner degree) of its zero-constant refresh
    polynomials, one entry per chunk. Node j's delta is
    sum_t j^t c_t; apply_node_refresh adds it to node j's share."""
    network_id: str
    from_epoch: int
    node_count: int
    chunk_count: int
    modulus: int
    columns: Tuple[List[int], ...]

    def delta(self, node_index: int) -> Tuple[int, ...]:
        """Node node_index's delta, one value per chunk."""
        if not 1 <= node_index <= self.node_count:
            raise ValueError("no such node")
        if not self.columns:
            return (0,) * self.chunk_count
        q = self.modulus
        weights = birkhoff_matrix_row(node_index, 0, len(self.columns), q)
        return tuple(weighted_column_sum(weights[1:], self.columns, q))


def refresh(topology: Topology, chunk_count: int, epoch: int,
            rng) -> Dict[str, NetworkRefresh]:
    """Fresh zero-constant inner polynomials, one per network per chunk;
    the outer polynomial is untouched. Randomness is drawn network by
    network in topology order, each network's coefficient columns
    c_1..c_k across all chunks in turn, each uniform. No delta is
    evaluated here: apply_node_refresh updates a share from its network's
    columns, and NetworkRefresh.delta evaluates a node's delta, when
    asked."""
    q = topology.modulus
    return {net.id: NetworkRefresh(
                net.id, epoch, net.node_count, chunk_count, q,
                tuple(random_columns(net.inner_degree, chunk_count, q, rng)))
            for net in topology.networks}


def apply_node_refresh(share: NodeShare,
                       network_refresh: NetworkRefresh) -> NodeShare:
    """`share` advanced one epoch: node j's value (_node_values) over
    [share, c_1..c_k], j its node index, as deal evaluates a share;
    ValueError unless it is a share of the refreshed network at from_epoch
    with chunk_count values."""
    r = network_refresh
    if (share.network_id != r.network_id
            or not 1 <= share.node_index <= r.node_count):
        raise ValueError("refresh does not match share position")
    if share.epoch != r.from_epoch:
        raise ValueError("delta epoch does not match share")
    if len(share.values) != r.chunk_count:
        raise ValueError("chunk count mismatch")
    return replace(share, epoch=share.epoch + 1, values=_node_values(
        share.node_index, [share.values, *r.columns], r.modulus))


# ---------------------------------------------------------------------------
# Access oracle


class AdversaryKnowledge:
    """The exact access oracle, decomposed by network and fed one capture
    at a time. The tests check it against one dense elimination over all
    coordinates at once, the reference in tests/reference.py.

    A row captured from network i is c*h_i + b: h_i is the network's
    constant functional over the outer coefficients, c is 1 for a share
    and 0 for a refresh delta, and b lies in the network's own inner and
    refresh coordinates B_i. The B_i are disjoint, so the captured span
    meets the outer coordinates exactly in span{h_i : h_i in V_i}, V_i the
    span of network i's rows. Each network therefore keeps an echelon
    basis over B_i alone, carrying c and the captured values as payload: a
    row whose B_i part reduces away while c does not yields the network's
    inner secret, after which its later rows add nothing. The secret is
    determined iff it is in the span of the known networks' h_i, a check
    over 1 + outer_degree columns.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._pivots: Dict[str, list] = {
            net.id: [] for net in topology.networks}
        self._inner: Dict[str, List[int]] = {}  # network id -> inner secret

    def add(self, kind: str, network_id: str, node_index: int, epoch: int,
            values: Sequence[int]) -> None:
        """One captured vector: kind "share" holds node_index's share at
        `epoch`; kind "delta" holds its refresh delta of round `epoch`.
        ValueError for a network, node or epoch that the topology does not
        have (node 0, say, would hold the inner secret itself)."""
        net = self.topology.spec(network_id)
        if not 1 <= node_index <= net.node_count:
            raise ValueError(f"no node {node_index} in network {network_id}")
        first = 0 if kind == "share" else 1  # refresh rounds count from 1
        if epoch < first:
            raise ValueError(f"no {kind} of epoch {epoch}")
        if network_id in self._inner:
            return
        q = self.topology.modulus
        k = net.inner_degree
        powers = [pow(node_index, t, q) for t in range(1, k + 1)]
        if kind == "share":
            row, c = powers * (epoch + 1), 1
        else:
            row, c = [0] * (k * epoch) + powers, 0
        rest = echelon_insert(self._pivots[network_id], row, [c, *values], q)
        if rest is not None and rest[0]:
            inv = pow(rest[0], -1, q)
            self._inner[network_id] = [v * inv % q for v in rest[1:]]
            del self._pivots[network_id]

    def known_networks(self) -> List[str]:
        """Ids, in topology order, of the networks whose inner secret the
        captures determine."""
        return [net.id for net in self.topology.networks
                if net.id in self._inner]

    def recover(self) -> Optional[List[int]]:
        """The secret chunks when the captures determine them, else None."""
        known = self.known_networks()
        weights = _outer_weights(
            self.topology,
            [constant_functional(self.topology, nid) for nid in known])
        if weights is None:
            return None
        return weighted_column_sum(
            weights, [self._inner[nid] for nid in known],
            self.topology.modulus)


def access_oracle(node_set: Iterable, topology: Topology) -> Access:
    """Exact secrecy dichotomy for a set of held shares.

    Elements are (network_id, node_index) pairs (epoch 0) or
    (network_id, node_index, epoch) triples. Each is fed to a fresh
    AdversaryKnowledge as a share without values; returns RECONSTRUCTS iff
    they determine the secret. A network, node or epoch outside the
    topology is a ValueError.
    """
    know = AdversaryKnowledge(topology)
    for network_id, node_index, *epoch in node_set:
        know.add("share", network_id, node_index, *(epoch or [0]), ())
    return (Access.NO_INFORMATION if know.recover() is None
            else Access.RECONSTRUCTS)


# ---------------------------------------------------------------------------
# Thresholds


def compute_thresholds_formula(topology: Topology) -> Thresholds:
    """Closed-form thresholds under T(poly) = degree + 1.

    Reproduced verbatim, including the known quirk that t_f1 sums over
    l - T(P) daughters; the exhaustive computation needs one more daughter
    disabled (see compute_thresholds_exhaustive).
    """
    t_p = topology.outer_degree + 1
    mother = topology.mother
    daughters = topology.daughters()
    l = len(topology.networks)
    t_networks = t_p
    inner_t = sorted(n.inner_degree + 1 for n in daughters)
    t_nodes = (mother.inner_degree + 1) + sum(inner_t[:t_p - 1])
    t_f0 = mother.node_count - (mother.inner_degree + 1) + 1
    kill = sorted(n.node_count - (n.inner_degree + 1) + 1 for n in daughters)
    t_f1 = sum(kill[:l - t_p])
    return Thresholds(t_networks=t_networks, t_nodes=t_nodes,
                      t_fail=min(t_f0, t_f1), t_f0=t_f0, t_f1=t_f1)


def compute_thresholds_exhaustive(topology: Topology) -> Thresholds:
    """Definitional thresholds from the decomposed oracle, by a walk over
    the sets of known networks. Bounded to EXHAUSTIVE_NETWORK_BOUND
    networks and inner degree EXHAUSTIVE_DEGREE_BOUND.

    Nodes within a network are interchangeable for access, and a held set
    decides only through the networks it makes known: network i is known
    once its first q_i nodes are held, q_i the fewest whose shares
    determine its inner secret. A reconstructing set K of known networks
    is reached by holding sum(q_i, i in K) nodes of |K| networks; a
    non-reconstructing K by disabling n_i - q_i + 1 nodes of each network
    outside K. t_f0 disables only mother nodes (K holds every daughter),
    t_f1 only daughter nodes (K holds the mother).

    The sets K are walked depth first, networks added in index order.
    Each K extends its parent's echelon basis of constant functionals by
    its last network's, and reduces the parent's remainder of the secret
    functional [1, 0, ..., 0] by the new pivot alone: K reconstructs iff
    that remainder is zero. A reconstructing K's supersets are skipped,
    as their span holds K's, they need no fewer nodes or networks, and a
    reconstructing set never counts towards a failure threshold.
    """
    nets = topology.networks
    degree = max(net.inner_degree for net in nets)
    if (len(nets) > EXHAUSTIVE_NETWORK_BOUND
            or degree > EXHAUSTIVE_DEGREE_BOUND):
        raise CapacityError(
            f"{len(nets)} networks of inner degree up to {degree} exceed the "
            f"exhaustive bounds of {EXHAUSTIVE_NETWORK_BOUND} networks and "
            f"inner degree {EXHAUSTIVE_DEGREE_BOUND}")
    know = AdversaryKnowledge(topology)
    quorums = []
    for net in nets:
        held = 0
        while net.id not in know.known_networks():
            held += 1
            assert held <= net.node_count  # Topology keeps quorums in range
            know.add("share", net.id, held, 0, ())
        quorums.append(held)
    kill = [net.node_count - need + 1 for net, need in zip(nets, quorums)]
    rows = [constant_functional(topology, net.id) for net in nets]
    q = topology.modulus
    mother = 1 << topology.mother_index
    daughters = (1 << len(nets)) - 1 - mother
    # Each minimum starts above any value it can take.
    t_networks = t_nodes = t_fail = t_f0 = t_f1 = topology.total_nodes() + 1
    pivots: list = []  # the echelon basis of the set being visited

    def visit(known: int, size: int, held: int, cost: int,
              secret: Sequence[int]) -> None:
        """Count the non-reconstructing set `known` (|K| = size, held and
        cost its node counts), then walk its supersets that add networks
        above its highest; `secret` is its remainder."""
        nonlocal t_networks, t_nodes, t_fail, t_f0, t_f1
        t_fail = min(t_fail, cost)
        if known & daughters == daughters:
            t_f0 = min(t_f0, cost)
        if known & mother:
            t_f1 = min(t_f1, cost)
        for i in range(known.bit_length(), len(nets)):
            added = echelon_insert(pivots, rows[i], (), q) is None
            rest = (echelon_reduce(pivots[-1:], secret, (), q)[0] if added
                    else secret)
            if any(rest):
                visit(known | 1 << i, size + 1, held + quorums[i],
                      cost - kill[i], rest)
            else:
                t_nodes = min(t_nodes, held + quorums[i])
                t_networks = min(t_networks, size + 1)
            if added:
                pivots.pop()

    visit(0, 0, 0, sum(kill), [1] + [0] * topology.outer_degree)
    if t_nodes > topology.total_nodes():
        raise Infeasible("no node subset reconstructs")
    return Thresholds(t_networks=t_networks, t_nodes=t_nodes,
                      t_fail=t_fail, t_f0=t_f0, t_f1=t_f1)


# ---------------------------------------------------------------------------
# Secret chunking

LENGTH_HEADER = 4  # big-endian byte count prepended before chunking


def chunk_size(modulus: int) -> int:
    if modulus < 2**16:
        raise ValueError("modulus must be at least 2^16 for byte chunking")
    return (modulus.bit_length() - 1) // 8


def encode_secret(data: bytes, modulus: int = DEFAULT_MODULUS
                  ) -> List[int]:
    """Length-prefix then split into fixed-size blocks, one chunk value per
    block. Up to BLOCK_WORDS blocks are split by one struct.unpack_from
    and converted by a C-level map."""
    block = chunk_size(modulus)
    if len(data) >= 2**32:
        raise ValueError("secret too large for the length header")
    header = len(data).to_bytes(LENGTH_HEADER, "big")
    pad = (-(LENGTH_HEADER + len(data))) % block
    framed = b"".join((header, data, b"\x00" * pad))
    count = len(framed) // block
    chunks: List[int] = []
    for i in range(0, count, BLOCK_WORDS):
        n = min(count - i, BLOCK_WORDS)
        words = struct.unpack_from(f"{block}s" * n, framed, i * block)
        chunks += map(int.from_bytes, words, repeat("big"))
    return chunks


def decode_secret(chunks: Sequence[int], modulus: int) -> bytes:
    if not chunks:
        raise CorruptData("no chunks")
    block = chunk_size(modulus)
    raw = bytearray()
    try:
        for i in range(0, len(chunks), BLOCK_WORDS):
            raw += b"".join(map(int.to_bytes, chunks[i:i + BLOCK_WORDS],
                                repeat(block), repeat("big")))
    except OverflowError:  # a chunk of more than `block` bytes
        raise CorruptData("chunk value out of range") from None
    if len(raw) < LENGTH_HEADER:
        raise CorruptData("truncated chunk stream")
    length = int.from_bytes(raw[:LENGTH_HEADER], "big")
    end = LENGTH_HEADER + length
    if end > len(raw):
        raise CorruptData("declared length exceeds payload")
    if raw.count(0, end) != len(raw) - end:
        raise CorruptData("nonzero padding")
    return bytes(raw[LENGTH_HEADER:end])
