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

import io
import math
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import CapacityError, CorruptData, EpochMismatch, Infeasible
from .field import (BLOCK_WORDS, DEFAULT_MODULUS, Block, as_block,
                    echelon_insert, echelon_reduce, express_over_rows,
                    from_words, is_probable_prime, random_ints, to_words,
                    weighted_column_sum, zeros)

# _walk visits up to 2^(networks - 1) sets of known networks.
EXHAUSTIVE_NETWORK_BOUND = 12


class LinkKind(Enum):
    ITS = "ITS"              # information-theoretically secure channel
    CLASSICAL = "Classical"  # recordable by a harvesting adversary


class NetworkSpec(NamedTuple):
    id: str
    node_count: int
    inner_degree: int
    link: LinkKind

    @property
    def quorum(self) -> int:
        """Any this many of its nodes recover the inner secret."""
        return self.inner_degree + 1

    @property
    def kill_cost(self) -> int:
        """Disabling any this many of its nodes leaves it below quorum."""
        return self.node_count - self.quorum + 1


# A NamedTuple may not define __new__ or _make in its body, so Topology,
# which checks itself in both, subclasses its fields.
class _TopologyFields(NamedTuple):
    modulus: int
    networks: Tuple[NetworkSpec, ...]
    mother_index: int
    outer_degree: int


class Topology(_TopologyFields):
    """Mother + daughter networks, inner degrees, and the outer degree.
    Every way of making one (the constructor, _make, _replace) checks it
    (__post_init__): ValueError for a topology the protocol cannot
    deal."""
    __slots__ = ()

    def __new__(cls, modulus: int, networks: Iterable[NetworkSpec],
                mother_index: int, outer_degree: int) -> "Topology":
        self = super().__new__(cls, modulus, tuple(networks), mother_index,
                               outer_degree)
        # Looked up on the class at call time, so that a wrapper installed
        # there (the benchmark's tracer) sees every check.
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "Topology":
        return cls(*iterable)

    def __post_init__(self) -> None:
        if len(self.networks) < 2:
            raise ValueError("need at least two networks")
        if not 0 <= self.mother_index < len(self.networks):
            raise ValueError("mother index out of range")
        if not 1 <= self.outer_degree <= len(self.networks) - 1:
            raise ValueError("outer degree must be in 1..(networks-1)")
        if len(self.networks) - 1 >= self.modulus:
            raise ValueError("daughter count must be below modulus")
        ids = [n.id for n in self.networks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate network ids")
        for i, net in enumerate(self.networks):
            if net.node_count < 1:
                raise ValueError(f"network {net.id}: need at least one node")
            if net.inner_degree < 0:
                raise ValueError(f"network {net.id}: negative degree")
            if net.quorum > net.node_count:
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

    def positions(self) -> List[NetworkSpec]:
        """The mother, then the daughters in topology order: the network at
        position a > 0 is the daughter that evaluates P' at a."""
        return [self.mother, *self.daughters()]

    def spec(self, network_id: str) -> NetworkSpec:
        for net in self.networks:
            if net.id == network_id:
                return net
        raise ValueError(f"unknown network {network_id}")


class NodeShare(NamedTuple):
    network_id: str
    node_index: int
    epoch: int
    # One per secret chunk, each in 0..modulus-1: a Block (field) as the
    # package deals, refreshes and reads them, or any sequence of ints.
    values: Sequence[int]


class Thresholds(NamedTuple):
    t_networks: int
    t_nodes: int
    t_f0: int
    t_f1: int
    t_fail: int


class Access(Enum):
    RECONSTRUCTS = "Reconstructs"
    NO_INFORMATION = "NoInformation"


# ---------------------------------------------------------------------------
# Polynomial rows: the linear weights that dealing, refresh, reconstruct
# and the oracle solve with


def lagrange_zero_weights(xs: Sequence[int], q: int) -> list:
    """Weights w_j with P(0) = sum(w_j * y_j); precomputable per x-set.
    The package recovers through _QuorumPlan instead; the tests interpolate
    with these weights, and the benchmark's tracer looks them up here."""
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x coordinates")
    if 0 in xs:
        raise ValueError("interpolation point x=0 is not allowed")
    weights = []
    for j, xj in enumerate(xs):
        num, den = 1, 1
        for m, xm in enumerate(xs):
            if m == j:
                continue
            num = num * (-xm) % q
            den = den * (xj - xm) % q
        weights.append(num * pow(den, -1, q) % q)
    return weights


def birkhoff_matrix_row(point: int, order: int, degree: int, q: int) -> list:
    """Row of powers (order 0) or derivative-of-powers (order 1) for the
    unknown coefficient vector (a_0 .. a_degree)."""
    if order == 0:
        row, p = [], 1
        for _ in range(degree + 1):
            row.append(p)
            p = p * point % q
        return row
    row, p = [0], 1
    for i in range(1, degree + 1):
        row.append(i * p % q)
        p = p * point % q
    return row


# ---------------------------------------------------------------------------
# Dealing and reconstruction


def deal(secret_chunks: Sequence[int], topology: Topology, rng,
         sink=None) -> Dict[str, List[NodeShare]]:
    """Deal every chunk with fresh randomness and return shares per network.

    Per chunk: a random outer polynomial P with P(0) the chunk gives each
    network its inner secret, constant_functional's P(1) for the mother
    and P'(a) for daughter a; then a random inner polynomial with that
    constant gives node j its value at j. The chunks are dealt column by
    column: randomness is drawn as P's coefficient columns p_1..p_D,
    then, network by network in topology order, that network's inner
    coefficient columns; every coefficient is uniform over 0..q-1.

    The chunks become one Block (as_block): ValueError unless each is in
    0..q-1.

    With `sink`, each node's share, a NodeShare of its values, is passed
    to sink(share) as soon as it is evaluated (network by network in
    topology order, node by node), and the result is empty: only one
    network's coefficient columns and one node's values are held at a
    time. The draws are the same either way.
    """
    q = topology.modulus
    dealt: Dict[str, List[NodeShare]] = {}
    if sink is None:
        def sink(share: NodeShare) -> None:
            dealt.setdefault(share.network_id, []).append(share)
    block = as_block(secret_chunks, q)
    outer = [block, *(random_ints(q, len(block), rng)
                      for _ in range(topology.outer_degree))]
    for net in topology.networks:
        columns = [weighted_column_sum(constant_functional(topology, net.id),
                                       outer, q),
                   *(random_ints(q, len(block), rng)
                     for _ in range(net.inner_degree))]
        for j in range(1, net.node_count + 1):
            sink(NodeShare(net.id, j, 0, _node_values(j, columns, q)))
    return dealt


def _node_values(node_index: int, columns: Sequence[Sequence[int]],
                 q: int) -> Block:
    """Node node_index's values of the polynomials whose coefficient
    columns, constant first, these are: sum_t j^t columns[t], j the node
    index, in one weighted_column_sum pass. deal evaluates a share,
    apply_node_refresh an updated one and NetworkRefresh.delta a delta
    through it."""
    weights = birkhoff_matrix_row(node_index, 0, len(columns) - 1, q)
    return weighted_column_sum(weights, columns, q)


def constant_functional(topology: Topology, network_id: str) -> List[int]:
    """A network's inner secret as a functional over the outer polynomial's
    coefficients [secret, p_1..p_D]: P(1) for the mother, P'(a) for
    daughter a, a the network's position (Topology.positions)."""
    position = [net.id for net in topology.positions()].index(network_id)
    return _functional(topology.modulus, topology.outer_degree, position)


def _functional(q: int, degree: int, position: int) -> List[int]:
    """constant_functional at `position` (Topology.positions)."""
    return (birkhoff_matrix_row(1, 0, degree, q) if position == 0
            else birkhoff_matrix_row(position, 1, degree, q))


def check_shares(shares: Iterable[NodeShare], topology: Topology
                 ) -> Tuple[int, int, Dict[str, List[NodeShare]]]:
    """The epoch and chunk count of a set of shares, (0, 0) for none, and
    the shares grouped by network: each network's in node-index order,
    the networks in the order their first share appears. Each share is
    checked in turn against the ones before it: EpochMismatch when the
    shares span epochs; CorruptData when their chunk counts differ or a
    share is not a distinct node of the topology."""
    node_counts = {net.id: net.node_count for net in topology.networks}
    held: Dict[str, Dict[int, NodeShare]] = {}
    epoch = chunk_count = 0
    for s in shares:
        if not held:
            epoch, chunk_count = s.epoch, len(s.values)
        elif s.epoch != epoch:
            raise EpochMismatch(
                f"shares span epochs {sorted({epoch, s.epoch})}")
        elif len(s.values) != chunk_count:
            raise CorruptData(f"inconsistent chunk counts "
                              f"{sorted({chunk_count, len(s.values)})}")
        if not 1 <= s.node_index <= node_counts.get(s.network_id, 0):
            raise CorruptData(f"share {s.network_id}/{s.node_index} is not "
                              f"a node of the topology")
        group = held.setdefault(s.network_id, {})
        if s.node_index in group:
            raise CorruptData(
                f"share {s.network_id}/{s.node_index} given twice")
        group[s.node_index] = s
    return epoch, chunk_count, {nid: [group[j] for j in sorted(group)]
                                for nid, group in held.items()}


class _QuorumPlan:
    """The one linear rule of both levels of the hierarchy: each member
    holds the value of its row, a functional of unknown coefficients
    whose first, the constant term, is the target. The first `size` are
    the quorum. `weights` give the target over the quorum, None when its
    rows do not span it; `further`, each further member over the quorum.
    Each is solved once (express_over_rows). A full quorum is invertible,
    as Topology keeps node indices 1..n and daughter points 1..L-1
    distinct nonzero residues (n, L-1 < q): k+1 node rows (1, j, ...,
    j^k) are Vandermonde, and P(1) = (1, ..., 1) with D daughters' P'(a)
    has determinant D! V(a_1..a_D), D <= L-1 < q. The oracle
    (AdversaryKnowledge.recover) takes every known network as the quorum,
    which need not span the target."""

    def __init__(self, rows: Sequence[Sequence[int]], size: int, q: int):
        quorum = rows[:size]
        self.q = q
        self.weights = express_over_rows(
            quorum, [1] + [0] * (len(rows[0]) - 1), q)
        self.further = [express_over_rows(quorum, row, q)
                        for row in rows[size:]]

    def check(self, columns: Sequence[Block]
              ) -> Tuple[Optional[Block], List[int]]:
        """From a block of values, a column per member in order: the
        target's block (None without weights), and the positions of the
        further members that disagree with the quorum."""
        q = self.q
        size = len(columns) - len(self.further)
        quorum = columns[:size]
        bad = [size + i for i, over in enumerate(self.further)
               if weighted_column_sum(over, quorum, q) != columns[size + i]]
        return (None if self.weights is None
                else weighted_column_sum(self.weights, quorum, q)), bad


def reconstruct(shares: Iterable[NodeShare], topology: Topology,
                sink=None) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    `shares` is one stream of shares in any order, checked as a set
    (check_shares). One rule (_QuorumPlan) recovers at both levels. In
    each network, the held nodes in index order are the members, and the
    lowest quorum of them (NetworkSpec.quorum) recovers the network's
    inner secret. Over the networks, the mother and the daughters with a
    quorum, in topology order, are the members, and the mother and the
    first outer_degree such daughters are the quorum that recovers the
    secret.

    The stream is read first for the shares themselves. Once check_shares
    has checked and grouped them, each plan is solved. Then the values are
    read BLOCK_WORDS chunks at a time, so a share's values may be any
    sequence whose slices are read in turn (a share file read block by
    block, say); each slice becomes a Block (as_block), so a slice of ints
    is checked then, ValueError unless each is in 0..q-1. Per block, the
    networks are taken in check_shares' order, the order their first
    share appears in the stream, and each network's shares in node-index
    order: a network's block is read, checked and reduced to its inner
    secret, then dropped before the next network's is read. Only the
    block's inner secrets are held across networks.

    No share is ignored: every member beyond a quorum, a node or a
    daughter, must agree with the polynomial the quorum determines, else
    CorruptData names the network and node. Errors are raised only once
    every block is checked, so that a failed check anywhere decides the
    error: first a share's disagreement, for the first such network in
    topology order and its lowest such node; then Infeasible; then a
    daughter's disagreement, for the first such daughter. Errors are
    detected, not corrected.

    With `sink`, each block of chunks is passed to sink(block) as soon as
    it is recovered, and the result is empty: a sink that keeps them must
    drop them when reconstruct raises.
    """
    q = topology.modulus
    _, count, held = check_shares(shares, topology)
    plans: Dict[str, _QuorumPlan] = {}
    for nid, group in held.items():
        net = topology.spec(nid)
        plans[nid] = _QuorumPlan(
            [birkhoff_matrix_row(s.node_index, 0, net.inner_degree, q)
             for s in group], net.quorum, q)
    met = {nid for nid, plan in plans.items() if plan.weights is not None}
    members = [net.id for a, net in enumerate(topology.positions())
               if a == 0 or net.id in met]  # the mother, met or not
    mother_id = members[0]
    d = topology.outer_degree
    missing = []
    if mother_id not in met:
        missing.append("mother quorum not met")
    if len(members) <= d:
        missing.append(f"daughter quorums {len(members) - 1}/{d} met")
    outer = None if missing else _QuorumPlan(
        [constant_functional(topology, nid) for nid in members], d + 1, q)

    faults: Dict[str, int] = {}  # network id -> lowest disagreeing node
    disagreeing = set()  # daughters beyond the outer quorum
    out: List[int] = []
    for i in range(0, count, BLOCK_WORDS):
        inner = {}
        for nid, group in held.items():
            inner[nid], bad = plans[nid].check(
                [as_block(s.values[i:i + BLOCK_WORDS], q) for s in group])
            if bad:
                j = group[bad[0]].node_index
                faults[nid] = min(faults.get(nid, j), j)
        if outer is not None:
            chunks, bad = outer.check([inner[nid] for nid in members])
            disagreeing.update(members[b] for b in bad)
            if sink is None:
                out += chunks
            else:
                sink(chunks)
    for net in topology.networks:
        if net.id in faults:
            quorum = [s.node_index for s in held[net.id][:net.quorum]]
            raise CorruptData(f"network {net.id}: the share of node "
                              f"{faults[net.id]} disagrees with nodes "
                              f"{quorum}")
    if missing:
        detail = "; ".join(missing) + " (" + ", ".join(
            f"{net.id}: {min(len(held.get(net.id, ())), net.quorum)}/"
            f"{net.quorum}" for net in topology.networks) + ")"
        raise Infeasible(detail)
    for nid in members:
        if nid in disagreeing:
            raise CorruptData(f"network {nid}: its inner secret disagrees "
                              f"with networks {members[:d + 1]}")
    return out


# ---------------------------------------------------------------------------
# Proactive refresh


class NetworkRefresh(NamedTuple):
    """One network's refresh of one round: the coefficient columns
    c_1..c_k (k its inner degree) of its zero-constant refresh
    polynomials, each a Block of one entry per chunk. Node j's delta is
    sum_t j^t c_t; apply_node_refresh adds it to node j's share."""
    network_id: str
    from_epoch: int
    node_count: int
    chunk_count: int
    modulus: int
    columns: Tuple[Block, ...]

    def delta(self, node_index: int) -> Block:
        """Node node_index's delta, one value per chunk: its value
        (_node_values) over [0, c_1..c_k]."""
        if not 1 <= node_index <= self.node_count:
            raise ValueError("no such node")
        q = self.modulus
        return _node_values(node_index,
                            [zeros(self.chunk_count, q), *self.columns], q)


def refresh(topology: Topology, chunk_count: int, epoch: int,
            rng) -> Dict[str, NetworkRefresh]:
    """Fresh zero-constant inner polynomials, one per network per chunk;
    the outer polynomial is untouched. Randomness is drawn network by
    network in topology order, each network's coefficient columns
    c_1..c_k in turn, each uniform. No delta is evaluated here:
    apply_node_refresh updates a share from its network's columns, and
    NetworkRefresh.delta evaluates a node's delta, when asked."""
    q = topology.modulus
    return {net.id: NetworkRefresh(
                net.id, epoch, net.node_count, chunk_count, q,
                tuple(random_ints(q, chunk_count, rng)
                      for _ in range(net.inner_degree)))
            for net in topology.networks}


def apply_node_refresh(share: NodeShare,
                       network_refresh: NetworkRefresh) -> NodeShare:
    """`share` advanced one epoch: node j's value (_node_values) over
    [share, c_1..c_k], j its node index, as deal evaluates a share;
    ValueError unless it is a share of the refreshed network at from_epoch
    with chunk_count values, each in 0..q-1 (as_block)."""
    r = network_refresh
    if (share.network_id != r.network_id
            or not 1 <= share.node_index <= r.node_count):
        raise ValueError("refresh does not match share position")
    if share.epoch != r.from_epoch:
        raise ValueError("delta epoch does not match share")
    if len(share.values) != r.chunk_count:
        raise ValueError("chunk count mismatch")
    return share._replace(epoch=share.epoch + 1, values=_node_values(
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
        # The node's functional over its inner coefficients but the
        # constant, which c carries.
        powers = birkhoff_matrix_row(node_index, 0, k, q)[1:]
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

    def recover(self) -> Optional[Block]:
        """The secret chunks when the captures determine them, else None:
        the target of the quorum plan (_QuorumPlan) whose quorum is every
        known network."""
        known = self.known_networks()
        if not known:
            return None
        plan = _QuorumPlan(
            [constant_functional(self.topology, nid) for nid in known],
            len(known), self.topology.modulus)
        return plan.check([self._inner[nid] for nid in known])[0]


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

    Reproduced verbatim, including the known quirk that t_f1 disables
    l - T(P) daughters; the exact thresholds need one more daughter
    disabled (see compute_thresholds_exhaustive).
    """
    return _sorted_thresholds(
        topology, len(topology.networks) - topology.outer_degree - 1)


def _sorted_thresholds(topology: Topology, disabled: int) -> Thresholds:
    """Thresholds by sums over sorted lists, for the access structure
    where a set of known networks reconstructs iff it holds the mother and
    at least D = outer_degree daughters: the mother's quorum and the D
    smallest daughter quorums, and t_f1 the `disabled` smallest daughter
    kill costs. The exact value disables L - D daughters, leaving the
    mother and D - 1; the closed form disables L - D - 1."""
    d, mother, daughters = (topology.outer_degree, topology.mother,
                            topology.daughters())
    quorums = sorted(net.quorum for net in daughters)
    kill = sorted(net.kill_cost for net in daughters)
    t_f1 = sum(kill[:disabled])
    return Thresholds(t_networks=d + 1,
                      t_nodes=mother.quorum + sum(quorums[:d]),
                      t_f0=mother.kill_cost, t_f1=t_f1,
                      t_fail=min(mother.kill_cost, t_f1))


def closed_form_certified(q: int, outer_degree: int,
                          network_count: int) -> bool:
    """Whether the shape's access structure is provably the one the
    closed form assumes: a set of known networks reconstructs iff it
    holds the mother and at least D = outer_degree daughters. The mother
    with D daughters does (_QuorumPlan), daughters alone never do, and
    fewer daughters with the mother do only if some D-1 do. The mother
    with D-1 daughters at points a_i reconstructs iff the integrals of
    x^j over [0, 1], j < D, are a combination of the columns (a_i^j),
    iff q divides V(a) * N, V(a) their Vandermonde product (a unit mod q,
    the points being distinct below q) and N = lcm(1..D) * the integral
    of prod(x - a_i) over [0, 1]. N is a nonzero integer (the integrand
    keeps one sign there) with |N| <= lcm(1..D) * prod(a_i). So no D-1
    of the points 1..L-1 reconstruct once q exceeds lcm(1..D) *
    prod(L-D+1..L-1). A shape below that bound may still hold: _walk
    decides it."""
    d, l = outer_degree, network_count
    return q > math.lcm(*range(1, d + 1)) * math.prod(range(l - d + 1, l))


def _family(q: int, outer_degree: int, network_count: int) -> Optional[tuple]:
    """How a shape's access structure is known: None where
    closed_form_certified holds, at any network count; else _walk's
    family, up to EXHAUSTIVE_NETWORK_BOUND networks, and CapacityError
    beyond, where nothing here decides it."""
    if closed_form_certified(q, outer_degree, network_count):
        return None
    if network_count > EXHAUSTIVE_NETWORK_BOUND:
        raise CapacityError(
            f"the access structure of {network_count} networks at outer "
            f"degree {outer_degree} is not certified at modulus {q}, and "
            f"cannot be checked beyond {EXHAUSTIVE_NETWORK_BOUND} networks")
    return _walk(q, outer_degree, network_count)


def weaker_shape_witness(q: int, outer_degree: int, network_count: int
                         ) -> Optional[Tuple[int, ...]]:
    """A set of fewer than outer_degree + 1 networks that reconstructs,
    as positions (Topology.positions): the smallest in _walk's family,
    the first of its size in the walk's order. None when there is none,
    as for a certified shape; CapacityError as _family raises it."""
    return min((known for known, reconstructs
                in _family(q, outer_degree, network_count) or ()
                if reconstructs and len(known) <= outer_degree),
               key=len, default=None)


def compute_thresholds_exhaustive(topology: Topology) -> Thresholds:
    """Definitional thresholds: sums over sorted lists (_sorted_thresholds)
    for a certified shape, at any network count, else sums over _walk's
    family; CapacityError as _family raises it.

    Nodes within a network are interchangeable for access, so a held set
    decides only through the networks it makes known: network i once q_i
    of its nodes are held, q_i = k_i + 1 for inner degree k_i: any q_i
    node rows recover the inner secret (_QuorumPlan), and fewer leave it
    uniform. A reconstructing set K of known networks is reached by
    holding sum(q_i, i in K) nodes of |K| networks; a non-reconstructing K
    by disabling the kill_cost n_i - q_i + 1 of each network outside K.
    t_f0 disables only mother nodes (K holds every daughter), t_f1 only
    daughter nodes (K holds the mother). No K of daughters alone
    reconstructs (their constant functionals have first coordinate 0), so
    t_f0 disables the mother alone and t_fail is min(t_f0, t_f1). Which K
    reconstruct depends only on the shape (modulus, outer degree, network
    count): _walk finds the sets that matter once per shape and process;
    each topology sums over them.
    """
    nets, d = topology.networks, topology.outer_degree
    family = _family(topology.modulus, d, len(nets))
    if family is None:
        return _sorted_thresholds(topology, len(nets) - d)
    order = topology.positions()  # as _walk places them
    quorums = [net.quorum for net in order]
    kill = [net.kill_cost for net in order]
    # Each min() has a set to take: the family holds the mother alone,
    # which does not reconstruct, and the mother with daughters 1..k for
    # the least k that reconstructs (k <= D: the mother with D daughters
    # does).
    reached = [known for known, reconstructs in family if reconstructs]
    t_f1 = min(sum(kill) - sum(kill[i] for i in known)
               for known, reconstructs in family if not reconstructs)
    return Thresholds(
        t_networks=min(map(len, reached)),
        t_nodes=min(sum(quorums[i] for i in known) for known in reached),
        t_f0=kill[0], t_f1=t_f1, t_fail=min(kill[0], t_f1))


@lru_cache(maxsize=64)
def _walk(q: int, outer_degree: int, network_count: int) -> tuple:
    """(K, whether K reconstructs) for each set K of known networks, as
    positions (Topology.positions), that holds the mother and extends
    no reconstructing set by later networks (those need no fewer nodes or
    networks, and count towards no failure threshold). Depth first from
    {mother}, whose P(1) = [1, ..., 1] does not reconstruct, adding
    daughters in order: K's echelon basis of constant functionals is its
    parent's and its last network's row, and K reconstructs iff the new
    pivot reduces the parent's remainder of [1, 0, ..., 0] to zero."""
    rows = [_functional(q, outer_degree, i) for i in range(network_count)]
    assert not any(row[0] for row in rows[1:])  # as P'(a) has no secret term
    family: list = []
    pivots: list = []  # the echelon basis of the set being visited

    def visit(known: Tuple[int, ...], secret: Sequence[int]) -> None:
        family.append((known, False))
        for i in range(known[-1] + 1, network_count):
            added = echelon_insert(pivots, rows[i], (), q) is None
            rest = (echelon_reduce(pivots[-1:], secret, (), q)[0] if added
                    else secret)
            if any(rest):
                visit(known + (i,), rest)
            else:
                family.append((known + (i,), True))
            if added:
                pivots.pop()

    echelon_insert(pivots, rows[0], (), q)
    visit((0,), echelon_reduce(pivots, [1] + [0] * outer_degree, (), q)[0])
    return tuple(family)


# ---------------------------------------------------------------------------
# Secret chunking

LENGTH_HEADER = 4  # big-endian byte count prepended before chunking


def chunk_size(modulus: int) -> int:
    if modulus < 2**16:
        raise ValueError("modulus must be at least 2^16 for byte chunking")
    return (modulus.bit_length() - 1) // 8


def chunk_count(size: int, modulus: int) -> int:
    """How many chunks encode_secret makes of a secret of `size` bytes.
    CapacityError when the secret is too long for its length header."""
    if size >= 256 ** LENGTH_HEADER:
        raise CapacityError(f"the secret has {size} bytes; its "
                            f"{LENGTH_HEADER}-byte length header holds "
                            f"at most {256 ** LENGTH_HEADER - 1}")
    return -(-(LENGTH_HEADER + size) // chunk_size(modulus))


def secret_blocks(read, size: int, modulus: int) -> Iterator[Block]:
    """encode_secret's chunks of a secret of `size` bytes, BLOCK_WORDS at a
    time, each block as a Block as it is asked for: read(n) must return
    the secret's next n bytes. Each block is framed (the length header
    before the first, zero padding after the last) and packed whole, its
    chunks the framing's big-endian words (from_words)."""
    block = chunk_size(modulus)
    count = chunk_count(size, modulus)
    head = size.to_bytes(LENGTH_HEADER, "big")
    left = size
    for i in range(0, count, BLOCK_WORDS):
        n = min(count - i, BLOCK_WORDS)
        want = min(n * block - len(head), left)
        data = read(want)
        if len(data) != want:
            raise CorruptData("the secret is shorter than its size")
        left -= want
        framed = b"".join((head, data,
                           bytes(n * block - len(head) - want)))
        head = b""
        yield from_words(framed, block, modulus)


def encode_secret(data: bytes, modulus: int = DEFAULT_MODULUS
                  ) -> List[int]:
    """Length-prefix then split into fixed-size blocks, one chunk value per
    block (secret_blocks over `data`)."""
    return list(chain.from_iterable(
        secret_blocks(io.BytesIO(data).read, len(data), modulus)))


class SecretDecoder:
    """decode_secret over a stream of chunk blocks, Blocks or sequences of
    ints. feed(chunks) returns the secret's bytes among them (nothing once
    a chunk is out of range: negative, or wider than chunk_size bytes);
    close(), once the stream has ended, raises the CorruptData that
    decode_secret raises on the whole stream. `size` counts the bytes
    returned."""

    def __init__(self, modulus: int):
        self.modulus = modulus
        self.block = chunk_size(modulus)
        self.chunks = self.seen = self.size = 0  # seen: framed bytes
        self.head = b""
        self.end: Optional[int] = None  # of the secret, in framed bytes
        self.out_of_range = self.nonzero_padding = False

    def feed(self, chunks: Sequence[int]) -> bytes:
        self.chunks += len(chunks)
        if self.out_of_range:
            return b""
        try:
            raw = to_words(as_block(chunks, self.modulus), self.block)
        except ValueError:  # a chunk below 0, or of more than `block` bytes
            self.out_of_range = True
            return b""
        start = self.seen
        self.seen += len(raw)
        if self.end is None:
            self.head += raw[:LENGTH_HEADER - start]
            if len(self.head) < LENGTH_HEADER:
                return b""
            self.end = LENGTH_HEADER + int.from_bytes(self.head, "big")
        pad = max(self.end - start, 0)  # where the padding starts in raw
        if pad < len(raw) and raw.count(0, pad) != len(raw) - pad:
            self.nonzero_padding = True
        data = raw[max(LENGTH_HEADER - start, 0):pad]
        self.size += len(data)
        return data

    def close(self) -> None:
        if not self.chunks:
            raise CorruptData("no chunks")
        if self.out_of_range:
            raise CorruptData("chunk value out of range")
        if self.end is None:
            raise CorruptData("truncated chunk stream")
        if self.end > self.seen:
            raise CorruptData("declared length exceeds payload")
        if self.nonzero_padding:
            raise CorruptData("nonzero padding")


def decode_secret(chunks: Sequence[int], modulus: int) -> bytes:
    if not chunks:  # before the modulus is checked, as it always was
        raise CorruptData("no chunks")
    decoder = SecretDecoder(modulus)
    data = b"".join([decoder.feed(chunks[i:i + BLOCK_WORDS])
                     for i in range(0, len(chunks), BLOCK_WORDS)])
    decoder.close()
    return data
