"""Two-level sharing across multiple networks.

One outer polynomial P carries the secret chunk; the mother network's
inner secret is P(1) and daughter i's inner secret is P'(i), each dealt
to that network's nodes with an ordinary flat scheme. Recovery needs the
mother's inner secret plus deg(P) daughter derivative values, combined by
mixed value/derivative interpolation.

The access oracle models every dealt value as a linear functional over
(secret, dealer randomness); over a field this is an exact dichotomy:
either the secret is determined or its posterior is uniform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import CapacityError, CorruptData, EpochMismatch, Infeasible
from .field import (DEFAULT_MODULUS, echelon_insert, express_over_rows,
                    is_probable_prime)
from .poly import birkhoff_matrix_row, lagrange_zero_weights
from .shamir import hierarchical_split_ints, split_ints

EXHAUSTIVE_NODE_BOUND = 20


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
        if not is_probable_prime(self.modulus):
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
class NodeRefresh:
    """Per-node refresh deltas, one value per chunk."""
    network_id: str
    node_index: int
    from_epoch: int
    values: Tuple[int, ...]


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


def deal(secret_chunks: Sequence[int], topology: Topology,
         rng) -> Dict[str, List[NodeShare]]:
    """Deal every chunk with fresh randomness and return shares per network.

    Per chunk: a hierarchical split with one manager (the mother's inner
    secret P(1)) and one employee per daughter (daughter i's inner secret
    P'(i)); then a flat split of each network's inner secret over its
    nodes, node j holding the inner polynomial's value at j. Randomness
    is drawn chunk by chunk: P's coefficients, then each network's inner
    polynomial in topology order.
    """
    q = topology.modulus
    d = topology.outer_degree
    daughters = len(topology.networks) - 1
    per_node: Dict[str, List[List[int]]] = {
        net.id: [[] for _ in range(net.node_count)]
        for net in topology.networks}
    for chunk in secret_chunks:
        if not 0 <= chunk < q:
            raise ValueError("chunk out of range for the topology modulus")
        (mother_secret,), inner_secrets = hierarchical_split_ints(
            chunk, d, 1, daughters, q, rng)
        inner_secrets.insert(topology.mother_index, mother_secret)
        for net, inner_secret in zip(topology.networks, inner_secrets):
            values = split_ints(inner_secret, net.inner_degree,
                                net.node_count, q, rng)
            for column, v in zip(per_node[net.id], values):
                column.append(v)
    return {
        net.id: [NodeShare(net.id, j + 1, 0, tuple(vals))
                 for j, vals in enumerate(per_node[net.id])]
        for net in topology.networks}


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
                   network_ids: Sequence[str]) -> Optional[list]:
    """Weights expressing the secret P(0) over these networks' inner
    secrets, in the order given; None when they do not determine it. The
    one outer solve: reconstruction, the adversary oracle and the
    thresholds all decide through it."""
    return express_over_rows(
        [constant_functional(topology, nid) for nid in network_ids],
        [1] + [0] * topology.outer_degree, topology.modulus)


def check_share_set(shares: Iterable[NodeShare], topology: Topology) -> None:
    """Raise unless the shares can be combined: EpochMismatch when they
    span epochs; CorruptData when their chunk counts differ or a share is
    not a distinct node of the topology."""
    shares = list(shares)
    epochs = {s.epoch for s in shares}
    if len(epochs) > 1:
        raise EpochMismatch(f"shares span epochs {sorted(epochs)}")
    chunk_counts = {len(s.values) for s in shares}
    if len(chunk_counts) > 1:
        raise CorruptData(
            f"inconsistent chunk counts {sorted(chunk_counts)}")
    node_counts = {net.id: net.node_count for net in topology.networks}
    seen = set()
    for s in shares:
        pos = (s.network_id, s.node_index)
        if not 1 <= s.node_index <= node_counts.get(s.network_id, 0):
            raise CorruptData(f"share {s.network_id}/{s.node_index} is not "
                              f"a node of the topology")
        if pos in seen:
            raise CorruptData(
                f"share {s.network_id}/{s.node_index} given twice")
        seen.add(pos)


def reconstruct(shares: Dict[str, Sequence[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    Needs an inner quorum on the mother plus inner quorums on at least
    outer_degree daughters; each quorum recovers that network's inner
    secret by interpolation at zero. Checks the shares with
    check_share_set first.
    """
    q = topology.modulus
    check_share_set((s for lst in shares.values() for s in lst), topology)
    recovered: Dict[str, List[int]] = {}
    quorum_report = []
    for net in topology.networks:
        have = list(shares.get(net.id, []))
        need = net.inner_degree + 1
        quorum_report.append((net.id, min(len(have), need), need))
        if len(have) < need:
            continue
        have = sorted(have, key=lambda s: s.node_index)[:need]
        weights = lagrange_zero_weights([s.node_index for s in have], q)
        inner = [0] * len(have[0].values)
        for w, s in zip(weights, have):
            for i, v in enumerate(s.values):
                inner[i] = (inner[i] + w * v) % q
        recovered[net.id] = inner
    mother_id = topology.mother.id
    avail_daughters = [n.id for n in topology.daughters()
                       if n.id in recovered]
    missing = []
    if mother_id not in recovered:
        missing.append("mother quorum not met")
    if len(avail_daughters) < topology.outer_degree:
        missing.append(
            f"daughter quorums {len(avail_daughters)}/{topology.outer_degree} met")
    if missing:
        detail = "; ".join(missing) + " (" + ", ".join(
            f"{nid}: {got}/{need}" for nid, got, need in quorum_report) + ")"
        raise Infeasible(detail)
    chosen = [mother_id, *avail_daughters[:topology.outer_degree]]
    weights = _outer_weights(topology, chosen)
    if weights is None:
        raise Infeasible("outer constraint matrix is singular")
    columns = [recovered[nid] for nid in chosen]
    n_chunks = len(columns[0])
    out = []
    for i in range(n_chunks):
        acc = 0
        for w, col in zip(weights, columns):
            acc = (acc + w * col[i]) % q
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Proactive refresh


def refresh(topology: Topology, chunk_count: int, epoch: int,
            rng) -> Dict[str, List[NodeRefresh]]:
    """Fresh zero-constant inner polynomials, one per network per chunk;
    the outer polynomial is untouched."""
    q = topology.modulus
    out: Dict[str, List[NodeRefresh]] = {}
    for net in topology.networks:
        per_node = [[] for _ in range(net.node_count)]
        for _ in range(chunk_count):
            values = split_ints(0, net.inner_degree, net.node_count, q, rng)
            for column, v in zip(per_node, values):
                column.append(v)
        out[net.id] = [NodeRefresh(net.id, j + 1, epoch, tuple(vals))
                       for j, vals in enumerate(per_node)]
    return out


def apply_node_refresh(share: NodeShare, delta: NodeRefresh,
                       modulus: int) -> NodeShare:
    if (share.network_id, share.node_index) != (delta.network_id,
                                                delta.node_index):
        raise ValueError("delta does not match share position")
    if share.epoch != delta.from_epoch:
        raise ValueError("delta epoch does not match share")
    if len(share.values) != len(delta.values):
        raise ValueError("chunk count mismatch")
    return replace(share, epoch=share.epoch + 1,
                   values=tuple((a + b) % modulus for a, b in
                                zip(share.values, delta.values)))


# ---------------------------------------------------------------------------
# Linear-functional model and access oracle


class FunctionalSpace:
    """Every emitted value as a linear functional over the dealer's
    randomness for one chunk.

    Coordinates: [secret, outer coeffs p_1..p_D, per-network inner coeffs,
    then per refresh round per-network refresh coeffs]. Shares at epoch e
    include the first e rounds' refresh contributions.
    """

    def __init__(self, topology: Topology, rounds: int = 0):
        self.topology = topology
        self.q = topology.modulus
        self.rounds = rounds
        d = topology.outer_degree
        self.dim = 1 + d
        self._inner_base: Dict[str, int] = {}
        for net in topology.networks:
            self._inner_base[net.id] = self.dim
            self.dim += net.inner_degree
        self._refresh_base: Dict[Tuple[int, str], int] = {}
        for r in range(1, rounds + 1):
            for net in topology.networks:
                self._refresh_base[(r, net.id)] = self.dim
                self.dim += net.inner_degree
        self._const = {net.id: constant_functional(topology, net.id)
                       for net in topology.networks}

    def secret_functional(self) -> List[int]:
        return [1] + [0] * (self.dim - 1)

    def share_row(self, network_id: str, node_index: int,
                  epoch: int = 0) -> List[int]:
        if epoch > self.rounds:
            raise ValueError("epoch beyond modeled refresh rounds")
        net = self.topology.spec(network_id)
        row = [0] * self.dim
        head = self._const[network_id]
        for i, v in enumerate(head):
            row[i] = v
        p = node_index % self.q
        base = self._inner_base[network_id]
        for t in range(1, net.inner_degree + 1):
            row[base + t - 1] = p
            p = p * node_index % self.q
        for r in range(1, epoch + 1):
            row = [a + b for a, b in
                   zip(row, self.delta_row(network_id, node_index, r))]
        return [v % self.q for v in row]

    def delta_row(self, network_id: str, node_index: int,
                  round_no: int) -> List[int]:
        net = self.topology.spec(network_id)
        row = [0] * self.dim
        base = self._refresh_base[(round_no, network_id)]
        p = node_index % self.q
        for t in range(1, net.inner_degree + 1):
            row[base + t - 1] = p
            p = p * node_index % self.q
        return row


def access_oracle(node_set: Iterable, topology: Topology,
                  rounds: Optional[int] = None) -> Access:
    """Exact secrecy dichotomy for a set of held shares.

    Elements are (network_id, node_index) pairs (epoch 0) or
    (network_id, node_index, epoch) triples. Returns RECONSTRUCTS iff the
    secret-extraction functional lies in the row span of the held shares.
    """
    held = []
    for item in node_set:
        if len(item) == 2:
            held.append((item[0], item[1], 0))
        else:
            held.append(tuple(item))
    max_epoch = max((e for _, _, e in held), default=0)
    if rounds is None:
        rounds = max_epoch
    space = FunctionalSpace(topology, rounds)
    rows = [space.share_row(nid, idx, ep) for nid, idx, ep in held]
    hit = express_over_rows(rows, space.secret_functional(), topology.modulus)
    return Access.RECONSTRUCTS if hit is not None else Access.NO_INFORMATION


class AdversaryKnowledge:
    """The access oracle decomposed by network and fed one capture at a
    time; it agrees with the dense FunctionalSpace oracle.

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
        `epoch`; kind "delta" holds its refresh delta of round `epoch`."""
        if network_id in self._inner:
            return
        q = self.topology.modulus
        k = self.topology.spec(network_id).inner_degree
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
        q = self.topology.modulus
        known = self.known_networks()
        weights = _outer_weights(self.topology, known)
        if weights is None:
            return None
        columns = [self._inner[nid] for nid in known]
        return [sum(w * col[i] for w, col in zip(weights, columns)) % q
                for i in range(len(columns[0]))]


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
    """Definitional thresholds by enumerating node subsets with the
    decomposed oracle. Bounded to EXHAUSTIVE_NODE_BOUND total nodes.

    Nodes within a network are interchangeable for access, so enumeration
    runs over per-network counts. A network is known once its count
    reaches the fewest first nodes whose shares determine its inner
    secret, so a count vector's verdict is one outer solve over the known
    networks, shared by every vector with the same known set.
    """
    total = topology.total_nodes()
    if total > EXHAUSTIVE_NODE_BOUND:
        raise CapacityError(
            f"{total} nodes exceeds the exhaustive bound of "
            f"{EXHAUSTIVE_NODE_BOUND}")
    know = AdversaryKnowledge(topology)
    quorums = []
    for net in topology.networks:
        quorums.append(net.node_count + 1)  # no count reaches it
        for j in range(1, net.node_count + 1):
            know.add("share", net.id, j, 0, ())
            if net.id in know.known_networks():
                quorums[-1] = j
                break
    verdicts: Dict[Tuple[bool, ...], bool] = {}
    ns = [net.node_count for net in topology.networks]
    mother_n = ns[topology.mother_index]
    # Each minimum starts above any value it can take.
    t_networks = t_nodes = t_fail = t_f0 = t_f1 = total + 1
    for counts in itertools.product(*(range(n + 1) for n in ns)):
        known = tuple(c >= need for c, need in zip(counts, quorums))
        if known not in verdicts:
            verdicts[known] = _outer_weights(topology, [
                net.id for net, k in zip(topology.networks, known)
                if k]) is not None
        held = sum(counts)
        disabled = total - held
        if verdicts[known]:
            t_nodes = min(t_nodes, held)
            t_networks = min(t_networks, sum(map(bool, counts)))
            continue
        # Complement view: disabling (n_i - counts_i) nodes leaves a
        # non-reconstructing remainder; t_f0 disables only mother nodes,
        # t_f1 only daughter nodes.
        mother_disabled = mother_n - counts[topology.mother_index]
        t_fail = min(t_fail, disabled)
        if disabled == mother_disabled:
            t_f0 = min(t_f0, disabled)
        if mother_disabled == 0:
            t_f1 = min(t_f1, disabled)
    if t_nodes > total:
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
    block."""
    block = chunk_size(modulus)
    if len(data) >= 2**32:
        raise ValueError("secret too large for the length header")
    framed = len(data).to_bytes(LENGTH_HEADER, "big") + data
    pad = (-len(framed)) % block
    framed += b"\x00" * pad
    return [int.from_bytes(framed[i:i + block], "big")
            for i in range(0, len(framed), block)]


def decode_secret(chunks: Sequence[int], modulus: int) -> bytes:
    if not chunks:
        raise CorruptData("no chunks")
    block = chunk_size(modulus)
    raw = bytearray()
    for c in chunks:
        if c >> (8 * block):
            raise CorruptData("chunk value out of range")
        raw += c.to_bytes(block, "big")
    if len(raw) < LENGTH_HEADER:
        raise CorruptData("truncated chunk stream")
    length = int.from_bytes(raw[:LENGTH_HEADER], "big")
    body = raw[LENGTH_HEADER:]
    if length > len(body):
        raise CorruptData("declared length exceeds payload")
    if any(body[length:]):
        raise CorruptData("nonzero padding")
    return bytes(body[:length])
