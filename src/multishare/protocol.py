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
from .field import DEFAULT_MODULUS, express_over_rows, is_probable_prime
from .poly import birkhoff_matrix_row, birkhoff_weights, lagrange_zero_weights
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


def _outer_weights(topology: Topology, daughter_ids: Sequence[str]) -> list:
    """Coefficients expressing P(0) from [mother inner secret,
    daughter inner secrets...]; constant per constraint-point set."""
    q = topology.modulus
    d = topology.outer_degree
    rows = [birkhoff_matrix_row(1, 0, d, q)]
    rows += [birkhoff_matrix_row(topology.derivative_point(nid), 1, d, q)
             for nid in daughter_ids]
    combo = birkhoff_weights(rows, 0, q)
    if combo is None:
        raise Infeasible("outer constraint matrix is singular")
    return combo


def reconstruct(shares: Dict[str, Sequence[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    Needs an inner quorum on the mother plus inner quorums on at least
    outer_degree daughters; each quorum recovers that network's inner
    secret by interpolation at zero. Raises CorruptData when the shares
    disagree on the chunk count or one node's share is given twice.
    """
    q = topology.modulus
    epochs = {s.epoch for lst in shares.values() for s in lst}
    if len(epochs) > 1:
        raise EpochMismatch(f"shares span epochs {sorted(epochs)}")
    chunk_counts = {len(s.values) for lst in shares.values() for s in lst}
    if len(chunk_counts) > 1:
        raise CorruptData(
            f"inconsistent chunk counts {sorted(chunk_counts)}")
    recovered: Dict[str, List[int]] = {}
    quorum_report = []
    for net in topology.networks:
        have = list(shares.get(net.id, []))
        need = net.inner_degree + 1
        xs = [s.node_index for s in have]
        if len(set(xs)) != len(xs):
            raise CorruptData(f"duplicate node shares in {net.id}")
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
    chosen = avail_daughters[:topology.outer_degree]
    weights = _outer_weights(topology, chosen)
    columns = [recovered[mother_id]] + [recovered[nid] for nid in chosen]
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
        # Constant-term functionals per network over [secret, p_1..p_D]:
        # mother: P(1) = S + sum p_t; daughter at point a: P'(a).
        self._const: Dict[str, List[int]] = {}
        q = self.q
        for net in topology.networks:
            if net.id == topology.mother.id:
                head = [1] + [1] * d
            else:
                a = topology.derivative_point(net.id)
                head = [0] + [t * pow(a, t - 1, q) % q
                              for t in range(1, d + 1)]
            self._const[net.id] = head

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


_ACCESS_MEMO: Dict[tuple, bool] = {}


def _counts_reconstruct(topology: Topology, counts: Sequence[int]) -> bool:
    """Rank-oracle verdict for holding the first counts[i] nodes of each
    network.

    Rows of a network beyond inner_degree+1 are linear combinations of
    the first quorum's rows (interpolation), so counts are capped there
    before the rank computation; verdicts are memoized on the capped
    signature.
    """
    q = topology.modulus
    capped = []
    for net, c in zip(topology.networks, counts):
        capped.append((net.id, net.inner_degree,
                       min(c, net.inner_degree + 1)))
    key = (q, topology.outer_degree, topology.mother.id, tuple(capped))
    hit = _ACCESS_MEMO.get(key)
    if hit is None:
        held = [(nid, j) for nid, _, c in capped for j in range(1, c + 1)]
        hit = access_oracle(held, topology) is Access.RECONSTRUCTS
        _ACCESS_MEMO[key] = hit
    return hit


def compute_thresholds_exhaustive(topology: Topology) -> Thresholds:
    """Definitional thresholds by enumerating node subsets with the rank
    oracle.

    Nodes within a network are interchangeable for access (any quorum of
    the same size spans the same functionals), so enumeration runs over
    per-network counts. Bounded to EXHAUSTIVE_NODE_BOUND total nodes.
    """
    total = topology.total_nodes()
    if total > EXHAUSTIVE_NODE_BOUND:
        raise CapacityError(
            f"{total} nodes exceeds the exhaustive bound of "
            f"{EXHAUSTIVE_NODE_BOUND}")
    ns = [net.node_count for net in topology.networks]
    mother_i = topology.mother_index
    t_nodes = None
    t_networks = None
    best_fail = None
    best_f0 = None
    best_f1 = None
    for counts in itertools.product(*(range(n + 1) for n in ns)):
        ok = _counts_reconstruct(topology, counts)
        held = sum(counts)
        disabled = total - held
        if ok:
            if t_nodes is None or held < t_nodes:
                t_nodes = held
            touched = sum(1 for c in counts if c)
            if t_networks is None or touched < t_networks:
                t_networks = touched
        else:
            # Complement view: disabling (n_i - counts_i) nodes leaves a
            # non-reconstructing remainder.
            if best_fail is None or disabled < best_fail:
                best_fail = disabled
            mother_only = all(c == n for i, (c, n) in
                              enumerate(zip(counts, ns)) if i != mother_i)
            daughters_only = counts[mother_i] == ns[mother_i]
            if mother_only and (best_f0 is None or disabled < best_f0):
                best_f0 = disabled
            if daughters_only and (best_f1 is None or disabled < best_f1):
                best_f1 = disabled
    if t_nodes is None:
        raise Infeasible("no node subset reconstructs")
    return Thresholds(t_networks=t_networks, t_nodes=t_nodes,
                      t_fail=best_fail, t_f0=best_f0, t_f1=best_f1)


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
