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

from dataclasses import dataclass, replace
from enum import Enum
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .errors import CapacityError, CorruptData, EpochMismatch, Infeasible
from .field import (DEFAULT_MODULUS, echelon_insert, echelon_reduce,
                    express_over_rows, is_probable_prime,
                    weighted_column_sum)
from .poly import (birkhoff_matrix_row, hierarchical_split_ints,
                   lagrange_zero_weights, split_ints)

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
    nodes, node j holding the inner polynomial's value at j. All chunks
    are dealt at once, column by column: randomness is drawn as P's
    coefficient columns p_1..p_D across all chunks (p_D nonzero), then,
    network by network in topology order, that network's inner
    coefficient columns (the leading one nonzero).
    """
    q = topology.modulus
    if secret_chunks and not (0 <= min(secret_chunks)
                              and max(secret_chunks) < q):
        raise ValueError("chunk out of range for the topology modulus")
    mother, inner_secrets = hierarchical_split_ints(
        secret_chunks, topology.outer_degree, 1, len(topology.networks) - 1,
        q, rng)
    inner_secrets.insert(topology.mother_index, mother.pop())
    out: Dict[str, List[NodeShare]] = {}
    for net in topology.networks:
        # Popped, so each inner-secret column is freed once dealt.
        columns = split_ints(inner_secrets.pop(0), net.inner_degree,
                             net.node_count, q, rng)
        out[net.id] = [NodeShare(net.id, j, 0, tuple(col))
                       for j, col in enumerate(columns, start=1)]
    return out


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


def check_share_set(shares: Iterable[NodeShare], topology: Topology) -> None:
    """Raise unless the shares can be combined; see checked_shares."""
    for _ in checked_shares(shares, topology):
        pass


def reconstruct(shares: Dict[str, Sequence[NodeShare]],
                topology: Topology) -> List[int]:
    """Recover all chunks, or raise Infeasible naming what is missing.

    Needs an inner quorum on the mother plus inner quorums on at least
    outer_degree daughters; each network's lowest-index quorum recovers
    its inner secret by interpolation at zero. Checks the shares with
    check_share_set first. No share is ignored: every share beyond a
    network's quorum, and every daughter beyond the outer degree, must
    agree with the polynomial the others determine, else CorruptData
    names the network and node. Errors are detected, not corrected.
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
        have.sort(key=lambda s: s.node_index)
        quorum, extra = have[:need], have[need:]
        xs = [s.node_index for s in quorum]
        columns = [s.values for s in quorum]
        weights = lagrange_zero_weights(xs, q)
        recovered[net.id] = weighted_column_sum(weights, columns, q)
        for s in extra:
            # P(x) is the value at zero of X -> P(X + x).
            shifted = lagrange_zero_weights([a - s.node_index for a in xs], q)
            if weighted_column_sum(shifted, columns, q) != list(s.values):
                raise CorruptData(
                    f"network {net.id}: the share of node {s.node_index} "
                    f"disagrees with nodes {xs}")
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
    rows = [constant_functional(topology, nid) for nid in chosen]
    weights = _outer_weights(topology, rows)
    if weights is None:
        raise Infeasible("outer constraint matrix is singular")
    columns = [recovered[nid] for nid in chosen]
    for nid in avail_daughters[topology.outer_degree:]:
        # The inner secret this daughter must hold, over the chosen ones.
        over = express_over_rows(rows, constant_functional(topology, nid), q)
        if (over is not None
                and weighted_column_sum(over, columns, q) != recovered[nid]):
            raise CorruptData(
                f"network {nid}: its inner secret disagrees with networks "
                f"{chosen}")
    return weighted_column_sum(weights, columns, q)


# ---------------------------------------------------------------------------
# Proactive refresh


def refresh(topology: Topology, chunk_count: int, epoch: int,
            rng) -> Dict[str, List[NodeRefresh]]:
    """Fresh zero-constant inner polynomials, one per network per chunk;
    the outer polynomial is untouched. Randomness is drawn network by
    network in topology order, each network's coefficient columns across
    all chunks in turn (the leading one nonzero)."""
    q = topology.modulus
    zeros = [0] * chunk_count
    out: Dict[str, List[NodeRefresh]] = {}
    for net in topology.networks:
        columns = split_ints(zeros, net.inner_degree, net.node_count, q, rng)
        out[net.id] = [NodeRefresh(net.id, j, epoch, tuple(col))
                       for j, col in enumerate(columns, start=1)]
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
                   values=tuple([(a + b) % modulus for a, b in
                                 zip(share.values, delta.values)]))


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
        known = self.known_networks()
        weights = _outer_weights(
            self.topology,
            [constant_functional(self.topology, nid) for nid in known])
        if weights is None:
            return None
        return weighted_column_sum(
            weights, [self._inner[nid] for nid in known],
            self.topology.modulus)


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
