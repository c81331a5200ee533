"""Deterministic in-process simulation: owner, node stores, links, and
the two adversary models (whole-network compromise, harvest-then-decrypt).

Time is a logical event sequence. ITS links record nothing; classical
links record every payload verbatim. Compromise is sticky: a compromised
node leaks its current store and every later write until it is released.
Authentication is assumed perfect, so no man-in-the-middle events exist.
A saved world is its seed and the events applied to it; loading one
replays them.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import formats, protocol
from .errors import CorruptData, Infeasible, StateError
from .field import deterministic_rng
from .formats import canonical_json, topology_from_dict, topology_to_dict
from .protocol import (Access, AdversaryKnowledge, FunctionalSpace,
                       LinkKind, NodeShare, Topology, apply_node_refresh,
                       deal, decode_secret, encode_secret, refresh)

STATE_MAGIC = b"MSS1"
STATE_VERSION = 2

EVENT_KINDS = frozenset({
    "deal", "refresh", "compromise_network", "compromise_node",
    "release_node", "fail_node", "attempt_reconstruct",
    "hndl_decrypt_classical"})
# Events naming a target network, and those of them that also name a node.
NETWORK_EVENTS = frozenset({
    "compromise_network", "compromise_node", "release_node", "fail_node"})
NODE_EVENTS = NETWORK_EVENTS - {"compromise_network"}


@dataclass
class SimNode:
    network_id: str
    node_index: int
    store: Optional[NodeShare] = None
    alive: bool = True
    compromised: bool = False
    stale: bool = False


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    secret: bytes
    schedule: Tuple[dict, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            topology = topology_from_dict(data["topology"])
            protocol.chunk_size(topology.modulus)  # ValueError below 2^16
            secret = bytes.fromhex(data["secret_hex"])
            schedule = tuple(data["schedule"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed scenario: {exc}") from exc
        for ev in schedule:
            if not (isinstance(ev, dict) and isinstance(ev.get("event"), str)
                    and ev["event"] in EVENT_KINDS):
                raise ValueError(f"unknown event {ev!r}")
        check_targets(schedule, topology)
        return cls(topology=topology, secret=secret, schedule=schedule)


def check_targets(schedule, topology: Topology,
                  dealt: Optional[bool] = None) -> None:
    """ValueError unless every network and node the events name exist and
    the secret is dealt at most once and before any refresh: by a `deal`
    event ahead of the first `refresh`, or by none when the state is
    `dealt` already.
    With `dealt` None (no state known yet), only a second `deal` in the
    schedule is rejected. The protocol deals once and then refreshes; a
    second dealing would mix two sets of shares in the adversary's
    view."""
    kinds = [ev["event"] for ev in schedule]
    if kinds.count("deal") + bool(dealt) > 1:
        raise ValueError("the secret is dealt once and then refreshed; "
                         "this schedule deals it again")
    if (dealt is False and "refresh" in kinds
            and ("deal" not in kinds
                 or kinds.index("refresh") < kinds.index("deal"))):
        raise ValueError("this schedule refreshes before the secret is "
                         "dealt")
    for ev in schedule:
        kind = ev["event"]
        if kind not in NETWORK_EVENTS:
            continue
        try:
            net = topology.spec(ev["network"])
            if (kind in NODE_EVENTS and not
                    1 <= formats._json_int(ev, "node") <= net.node_count):
                raise ValueError(f"no node {ev['node']} in network {net.id}")
        except (KeyError, TypeError, ValueError, CorruptData) as exc:
            raise ValueError(
                f"event {ev!r} does not fit the topology: {exc}") from exc


class Simulation:
    """Mutable world state for one scenario run."""

    def __init__(self, topology: Topology, secret: bytes, seed: int = 0):
        self.topology = topology
        self.secret = secret
        self.seed = seed
        self.rng = deterministic_rng(seed)
        self.epoch = 0
        self.chunk_count = 0
        self.dealt = False
        self.hndl = False
        self.nodes: Dict[Tuple[str, int], SimNode] = {}
        for net in topology.networks:
            for j in range(1, net.node_count + 1):
                self.nodes[(net.id, j)] = SimNode(net.id, j)
        # Per-network recorded payloads; ITS links stay empty.
        self.transcripts: Dict[str, List[dict]] = {
            net.id: [] for net in topology.networks}
        # key -> captured values; key is ("share", net, idx, epoch) or
        # ("delta", net, idx, round).
        self.adversary: Dict[tuple, Tuple[int, ...]] = {}
        # The decomposed oracle and how far into self.adversary and each
        # transcript it has read. Never persisted: a loaded state starts
        # it afresh and feeds it everything at the first verdict.
        self._knowledge = AdversaryKnowledge(topology)
        self._fed_captures = 0
        self._fed_transcripts: Dict[str, int] = {}
        # The world-changing events applied so far, each appended by its
        # own mutator; with the seed it determines everything above.
        self.history: List[dict] = []

    # -- owner actions ----------------------------------------------------

    def owner_store(self) -> dict:
        """Deal the secret and deliver every share over its link."""
        if self.dealt:
            raise ValueError("the secret is already dealt")
        chunks = encode_secret(self.secret, self.topology.modulus)
        self.chunk_count = len(chunks)
        dealt = deal(chunks, self.topology, self.rng)
        delivered = 0
        for net in self.topology.networks:
            classical = net.link is LinkKind.CLASSICAL
            for share in dealt[net.id]:
                node = self.nodes[(net.id, share.node_index)]
                node.store = share
                node.stale = False
                delivered += 1
                if classical:
                    self.transcripts[net.id].append({
                        "kind": "share", "node": share.node_index,
                        "epoch": 0,
                        "values": list(share.values)})
                if node.compromised:
                    self._leak_store(node)
        self.epoch = 0
        self.dealt = True
        self.history.append({"event": "deal"})
        return {"delivered": delivered, "chunks": self.chunk_count}

    def owner_refresh(self) -> dict:
        """One proactive refresh round; dead nodes miss it and go stale."""
        if not self.dealt:
            raise Infeasible("nothing dealt yet")
        deltas = refresh(self.topology, self.chunk_count, self.epoch,
                         self.rng)
        round_no = self.epoch + 1
        applied, stale = 0, []
        for net in self.topology.networks:
            classical = net.link is LinkKind.CLASSICAL
            for d in deltas[net.id]:
                if classical:
                    self.transcripts[net.id].append({
                        "kind": "delta", "node": d.node_index,
                        "round": round_no,
                        "values": list(d.values)})
                node = self.nodes[(net.id, d.node_index)]
                if not node.alive:
                    node.stale = True
                    stale.append(f"{net.id}/{d.node_index}")
                    continue
                if node.store is not None and node.store.epoch == self.epoch:
                    node.store = apply_node_refresh(
                        node.store, d, self.topology.modulus)
                    applied += 1
                    if node.compromised:
                        self._leak_store(node)
        self.epoch = round_no
        self.history.append({"event": "refresh"})
        return {"applied": applied, "stale": sorted(stale),
                "epoch": self.epoch}

    def owner_reconstruct(self, selection: Optional[List[Tuple[str, int]]]
                          = None) -> bytes:
        """Decode from every live current-epoch node, or from those of
        them in `selection`."""
        if not self.dealt:
            raise Infeasible("nothing dealt yet")
        usable: Dict[str, List[NodeShare]] = {}
        for node in self.nodes.values():
            if (node.alive and not node.stale and node.store is not None
                    and node.store.epoch == self.epoch):
                usable.setdefault(node.network_id, []).append(node.store)
        if selection is not None:
            wanted = set(map(tuple, selection))
            usable = {nid: [s for s in lst
                            if (nid, s.node_index) in wanted]
                      for nid, lst in usable.items()}
        by_network = formats.shares_by_network(
            [s for lst in usable.values() for s in lst])
        # Looked up at call time, so that a wrapper installed on the
        # protocol module (the perfbench tracer) sees this call.
        chunks = protocol.reconstruct(by_network, self.topology)
        return decode_secret(chunks, self.topology.modulus)

    # -- adversary bookkeeping --------------------------------------------

    def _leak_store(self, node: SimNode) -> None:
        share = node.store
        key = ("share", node.network_id, node.node_index, share.epoch)
        self.adversary[key] = share.values

    def _compromise(self, node: SimNode) -> None:
        node.compromised = True
        if node.store is not None:
            self._leak_store(node)

    def compromise_node(self, network_id: str, node_index: int) -> None:
        self._compromise(self.nodes[(network_id, node_index)])
        self.history.append({"event": "compromise_node",
                             "network": network_id, "node": node_index})

    def compromise_network(self, network_id: str) -> None:
        for j in range(1, self.topology.spec(network_id).node_count + 1):
            self._compromise(self.nodes[(network_id, j)])
        self.history.append({"event": "compromise_network",
                             "network": network_id})

    def release_node(self, network_id: str, node_index: int) -> None:
        """End a compromise: later writes stay private, earlier captures
        stay with the adversary."""
        self.nodes[(network_id, node_index)].compromised = False
        self.history.append({"event": "release_node",
                             "network": network_id, "node": node_index})

    def fail_node(self, network_id: str, node_index: int) -> None:
        self.nodes[(network_id, node_index)].alive = False
        self.history.append({"event": "fail_node",
                             "network": network_id, "node": node_index})

    def decrypt_classical(self) -> None:
        """Harvest-now-decrypt-later: every classical transcript, past and
        future, becomes adversary-readable."""
        self.hndl = True
        self.history.append({"event": "hndl_decrypt_classical"})

    def adversary_rows(self) -> List[Tuple[tuple, List[int], Tuple[int, ...]]]:
        """(key, functional row, captured values) for everything the
        adversary holds; transcripts count only after the HNDL switch.
        The dense view that the decomposed verdict is checked against."""
        space = FunctionalSpace(self.topology, rounds=self.epoch)
        out = []
        for key in sorted(self.adversary):
            kind, nid, idx, e = key
            out.append((key, space.share_row(nid, idx, e),
                        self.adversary[key]))
        if self.hndl:
            for nid in sorted(self.transcripts):
                for entry in self.transcripts[nid]:
                    if entry["kind"] == "share":
                        key = ("share", nid, entry["node"], entry["epoch"])
                        row = space.share_row(nid, entry["node"],
                                              entry["epoch"])
                    else:
                        key = ("delta", nid, entry["node"], entry["round"])
                        row = space.delta_row(nid, entry["node"],
                                              entry["round"])
                    out.append((key, row, tuple(entry["values"])))
        return out

    def _adversary_knowledge(self) -> AdversaryKnowledge:
        """The decomposed oracle, fed every capture it has not seen yet."""
        know = self._knowledge
        for key, values in itertools.islice(self.adversary.items(),
                                            self._fed_captures, None):
            know.add(*key, values)
        self._fed_captures = len(self.adversary)
        if self.hndl:
            for nid, entries in self.transcripts.items():
                for entry in entries[self._fed_transcripts.get(nid, 0):]:
                    kind = entry["kind"]
                    know.add(kind, nid, entry["node"],
                             entry["epoch" if kind == "share" else "round"],
                             entry["values"])
                self._fed_transcripts[nid] = len(entries)
        return know

    def adversary_verdict(self) -> Tuple[Access, Optional[bytes]]:
        """Exact verdict; on Reconstructs, also the recovered plaintext."""
        if not self.dealt:
            return Access.NO_INFORMATION, None
        chunks = self._adversary_knowledge().recover()
        if chunks is None:
            return Access.NO_INFORMATION, None
        return Access.RECONSTRUCTS, decode_secret(chunks,
                                                  self.topology.modulus)

    # -- events -----------------------------------------------------------

    def apply(self, ev: dict) -> dict:
        """Apply one scenario event and return its report outcome."""
        kind = ev["event"]
        try:
            if kind == "deal":
                return self.owner_store()
            if kind == "refresh":
                return self.owner_refresh()
            if kind == "compromise_network":
                self.compromise_network(ev["network"])
                return {"compromised": ev["network"]}
            if kind == "compromise_node":
                self.compromise_node(ev["network"], ev["node"])
                return {"compromised": f"{ev['network']}/{ev['node']}"}
            if kind == "release_node":
                self.release_node(ev["network"], ev["node"])
                return {"released": f"{ev['network']}/{ev['node']}"}
            if kind == "fail_node":
                self.fail_node(ev["network"], ev["node"])
                return {"failed": f"{ev['network']}/{ev['node']}"}
            if kind == "hndl_decrypt_classical":
                self.decrypt_classical()
                return {"hndl": True}
            if kind == "attempt_reconstruct":
                if ev.get("actor", "owner") == "owner":
                    try:
                        data = self.owner_reconstruct()
                        return {"actor": "owner", "result": "ok",
                                "matches": data == self.secret}
                    except Infeasible as exc:
                        return {"actor": "owner", "result": "infeasible",
                                "missing": str(exc)}
                verdict, data = self.adversary_verdict()
                return {"actor": "adversary", "verdict": verdict.value,
                        "matches": (None if data is None
                                    else data == self.secret)}
        except KeyError as exc:
            raise ValueError(f"malformed event {ev!r}: {exc}") from exc
        raise ValueError(f"unknown event {kind!r}")

    # -- persistence: a replay log ---------------------------------------

    def to_state(self) -> dict:
        """The world as the seed and the events that built it; no share,
        delta or captured value is stored."""
        return {
            "version": STATE_VERSION,
            "topology": topology_to_dict(self.topology),
            "secret": self.secret.hex(),
            "seed": self.seed,
            "history": list(self.history),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Simulation":
        """Rebuild the world by replaying its history from the seed.

        The log is checked as a scenario is, and any failure to replay it
        is a StateError. So is a log that saving the rebuilt world would
        not write back unchanged: extra fields, or a second spelling of
        the same value."""
        try:
            version = formats._json_int(state, "version")
            if version != STATE_VERSION:
                raise StateError(f"unsupported version {version!r}")
            log = Scenario.from_dict({"topology": state["topology"],
                                      "secret_hex": state["secret"],
                                      "schedule": state["history"]})
            sim = cls(log.topology, log.secret,
                      formats._json_int(state, "seed"))
            for ev in log.schedule:
                sim.apply(ev)
        except (KeyError, TypeError, ValueError, CorruptData,
                Infeasible) as exc:
            raise StateError(f"corrupt state: {exc}") from exc
        if sim.to_state() != state:
            raise StateError("corrupt state: not as save_state writes it")
        return sim

    def save_state(self, path) -> None:
        payload = canonical_json(self.to_state())
        with open(path, "wb") as fh:
            fh.write(STATE_MAGIC + struct.pack(">Q", len(payload)) + payload)


def load_state(path) -> Simulation:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != STATE_MAGIC:
        raise StateError("bad magic; not a simulation state file")
    if len(blob) < 12:
        raise StateError("truncated state file")
    (length,) = struct.unpack(">Q", blob[4:12])
    payload = blob[12:]
    if len(payload) != length:
        raise StateError(
            f"payload length {len(payload)} does not match header {length}")
    try:
        state = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise StateError(f"undecodable state payload: {exc}") from exc
    return Simulation.from_state(state)


# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario, seed: int = 0,
                 sim: Optional[Simulation] = None) -> dict:
    """Apply the schedule and report per-event outcomes plus final
    adversary and availability verdicts. Deterministic per (scenario, seed).
    """
    if sim is None:
        sim = Simulation(scenario.topology, scenario.secret, seed)
    events_out = [{"event": ev["event"], "outcome": sim.apply(ev)}
                  for ev in scenario.schedule]
    verdict, recovered = sim.adversary_verdict()
    try:
        owner = sim.owner_reconstruct() == sim.secret if sim.dealt else False
        owner_detail = "ok" if owner else "mismatch"
    except Infeasible as exc:
        owner, owner_detail = False, str(exc)
    return {
        "seed": seed,
        "epoch": sim.epoch,
        "events": events_out,
        "adversary_verdict": verdict.value,
        "adversary_recovered_secret": (None if recovered is None
                                       else recovered == sim.secret),
        "owner_available": owner,
        "owner_detail": owner_detail,
    }
