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

import json
import re
import struct
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import formats, protocol, vault
from .errors import CorruptData, Infeasible, StateError
from .field import deterministic_rng
from .formats import canonical_json, topology_from_dict, topology_to_dict
from .protocol import (Access, AdversaryKnowledge, NodeShare, Topology,
                       apply_node_refresh, deal, decode_secret,
                       encode_secret, refresh)

STATE_MAGIC = b"MSS1"
STATE_VERSION = 2

# A scenario's secret_hex: lowercase hex, two digits a byte (bytes.fromhex
# alone would also take spaces, a newline and upper case).
_SECRET_HEX = re.compile("(?:[0-9a-f]{2})*")

# Each event kind: the Simulation method that applies it and returns its
# report outcome, and the fields the event takes besides "event", passed
# to the method in this order. Only "actor" may be left out.
EVENTS = {
    "deal": ("owner_store", ()),
    "refresh": ("owner_refresh", ()),
    "compromise_network": ("compromise_network", ("network",)),
    "compromise_node": ("compromise_node", ("network", "node")),
    "release_node": ("release_node", ("network", "node")),
    "fail_node": ("fail_node", ("network", "node")),
    "hndl_decrypt_classical": ("decrypt_classical", ()),
    "attempt_reconstruct": ("attempt", ("actor",)),
}


class SimNode:
    """One node of the simulated world: its store, if any, and whether it
    is alive and compromised."""
    __slots__ = ("network_id", "node_index", "store", "alive", "compromised")

    def __init__(self, network_id: str, node_index: int):
        self.network_id = network_id
        self.node_index = node_index
        self.store: Optional[NodeShare] = None
        self.alive = True
        self.compromised = False


class Scenario(NamedTuple):
    topology: Topology
    secret: bytes
    schedule: Tuple[dict, ...]

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            topology = topology_from_dict(data["topology"])
            protocol.chunk_size(topology.modulus)  # ValueError below 2^16
            secret_hex = data["secret_hex"]
            if not (isinstance(secret_hex, str)
                    and _SECRET_HEX.fullmatch(secret_hex)):
                raise ValueError("secret_hex must be lowercase hex of even "
                                 "length")
            secret = bytes.fromhex(secret_hex)
            schedule = tuple(data["schedule"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed scenario: {exc}") from exc
        for ev in schedule:
            if not (isinstance(ev, dict) and isinstance(ev.get("event"), str)
                    and ev["event"] in EVENTS):
                raise ValueError(f"unknown event {ev!r}")
        check_deal_order(schedule)
        check_fields(schedule, topology)
        return cls(topology=topology, secret=secret, schedule=schedule)


def check_deal_order(schedule, dealt: Optional[bool] = None) -> None:
    """ValueError unless the secret is dealt at most once and before any
    refresh: by a `deal` event ahead of the first `refresh`, or by none
    when the state is `dealt` already. With `dealt` None (no state known
    yet), only a second `deal` in the schedule is rejected. The protocol
    deals once and then refreshes; a second dealing would mix two sets of
    shares in the adversary's view."""
    kinds = [ev["event"] for ev in schedule]
    if kinds.count("deal") + bool(dealt) > 1:
        raise ValueError("the secret is dealt once and then refreshed; "
                         "this schedule deals it again")
    if (dealt is False and "refresh" in kinds
            and ("deal" not in kinds
                 or kinds.index("refresh") < kinds.index("deal"))):
        raise ValueError("this schedule refreshes before the secret is "
                         "dealt")


def check_fields(schedule, topology: Topology) -> None:
    """ValueError unless every event has only the fields its kind takes
    (EVENTS), every network and node it names exist, and its actor, if
    given, is owner or adversary."""
    for ev in schedule:
        fields = EVENTS[ev["event"]][1]
        stray = sorted(set(ev) - {"event", *fields})
        if stray:
            raise ValueError(f"event {ev!r} takes no field {stray[0]!r}")
        if ev.get("actor", "owner") not in ("owner", "adversary"):
            raise ValueError(f"event {ev!r}: the actor is owner or "
                             f"adversary")
        if "network" not in fields:
            continue
        try:
            net = topology.spec(ev["network"])
            if ("node" in fields and not
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
        # A capture is a tuple in the argument order of
        # AdversaryKnowledge.add: ("share", network, node, epoch, values)
        # or ("delta", network, node, round, values). The transcript holds
        # every payload sent over a classical link; ITS links record
        # nothing. The captures are what the adversary holds, in the order
        # it came by them, each fed to the knowledge as it arrives. None
        # of this is persisted: a loaded state rebuilds it by its replay.
        self.transcript: List[tuple] = []
        self.captures: List[tuple] = []
        self._knowledge = AdversaryKnowledge(topology)
        # The world-changing events applied so far, each recorded by its
        # own mutator (_record); with the seed it determines everything
        # above.
        self.history: List[dict] = []

    def _record(self, kind: str, *args) -> None:
        """Append an event of `kind` to the history, `args` its fields in
        the order EVENTS names them."""
        fields = EVENTS[kind][1]
        self.history.append({"event": kind, **dict(zip(fields, args))})

    # -- owner actions ----------------------------------------------------

    def owner_store(self) -> dict:
        """Deal the secret and deliver every share over its link."""
        if self.dealt:
            raise ValueError("the secret is already dealt")
        chunks = encode_secret(self.secret, self.topology.modulus)
        self.chunk_count = len(chunks)
        dealt = deal(chunks, self.topology, self.rng)
        delivered = 0
        # Topology gives the mother the ITS link and each daughter a
        # classical one.
        mother = self.topology.mother.id
        for net in self.topology.networks:
            classical = net.id != mother
            for share in dealt[net.id]:
                node = self.nodes[(net.id, share.node_index)]
                node.store = share
                delivered += 1
                if classical:
                    self._send(("share", net.id, share.node_index, 0,
                                share.values))
                if node.compromised:
                    self._leak_store(node)
        self.epoch = 0
        self.dealt = True
        self._record("deal")
        return {"delivered": delivered, "chunks": self.chunk_count}

    def owner_refresh(self) -> dict:
        """One proactive refresh round; dead nodes miss it and go stale."""
        if not self.dealt:
            raise Infeasible("nothing dealt yet")
        deltas = refresh(self.topology, self.chunk_count, self.epoch,
                         self.rng)
        round_no = self.epoch + 1
        applied, stale = 0, []
        mother = self.topology.mother.id
        for net in self.topology.networks:
            classical = net.id != mother
            for j in range(1, net.node_count + 1):
                if classical:
                    self._send(("delta", net.id, j, round_no,
                                deltas[net.id].delta(j)))
                node = self.nodes[(net.id, j)]
                if not node.alive:
                    stale.append(f"{net.id}/{j}")
                    continue
                if node.store is not None and node.store.epoch == self.epoch:
                    node.store = apply_node_refresh(node.store,
                                                    deltas[net.id])
                    applied += 1
                    if node.compromised:
                        self._leak_store(node)
        self.epoch = round_no
        self._record("refresh")
        return {"applied": applied, "stale": sorted(stale),
                "epoch": self.epoch}

    def owner_reconstruct(self) -> bytes:
        """Decode from every live current-epoch node."""
        if not self.dealt:
            raise Infeasible("nothing dealt yet")
        usable = [node.store for node in self.nodes.values()
                  if node.alive and node.store is not None
                  and node.store.epoch == self.epoch]
        # Looked up at call time, so that a wrapper installed on the
        # protocol module (the perfbench tracer) sees this call.
        chunks = protocol.reconstruct(usable, self.topology)
        return decode_secret(chunks, self.topology.modulus)

    # -- adversary bookkeeping --------------------------------------------

    def _capture(self, capture: tuple) -> None:
        self.captures.append(capture)
        self._knowledge.add(*capture)

    def _send(self, capture: tuple) -> None:
        """A payload on a classical link: recorded, and captured at once
        after the HNDL switch."""
        self.transcript.append(capture)
        if self.hndl:
            self._capture(capture)

    def _leak_store(self, node: SimNode) -> None:
        share = node.store
        self._capture(("share", node.network_id, node.node_index,
                       share.epoch, share.values))

    def _compromise(self, node: SimNode) -> None:
        node.compromised = True
        if node.store is not None:
            self._leak_store(node)

    def compromise_node(self, network_id: str, node_index: int) -> dict:
        self._compromise(self.nodes[(network_id, node_index)])
        self._record("compromise_node", network_id, node_index)
        return {"compromised": f"{network_id}/{node_index}"}

    def compromise_network(self, network_id: str) -> dict:
        for j in range(1, self.topology.spec(network_id).node_count + 1):
            self._compromise(self.nodes[(network_id, j)])
        self._record("compromise_network", network_id)
        return {"compromised": network_id}

    def release_node(self, network_id: str, node_index: int) -> dict:
        """End a compromise: later writes stay private, earlier captures
        stay with the adversary."""
        self.nodes[(network_id, node_index)].compromised = False
        self._record("release_node", network_id, node_index)
        return {"released": f"{network_id}/{node_index}"}

    def fail_node(self, network_id: str, node_index: int) -> dict:
        self.nodes[(network_id, node_index)].alive = False
        self._record("fail_node", network_id, node_index)
        return {"failed": f"{network_id}/{node_index}"}

    def decrypt_classical(self) -> dict:
        """Harvest-now-decrypt-later: every classical payload, past and
        future, becomes adversary-readable."""
        if not self.hndl:
            self.hndl = True
            for capture in self.transcript:
                self._capture(capture)
        self._record("hndl_decrypt_classical")
        return {"hndl": True}

    def adversary_rows(self) -> List[tuple]:
        """The captures: everything the adversary holds, in the order it
        came by them. The tests build the dense reference's rows from
        them; the benchmark tracer wraps this method by name."""
        return self.captures

    def adversary_verdict(self) -> Tuple[Access, Optional[bytes]]:
        """Exact verdict; on Reconstructs, also the recovered plaintext."""
        if not self.dealt:
            return Access.NO_INFORMATION, None
        chunks = self._knowledge.recover()
        if chunks is None:
            return Access.NO_INFORMATION, None
        return Access.RECONSTRUCTS, decode_secret(chunks,
                                                  self.topology.modulus)

    # -- events -----------------------------------------------------------

    def attempt(self, actor: str = "owner") -> dict:
        """The outcome of an attempt_reconstruct event: the owner's
        reconstruction from its live nodes, or the adversary's exact
        verdict on what it holds."""
        if actor == "owner":
            try:
                return {"actor": "owner", "result": "ok",
                        "matches": self.owner_reconstruct() == self.secret}
            except Infeasible as exc:
                return {"actor": "owner", "result": "infeasible",
                        "missing": str(exc)}
        verdict, data = self.adversary_verdict()
        return {"actor": "adversary", "verdict": verdict.value,
                "matches": None if data is None else data == self.secret}

    def apply(self, ev: dict) -> dict:
        """Apply one scenario event, checked as Scenario.from_dict does,
        and return its report outcome."""
        method, fields = EVENTS[ev["event"]]
        return getattr(self, method)(*(ev[f] for f in fields if f in ev))

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

        The log is checked as a scenario run on a world not yet dealt is,
        a refresh before the deal included, before any event is replayed,
        and any failure to replay it is a StateError. So is a log that
        saving the rebuilt world would not write back unchanged: extra
        fields, or a second spelling of the same value."""
        try:
            version = formats._json_int(state, "version")
            if version != STATE_VERSION:
                raise StateError(f"unsupported version {version!r}")
            log = Scenario.from_dict({"topology": state["topology"],
                                      "secret_hex": state["secret"],
                                      "schedule": state["history"]})
            check_deal_order(log.schedule, False)
            sim = cls(log.topology, log.secret,
                      formats._json_int(state, "seed"))
            for ev in log.schedule:
                sim.apply(ev)
        except (KeyError, TypeError, ValueError, CorruptData) as exc:
            raise StateError(f"corrupt state: {exc}") from exc
        if sim.to_state() != state:
            raise StateError("corrupt state: not as save_state writes it")
        return sim

    def save_state(self, path) -> None:
        """Write the state file durably (vault.appending); a failed write
        raises StorageError and leaves an earlier state file as it was."""
        payload = canonical_json(self.to_state())
        with vault.appending(Path(path)) as append:
            append(STATE_MAGIC + struct.pack(">Q", len(payload)) + payload)


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
    `seed` makes the world when no `sim` is given; the report gives the
    seed of the world it ran in.
    """
    if sim is None:
        sim = Simulation(scenario.topology, scenario.secret, seed)
    events_out = [{"event": ev["event"], "outcome": sim.apply(ev)}
                  for ev in scenario.schedule]
    adversary, owner = sim.attempt("adversary"), sim.attempt("owner")
    available = owner.get("matches", False)
    return {
        "seed": sim.seed,
        "epoch": sim.epoch,
        "events": events_out,
        "adversary_verdict": adversary["verdict"],
        "adversary_recovered_secret": adversary["matches"],
        "owner_available": available,
        "owner_detail": owner.get("missing",
                                  "ok" if available else "mismatch"),
    }
