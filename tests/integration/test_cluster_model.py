"""Stateful model testing: the cluster against a plain-dict oracle.

Hypothesis drives random operation sequences — writes, overwrites,
deletes, device adds/removes, failures and repairs, outages and restores
— against a cluster and a trivial in-memory model: mirrored at k = 2
for every registry strategy, and under RDP(5) at k = 6 for every entry
that takes k.  After every step the cluster must agree with the model on
readable content, and its structural invariants must hold.  Under RDP a
share stored at the wrong copy position fails the read-back, so every
mover is checked for position identity, not only for redundancy.  This
is the kind of interleaving coverage unit tests miss.
"""

import hypothesis.strategies as st
import pytest
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)
from hypothesis import settings

from repro.cluster import Cluster
from repro.erasure import RowDiagonalParityCode
from repro.exceptions import BlockNotFoundError
from repro.placement import registry
from repro.types import BinSpec, bins_from_capacities

ADDRESSES = st.integers(min_value=0, max_value=39)
PAYLOADS = st.binary(min_size=1, max_size=24)
#: The fleet is the first ``copies + 2`` of these.
CAPACITIES = [800, 700, 600, 500, 400, 300, 200, 100]


class ClusterMachine(RuleBasedStateMachine):
    """Random walks over the cluster's public API."""

    #: Registry name of the strategy the cluster places with.
    strategy = "redundant-share"
    #: Erasure code of the payloads; None mirrors at k = 2.
    code = None

    def __init__(self):
        super().__init__()
        self.copies = self.code.total_shares if self.code else 2
        self.cluster = Cluster(
            bins_from_capacities(CAPACITIES[: self.copies + 2]),
            lambda bins: registry.create(self.strategy, bins, copies=self.copies),
            code=self.code,
        )
        self.tolerance = self.cluster.code.tolerance
        self.model = {}
        self.device_serial = 0
        self.failed = set()
        self.offline = set()

    # ------------------------------------------------------------------
    # Data-path rules
    # ------------------------------------------------------------------

    @rule(address=ADDRESSES, payload=PAYLOADS)
    def write(self, address, payload):
        self.cluster.write(address, payload)
        self.model[address] = payload

    @precondition(lambda self: bool(self.model))
    @rule(pick=st.integers(min_value=0, max_value=10**6), payload=PAYLOADS)
    def overwrite(self, pick, payload):
        # A block that exists: what a device misses during an outage.
        self.write(sorted(self.model)[pick % len(self.model)], payload)

    @rule(address=ADDRESSES)
    def delete(self, address):
        if address in self.model:
            self.cluster.delete(address)
            del self.model[address]
        else:
            try:
                self.cluster.delete(address)
                raise AssertionError("delete of unknown block must fail")
            except BlockNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Reconfiguration rules
    # ------------------------------------------------------------------

    @precondition(lambda self: len(self.cluster.device_ids()) < self.copies + 6)
    @rule()
    def add_device(self):
        self.device_serial += 1
        self.cluster.add_device(
            BinSpec(f"grown-{self.device_serial}", 900)
        )

    def serving(self):
        return [
            device_id
            for device_id in self.cluster.device_ids()
            if device_id not in self.failed | self.offline
        ]

    @precondition(lambda self: len(self.serving()) > self.copies + 1)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def remove_device(self, pick):
        # Only remove active devices (draining a failed device would need
        # rebuild-on-remove, which the API models as repair-then-remove).
        candidates = self.serving()
        victim = candidates[pick % len(candidates)]
        self.cluster.remove_device(victim)

    # Keep at most ``tolerance`` devices not serving: the code survives
    # exactly that many lost shares per block.
    @precondition(lambda self: len(self.failed | self.offline) < self.tolerance)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def fail_one_device(self, pick):
        candidates = self.serving()
        victim = candidates[pick % len(candidates)]
        self.cluster.fail_device(victim)
        self.failed.add(victim)

    @precondition(lambda self: len(self.failed | self.offline) < self.tolerance)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def outage(self, pick):
        candidates = self.serving()
        victim = candidates[pick % len(candidates)]
        self.cluster.device(victim).mark_offline()
        self.offline.add(victim)

    @precondition(lambda self: bool(self.offline))
    @rule()
    def restore(self):
        # The outage ends: contents are intact, and whatever the device
        # missed meanwhile (writes, moves, deletes) is reconciled.
        victim = self.offline.pop()
        kept = self.cluster.device(victim).used
        rebuilt = self.cluster.repair_device(victim)
        assert rebuilt <= len(self.cluster.shares_on(victim))
        assert self.cluster.device(victim).used <= kept + rebuilt

    @precondition(lambda self: bool(self.failed))
    @rule()
    def repair_failed_device(self):
        victim = sorted(self.failed)[0]
        self.cluster.repair_device(victim)
        self.failed.discard(victim)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def every_model_block_reads_back(self):
        for address, payload in self.model.items():
            assert self.cluster.read(address) == payload

    @invariant()
    def block_counts_agree(self):
        assert self.cluster.block_count == len(self.model)

    @invariant()
    def redundancy_and_map_consistency(self):
        # verify() only checks share presence on *serving* devices, so it
        # holds even while one device is failed or offline.
        self.cluster.verify()


def run_machine(name, max_examples, code=None):
    machine = type(
        f"ClusterMachine[{name}]",
        (ClusterMachine,),
        {"strategy": name, "code": code},
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=30,
            deadline=None,
        ),
    )


@pytest.mark.parametrize("name", registry.strategy_names())
def test_cluster_model(name):
    run_machine(name, max_examples=25)


@pytest.mark.parametrize(
    "name",
    [
        entry.name
        for entry in registry.registered_strategies()
        if entry.fixed_copies is None
    ],
)
def test_cluster_model_under_rdp(name):
    run_machine(name, max_examples=12, code=RowDiagonalParityCode(5))
